"""Layer spans recorded from outside the program.

``Tracer.install`` replaces the public entry points of each ``treelogic``
module (and the few private ones they call into, see HOOKS) with wrappers
that open a span and update counters; ``uninstall`` puts the originals
back.  A span's self time is its duration minus the time of the spans it
directly contains.  Spans are kept in memory; ``dump`` writes them out.

The mask engine's ``truth`` is recursive.  For the length of an outer
call its wrapper moves the context into a subclass that holds the
original methods, so only calls made from outside the engine are spans
and the recursion runs at full speed.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (span, module, class or None, attribute).  A hook whose target no longer
# exists is listed under "missing_hooks" in the trace file.
HOOKS = [
    ("model.mask", "treelogic.model", "MaskContext", "truth"),
    ("model.mask", "treelogic.model", "MaskContext", "first_failure"),
    ("model.mask", "treelogic.model", "MaskContext", "is_valid"),
    ("model.mask", "treelogic.model", "MaskContext", "from_model"),
    ("model.mask", "treelogic.model", "MaskContext", "__init__"),
    ("model.ref", "treelogic.model", "Model", "satisfies"),
    ("model.ref", "treelogic.model", "Model", "truth_set"),
    ("model.ref", "treelogic.model", "Model", "truth_in"),
    ("model.ref", "treelogic.model", "Model", "is_valid"),
    ("model.io", "treelogic.model", None, "model_from_dict"),
    ("model.io", "treelogic.model", None, "model_to_dict"),
    ("model.io", "treelogic.model", None, "load_model"),
    ("model.io", "treelogic.model", None, "dump_model"),
    ("decide.enumerate", "treelogic.decide", None, "enumerate_spaces"),
    ("decide.search", "treelogic.decide", None, "satisfiable"),
    ("decide.search", "treelogic.decide", None, "valid"),
    ("formula.parse", "treelogic.formula", None, "parse"),
    ("formula.instantiate", "treelogic.formula", None, "instantiate"),
    ("formula.render", "treelogic.formula", None, "render"),
    ("proofs.suite", "treelogic.proofs", None, "soundness_suite"),
    ("partition.stable", "treelogic.partition", None, "build_stable_partitions"),
    ("partition.filtrate", "treelogic.partition", None, "filtrate"),
    ("partition.quotient", "treelogic.partition", None, "point_quotient"),
    ("partition.quotient", "treelogic.partition", None, "_quotient_parts"),
    ("kripke.induced_frame", "treelogic.kripke", None, "induced_frame"),
    ("kripke.check_frame", "treelogic.kripke", None, "check_frame"),
    ("kripke.unfold", "treelogic.kripke", None, "unfold"),
    ("cli.main", "treelogic.cli", None, "main"),
]

# spans too numerous to keep one by one; they are only aggregated
HOT = frozenset({"model.mask", "model.ref", "decide.enumerate"})
BENCH = "bench.op"

COUNTERS = [
    "model.mask_calls", "model.mask_contexts", "model.mask_evals",
    "model.ref_calls", "decide.models_enumerated", "decide.models_searched",
    "decide.neighborhoods_searched", "decide.inconclusive",
    "formula.parse_calls", "formula.instantiate_calls", "proofs.instances",
    "proofs.models_checked", "proofs.violations", "partition.family_members",
    "partition.output_points", "kripke.frame_states", "cli.commands",
]


class Tracer:
    def __init__(self):
        self.stack = []        # [name, start, child_time, record index]
        self.records = []      # (name, start, end, parent record index)
        self.agg = {}          # name -> [calls, total, self]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.patches = []      # (owner, attribute, original)
        self.missing = []
        self._plain = None

    # -- spans ---------------------------------------------------------

    def enter(self, name):
        idx = None
        if name not in HOT:
            parent = self.stack[-1][3] if self.stack else None
            idx = len(self.records)
            self.records.append([name, time.perf_counter(), None, parent])
        self.stack.append([name, time.perf_counter(), 0.0, idx])

    def exit(self):
        end = time.perf_counter()
        name, start, child, idx = self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][2] += dur
        if idx is not None:
            self.records[idx][2] = end
        a = self.agg.setdefault(name, [0, 0.0, 0.0])
        a[0] += 1
        a[1] += dur
        a[2] += dur - child

    def self_time(self, name) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[2]

    # -- hooks ---------------------------------------------------------

    def install(self):
        for span, modname, clsname, attr in HOOKS:
            module = importlib.import_module(modname)
            owner = getattr(module, clsname) if clsname else module
            raw = owner.__dict__.get(attr) if clsname else getattr(module, attr, None)
            if raw is None:
                self.missing.append(f"{modname}.{clsname + '.' if clsname else ''}{attr}")
                continue
            if clsname:
                self._patch_method(span, owner, attr, raw)
            else:
                self._patch_function(span, attr, raw)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    def _patch_function(self, span, attr, fn):
        wrapper = self._wrap(span, attr, fn)
        # rebind every module-level reference, so "from .x import f" copies
        # inside the package go through the wrapper too
        for modname, module in list(sys.modules.items()):
            if modname == "treelogic" or modname.startswith("treelogic."):
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self.patches.append((module, key, fn))
                        setattr(module, key, wrapper)

    def _patch_method(self, span, cls, attr, raw):
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._wrap(span, attr, raw.__func__))
        elif span == "model.mask" and attr != "__init__":
            wrapper = self._wrap_mask(cls, raw)
            setattr(self._plain, attr, raw)
        else:
            wrapper = self._wrap(span, attr, raw)
        self.patches.append((cls, attr, raw))
        setattr(cls, attr, wrapper)

    def _wrap(self, span, attr, fn):
        counts = self.counts
        tally = _TALLIES.get("model.ref_calls" if span == "model.ref" else attr)
        if attr == "enumerate_spaces":
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    self.enter(span)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.exit()
                    counts["decide.models_enumerated"] += 1
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            self.enter(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit()
            if tally is not None:
                tally(counts, out)
            return out
        return wrapper

    def _wrap_mask(self, cls, fn):
        counts = self.counts
        plain = self._plain_class(cls)

        def wrapper(ctx, *args):
            self.enter("model.mask")
            before = len(ctx.cache)
            ctx.__class__ = plain
            try:
                return fn(ctx, *args)
            finally:
                ctx.__class__ = cls
                self.exit()
                counts["model.mask_calls"] += 1
                counts["model.mask_evals"] += len(ctx.cache) - before
        return wrapper

    def _plain_class(self, cls):
        """A same-layout subclass holding the unwrapped engine methods.

        The wrappers move a context into it for the length of the outer
        call, so recursive calls skip the wrappers without the class
        itself changing on every call."""
        if self._plain is None:
            self._plain = type(cls.__name__, (cls,), {"__slots__": ()})
        return self._plain

    # -- output --------------------------------------------------------

    def dump(self, path, extra):
        data = {"spans": [{"name": n, "start": s, "end": e, "parent": p}
                          for n, s, e, p in self.records],
                "aggregate": {n: {"calls": c, "total_s": t, "self_s": s}
                              for n, (c, t, s) in sorted(self.agg.items())},
                "counts": self.counts, "missing_hooks": self.missing}
        data.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _count(key, amount=lambda out: 1):
    def tally(counts, out):
        counts[key] += amount(out)
    return tally


def _search_tally(counts, outcome):
    counts["decide.models_searched"] += outcome.stats.get("models", 0)
    counts["decide.neighborhoods_searched"] += outcome.stats.get("neighborhoods", 0)
    counts["decide.inconclusive"] += outcome.verdict == "unsat_within"


def _suite_tally(counts, report):
    counts["proofs.instances"] += report.instances
    counts["proofs.models_checked"] += report.models_checked
    counts["proofs.violations"] += len(report.violations)


_TALLIES = {
    "__init__": _count("model.mask_contexts"),
    "model.ref_calls": _count("model.ref_calls"),
    "satisfiable": _search_tally,
    "parse": _count("formula.parse_calls"),
    "instantiate": _count("formula.instantiate_calls"),
    "soundness_suite": _suite_tally,
    "build_stable_partitions": _count("partition.family_members",
                                      lambda table: len(table.members)),
    "_quotient_parts": _count("partition.output_points",
                              lambda out: len(out[0].space.points)),
    "induced_frame": _count("kripke.frame_states", lambda frame: len(frame.states)),
    "main": _count("cli.commands"),
}
