"""Benchmark for treelogic's three hot paths.

    python3 perfbench/run.py --workload soundness|decide|pipeline \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Set-up (importing the package in a fresh interpreter plus generating the
inputs from the seed) is timed five times before the measured window and
five times after it, and the median of the scaled times (see below) is
reported.  The window runs whole
passes over the workload's operations until another pass would not fit in
``--seconds``; every output is checked, outside the timed region, as it
is produced.

The host's speed drifts, so a probe (``hostspeed.py``) samples it every
few milliseconds through the window.  Each operation's time is scaled to
a reference host speed by the probe's median around that operation, and
its figure is the median of its scaled times over the passes.  The
end-to-end metrics come from these figures; the same numbers without the
scaling are in the run record under ``raw``.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and the line
reports per-layer metrics (see README.md).  The line before it is the run
record.  Records and span files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5         # before the window, and again after it

# generic end-to-end names -> the workload's own name for the same number
NAMES = {
    "soundness": {"adj_work_per_s": "checks_per_s", "adj_op_p50_s": "suite_p50_s",
                  "adj_op_p90_s": "suite_p90_s", "decided_share": "decided_share"},
    "decide": {"adj_work_per_s": "queries_per_s", "adj_op_p50_s": "verdict_p50_s",
               "adj_op_p90_s": "verdict_p90_s", "decided_share": "decided_share"},
    "pipeline": {"adj_work_per_s": "ops_per_s", "adj_op_p50_s": "op_p50_s",
                 "adj_op_p90_s": "op_p90_s", "decided_share": "decided_share"},
}
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "adj_work_per_s": "1/s",
         "adj_op_p50_s": "s", "adj_op_p90_s": "s", "decided_share": "share"}

LAYER_SPANS = {
    "model.mask_s": "model.mask", "model.ref_s": "model.ref",
    "model.io_s": "model.io", "decide.enumerate_s": "decide.enumerate",
    "decide.search_s": "decide.search", "formula.parse_s": "formula.parse",
    "formula.instantiate_s": "formula.instantiate",
    "formula.render_s": "formula.render", "proofs.suite_self_s": "proofs.suite",
    "partition.stable_s": "partition.stable",
    "partition.filtrate_s": "partition.filtrate",
    "partition.quotient_s": "partition.quotient",
    "kripke.induced_frame_s": "kripke.induced_frame",
    "kripke.check_frame_s": "kripke.check_frame",
    "kripke.unfold_s": "kripke.unfold", "cli.main_s": "cli.main",
}

# counts fixed by the workload's inputs (a change in them is a wrong
# answer or a different corpus, not a gain): in the record, not the metrics
FIXED_COUNTS = frozenset({
    "proofs.instances", "proofs.models_checked", "proofs.violations",
    "formula.parse_calls", "formula.instantiate_calls",
    "partition.family_members", "partition.output_points",
    "kripke.frame_states", "cli.commands"})

IMPORT_PROBE = ("import time; t = time.perf_counter(); import treelogic; "
                "d = time.perf_counter() - t; print(treelogic.__file__); print(d)")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "treelogic", "__init__.py")):
        fail(f"no treelogic sources under {SRC}")
    sys.path.insert(0, SRC)
    import treelogic
    import treelogic.cli  # noqa: F401  (the tour calls treelogic.cli.main)
    if not os.path.abspath(treelogic.__file__).startswith(SRC + os.sep):
        fail(f"imported treelogic from {treelogic.__file__}, not from {SRC}")
    return treelogic


def child_import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    path, seconds = out.stdout.split()
    if not os.path.abspath(path).startswith(SRC + os.sep):
        fail(f"child imported treelogic from {path}")
    return float(seconds)


def run_pass(ops, tracer=None):
    """[(start, seconds, error, decided, units)] for one pass over ``ops``."""
    samples = []
    for op in ops:
        if tracer is not None:
            tracer.enter(spans.BENCH)
        start = time.perf_counter()
        try:
            out = op.run()
            err = None
        except Exception as exc:    # an exception is a failed operation
            err = f"{type(exc).__name__}: {exc}"[:300]
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.exit()
        decided, units = False, 0
        if err is None:
            err, decided, units = op.check(out)
        samples.append((start, seconds, err, decided, units))
    return samples


def figures(passes, speed=None):
    """[(seconds, units)]: each operation's median time over the passes.

    With ``speed`` (a ``hostspeed.Ticker``) every time is first scaled to
    the reference host speed by the probe's median around it."""
    out = []
    for per_op in zip(*passes):
        ok = [s for s in per_op if s[2] is None]
        if ok:
            out.append((statistics.median(
                s[1] * (hostspeed.REFERENCE_S / speed.around(s[0], s[0] + s[1])
                        if speed else 1.0) for s in ok), ok[0][4]))
    return out


def nearest_rank(sorted_values, pct):
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def end_to_end(passes, speed=None):
    best = figures(passes, speed)
    times = sorted(t for t, _ in best) or [0.0]
    flat = [s for p in passes for s in p]
    return {
        "adj_work_per_s": sum(u for _, u in best) / (sum(times) or 1.0),
        "adj_op_p50_s": nearest_rank(times, 50),
        "adj_op_p90_s": nearest_rank(times, 90),
        "decided_share": sum(s[3] for s in flat) / len(flat),
    }


def per_layer(tracer, traced_pass, traced, untraced, speed, tl):
    """Layer metrics from ``tracer``, which recorded ``traced_pass``."""
    metrics = {name: (tracer.self_time(span), "s")
               for name, span in LAYER_SPANS.items()}
    metrics.update((name, (n, "count")) for name, n in tracer.counts.items()
                   if name not in FIXED_COUNTS)
    metrics["formula.interned_nodes"] = (len(tl.Formula._interned), "count")
    ops_wall = sum(s[1] for s in traced_pass)
    layer_self = sum(a[2] for name, a in tracer.agg.items() if name != spans.BENCH)
    metrics["trace.ops_wall_s"] = (ops_wall, "s")
    metrics["trace.layer_self_s"] = (layer_self, "s")
    metrics["trace.unattributed_s"] = (ops_wall - layer_self, "s")
    # the first pass fills the program's caches, and no traced pass is first
    with_tracing = sum(t for t, _ in figures(traced, speed))
    without = sum(t for t, _ in figures(untraced[1:], speed))
    metrics["trace.overhead_share"] = (with_tracing / without - 1, "share")
    return metrics


def pass_seconds(passes):
    return [round(sum(s[1] for s in p), 4) for p in passes]


def time_setups(build, args, tl, workdir):
    """(ops, corpus, [(start, seconds)]): SETUP_REPEATS timed set-ups."""
    timed = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        imported = child_import_seconds()
        built = time.perf_counter()
        ops, corpus = build(args.seed, tl, workdir)
        timed.append((start, imported + time.perf_counter() - built))
    return ops, corpus, timed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tl = import_program()
    build = workloads.WORKLOADS[args.workload]

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        with hostspeed.Ticker() as speed:
            ops, corpus, setups = time_setups(build, args, tl, workdir)
            start = time.perf_counter()
            if args.trace:
                # untraced and traced passes alternate, starting and ending
                # untraced, so the overhead is not one host state against another
                untraced, traced, tracers = [run_pass(ops)], [], []
                while True:
                    pair_start = time.perf_counter()
                    tracer = spans.Tracer()
                    tracer.install()
                    try:
                        traced.append(run_pass(ops, tracer))
                    finally:
                        tracer.uninstall()
                    tracers.append(tracer)
                    untraced.append(run_pass(ops))
                    now = time.perf_counter()
                    if now - start + (now - pair_start) > args.seconds:
                        break
                passes = untraced + traced
            else:
                passes = []
                while True:
                    pass_start = time.perf_counter()
                    passes.append(run_pass(ops))
                    now = time.perf_counter()
                    if now - start + (now - pass_start) > args.seconds:
                        break
            window = time.perf_counter() - start
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setups += time_setups(build, args, tl, workdir)[2]
        probes = (workloads.deep_probes(tl, workdir)
                  if args.workload == "pipeline" else [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digest = hashlib.sha256(
        json.dumps(corpus, sort_keys=True).encode()).hexdigest()[:16]

    flat = [s for p in passes for s in p]
    failures = [(ops[i % len(ops)].label, s[2])
                for i, s in enumerate(flat) if s[2] is not None]
    timed = untraced if args.trace else passes
    e2e = end_to_end(timed, speed)
    setup_s = [t * hostspeed.REFERENCE_S / speed.around(t0, t0 + t) for t0, t in setups]
    metrics = {"setup_s": (statistics.median(setup_s), "s"),
               "peak_rss_mb": (peak_rss_mb, "MB")}
    metrics.update((k, (v, UNITS[k])) for k, v in e2e.items())
    named = {f"{args.workload}.{NAMES[args.workload][k]}": v
             for k, v in e2e.items()}
    counts = {}
    if args.trace:
        # the traced pass with the least operation time gives the layers
        k = min(range(len(traced)), key=lambda i: sum(s[1] for s in traced[i]))
        tracer = tracers[k]
        metrics = per_layer(tracer, traced[k], traced, untraced, speed, tl)
        counts = {n: c for n, c in tracer.counts.items() if n in FIXED_COUNTS}
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                    {"workload": args.workload, "seed": args.seed})

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "cores": os.cpu_count(), "jobs": 1,
        "input_digest": digest, "window_s": round(window, 3),
        "ops_per_pass": len(ops), "passes": len(passes),
        "samples": sum(1 for s in flat if s[2] is None),
        "pass_op_seconds": pass_seconds(timed),
        "traced_pass_op_seconds": pass_seconds(traced) if args.trace else [],
        "host_speed": speed.summary(),
        "raw": {k.replace("adj_", ""): v for k, v in end_to_end(timed).items()},
        "setup_samples_s": [round(t, 4) for _, t in setups],
        "named": named, "fixed_counts": counts, "probes": dict(probes),
        "failures": failures[:10],
    }
    with open(os.path.join(OUT, f"record-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": not failures,
        "attempted": len(flat),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
