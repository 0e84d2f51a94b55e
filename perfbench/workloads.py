"""The three workloads: inputs from a seed, operations, and their checks.

Each workload turns ``--seed`` into inputs (formula texts, model files as
dicts, soundness configurations) and a list of operations.  An operation
calls the public API of ``treelogic`` and returns its output; its check
judges that output with the oracle in ``oracle.py`` or against a known
answer and returns ``(error or None, decided, work units)``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from oracle import (OFrame, OModel, atoms_of, bi_holds, find_model,
                    from_program, holds, render, substitute, truth_set)

LETTERS = "ABCDEFGHIJMNOPQRSTUVWXYZ"     # atom names; K and L are reserved
SHAPE_SEED = 7032         # formula shapes are fixed; atoms come from the seed
# the README quick tour reads its proof and frame from the test fixtures;
# their text is part of the pipeline corpus and so of its digest
FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tests", "fixtures")
TOUR_FIXTURES = ("proof_scheme10_from_scheme12.json", "frame_two_level.json")


class Op:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def A(name):
    return ("atom", name)


def random_formula(rng, atoms, depth):
    """Same shape distribution as the test-suite corpus generator."""
    if depth == 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.85:
            return A(rng.choice(atoms))
        return ("top",) if r < 0.93 else ("bot",)
    if rng.random() < 0.55:
        op = rng.choice(("not", "box", "K", "dia", "L"))
        return (op, random_formula(rng, atoms, depth - 1))
    op = rng.choice(("and", "or", "imp"))
    return (op, random_formula(rng, atoms, depth - 1),
            random_formula(rng, atoms, depth - 1))


# ---------------------------------------------------------------------------
# soundness: the exhaustive harness

C10_VIOLATIONS = 1264     # C10, two atoms, depth-1 pool, up to three points


def soundness(seed, tl, _workdir):
    a, b = sorted(random.Random(seed).sample(LETTERS, 2))
    configs = [
        # the unsound converse of scheme 10 keeps the violation and
        # witness path busy
        dict(max_points=3, schemes=("C10",), atoms=(a, b), depth=1,
             expect=(16, 1384, C10_VIOLATIONS)),
        # the criterion-01 scheme set with one atom; three points keep one
        # pass near two seconds, so each call is timed many times a run
        dict(max_points=3, schemes=tuple(range(1, 13)), atoms=(a,), depth=1,
             expect=(406, 188, 0)),
    ]
    ops = []
    for cfg in configs:
        expect = cfg.pop("expect")

        def run(cfg=cfg):
            return tl.soundness_suite(**cfg)

        def check(report, expect=expect):
            got = (report.instances, report.models_checked, len(report.violations))
            if got != expect:
                return f"instances, models, violations {got} != {expect}", True, 0
            for v in report.violations:
                om = OModel.of(v.model)
                u = dict(zip(v.model.space.names, v.model.space.opens))[v.open_name]
                if holds(om, v.point, u, from_program(v.instance)):
                    return f"violation {v!r} does not falsify the instance", True, 0
            return None, True, report.instances * report.models_checked

        ops.append(Op(f"soundness {cfg['schemes'][0]}..", run, check))
    return ops, [{k: list(v) if isinstance(v, tuple) else v for k, v in c.items()}
                 for c in configs]


# ---------------------------------------------------------------------------
# decide: bounded sat / valid

def _imp(p, q):
    return ("imp", p, q)


def _fixed_queries():
    a, b = A("A"), A("B")
    box, K, neg = (lambda f: ("box", f)), (lambda f: ("K", f)), (lambda f: ("not", f))
    return [
        # README examples
        ("sat", ("and", ("L", a), ("L", neg(a))), "sat"),
        ("sat", ("and", K(a), neg(a)), "unsat"),
        ("valid", _imp(a, K(a)), "invalid"),
        ("valid", ("or", box(_imp(box(a), b)), box(_imp(box(b), a))), "valid"),
        # S5 facts and scheme 10: valid, but the bound-driven search ends
        # inconclusive on them (scheme 12 is in the seeded sample)
        ("valid", _imp(K(a), K(K(a))), "valid"),
        ("valid", _imp(a, K(("L", a))), "valid"),
        ("valid", _imp(K(box(a)), box(K(a))), "valid"),
        # canonical exhaustion through the box-free fast path; the known
        # tail K[]A -> []A (16-24 s) is left out, see README.md
        ("valid", _imp(K(a), a), "valid"),
    ]


_p, _q = A("phi"), A("psi")
SCHEMES = {
    2: ("and", _imp(_p, ("box", _p)), _imp(("not", _p), ("box", ("not", _p)))),
    3: _imp(("box", _imp(_p, _q)), _imp(("box", _p), ("box", _q))),
    4: _imp(("box", _p), _p),
    5: _imp(("box", _p), ("box", ("box", _p))),
    6: _imp(("K", _imp(_p, _q)), _imp(("K", _p), ("K", _q))),
    8: _imp(("K", _p), ("K", ("K", _p))),
    9: _imp(_p, ("K", ("L", _p))),
    10: _imp(("K", ("box", _p)), ("box", ("K", _p))),
    11: ("or", ("box", _imp(("box", _p), _q)), ("box", _imp(("box", _q), _p))),
    12: _imp(("and", ("box", ("K", _p)), ("K", _imp(("box", _p), ("box", _q)))),
             ("box", ("K", _imp(("box", _p), ("box", _q))))),
    "C10": _imp(("box", ("K", _p)), ("K", ("box", _p))),
}

SCHEME_SAMPLE = 6         # instances of schemes 2-12 (7 is in the fixed part)
C10_SAMPLE = 2            # of the 7 C10 instances
RANDOM_QUERIES = 90       # half sat, half valid


def _pool(a):
    """The depth-1 pool over one atom, in the order of formula_pool."""
    x = A(a)
    return [x, ("not", x), ("box", x), ("K", x), ("dia", x), ("L", x),
            ("and", x, x)]


def _instances(sid, pool):
    body = SCHEMES[sid]
    if sid == 2:
        return [substitute(body, {"phi": x}) for x in pool if x[0] == "atom"]
    if "psi" in atoms_of(body):
        return [substitute(body, {"phi": x, "psi": y}) for x in pool for y in pool]
    return [substitute(body, {"phi": x}) for x in pool]


def decide_queries(seed):
    """(kind, formula, known answer or None) for one pass, in run order."""
    rng = random.Random(seed)
    a, r1, r2 = rng.sample(LETTERS, 3)
    pool = _pool(a)
    queries = _fixed_queries()
    # A fixed stride through the scheme instances, renamed to the seed's
    # atom: a seeded sample would move decided_share from seed to seed.
    schemes = [f for sid in (2, 3, 4, 5, 6, 8, 9, 10, 11, 12)
               for f in _instances(sid, pool)]
    step = len(schemes) / SCHEME_SAMPLE
    queries += [("valid", schemes[int(i * step)], "valid")
                for i in range(SCHEME_SAMPLE)]
    c10 = _instances("C10", pool)
    queries += [("valid", c10[i * len(c10) // C10_SAMPLE], None)
                for i in range(C10_SAMPLE)]
    # random depth-3 two-atom formulas whose answer shows on two points,
    # so each one costs the search path a witness, not an exhaustion.  The
    # shapes are fixed and the seed names their atoms, so that the cost of
    # the corpus (and p50, which falls among these) repeats from seed to seed
    shapes = random.Random(SHAPE_SEED)
    holes = {"_0": A(r1), "_1": A(r2)}
    want = {"sat": RANDOM_QUERIES // 2, "valid": RANDOM_QUERIES - RANDOM_QUERIES // 2}
    while want["sat"] or want["valid"]:
        f = random_formula(shapes, ["_0", "_1"], 3)
        kind = "sat" if want["sat"] >= want["valid"] else "valid"
        if find_model(f, 2, kind == "sat") is not None:
            queries.append((kind, substitute(f, holes),
                            "sat" if kind == "sat" else "invalid"))
            want[kind] -= 1
    rng.shuffle(queries)
    return queries


PROVED = {"sat", "unsat_proved", "valid", "countermodel"}


def _check_verdict(kind, f, known, verdict, witness):
    """Error message for a wrong answer, else None."""
    if verdict in ("sat", "countermodel"):
        model, x, u = witness
        om = OModel.of(model)
        if not om.is_treelike() or u not in om.opens or x not in u:
            return f"{verdict} witness is not a neighborhood of a treelike model"
        if holds(om, x, u, f) != (kind == "sat"):
            return f"{verdict} witness does not {'satisfy' if kind == 'sat' else 'falsify'}"
        if known in ("unsat", "valid"):
            return f"{verdict} for a formula known to be {known}"
    elif verdict in ("unsat_proved", "valid"):
        if known in ("sat", "invalid"):
            return f"{verdict} for a formula known to be {known}"
        if known is None and _oracle_model(f, kind == "sat") is not None:
            return f"{verdict}, but the oracle has a model over three points"
    return None


_FOUND = {}


def _oracle_model(f, want):
    """find_model over three points, once per formula and run."""
    if (f, want) not in _FOUND:
        _FOUND[f, want] = find_model(f, 3, want)
    return _FOUND[f, want]


def decide(seed, tl, _workdir):
    ops = []
    corpus = []
    for kind, f, known in decide_queries(seed):
        text = render(f)
        corpus.append([kind, text])

        def run(kind=kind, text=text):
            g = tl.parse(text)
            if kind == "sat":
                out = tl.satisfiable(g, use_bound=True)
                return out.verdict, out.witness
            out = tl.valid(g, use_bound=True)
            return out.verdict, out.countermodel

        def check(out, kind=kind, f=f, known=known):
            verdict, witness = out
            return (_check_verdict(kind, f, known, verdict, witness),
                    verdict in PROVED, 1)

        ops.append(Op(f"{kind} {text}", run, check))
    return ops, corpus


# ---------------------------------------------------------------------------
# pipeline: truth tables, small-model extraction, frames and unfolding

MODELS = [("stream", 6, 4), ("stream", 6, 3), ("stream", 6, 5),
          ("stream", 5, 3), ("stream", 5, 4), ("stream", 5, 5),
          ("qtree", 16, 3), ("qtree", 20, 4), ("qtree", 24, 5),
          ("qtree", 28, 3), ("qtree", 32, 4), ("qtree", 32, 5)]
FORMULAS_PER_MODEL = 8
SAMPLES = 3               # neighborhoods, opens or states checked per output


def _shapes():
    rng = random.Random(SHAPE_SEED)
    holes = [f"_{i}" for i in range(5)]
    out = []
    while len(out) < len(MODELS) * FORMULAS_PER_MODEL:
        f = random_formula(rng, holes, 4 + len(out) % 2)
        tags = repr(f)
        if len(tags) > 60 and ("'K'" in tags or "'L'" in tags) \
                and ("'box'" in tags or "'dia'" in tags):
            out.append(f)
    return out


def stream_model(rng, depth, atoms):
    points = [format(i, f"0{depth}b") for i in range(1 << depth)]
    opens = [{"name": "top", "members": points}]
    for plen in range(1, depth + 1):
        for i in range(1 << plen):
            prefix = format(i, f"0{plen}b")
            opens.append({"name": "c" + prefix,
                          "members": [p for p in points if p.startswith(prefix)]})
    val = {a: sorted(p for p in points if rng.random() < 0.5) for a in atoms}
    return {"points": points, "opens": opens, "valuation": val}


def question_model(rng, n, atoms):
    points = [f"w{i:02d}" for i in range(n)]
    val = {a: sorted(p for p in points if rng.random() < 0.5) for a in atoms}
    level = [frozenset(points)]
    cells = {frozenset(points)}
    for a in atoms:
        yes = frozenset(val[a])
        level = [c for prev in level for c in (prev & yes, prev - yes)]
        cells.update(level)
    cells = sorted(cells, key=lambda c: (-len(c), sorted(c)))
    opens = [{"name": "top" if i == 0 else f"U{i}", "members": sorted(c)}
             for i, c in enumerate(cells)]
    return {"points": points, "opens": opens, "valuation": val}


def pipeline_inputs(seed):
    rng = random.Random(seed)
    shapes = _shapes()
    models = []
    for i, (kind, size, k) in enumerate(MODELS):
        atoms = sorted(rng.sample(LETTERS, k))
        build = stream_model if kind == "stream" else question_model
        data = build(rng, size, atoms)
        holes = {f"_{j}": A(atoms[p % k])
                 for j, p in enumerate(rng.sample(range(5), 5))}
        formulas = [substitute(shapes[i * FORMULAS_PER_MODEL + j], holes)
                    for j in range(FORMULAS_PER_MODEL)]
        models.append((f"{kind}{size}", data, formulas))
    return models


def _om(data):
    return OModel(data["points"], [o["members"] for o in data["opens"]],
                  data["valuation"])


def pipeline(seed, tl, workdir):
    vrng = random.Random(seed + 1)
    ops = []
    corpus = []
    for name, data, formulas in pipeline_inputs(seed):
        model = tl.model_from_dict(data)
        om = _om(data)
        by_name = {o["name"]: frozenset(o["members"]) for o in data["opens"]}
        corpus.append([data, [render(f) for f in formulas]])
        for j, f in enumerate(formulas):
            text = render(f)

            def truth(model=model, text=text):
                g = tl.parse(text)
                return [model.truth_set(u, g) for u in model.space.opens]

            def check_truth(out, model=model, om=om, f=f):
                opens = model.space.opens
                if len(out) != len(opens):
                    return "one truth set per open expected", True, 0
                memo = {}
                for i in [0] + vrng.sample(range(len(opens)), SAMPLES - 1):
                    if out[i] != truth_set(om, opens[i], f, memo):
                        return f"truth set differs on open {sorted(opens[i])}", True, 0
                return None, True, 1

            def extract(model=model, text=text):
                return tl.extract_finite_model(model, tl.parse(text))

            def check_extract(ex, om=om, f=f, data=data):
                small = OModel.of(ex.model)
                if ex.report["output_points"] != len(small.points):
                    return "report and output disagree on the point count", True, 0
                for _ in range(SAMPLES):
                    o = vrng.choice(data["opens"])
                    if not o["members"]:
                        continue
                    v = frozenset(o["members"])
                    x = vrng.choice(o["members"])
                    x2, cls = ex.image(x, v)
                    if holds(om, x, v, f) != holds(small, x2, cls, f):
                        return f"extracted model disagrees at ({x}, {o['name']})", True, 0
                return None, True, 1

            ops.append(Op(f"truth {name} #{j}", truth, check_truth))
            ops.append(Op(f"extract {name} #{j}", extract, check_extract))
        ops += _kripke_ops(tl, name, model, om, by_name, formulas[0], vrng)
    ops += _cli_tour(tl, workdir)
    for name in TOUR_FIXTURES:
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            corpus.append([name, fh.read()])
    return ops, corpus


def _kripke_ops(tl, name, model, om, by_name, f, vrng):
    state = {}
    sids = sorted(f"{x}@{n}" for n, u in by_name.items() for x in u)

    def induced():
        state["frame"] = tl.induced_frame(model)
        return state["frame"]

    def check_induced(frame):
        state["oframe"] = fr = OFrame.of(frame)
        memo = {}
        for sid in vrng.sample(sids, SAMPLES):
            x, n = sid.split("@")
            if bi_holds(fr, sid, f, memo) != holds(om, x, by_name[n], f):
                return f"induced frame disagrees at {sid}", True, 0
        return None, True, 1

    def check_frame():
        return tl.check_frame(state["frame"])

    def check_report(report):
        bad = [r.name for r in report.results if not r.passed]
        return (f"induced frame fails {bad}" if bad else None), True, 1

    def unfold():
        return tl.unfold(state["frame"], f"{model.space.points[0]}@top")

    def check_unfold(result):
        fr = state.pop("oframe")
        del state["frame"]      # a later pass must not hold this pass's frames
        small = OModel.of(result.model)
        memo = {}
        for s in vrng.sample(sids, SAMPLES):
            t = s.split("@")[0] + "@top"
            if bi_holds(fr, s, f, memo) != holds(small, t, result.open_for(t, s), f):
                return f"unfolding disagrees with the frame at ({t}, {s})", True, 0
        return None, True, 1

    return [Op(f"induced_frame {name}", induced, check_induced),
            Op(f"check_frame {name}", check_frame, check_report),
            Op(f"unfold {name}", unfold, check_unfold)]


# README quick tour, model side, through the CLI entry point
ORACLE_MODEL = OModel(["q1", "q2", "q3", "q4"],
                      [{"q1", "q2", "q3", "q4"}, {"q1", "q2"}, {"q3", "q4"},
                       {"q3"}, {"q4"}, set()],
                      {"Q1": {"q1", "q2"}, "Q2": {"q1", "q2", "q3"}})


def _cli_tour(tl, workdir):
    def W(name):
        return os.path.join(workdir, name)

    top = frozenset(ORACLE_MODEL.points)
    q1 = A("Q1")
    k_q1 = holds(ORACLE_MODEL, "q1", top, ("K", q1))
    dia_k_q1 = holds(ORACLE_MODEL, "q1", top, ("dia", ("K", q1)))
    persists = all(holds(ORACLE_MODEL, x, u, _imp(q1, ("box", q1)))
                   for u in ORACLE_MODEL.opens for x in u)

    def load(name):
        with open(W(name), encoding="utf-8") as fh:
            return json.load(fh)

    def same_oracle(_):
        got = load("oracle.json")
        ok = (sorted(got["points"]) == sorted(ORACLE_MODEL.points)
              and {frozenset(o["members"]) for o in got["opens"]} == set(ORACLE_MODEL.opens)
              and {a: frozenset(v) for a, v in got["valuation"].items()} == ORACLE_MODEL.val)
        return None if ok else "build-oracle wrote a different model"

    def unfolded(_):
        got = load("tree.json")
        sizes = sorted((len(o["members"]) for o in got["opens"]), reverse=True)
        ok = len(got["points"]) == 6 and sizes == [6, 3, 2, 2]
        return None if ok else f"unfold gave {len(got['points'])} points, opens {sizes}"

    def extracted(_):
        got = load("small.json")
        ok = len(got["points"]) == 2 and len(got["opens"]) == 2
        return None if ok else "extract did not give 2 points and 2 opens"

    oracle = W("oracle.json")
    tour = [
        (["build-oracle", "--points", "q1,q2,q3,q4", "--question", "Q1=q1,q2",
          "--question", "Q2=q1,q2,q3", "-o", oracle], 0, same_oracle),
        (["check", "--model", oracle, "--point", "q1", "--open", "top", "K Q1"],
         0 if k_q1 else 1, None),
        (["check", "--model", oracle, "--point", "q1", "--open", "top", "<>K Q1"],
         0 if dia_k_q1 else 1, None),
        (["valid-in-model", "--model", oracle, "Q1 -> []Q1"],
         0 if persists else 1, None),
        (["treelike-check", "--model", oracle], 0, None),
        (["prove", "--proof", os.path.join(FIXTURES, TOUR_FIXTURES[0])],
         0, None),
        (["unfold", "--frame", os.path.join(FIXTURES, TOUR_FIXTURES[1]),
          "--root", "r1", "-o", W("tree.json")], 0, unfolded),
        (["extract", "--model", oracle, "<>K Q1", "-o", W("small.json"),
          "--report", W("sizes.json")], 0, extracted),
    ]
    ops = []
    for argv, want, inspect in tour:
        def run(argv=argv):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return tl.cli.main(argv)

        def check(code, argv=argv, want=want, inspect=inspect):
            if code != want:
                return f"treelogic {argv[0]} exited {code}, expected {want}", True, 0
            return (inspect(code) if inspect else None), True, 1

        ops.append(Op(f"cli {argv[0]}", run, check))
    return ops


def deep_probes(tl, workdir):
    """ROADMAP item 3 inputs: (label, outcome) with outcome "ok" or an error.

    They are reported beside the result, not counted as operations.
    """
    deep_not = "~" * 3000 + "Q1"
    oracle = os.path.join(workdir, "oracle.json")
    model = tl.model_from_dict({
        "points": list(ORACLE_MODEL.points),
        "opens": [{"name": f"U{i}", "members": sorted(u)}
                  for i, u in enumerate(ORACLE_MODEL.opens)],
        "valuation": {a: sorted(v) for a, v in ORACLE_MODEL.val.items()}})

    def parse_deep():
        g = tl.parse(deep_not)
        for _ in range(3000):
            if g.kind != "not":
                return "wrong parse"
            g = g.left
        return None if (g.kind, g.name) == ("atom", "Q1") else "wrong parse"

    def satisfies_deep():
        g = tl.atom("Q1")
        for _ in range(400):
            g = tl.box(g)
        top = frozenset(ORACLE_MODEL.points)
        # atoms persist under refinement, so []^400 Q1 holds exactly where Q1 does
        return None if model.satisfies("q1", top, g) == ("q1" in ORACLE_MODEL.val["Q1"]) \
            else "wrong answer"

    def cli_deep():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = tl.cli.main(["check", "--model", oracle, "--point", "q1",
                                "--open", "top", deep_not])
        return None if code == 0 else f"exit {code}"

    out = []
    for label, probe in (("parse ~x3000", parse_deep),
                         ("satisfies []x400", satisfies_deep),
                         ("cli check ~x3000", cli_deep)):
        try:
            err = probe()
        except Exception as exc:    # the probes exist to record these
            err = type(exc).__name__
        out.append((label, err or "ok"))
    return out


WORKLOADS = {"soundness": soundness, "decide": decide, "pipeline": pipeline}
