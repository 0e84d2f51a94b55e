"""Independent correctness oracle for the benchmark.

Formulas are the benchmark's own tuples, e.g. ("K", ("atom", "A")).  The
satisfaction clauses below are a direct reading of the semantics, kept
apart from every evaluator in ``treelogic``: the benchmark never asks the
program whether one of its own answers is right.  Memo tables only share
work between repeated (point, open, subformula) questions.

Models are read as plain data: ``points``, ``opens`` (frozensets) and a
``val`` dict from atom name to frozenset.  ``OModel.of`` takes the same
data out of a ``treelogic`` Model without calling any of its methods.
"""

from __future__ import annotations

from itertools import combinations, product

UNARY = {"not": "~", "box": "[]", "dia": "<>", "K": "K ", "L": "L "}
BINARY = {"and": "&", "or": "|", "imp": "->"}


def render(f) -> str:
    """Fully parenthesised concrete syntax that ``treelogic.parse`` reads."""
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag == "top":
        return "true"
    if tag == "bot":
        return "false"
    if tag in UNARY:
        return UNARY[tag] + render(f[1])
    return f"({render(f[1])} {BINARY[tag]} {render(f[2])})"


def atoms_of(f) -> set:
    if f[0] == "atom":
        return {f[1]}
    out = set()
    for g in f[1:]:
        out |= atoms_of(g)
    return out


def substitute(f, binding):
    """Replace atoms named in ``binding`` (scheme metavariables)."""
    if f[0] == "atom":
        return binding.get(f[1], f)
    if f[0] in ("top", "bot"):
        return f
    return (f[0],) + tuple(substitute(g, binding) for g in f[1:])


def from_program(g):
    """Tuple form of a ``treelogic`` Formula, read node by node."""
    kind = g.kind
    if kind == "atom":
        return ("atom", g.name)
    if kind in ("top", "bot"):
        return (kind,)
    if kind == "and":
        return ("and", from_program(g.left), from_program(g.right))
    return ({"not": "not", "box": "box", "know": "K"}[kind], from_program(g.left))


class OModel:
    """A finite subset-space model as plain data."""

    def __init__(self, points, opens, val):
        self.points = tuple(points)
        self.opens = tuple(frozenset(u) for u in opens)
        self.val = {a: frozenset(s) for a, s in val.items()}
        self.down = {u: [v for v in self.opens if v and v <= u]
                     for u in self.opens}

    @classmethod
    def of(cls, model):
        return cls(model.space.points, model.space.opens, model.valuation)

    def is_treelike(self) -> bool:
        return all(u <= v or v <= u or not (u & v)
                   for u, v in combinations(self.opens, 2))


def holds(m: OModel, x, u: frozenset, f, memo=None) -> bool:
    """Truth of ``f`` at the neighborhood (x, u) of ``m``."""
    if memo is None:
        memo = {}
    key = (id(f), x, u)
    out = memo.get(key)
    if out is not None:
        return out
    tag = f[0]
    if tag == "atom":
        out = x in m.val.get(f[1], ())
    elif tag == "top":
        out = True
    elif tag == "bot":
        out = False
    elif tag == "not":
        out = not holds(m, x, u, f[1], memo)
    elif tag == "and":
        out = holds(m, x, u, f[1], memo) and holds(m, x, u, f[2], memo)
    elif tag == "or":
        out = holds(m, x, u, f[1], memo) or holds(m, x, u, f[2], memo)
    elif tag == "imp":
        out = not holds(m, x, u, f[1], memo) or holds(m, x, u, f[2], memo)
    elif tag == "K":        # every point of the current view
        out = all(holds(m, y, u, f[1], memo) for y in u)
    elif tag == "L":
        out = any(holds(m, y, u, f[1], memo) for y in u)
    elif tag == "box":      # every open inside u that still contains x
        out = all(holds(m, x, v, f[1], memo) for v in m.down[u] if x in v)
    elif tag == "dia":
        out = any(holds(m, x, v, f[1], memo) for v in m.down[u] if x in v)
    else:
        raise ValueError(f"unknown connective {tag!r}")
    memo[key] = out
    return out


def truth_set(m: OModel, u: frozenset, f, memo=None) -> frozenset:
    memo = {} if memo is None else memo
    return frozenset(x for x in u if holds(m, x, u, f, memo))


class OFrame:
    """A birelational frame as plain data: box and k successor sets."""

    def __init__(self, states, box_pairs, k_pairs, val):
        self.states = tuple(states)
        self.box = {s: set() for s in self.states}
        self.k = {s: set() for s in self.states}
        for a, b in box_pairs:
            self.box[a].add(b)
        for a, b in k_pairs:
            self.k[a].add(b)
        self.val = {a: frozenset(s) for a, s in val.items()}

    @classmethod
    def of(cls, frame):
        return cls(frame.states, frame.box, frame.k, frame.valuation)


def bi_holds(fr: OFrame, s, f, memo) -> bool:
    """Kripke truth: [] along box successors, K along the k relation."""
    key = (id(f), s)
    out = memo.get(key)
    if out is not None:
        return out
    tag = f[0]
    if tag == "atom":
        out = s in fr.val.get(f[1], ())
    elif tag == "top":
        out = True
    elif tag == "bot":
        out = False
    elif tag == "not":
        out = not bi_holds(fr, s, f[1], memo)
    elif tag == "and":
        out = bi_holds(fr, s, f[1], memo) and bi_holds(fr, s, f[2], memo)
    elif tag == "or":
        out = bi_holds(fr, s, f[1], memo) or bi_holds(fr, s, f[2], memo)
    elif tag == "imp":
        out = not bi_holds(fr, s, f[1], memo) or bi_holds(fr, s, f[2], memo)
    elif tag in ("box", "dia"):
        vals = (bi_holds(fr, t, f[1], memo) for t in fr.box[s])
        out = all(vals) if tag == "box" else any(vals)
    elif tag in ("K", "L"):
        vals = (bi_holds(fr, t, f[1], memo) for t in fr.k[s])
        out = all(vals) if tag == "K" else any(vals)
    else:
        raise ValueError(f"unknown connective {tag!r}")
    memo[key] = out
    return out


def small_models(max_points: int, atoms):
    """Every treelike model over 1..max_points points (labelled, with
    repeats up to isomorphism), all valuations of ``atoms``."""
    atoms = sorted(atoms)
    for n in range(1, max_points + 1):
        points = tuple(f"o{i}" for i in range(n))
        full = frozenset(points)
        proper = [frozenset(c) for r in range(1, n)
                  for c in combinations(points, r)]
        families = [[]]
        for u in proper:
            families += [fam + [u] for fam in families
                         if all(u <= v or v <= u or not (u & v) for v in fam)]
        subsets = [frozenset(c) for r in range(n + 1)
                   for c in combinations(points, r)]
        for fam in families:
            for sets in product(subsets, repeat=len(atoms)):
                yield OModel(points, [full] + fam, dict(zip(atoms, sets)))


def find_model(f, max_points: int, want: bool):
    """A neighborhood over at most ``max_points`` points where ``f`` has
    truth value ``want``, as (model, point, open), or None."""
    for m in small_models(max_points, atoms_of(f)):
        memo = {}
        for u in m.opens:
            for x in sorted(u):
                if holds(m, x, u, f, memo) == want:
                    return m, x, u
    return None
