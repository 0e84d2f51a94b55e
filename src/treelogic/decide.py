"""Model enumeration, and satisfiability/validity search.

A search sweeps the small spaces within a budget (points ascending, then
family shape, then valuation) for a smallest-first witness.  On treelike
spaces a sweep that finds none is followed by type saturation
(``_Types``), which decides treelike satisfiability exactly; off trees
the sweep is all there is.
"""

from __future__ import annotations

import time
from functools import lru_cache
from math import comb

from .formula import (BOT, TOP, Formula, atom, box, conj, diamond, know, neg,
                      poss, subformulas)
from .model import MaskContext, Model, SubsetSpace, _check_atom_name

__all__ = [
    "enumerate_spaces",
    "SatOutcome", "satisfiable", "valid",
    "formula_pool", "SearchError",
]
# ---------------------------------------------------------------------------
# plain enumeration of small spaces

@lru_cache(maxsize=None)
def _families(n: int, max_opens, treelike: bool):
    """One space per open family over n points, up to relabelling.

    An open is a point mask, ranked by its size, then its ascending bits,
    and a family is the ascending tuple of its members' ranks (the full
    set ranks last).  Families are walked by their size, then by that
    tuple.  One not met yet is kept, and its orbit, closed under swapping
    adjacent points, is marked as met, so each class keeps its least
    labelling, at every point count.  The swaps cost the orbit's size,
    not n!, so many points with few opens stay cheap.  With at most two
    opens, of either shape, the n + 1 classes are listed directly in that
    order, and no mask is ranked: the full set alone, then the full set
    with the first k points, the least open of size k, for k < n.
    Each space is built from its masks (``SubsetSpace._from_masks``).
    Cached: searches and the soundness harness ask for the same few point
    counts again.
    """
    # zero-padded from ten points on, so that sorted order is bit order
    points = tuple(f"p{i + 1:0{len(str(n))}d}" for i in range(n))
    if max_opens in (1, 2):
        # the first k points and the full set; k = n gives the full set alone
        full = (1 << n) - 1
        return tuple(SubsetSpace._from_masks(points, {(1 << k) - 1, full})
                     for k in (n, *range(n if max_opens == 2 else 0)))
    masks = sorted(range(1 << n), key=lambda m: (
        m.bit_count(), [i for i in range(n) if m >> i & 1]))
    rank = {m: r for r, m in enumerate(masks)}
    top = len(masks) - 1
    limit = None if max_opens is None else max_opens - 1

    families = []

    def rec(start, chosen):
        families.append((*chosen, top))
        if limit is not None and len(chosen) >= limit:
            return
        for r in range(start, top):
            u = masks[r]
            if not treelike or all(u & masks[c] in (0, u, masks[c])
                                   for c in chosen):
                chosen.append(r)
                rec(r + 1, chosen)
                chosen.pop()

    rec(0, [])
    families.sort(key=lambda fam: (len(fam), fam))

    # swaps[i][r]: the rank of open r with points i and i + 1 exchanged
    swaps = [[rank[m ^ ((m >> i ^ m >> i + 1) & 1) * (3 << i)] for m in masks]
             for i in range(n - 1)]
    kept, seen = [], set()
    for fam in families:
        if fam in seen:
            continue
        kept.append(fam)
        seen.add(fam)
        todo = [fam]
        while todo:
            f = todo.pop()
            for swap in swaps:
                g = tuple(sorted([swap[r] for r in f]))
                if g not in seen:
                    seen.add(g)
                    todo.append(g)

    return tuple(SubsetSpace._from_masks(points, [masks[r] for r in fam])
                 for fam in kept)


# Labelled open families ``_families`` may list over one point count
# before it removes relabelled copies, of either shape.  Trees over six
# points list 352,256 and over seven 10,037,248; off trees four points list
# 32,768, seven with up to four opens 341,504, five with up to six opens
# 206,368, and five with no cap on the opens 2,147,483,648.
FAMILY_BUDGET = 400_000


@lru_cache(maxsize=None)
def _family_count(n: int, max_opens, treelike: bool):
    """The labelled families ``_families(n, max_opens, treelike)`` lists,
    or None past 2**63.

    A family is the full set and at most ``max_opens - 1`` other point
    masks.  Off trees they are any of the other 2^n - 1 masks, so the count
    is a sum of binomials; the terms grow fast enough that the sum passes
    2**63 within a few dozen of them.  Trees are counted by
    ``_tree_family_count``.  Either way a family may be the full set and
    any one other mask, so with two opens or more there are at least 2^n.
    """
    most = None if max_opens is None else max_opens - 1
    if most == 0:
        return 1
    if n > 63:
        return None
    if treelike:
        return _tree_family_count(n, most)
    masks = (1 << n) - 1
    total = 0
    for k in range(masks + 1 if most is None else min(most, masks) + 1):
        total += comb(masks, k)
        if total > 1 << 63:
            return None
    return total


def _tree_family_count(n: int, most):
    """The labelled treelike families over n points with at most ``most``
    opens besides the full set (None: no cap), or None past 2**63.

    The nonempty opens form a tree under the full set; the empty open is
    optional.  ``trees[s][k]`` counts the trees over s labelled points with
    k opens below the root, and ``woods[m][k]`` the ways to split m points
    into private points and child trees holding k opens in all.  Point 1 of
    a root's points is private or lies in a child of s points, which gives
    the recurrence; a single child holding every point is not a proper sub-
    open, so it is left out of ``trees`` and added to ``woods``.  The count
    grows with the point count, so the sizes are counted upwards and the
    count stops as soon as one passes 2**63.
    """
    cap = 2 * n - 2 if most is None else min(most, 2 * n - 2)
    trees, woods = [None], [[1] + [0] * cap]
    for m in range(1, n + 1):
        tree = list(woods[m - 1])
        for s in range(1, m):
            ways = comb(m - 1, s - 1)
            for j, a in enumerate(trees[s]):
                if a:
                    for k, b in enumerate(woods[m - s][:cap - j]):
                        tree[j + k + 1] += ways * a * b
        trees.append(tree)
        woods.append([t + u for t, u in zip(tree, [0] + tree)])
        # with the empty open or without it, which takes one of the opens
        total = 2 * sum(tree) - (tree[cap] if most == cap else 0)
        if total > 1 << 63:
            return None
    return total


def _check_family_budget(max_points: int, max_opens, treelike: bool):
    """Refuse an enumeration whose largest point count would list more
    than ``FAMILY_BUDGET`` labelled families, before listing any."""
    count = _family_count(max_points, max_opens, treelike)
    if count is None or count > FAMILY_BUDGET:
        amount = "more than 2**63" if count is None else f"{count:,}"
        shape = "treelike" if treelike else "labelled"
        raise SearchError(f"{amount} {shape} open families over "
                          f"{max_points} points exceed the budget of "
                          f"{FAMILY_BUDGET:,}: lower --max-points or "
                          "--max-opens")


def _family_spaces(max_points: int, max_opens, treelike: bool):
    """The space of every open family, in enumeration order.

    Point i of a space (``space.points[i]``) is bit i of its masks.  The
    families are sized first (``_check_family_budget``); the count grows
    with the point count, so the largest one decides.
    """
    if max_points < 1 or (max_opens is not None and max_opens < 1):
        raise SearchError("budget must allow at least one point and open")
    _check_family_budget(max_points, max_opens, treelike)
    for n in range(1, max_points + 1):
        yield from _families(n, max_opens, treelike)


def enumerate_spaces(max_points: int, max_opens=None, atoms=(),
                     treelike: bool = True):
    """Every open family over up to ``max_points`` points, with valuations.

    Yields models in a fixed order: point count, then family size, then
    family shape, then valuation masks in binary order.  Families are
    deduplicated up to point permutation at every point count.
    """
    atoms = sorted(atoms)
    for a in atoms:
        _check_atom_name(a)
    for space in _family_spaces(max_points, max_opens, treelike):
        n = len(space.points)
        for k in range(1 << n * len(atoms)):
            masks = zip(atoms, _valuation_masks(k, len(atoms), n))
            yield Model._from_masks(space, dict(masks))


def _valuation_masks(k: int, n_atoms: int, n_points: int):
    """Atom masks of valuation number ``k``; the last atom varies fastest."""
    full = (1 << n_points) - 1
    return tuple(k >> n_points * (n_atoms - 1 - j) & full
                 for j in range(n_atoms))


# ---------------------------------------------------------------------------
# formula pools for the suites

def formula_pool(atoms, depth: int, include_constants: bool = False):
    """Formulas over ``atoms`` with at most ``depth`` connective layers.

    The defined connectives count as single layers, so the pool reaches
    epistemic shapes early.  Deterministic order.
    """
    if depth < 0:
        raise SearchError(f"pool depth must be at least 0, got {depth}")
    pool = [atom(a) for a in sorted(atoms)]
    if include_constants:
        pool += [TOP, BOT]
    known = set(map(id, pool))
    for _ in range(depth):
        extra = []
        for f in pool:
            for op in (neg, box, know, diamond, poss):
                g = op(f)
                if id(g) not in known:
                    known.add(id(g))
                    extra.append(g)
        for f in pool:
            for g in pool:
                h = conj(f, g)
                if id(h) not in known:
                    known.add(id(h))
                    extra.append(h)
        if not extra:       # a fixpoint: no later layer adds anything
            break
        pool += extra
    return pool


# ---------------------------------------------------------------------------
# exact decision by type saturation
#
# The opens around a point of a treelike space form a chain, so []psi at
# (x, U) is psi at (x, U) and []psi at (x, V), V the child of U holding x.
# K psi at U depends only on the profiles (true subformulas) of U's
# points.  A node's type, its set of profiles, is thus fixed by its K-set
# and its generators: its private points and its children's types, of
# which only each profile's atom and [] bits (its seed) count.  The
# realisable types are built bottom-up, as in Pratt's elimination of
# Hintikka sets.  Any subset of a node's generators that keeps a witness
# for each false K psi keeps the K-set, so every type is a union of types
# of one generator plus a minimal union of witnesses.  Only those are
# built, and one whose seeds are a union of other generators' seeds is
# not kept as a generator.

SATURATION_STEPS = 20_000_000   # generator checks, unions and subset tests


class _Types:
    """Realisable node types of one formula, with their provenance.

    Profiles are bitmasks over ``subformulas(formula)``; a generator is a
    frozenset of seeds (one, with every [] bit set, for a private point).
    ``prov`` holds (K-set, generators) for each generator that is a type.
    """

    def __init__(self, formula: Formula, atoms):
        subs = subformulas(formula)
        pos = {id(g): i for i, g in enumerate(subs)}
        self.ops = tuple((g.kind, pos.get(id(g.left)), pos.get(id(g.right)))
                         for g in subs)
        self.goal = 1 << len(subs) - 1
        self.knows = tuple((1 << i, 1 << pos[id(g.left)])
                           for i, g in enumerate(subs) if g.kind == "know")
        names = {g.name: 1 << i for i, g in enumerate(subs) if g.kind == "atom"}
        self.atom_bits = tuple(names[a] for a in atoms)
        boxes = sum(1 << i for i, g in enumerate(subs) if g.kind == "box")
        self.seed_mask = boxes | sum(self.atom_bits)
        self.gens, self.prov, self._known = [], [], set()
        for v in range(1 << len(atoms)):
            self._add(frozenset({boxes | sum(
                b for j, b in enumerate(self.atom_bits) if v >> j & 1)}), None)
        self.private = len(self.gens)
        self.steps = 0
        self._profiles = {}
        self._images = {}

    def _add(self, seeds: frozenset, prov):
        """Keep a new type unless kept generators' seeds add up to it."""
        if seeds in self._known:
            return
        self._known.add(seeds)
        if frozenset().union(*(g for g in self.gens if g <= seeds)) != seeds:
            self.gens.append(seeds)
            self.prov.append(prov)

    def _profile(self, s: int) -> int:
        """The profile of a point with seed and K-set bits ``s``."""
        p = self._profiles.get(s)
        if p is None:
            p = 0
            for i, (kind, l, r) in enumerate(self.ops):
                if kind == "atom" or kind == "know":
                    b = s >> i & 1
                elif kind == "not":
                    b = ~p >> l & 1
                elif kind == "and":
                    b = p >> l & p >> r & 1
                elif kind == "box":
                    b = p >> l & s >> i & 1
                else:
                    b = 1 if kind == "top" else 0
                p |= b << i
            self._profiles[s] = p
        return p

    def _image(self, g: int, kappa: int) -> frozenset:
        key = (g, kappa)
        img = self._images.get(key)
        if img is None:
            img = frozenset(self._profile(s | kappa) for s in self.gens[g])
            self._images[key] = img
        return img

    def saturate(self):
        """Members of a type realising the goal, or None at the fixpoint.

        Each round combines, per K-set, only with generators new to it.
        """
        done = {}
        while True:
            n = len(self.gens)
            for kappa, usable in self._kappas(n):
                seen, done[kappa] = done.get(kappa, 0), n
                hit = self._combine(kappa, usable, seen)
                if hit is not None:
                    return hit
            if len(self.gens) == n:
                return None

    def _kappas(self, n: int):
        """(K-set, usable generators) pairs over the first ``n`` generators.

        K bits are fixed in post-order, so psi is settled when K psi is.
        """
        stack = [(0, 0, tuple(range(n)))]
        while stack:
            j, kappa, usable = stack.pop()
            if j == len(self.knows):
                yield kappa, usable
                continue
            k, psi = self.knows[j]
            known = []
            for g in usable:
                self._step()
                if all(p & psi for p in self._image(g, kappa)):
                    known.append(g)
            if len(known) < len(usable):
                stack.append((j + 1, kappa, usable))
            if known:
                stack.append((j + 1, kappa | k, tuple(known)))

    def _combine(self, kappa: int, usable, seen: int):
        """Build the types of K-set ``kappa`` that use a generator >= seen."""
        images = {}         # one generator per image
        for g in usable:
            images.setdefault(self._image(g, kappa), g)
        # the minimal unions of one witness image per K psi false here;
        # a union that already holds a witness for psi needs no other
        unions = [(frozenset(), ())]
        for k, psi in self.knows:
            if kappa & k:
                continue
            cands = [(img, g) for img, g in images.items()
                     if any(not p & psi for p in img)]
            if not cands:
                return None
            grown = {}
            for union, ws in unions:
                if any(not p & psi for p in union):
                    grown.setdefault(union, ws)
                    continue
                for img, g in cands:
                    self._step()
                    grown.setdefault(union | img, ws + (g,))
            unions = []
            for union, ws in sorted(grown.items(), key=lambda c: len(c[0])):
                self._step(len(unions) + 1)
                if not any(other < union for other, _ in unions):
                    unions.append((union, ws))
        for img, g in images.items():
            for union, ws in unions:
                members = tuple(dict.fromkeys((g, *ws)))
                if max(members) < seen:
                    continue
                self._step()
                profiles = img | union
                if any(p & self.goal for p in profiles):
                    return members
                self._add(frozenset(p & self.seed_mask for p in profiles),
                          (kappa, members))
        return None

    def _step(self, cost: int = 1):
        self.steps += cost
        if self.steps > SATURATION_STEPS:
            raise _StepCap

    def tree(self, members):
        """(n_points, open masks, atom masks) of a tree realising ``members``.

        Each node has a private point or two children, so its open is new:
        a type built from one child type alone repeats that type.
        """
        opens, atom_masks, n_points = [], [0] * len(self.atom_bits), 0
        stack = [(members, ())]
        while stack:
            members, above = stack.pop()
            above += (len(opens),)
            opens.append(0)
            children = []
            for g in members:
                if self.prov[g] is not None:
                    children.append(self.prov[g][1])
                    continue
                bit, n_points = 1 << n_points, n_points + 1
                for slot in above:
                    opens[slot] |= bit
                for j, b in enumerate(self.atom_bits):
                    if min(self.gens[g]) & b:
                        atom_masks[j] |= bit
            stack.extend((child, above) for child in reversed(children))
        return n_points, tuple(opens), tuple(atom_masks)


class _StepCap(Exception):
    """Saturation spent ``SATURATION_STEPS`` without a verdict."""


def _materialize(n_points: int, opens, atom_masks, atoms) -> Model:
    """``_Types.tree``'s model, built from its masks: the tree's opens are
    distinct and the root's holds every point."""
    # zero-padded so that sorted point order matches bit order
    width = max(2, len(str(n_points)))
    points = tuple(f"p{i + 1:0{width}d}" for i in range(n_points))
    return Model._from_masks(SubsetSpace._from_masks(points, opens),
                             dict(zip(atoms, atom_masks)))


def _witness(model: Model, t: int, u):
    """The model, the lowest point of ``t`` (the truth set at ``u``) and u."""
    return model, model.space.points[(t & -t).bit_length() - 1], u


# ---------------------------------------------------------------------------
# search

class SearchError(ValueError):
    """A search request without a usable budget or search space."""


class SatOutcome:
    """Search verdict with witness, searched sizes, and statistics.

    verdict is "sat", "unsat_proved" (type saturation reached its fixpoint
    without the formula) or "unsat_within" (nothing proved: the sweep off
    trees found nothing, saturation spent its step cap, or the formula is
    satisfiable only beyond the budget, which ``searched["note"]`` says).
    """

    def __init__(self, verdict, witness, searched, stats):
        self.verdict = verdict
        self.witness = witness          # (Model, point, open frozenset) or None
        self.searched = searched
        self.stats = stats

    def __repr__(self):
        return f"SatOutcome({self.verdict!r}, searched={self.searched})"

    def to_dict(self):
        from .model import model_to_dict
        stats = {k: v for k, v in self.stats.items() if k != "seconds"}
        out = {"verdict": self.verdict, "searched": self.searched,
               "stats": stats}
        if self.witness is not None:
            m, x, u = self.witness
            out["witness"] = {"model": model_to_dict(m), "point": x,
                              "open": m.space.name_of(u)}
        return out


def satisfiable(formula: Formula, max_points=None, max_opens=None,
                use_bound: bool = False, treelike: bool = True) -> SatOutcome:
    """Search for a model and neighborhood satisfying ``formula``.

    First sweeps every space within a budget (points ascending, then
    family shape, then valuation) and returns the first witness.  The
    budget is the caller's ``max_points``/``max_opens``, or with
    ``use_bound`` (treelike only, no budget) up to four points and six
    opens, capped at 20,000 models.  Each model is a one-lane
    ``MaskContext``, and only the witness becomes a ``Model``, whose own
    context evaluates the formula again as a re-check.  Off trees
    a sweep that finds nothing ends unsat_within.  On trees it is followed
    by exact type saturation: no type is unsat_proved; a type is a witness
    tree, built from the types' provenance, with ``use_bound``, and under
    a budget unsat_within with a note that the formula is satisfiable
    beyond it; spending ``SATURATION_STEPS`` ends unsat_within.
    """
    post = subformulas(formula)
    atoms = sorted(g.name for g in post if g.kind == "atom")
    stats = {"models": 0, "neighborhoods": 0}
    start = time.monotonic()

    def finish(verdict, witness, searched):
        stats["seconds"] = round(time.monotonic() - start, 6)
        return SatOutcome(verdict, witness, searched, dict(stats))

    def plain_sweep(max_points, max_opens, model_cap):
        for space in _family_spaces(max_points, max_opens, treelike):
            n, run = len(space.points), ((space, 1),)
            sizes = list(map(len, space.opens))
            for k in range(1 << n * len(atoms)):
                if stats["models"] == model_cap:
                    return None
                stats["models"] += 1
                masks = _valuation_masks(k, len(atoms), n)
                # the packed row: open j is slot j, so the lowest bit set
                # lies in the first open where the formula holds
                (row,) = MaskContext(run, zip(atoms, masks))._fill(
                    post, [formula])
                j = ((row & -row).bit_length() - 1) // n if row else len(sizes)
                stats["neighborhoods"] += sum(sizes[:j + 1])
                if row:
                    model = Model._from_masks(space, dict(zip(atoms, masks)))
                    # a re-check: the witness's own context evaluates the
                    # formula again from the model's masks
                    if model._ctx._fill(post, [formula]) != [row]:
                        raise AssertionError("the witness does not hold in "
                                             "the returned model")
                    return _witness(model, row >> j * n & (1 << n) - 1,
                                    space.opens[j])
        return None

    if use_bound:
        if max_points is not None or max_opens is not None:
            raise SearchError("use_bound takes no max_points/max_opens budget")
        if not treelike:
            raise SearchError("bound-driven search applies to treelike spaces")
        budget, model_cap = {"max_points": 4, "max_opens": 6}, 20_000
    elif max_points is None:
        raise SearchError("give a budget (max_points/max_opens) or use_bound")
    else:
        budget, model_cap = {"max_points": max_points,
                             "max_opens": max_opens}, None

    hit = plain_sweep(**budget, model_cap=model_cap)
    if hit or not treelike:
        return finish("sat" if hit else "unsat_within", hit,
                      {**budget, "coverage": "plain"})

    types = _Types(formula, atoms)
    try:
        members, verdict, note = types.saturate(), "unsat_proved", None
    except _StepCap:
        members, verdict, note = (None, "unsat_within",
                                  "saturation step cap reached")
    # the fixed sweep of use_bound is no budget of the caller's; every type
    # derived counts, kept as a generator or not, the goal's included
    searched = {**({} if use_bound else budget), "coverage": "saturation",
                "types": (len(types._known) - types.private
                          + (members is not None)),
                "steps": types.steps}
    if members is not None and use_bound:
        model = _materialize(*types.tree(members), atoms)
        t = model._ctx.truth(formula, model.space.open_masks[0])   # full set
        if not t:
            raise AssertionError("the saturated type is not realised")
        return finish("sat", _witness(model, t, model.space.full),
                      searched)
    if members is not None:
        verdict, note = "unsat_within", "satisfiable beyond the budget"
    if note is not None:
        searched["note"] = note
    return finish(verdict, None, searched)


class ValidityOutcome:
    """Validity verdict: countermodel search on the negation."""

    def __init__(self, verdict, outcome: SatOutcome):
        self.verdict = verdict          # valid | countermodel | inconclusive
        self.outcome = outcome
        self.countermodel = outcome.witness

    def __repr__(self):
        return f"ValidityOutcome({self.verdict!r})"

    def to_dict(self):
        out = self.outcome.to_dict()
        witness = out.pop("witness", None)
        out["verdict"] = self.verdict
        if witness is not None:
            out["countermodel"] = witness
        return out


def valid(formula: Formula, **kwargs) -> ValidityOutcome:
    """Search for a countermodel to ``formula`` within the budget."""
    outcome = satisfiable(neg(formula), **kwargs)
    verdict = {"sat": "countermodel", "unsat_proved": "valid",
               "unsat_within": "inconclusive"}[outcome.verdict]
    return ValidityOutcome(verdict, outcome)
