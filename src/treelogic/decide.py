"""Size bounds, model enumeration, and satisfiability/validity search.

The bound mirrors the growth of the stable-partition construction:
conjunction multiplies family sizes, knowledge recloses with truth sets
(factor 2^f), the open collapse yields at most f*2^f classes, and the
point quotient at most 2^(opens + atoms) points.  The bounds are loose
upper bounds; a search with an explicit budget relies on them for
refutation coverage.  The bound-driven search instead decides treelike
satisfiability exactly by type saturation (``_Types``).
"""

from __future__ import annotations

import time
from functools import lru_cache
from math import comb

from .formula import (BOT, TOP, Formula, atom, atom_names, box, conj,
                      diamond, know, neg, poss, subformulas)
from .model import MaskContext, Model, SubsetSpace, _check_atom_name

__all__ = [
    "Bound", "complexity_bound",
    "enumerate_spaces",
    "SatOutcome", "satisfiable", "valid",
    "formula_pool", "SearchError",
]

_SATURATION = 10 ** 12


class Bound:
    """Family/opens/points bounds for one formula; None fields = saturated."""

    __slots__ = ("max_family", "max_opens", "max_points", "saturated")

    def __init__(self, max_family, max_opens, max_points, saturated):
        self.max_family = max_family
        self.max_opens = max_opens
        self.max_points = max_points
        self.saturated = saturated

    def __repr__(self):
        if self.saturated:
            return "Bound(astronomical)"
        return (f"Bound(family={self.max_family}, opens={self.max_opens}, "
                f"points={self.max_points})")


def _family_bound(f: Formula):
    bound = {}
    for g in subformulas(f):
        k = g.kind
        if k in ("atom", "top", "bot"):
            b = 1
        elif k in ("not", "box"):
            b = bound[g.left]
        elif k == "and":
            a, c = bound[g.left], bound[g.right]
            b = (None if a is None or c is None or a * c > _SATURATION
                 else a * c)
        else:  # know
            a = bound[g.left]
            b = (None if a is None or a > 60 or a * (1 << a) > _SATURATION
                 else a * (1 << a))
        bound[g] = b
    return bound[f]


def complexity_bound(f: Formula) -> Bound:
    """Upper bounds on the finite-model sizes reachable for ``f``."""
    fam = _family_bound(f)
    if fam is None:
        return Bound(None, None, None, True)
    opens = fam * (1 << fam) if fam <= 60 else None
    if opens is None or opens > _SATURATION:
        return Bound(fam, None, None, True)
    exponent = opens + len(atom_names(f))
    points = (1 << exponent) if exponent <= 60 else None
    if points is None or points > _SATURATION:
        return Bound(fam, opens, None, True)
    return Bound(fam, opens, points, False)


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
    not n!, so many points with few opens stay cheap.  Cached: searches
    and the soundness harness ask for the same few point counts again.
    """
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

    # zero-padded from ten points on, so that sorted order is bit order
    points = tuple(f"p{i + 1:0{len(str(n))}d}" for i in range(n))
    return tuple(SubsetSpace(points, [
        [p for i, p in enumerate(points) if masks[r] >> i & 1] for r in fam])
        for fam in kept)


# Labelled open families ``_families`` may list over one point count off
# trees before it removes relabelled copies.  Four points list 32,768 and
# five points with up to six opens 206,368; five points with no cap on the
# opens list 2,147,483,648.
FAMILY_BUDGET = 250_000


def _family_count(n: int, max_opens):
    """The labelled families ``_families(n, max_opens, False)`` lists, or
    None past 2**63.

    A family is the full set and at most ``max_opens - 1`` of the other
    2^n - 1 point masks, so the count is a sum of binomials; the terms grow
    fast enough that the sum passes 2**63 within a few dozen of them.
    """
    most = None if max_opens is None else max_opens - 1
    if most == 0:
        return 1
    if n > 63:
        return None
    masks = (1 << n) - 1
    total = 0
    for k in range(masks + 1 if most is None else min(most, masks) + 1):
        total += comb(masks, k)
        if total > 1 << 63:
            return None
    return total


def _check_family_budget(max_points: int, max_opens):
    """Refuse an off-tree enumeration whose largest point count would list
    more than ``FAMILY_BUDGET`` labelled families, before listing any."""
    count = _family_count(max_points, max_opens)
    if count is None or count > FAMILY_BUDGET:
        amount = "more than 2**63" if count is None else f"{count:,}"
        raise SearchError(f"{amount} labelled open families over "
                          f"{max_points} points exceed the budget of "
                          f"{FAMILY_BUDGET:,}: lower --max-points or "
                          "--max-opens")


def _family_spaces(max_points: int, max_opens, treelike: bool):
    """The space of every open family, in enumeration order.

    Point i of a space (``space.points[i]``) is bit i of its masks.  Off
    trees the families are sized first (``_check_family_budget``); the
    count grows with the point count, so the largest one decides.
    """
    if max_points < 1 or (max_opens is not None and max_opens < 1):
        raise SearchError("budget must allow at least one point and open")
    if not treelike:
        _check_family_budget(max_points, max_opens)
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
    members = {}        # point count -> point mask -> its frozenset
    for space in _family_spaces(max_points, max_opens, treelike):
        n = len(space.points)
        subsets = members.setdefault(n, {})
        for k in range(1 << n * len(atoms)):
            masks = zip(atoms, _valuation_masks(k, len(atoms), n))
            yield Model._from_masks(space, dict(masks), subsets)


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
        covers = [(frozenset(), ())]
        for k, psi in self.knows:
            if kappa & k:
                continue
            cands = [(img, g) for img, g in images.items()
                     if any(not p & psi for p in img)]
            if not cands:
                return None
            grown = {}
            for cover, ws in covers:
                if any(not p & psi for p in cover):
                    grown.setdefault(cover, ws)
                    continue
                for img, g in cands:
                    self._step()
                    grown.setdefault(cover | img, ws + (g,))
            covers = []
            for cover, ws in sorted(grown.items(), key=lambda c: len(c[0])):
                self._step(len(covers) + 1)
                if not any(other < cover for other, _ in covers):
                    covers.append((cover, ws))
        for img, g in images.items():
            for cover, ws in covers:
                members = tuple(dict.fromkeys((g, *ws)))
                if max(members) < seen:
                    continue
                self._step()
                profiles = img | cover
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
    # zero-padded so that sorted point order matches bit order
    width = max(2, len(str(n_points)))
    points = tuple(f"p{i + 1:0{width}d}" for i in range(n_points))
    sets = [frozenset(points[i] for i in range(n_points) if m >> i & 1)
            for m in opens]
    return Model._from_masks(SubsetSpace(points, sets),
                             dict(zip(atoms, atom_masks)), {})


def _witness(model: Model, t: int, u, formula):
    """The lowest point of ``t``, the truth set at ``u``, re-checked."""
    x = model.space.points[(t & -t).bit_length() - 1]
    if not model.satisfies(x, u, formula):
        raise AssertionError("the witness does not hold in the returned model")
    return model, x, u


# ---------------------------------------------------------------------------
# search

class SearchError(ValueError):
    """A search request without a usable budget or search space."""


class SatOutcome:
    """Search verdict with witness, searched sizes, and statistics.

    verdict is "sat", "unsat_within" (budget spent, nothing proved) or
    "unsat_proved" (a bound-covering budget or type saturation exhausted).
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

    With an explicit budget, enumerates every space within it (points
    ascending, then family shape, then valuation) and returns the first
    witness; exhausting a budget at least as large as the computed bound
    proves unsatisfiability.  Each model is a one-lane ``MaskContext``, and
    only the witness becomes a ``Model``.  With ``use_bound`` (treelike
    only, no budget), a small plain sweep for a smallest-first witness is
    followed by exact type saturation, whose witness tree is built from
    the types' provenance; only saturation that spends
    ``SATURATION_STEPS`` ends unsat_within.
    """
    post = subformulas(formula)
    atoms = sorted(g.name for g in post if g.kind == "atom")
    stats = {"models": 0, "neighborhoods": 0}
    start = time.monotonic()

    def finish(verdict, witness, searched):
        stats["seconds"] = round(time.monotonic() - start, 6)
        return SatOutcome(verdict, witness, searched, dict(stats))

    def plain_sweep(max_points, max_opens, model_cap=None):
        for space in _family_spaces(max_points, max_opens, treelike):
            n, run = len(space.points), ((space, 1),)
            for k in range(1 << n * len(atoms)):
                if model_cap is not None and stats["models"] == model_cap:
                    return None
                stats["models"] += 1
                masks = _valuation_masks(k, len(atoms), n)
                row = MaskContext(run, zip(atoms, masks)).rows(
                    post, [formula])[0]
                for t, u in zip(row, space.opens):
                    stats["neighborhoods"] += len(u)
                    if t:
                        # the model keeps the row for the witness re-check
                        model = Model._from_masks(
                            space, dict(zip(atoms, masks)), {})
                        model._kept = (formula, tuple(row))
                        return _witness(model, t, u, formula)
        return None

    if use_bound and (max_points is not None or max_opens is not None):
        raise SearchError("use_bound takes no max_points/max_opens budget")
    if not use_bound:
        if max_points is None:
            raise SearchError("give a budget (max_points/max_opens) or use_bound")
        hit = plain_sweep(max_points, max_opens)
        searched = {"max_points": max_points, "max_opens": max_opens,
                    "coverage": "plain"}
        if hit:
            return finish("sat", hit, searched)
        bound = complexity_bound(formula)
        covers = (not bound.saturated and treelike
                  and max_points >= bound.max_points
                  and (max_opens is None or max_opens >= bound.max_opens))
        return finish("unsat_proved" if covers else "unsat_within",
                      None, searched)

    if not treelike:
        raise SearchError("bound-driven search applies to treelike spaces")

    # small plain sweep first: deterministic small witnesses in the
    # points-ascending order (capped; saturation is the coverage)
    sweep = {"max_points": 4, "max_opens": 6}
    hit = plain_sweep(**sweep, model_cap=20_000)
    if hit:
        return finish("sat", hit, {**sweep, "coverage": "plain"})

    types = _Types(formula, atoms)
    try:
        members, verdict = types.saturate(), "unsat_proved"
    except _StepCap:
        members, verdict = None, "unsat_within"
    searched = {"coverage": "saturation",
                "types": len(types.gens) - types.private,
                "steps": types.steps}
    if members is not None:
        model = _materialize(*types.tree(members), atoms)
        t = model._row(formula, False)[0]       # the root open, the full set
        if not t:
            raise AssertionError("the saturated type is not realised")
        return finish("sat", _witness(model, t, model.space.full, formula),
                      searched)
    if verdict == "unsat_within":
        searched["note"] = "saturation step cap reached"
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
