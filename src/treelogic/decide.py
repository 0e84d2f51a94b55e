"""Size bounds and bounded satisfiability/validity search.

The bound mirrors the growth of the stable-partition construction:
conjunction multiplies family sizes, knowledge recloses with truth sets
(factor 2^f), the open collapse yields at most f*2^f classes, and the
point quotient at most 2^(opens + atoms) points.  The bounds are loose
upper bounds; the search relies on them only for refutation coverage.

Refutation coverage uses a canonical form: any treelike model restricts
to the witness's view, then collapses under the point quotient to a
model whose nonempty opens form a tree in which every point carries a
distinct (branch, valuation) signature.  Exhausting those canonical
models up to the opens bound therefore covers every model within the
bound, whatever its point count.
"""

from __future__ import annotations

import time
from functools import lru_cache
from math import comb

from .formula import (BOT, TOP, Formula, atom, atom_names, box, conj,
                      diamond, know, neg, poss, subformulas)
from .model import MaskContext, Model, SubsetSpace

__all__ = [
    "Bound", "complexity_bound",
    "enumerate_spaces",
    "SatOutcome", "satisfiable", "valid",
    "formula_pool", "count_canonical",
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
    k = f.kind
    if k in ("atom", "top", "bot"):
        return 1
    if k in ("not", "box"):
        return _family_bound(f.left)
    if k == "and":
        a = _family_bound(f.left)
        b = _family_bound(f.right)
        if a is None or b is None or a * b > _SATURATION:
            return None
        return a * b
    a = _family_bound(f.left)  # know
    if a is None or a > 60 or a * (1 << a) > _SATURATION:
        return None
    return a * (1 << a)


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

def _family_key(family, index):
    return tuple(sorted((len(u), tuple(sorted(index[p] for p in u)))
                        for u in family))


@lru_cache(maxsize=None)
def _families(n: int, max_opens, treelike: bool):
    """All open families over n points, canonically deduped for n <= 4.

    Cached: the relabelling pass costs n! per family, and the searches
    and the soundness harness ask for the same few point counts again.
    """
    points = tuple(f"p{i + 1}" for i in range(n))
    index = {p: i for i, p in enumerate(points)}
    full = frozenset(points)
    candidates = []
    for mask in range(1 << n):
        u = frozenset(points[i] for i in range(n) if mask >> i & 1)
        if u != full:
            candidates.append(u)
    candidates.sort(key=lambda u: (len(u), tuple(sorted(index[p] for p in u))))
    limit = None if max_opens is None else max_opens - 1

    families = []

    def compatible(u, chosen):
        return all(u <= v or v <= u or not (u & v) for v in chosen)

    def rec(start, chosen):
        families.append(frozenset(chosen) | {full})
        if limit is not None and len(chosen) >= limit:
            return
        for i in range(start, len(candidates)):
            u = candidates[i]
            if not treelike or compatible(u, chosen):
                chosen.append(u)
                rec(i + 1, chosen)
                chosen.pop()

    rec(0, [])

    if n <= 4:
        from itertools import permutations
        seen = {}
        for fam in families:
            best = None
            for perm in permutations(range(n)):
                relabel = {points[i]: points[perm[i]] for i in range(n)}
                mapped = frozenset(frozenset(relabel[p] for p in u) for u in fam)
                key = _family_key(mapped, index)
                if best is None or key < best[0]:
                    best = (key, mapped)
            seen.setdefault(best[0], best[1])
        families = list(seen.values())

    families.sort(key=lambda fam: (len(fam), _family_key(fam, index)))
    return points, tuple(families)


def _family_spaces(max_points: int, max_opens, treelike: bool):
    """(labels, space) for every open family, in enumeration order.

    ``labels`` are the point names in the bit order of valuation masks.
    """
    if max_points < 1:
        raise ValueError("need at least one point")
    for n in range(1, max_points + 1):
        points, families = _families(n, max_opens, treelike)
        for family in families:
            yield points, SubsetSpace(points, family)


def enumerate_spaces(max_points: int, max_opens=None, atoms=(),
                     treelike: bool = True):
    """Every open family over up to ``max_points`` points, with valuations.

    Yields models in a fixed order: point count, then family size, then
    family shape, then valuation masks in binary order.  Families over
    up to four points are deduplicated up to point permutation.
    """
    atoms = sorted(atoms)
    for points, space in _family_spaces(max_points, max_opens, treelike):
        for k in range(1 << len(points) * len(atoms)):
            yield Model(space, _valuation(points, atoms, k))


def _valuation_masks(k: int, n_atoms: int, n_points: int):
    """Atom masks of valuation number ``k``; the last atom varies fastest."""
    full = (1 << n_points) - 1
    return tuple(k >> n_points * (n_atoms - 1 - j) & full
                 for j in range(n_atoms))


def _valuation(points, atoms, k: int) -> dict:
    """Valuation number ``k`` of sorted ``atoms`` over the labels ``points``."""
    masks = _valuation_masks(k, len(atoms), len(points))
    return {a: frozenset(p for i, p in enumerate(points) if masks[j] >> i & 1)
            for j, a in enumerate(atoms)}


# ---------------------------------------------------------------------------
# formula pools for the suites

def formula_pool(atoms, depth: int, include_constants: bool = False):
    """Formulas over ``atoms`` with at most ``depth`` connective layers.

    The defined connectives count as single layers, so the pool reaches
    epistemic shapes early.  Deterministic order.
    """
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
# canonical coverage enumeration (trees of opens, one point per signature)

def _labels(n_atoms: int) -> int:
    return 1 << (1 << n_atoms)


@lru_cache(maxsize=None)
def _tree_counts(max_n: int, n_labels: int):
    """Counts of canonical trees (t) and nonempty multisets (p) by size."""
    t = [0] * (max_n + 1)
    p = [0] * (max_n + 1)
    for n in range(1, max_n + 1):
        if n == 1:
            t[n] = n_labels - 1
        else:
            t[n] = (n_labels - 1) * t[n - 1] + n_labels * (p[n - 1] - t[n - 1])
        # multisets totaling m out of trees of sizes 1..n
        dp = [0] * (max_n + 1)
        dp[0] = 1
        for s in range(1, n + 1):
            new = [0] * (max_n + 1)
            for m in range(max_n + 1):
                if dp[m] == 0:
                    continue
                j = 0
                while m + j * s <= max_n:
                    new[m + j * s] += dp[m] * comb(t[s] + j - 1, j)
                    j += 1
            dp = new
        for m in range(1, n + 1):
            p[m] = dp[m]
    return t, p


def count_canonical(max_opens: int, n_atoms: int) -> int:
    """Number of canonical treelike models with up to ``max_opens`` opens."""
    t, _ = _tree_counts(max_opens, _labels(n_atoms))
    return sum(t[1:max_opens + 1])


class _TreeEnum:
    """Canonical labeled trees: (label, children) with sorted children.

    Labels are subsets of the valuation patterns over the atoms; a label
    contributes one point per pattern.  Leaves and single-child nodes
    need nonempty labels (empty opens and duplicate parent/child opens
    are never satisfaction-relevant).
    """

    def __init__(self, n_labels: int, memo_limit: int = 7):
        self.n_labels = n_labels
        self.memo_limit = memo_limit
        self._memo = {}

    def trees(self, n: int):
        if n <= self.memo_limit:
            if n not in self._memo:
                self._memo[n] = list(self._gen(n))
            return self._memo[n]
        return self._gen(n)

    def _gen(self, n: int):
        if n == 1:
            for label in range(1, self.n_labels):
                yield (label, ())
            return
        # one child: nonzero label
        for child in self.trees(n - 1):
            for label in range(1, self.n_labels):
                yield (label, (child,))
        # two or more children: any label, children non-decreasing
        for children in self._multisets(n - 1, 2):
            for label in range(self.n_labels):
                yield (label, children)

    def _multisets(self, total: int, at_least: int):
        """Non-decreasing tuples of trees (by size, then list position).

        Only multisets with at least two members are requested, so every
        member has size at most total - 1 and must be memoized.
        """
        if total - 1 > self.memo_limit:
            raise ValueError("memo_limit too small for this tree size")
        yield from self._multiset_rec(total, at_least, total, 1, 0, 0)

    # a method, not a recursive closure: such a closure is a reference
    # cycle that keeps the tree memo alive until the cyclic collector runs
    def _multiset_rec(self, total, at_least, remaining, min_size, min_index,
                      count):
        if remaining == 0:
            if count >= at_least:
                yield ()
            return
        for size in range(min_size, remaining + 1):
            if count + 1 < at_least and size == total:
                continue
            pool = self.trees(size)
            start = min_index if size == min_size else 0
            for i in range(start, len(pool)):
                for rest in self._multiset_rec(total, at_least,
                                               remaining - size, size, i,
                                               count + 1):
                    yield (pool[i],) + rest


def _tree_to_masks(tree, n_atoms: int):
    """Decode a tree into (n_points, open masks, atom masks)."""
    opens = []
    atom_masks = [0] * n_atoms
    counter = [0]

    def walk(node):
        label, children = node
        mask = 0
        pattern = label
        while pattern:
            p = (pattern & -pattern).bit_length() - 1
            pattern &= pattern - 1
            bit = 1 << counter[0]
            counter[0] += 1
            mask |= bit
            for j in range(n_atoms):
                if p >> j & 1:
                    atom_masks[j] |= bit
        for child in children:
            mask |= walk(child)
        opens.append(mask)
        return mask

    walk(tree)
    opens.reverse()  # root (the full set) first
    return counter[0], tuple(opens), tuple(atom_masks)


def _canonical_models(max_opens: int, n_atoms: int):
    """Yield (n_points, open_masks, atom_masks) for every canonical model."""
    enum = _TreeEnum(_labels(n_atoms), memo_limit=max(1, max_opens - 2))
    for n in range(1, max_opens + 1):
        for tree in enum.trees(n):
            yield _tree_to_masks(tree, n_atoms)


def _prefill_presence(enum: _TreeEnum) -> dict:
    """Pattern-presence set per memoized subtree (stable ids only)."""
    cache = {}
    for size in range(1, enum.memo_limit + 1):
        for tree in enum.trees(size):
            label, children = tree
            for child in children:
                label |= cache[id(child)]
            cache[id(tree)] = label
    return cache


def _presence(tree, cache) -> int:
    pres = cache.get(id(tree))
    if pres is not None:
        return pres
    label, children = tree
    for child in children:
        label |= _presence(child, cache)
    return label


def _presence_sat(formula: Formula, presence: int, atoms) -> bool:
    """Satisfiability at the top open given only the patterns present.

    Sound for formulas without the refinement modality: their evaluation
    never leaves the current open, so truth at a point depends only on
    the point's valuation pattern and the set of patterns in view.
    """
    patterns = [p for p in range(presence.bit_length()) if presence >> p & 1]
    n = len(patterns)
    vals = {a: sum(1 << i for i, p in enumerate(patterns) if p >> j & 1)
            for j, a in enumerate(atoms)}
    ctx = MaskContext(n, ((1 << n) - 1,), vals)
    return ctx.truth(formula, ctx.full) != 0


def _materialize(n_points: int, opens, atom_masks, atoms) -> Model:
    # zero-padded so that sorted point order matches bit order
    points = tuple(f"p{i + 1:02d}" for i in range(n_points))
    sets = [frozenset(points[i] for i in range(n_points) if m >> i & 1)
            for m in opens]
    valuation = {a: frozenset(points[i] for i in range(n_points)
                              if atom_masks[j] >> i & 1)
                 for j, a in enumerate(atoms)}
    return Model(SubsetSpace(points, sets), valuation)


# ---------------------------------------------------------------------------
# search

class SatOutcome:
    """Search verdict with witness, searched sizes, and statistics.

    verdict is "sat", "unsat_within" (budget exhausted, nothing proved)
    or "unsat_proved" (the bound-covering space was exhausted).
    """

    def __init__(self, verdict, witness, searched, stats, bound):
        self.verdict = verdict
        self.witness = witness          # (Model, point, open frozenset) or None
        self.searched = searched
        self.stats = stats
        self.bound = bound

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


DEFAULT_CAP_OPENS = 8
DEFAULT_EXHAUST_BUDGET = 2_000_000


def satisfiable(formula: Formula, max_points=None, max_opens=None,
                use_bound: bool = False, treelike: bool = True,
                cap_opens: int = DEFAULT_CAP_OPENS,
                exhaust_budget: int = DEFAULT_EXHAUST_BUDGET) -> SatOutcome:
    """Bounded search for a model and neighborhood satisfying ``formula``.

    With an explicit budget, enumerates every space within it (points
    ascending, then family shape, then valuation) and returns the first
    witness; exhausting a budget at least as large as the computed bound
    proves unsatisfiability.  With ``use_bound``, a small plain sweep is
    followed by the canonical-coverage exhaustion when affordable.
    """
    atoms = sorted(atom_names(formula))
    bound = complexity_bound(formula)
    stats = {"models": 0, "neighborhoods": 0}
    start = time.monotonic()

    def finish(verdict, witness, searched):
        stats["seconds"] = round(time.monotonic() - start, 6)
        return SatOutcome(verdict, witness, searched, dict(stats), bound)

    def plain_sweep(limit_points, limit_opens, model_cap=None):
        count = 0
        for model in enumerate_spaces(limit_points, limit_opens, atoms,
                                      treelike=treelike):
            count += 1
            if model_cap is not None and count > model_cap:
                return None
            stats["models"] += 1
            ctx = MaskContext.from_model(model)
            for u_mask, u in zip(ctx.opens, model.space.opens):
                if not u_mask:
                    continue
                stats["neighborhoods"] += len(u)
                t = ctx.truth(formula, u_mask)
                if t:
                    bit = (t & -t).bit_length() - 1
                    x = model.space.points[bit]
                    if not model.satisfies(x, u, formula):
                        raise AssertionError(
                            "the witness does not hold in the returned model")
                    return model, x, u
        return None

    if not use_bound:
        if max_points is None:
            raise ValueError("give a budget (max_points/max_opens) or use_bound")
        if max_points < 1 or (max_opens is not None and max_opens < 1):
            raise ValueError("budget must allow at least one point and open")
        hit = plain_sweep(max_points, max_opens)
        searched = {"max_points": max_points, "max_opens": max_opens,
                    "coverage": "plain"}
        if hit:
            return finish("sat", hit, searched)
        covers = (not bound.saturated and treelike
                  and max_points >= bound.max_points
                  and (max_opens is None or max_opens >= bound.max_opens))
        return finish("unsat_proved" if covers else "unsat_within",
                      None, searched)

    if not treelike:
        raise ValueError("bound-driven exhaustion applies to treelike search")

    # small plain sweep first: deterministic small witnesses in the
    # points-ascending order (capped; the canonical pass is the coverage)
    sweep_points = min(4, bound.max_points) if not bound.saturated else 4
    sweep_points = max(1, sweep_points)
    hit = plain_sweep(sweep_points, 6, model_cap=20_000)
    if hit:
        return finish("sat", hit, {"max_points": sweep_points, "max_opens": 6,
                                   "coverage": "plain"})

    if bound.saturated or bound.max_opens > cap_opens:
        searched = {"max_points": sweep_points, "max_opens": 6,
                    "coverage": "plain",
                    "note": "bound too large to exhaust"}
        return finish("unsat_within", None, searched)

    predicted = count_canonical(bound.max_opens, len(atoms))
    if predicted > exhaust_budget:
        searched = {"max_points": sweep_points, "max_opens": 6,
                    "coverage": "plain",
                    "note": f"canonical coverage needs {predicted} models, "
                            f"budget is {exhaust_budget}"}
        return finish("unsat_within", None, searched)

    n_atoms = len(atoms)
    box_free = all(g.kind != "box" for g in subformulas(formula))
    enum = _TreeEnum(_labels(n_atoms), memo_limit=max(1, bound.max_opens - 2))
    pres_cache = _prefill_presence(enum) if box_free else None
    verdicts: dict[int, bool] = {}
    for n in range(1, bound.max_opens + 1):
        for tree in enum.trees(n):
            stats["models"] += 1
            if box_free:
                pres = _presence(tree, pres_cache)
                hit = verdicts.get(pres)
                if hit is None:
                    hit = _presence_sat(formula, pres, atoms)
                    verdicts[pres] = hit
                if not hit:
                    continue
            n_points, opens, atom_masks = _tree_to_masks(tree, n_atoms)
            ctx = MaskContext(n_points, opens, dict(zip(atoms, atom_masks)))
            stats["neighborhoods"] += n_points
            t = ctx.truth(formula, ctx.full)
            if t:
                model = _materialize(n_points, opens, atom_masks, atoms)
                bit = (t & -t).bit_length() - 1
                x = model.space.points[bit]
                u = model.space.full
                if not model.satisfies(x, u, formula):
                    raise AssertionError(
                        "the witness does not hold in the returned model")
                return finish("sat", (model, x, frozenset(u)),
                              {"max_opens": bound.max_opens,
                               "coverage": "canonical"})
            if box_free:
                raise AssertionError(
                    "presence fast path and mask engine disagree")
    searched = {"max_opens": bound.max_opens,
                "effective_points": min(bound.max_points,
                                        bound.max_opens * (1 << n_atoms)),
                "coverage": "canonical",
                "models": predicted}
    return finish("unsat_proved", None, searched)


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
