"""Stable partitions, remainders, filtration and finite-model extraction.

The pipeline: for a treelike model and a formula, build an
intersection-closed family of subsets whose remainders are stable for
every subformula; collapse the open family along the remainder classes
(filtration); then collapse points that the surviving opens and the
formula's atoms cannot tell apart.  The result is a finite treelike
model satisfying the same subformulas at corresponding neighborhoods.

``complexity_bound`` mirrors the growth of that construction:
conjunction multiplies family sizes, knowledge recloses with truth sets
(factor 2^f), the open collapse yields at most f*2^f classes, and the
point quotient at most 2^(opens + atoms) points.  The size report sets
an extracted model beside it; it is a loose upper bound, and no search
relies on it.
"""

from __future__ import annotations

from .formula import Formula, atom_names, render, subformulas
from .model import MaskContext, Model, SubsetSpace, _open_sort_key

__all__ = [
    "PartitionError", "closure_intersection", "remainder", "is_stable",
    "PartitionTable", "build_stable_partitions",
    "FiltrationResult", "filtrate",
    "point_quotient", "ExtractResult", "extract_finite_model",
    "ordered_family", "Bound", "complexity_bound", "size_report",
]


class PartitionError(ValueError):
    """Violated precondition or internal inconsistency in the pipeline."""


def ordered_family(family) -> tuple:
    """Deterministic member order: big to small, then lexicographic."""
    return tuple(sorted(family, key=_open_sort_key))


def closure_intersection(members) -> frozenset:
    """Smallest superset of ``members`` closed under pairwise intersection."""
    closed = set(frozenset(u) for u in members)
    frontier = list(closed)
    while frontier:
        u = frontier.pop()
        for v in list(closed):
            w = u & v
            if w not in closed:
                closed.add(w)
                frontier.append(w)
    return frozenset(closed)


def remainder(model: Model, family, u) -> frozenset:
    """Opens below ``u`` that lie below no family member not above ``u``.

    ``family`` is a collection of subsets of X (members need not be
    opens); the result is a set of opens.
    """
    family = set(frozenset(f) for f in family)
    u = frozenset(u)
    if u not in family:
        raise PartitionError("remainder expects a member of the family")
    space = model.space
    w = space._mask(u)
    others = [space._mask(o) for o in family if not u <= o]
    return frozenset(v for v, m in zip(space.opens, space.open_masks)
                     if not m & ~w and all(m & ~o for o in others))


def is_stable(model: Model, opens_subset, f: Formula) -> bool:
    """No point flips its verdict on ``f`` across the given opens.

    Quantifies over the opens of the group that contain the point;
    points lying in none of them are vacuously stable.
    """
    group = [frozenset(v) for v in opens_subset]
    for v in group:
        if model.space._position(v) is None:
            raise PartitionError("is_stable expects a set of opens of the model")
    truths = [model.truth_set(v, f) for v in group]
    for i in range(len(group)):
        for j in range(i + 1, len(group)):
            if truths[i] & group[j] != truths[j] & group[i]:
                return False
    return True


class PartitionTable:
    """Per-subformula stable partitions for one formula.

    ``families`` maps each subformula to its intersection-closed family;
    ``family`` is the top formula's.  ``remainders`` are taken with
    respect to the top family.
    """

    def __init__(self, model, formula, families):
        self.model = model
        self.formula = formula
        self.families = families
        self.family = families[formula]
        self.members = ordered_family(self.family)
        self.remainders = {u: remainder(model, self.family, u)
                           for u in self.members}

    def family_sizes(self) -> dict:
        return {render(psi): len(fam) for psi, fam in self.families.items()}


def build_stable_partitions(model: Model, formula: Formula) -> PartitionTable:
    """Families of subsets whose remainders are stable per subformula.

    Built bottom-up over the subformulas: atoms need only the whole
    space; conjunction merges and recloses; the knowledge case recloses
    with the truth sets of the child over the child's family members.
    Negation and the refinement modality reuse the child's family.
    Every truth set of the call comes from one mask context over the model.
    """
    if not model.space.is_treelike():
        raise PartitionError("stable partitions are built over treelike models")
    families: dict[Formula, frozenset] = {}
    ctx = MaskContext.from_model(model)
    for psi in subformulas(formula):
        k = psi.kind
        if k in ("atom", "top", "bot"):
            fam = frozenset([model.space.full])
        elif k in ("not", "box"):
            fam = families[psi.left]
        elif k == "and":
            fam = closure_intersection(families[psi.left] | families[psi.right])
        else:  # know
            base = families[psi.left]
            truths = {model._truth(u, psi.left, ctx) for u in base}
            fam = closure_intersection(base | truths)
        families[psi] = fam
    return PartitionTable(model, formula, families)


class FiltrationResult:
    """Open-family collapse of a model along the stable partition.

    ``surviving`` lists the family members whose remainder covers at
    least one point; ``bars[u]`` is that covered region; ``lt`` is the
    strict relation between members whose regions meet; ``classes`` maps
    (member, point) to the point's class, which is an open of ``output``.
    """

    def __init__(self, table, surviving, bars, lt, classes, owner, output):
        self.table = table
        self.formula = table.formula
        self.surviving = surviving
        self.bars = bars
        self.lt = lt
        self.classes = classes
        self.owner = owner
        self.output = output

    def le(self, u1, u2) -> bool:
        return u1 == u2 or (u1, u2) in self.lt

    def image(self, x, v):
        """Image neighborhood in the output of the input neighborhood (x, v)."""
        v = frozenset(v)
        owner = self.owner.get(v)
        if owner is None:
            raise PartitionError("not an open of the filtrated model")
        cls = self.classes.get((owner, x))
        if cls is None:
            raise PartitionError(f"point {x!r} does not belong to the open")
        return x, cls


def filtrate(model: Model, formula: Formula) -> FiltrationResult:
    """Collapse the open family to the classes induced by the partition."""
    table = build_stable_partitions(model, formula)
    members = table.members
    rem = table.remainders

    bars = {u: frozenset().union(*rem[u]) if rem[u] else frozenset()
            for u in members}
    surviving = tuple(u for u in members if bars[u])

    # owner: every open falls in exactly one remainder
    owner = {}
    for v in model.space.opens:
        holders = [u for u in members if v in rem[u]]
        if len(holders) != 1:
            raise PartitionError(
                f"open {sorted(v)} should lie in exactly one remainder, "
                f"found {len(holders)}")
        owner[v] = holders[0]

    # u1 < u2: their regions meet, and their remainder opens that meet
    # nest strictly (a shared point of two opens lies in both regions)
    lt = set()
    for u1 in surviving:
        for u2 in surviving:
            if u1 != u2 and bars[u1] & bars[u2] and all(
                    v1 < v2 for v1 in rem[u1] for v2 in rem[u2] if v1 & v2):
                lt.add((u1, u2))

    for u1, u2 in lt:
        if (u2, u1) in lt:
            raise PartitionError("strict remainder relation is not asymmetric")

    def le(u1, u2):
        return u1 == u2 or (u1, u2) in lt

    classes = {}
    opens_out = set()
    for ui in surviving:
        ups = [uj for uj in surviving if le(ui, uj)]
        groups = {}
        for x in sorted(bars[ui]):
            sig = tuple(x in bars[uj] for uj in ups)
            groups.setdefault(sig, []).append(x)
        for group in groups.values():
            cls = frozenset(group)
            opens_out.add(cls)
            for x in group:
                classes[(ui, x)] = cls

    # class-nesting side conditions mirroring the lt relation
    for uk in surviving:
        for ul in surviving:
            if uk == ul or not bars[uk] & bars[ul]:
                continue
            for x in bars[uk] & bars[ul]:
                ck, cl = classes[(uk, x)], classes[(ul, x)]
                if le(uk, ul) and not ck <= cl:
                    raise PartitionError("classes do not respect the relation")
                if (uk, ul) in lt and not (ck <= cl and ck != cl):
                    raise PartitionError("strictly related members must give "
                                         "strictly nested classes")
                if ck < cl and (uk, ul) not in lt:
                    raise PartitionError("strictly nested classes require "
                                         "strictly related members")

    if model.space.full not in opens_out:
        raise PartitionError("filtration lost the full point set")
    names = [f"cls({min(u)},{len(u)})" for u in opens_out]
    space = SubsetSpace(model.space.points, opens_out, names)
    output = Model(space, model.valuation)
    if not space.is_treelike():
        raise PartitionError("filtration produced a non-treelike space")
    return FiltrationResult(table, surviving, bars, frozenset(lt),
                            classes, owner, output)


def _quotient_parts(model: Model, atoms):
    atoms = sorted(atoms)
    sig = {}
    for x in model.space.points:
        sig[x] = (tuple(x in u for u in model.space.opens),
                  tuple(x in model.valuation.get(a, frozenset()) for a in atoms))
    groups: dict[tuple, list] = {}
    for x in model.space.points:
        groups.setdefault(sig[x], []).append(x)
    point_map = {}
    for members in groups.values():
        rep = min(members)
        for x in members:
            point_map[x] = rep
    new_points = sorted(set(point_map.values()))
    # every open is a union of classes, so images of distinct opens stay
    # distinct and the constructor's duplicate check cannot fire
    new_opens = [frozenset(point_map[x] for x in u)
                 for u in model.space.opens]
    new_val = {a: frozenset(point_map[x] for x in members)
               for a, members in model.valuation.items()}
    space = SubsetSpace(new_points, new_opens)
    return Model(space, new_val), point_map


def point_quotient(model: Model, atoms) -> Model:
    """Identify points that agree on every open and on the given atoms.

    The whole valuation is carried over member-wise; only the atoms in
    ``atoms`` are guaranteed to keep their meaning across the quotient.
    """
    return _quotient_parts(model, atoms)[0]


class ExtractResult:
    """Finite model extracted for one formula, with the size report."""

    def __init__(self, model, report, filtration, point_map):
        self.model = model
        self.report = report
        self.filtration = filtration
        self.table = filtration.table
        self.point_map = point_map

    def image(self, x, v):
        """Output neighborhood corresponding to the input neighborhood (x, v)."""
        x2, cls = self.filtration.image(x, v)
        return (self.point_map[x2],
                frozenset(self.point_map[y] for y in cls))


def extract_finite_model(model: Model, formula: Formula) -> ExtractResult:
    """Stable partition, filtration, then point quotient over the atoms."""
    filt = filtrate(model, formula)
    quotient, point_map = _quotient_parts(filt.output, atom_names(formula))
    return ExtractResult(quotient, size_report(filt.table, quotient), filt,
                         point_map)


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


def size_report(table: PartitionTable, output: Model) -> dict:
    """Family sizes, the output's size and the paper's bound for the formula."""
    bound = complexity_bound(table.formula)
    return {
        "family_sizes": table.family_sizes(),
        "output_points": len(output.space.points),
        "output_opens": len(output.space.opens),
        "bound_points": "astronomical" if bound.saturated else bound.max_points,
        "bound_opens": "astronomical" if bound.saturated else bound.max_opens,
    }
