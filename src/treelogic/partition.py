"""Stable partitions, remainders, filtration and finite-model extraction.

The pipeline: for a treelike model and a formula, build an
intersection-closed family of subsets whose remainders are stable for
every subformula; collapse the open family along the remainder classes
(filtration); then collapse points that the surviving opens and the
formula's atoms cannot tell apart.  The result is a finite treelike
model satisfying the same subformulas at corresponding neighborhoods.

Inside the pipeline every point set is a bitmask in the input space's
point order (``SubsetSpace.index``): a family is a set of masks and is
closed under AND; truth sets are columns of ``MaskContext`` rows; an
open's remainder is found from its owner, the least member around it; a
member's region is the OR of its remainder's opens, and its classes
split that region by the regions above it; the quotient splits the
points by each open's and atom's mask.  Frozensets are built once,
at the API edge: the public fields of ``PartitionTable`` and
``FiltrationResult``, the output spaces and the size report; the output
models keep their atoms as masks.
``closure_intersection`` and ``remainder`` take and return frozensets;
``remainder`` scans members and opens as the definition reads, and the
tests hold the owner pass to it.

``complexity_bound`` mirrors the growth of that construction:
conjunction multiplies family sizes, knowledge recloses with truth sets
(factor 2^f), the open collapse yields at most f*2^f classes, and the
point quotient at most 2^(opens + atoms) points.  The size report sets
an extracted model beside it; it is a loose upper bound, and no search
relies on it.
"""

from __future__ import annotations

from .formula import Formula, render, subformulas
from .model import Model, SubsetSpace, _open_sort_key

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


def _close(masks) -> frozenset:
    """Smallest superset of the point masks ``masks`` closed under AND."""
    closed = set(masks)
    frontier = list(closed)
    while frontier:
        u = frontier.pop()
        for v in list(closed):
            w = u & v
            if w not in closed:
                closed.add(w)
                frontier.append(w)
    return frozenset(closed)


def closure_intersection(members) -> frozenset:
    """Smallest superset of ``members`` closed under pairwise intersection."""
    members = [frozenset(u) for u in members]
    bit = {p: 1 << i for i, p in enumerate(
        dict.fromkeys(p for u in members for p in u))}
    closed = _close(sum(map(bit.__getitem__, u)) for u in members)
    return frozenset(frozenset(p for p, b in bit.items() if m & b)
                     for m in closed)


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

    ``families`` maps each subformula, children first, to its
    intersection-closed family of point sets; ``family`` is the top
    formula's, and ``members`` lists it in ``ordered_family`` order.
    ``remainders`` are taken with respect to the top family.  The open
    ``v`` lies in the remainder of its owner, the AND of the members
    around it: the family is intersection-closed and holds the full set,
    so the owner is the least member around ``v``, and every other member
    around ``v`` lies above it.

    The constructor takes the families as sets of point masks.  For
    ``filtrate`` it keeps each open's owner as an index into ``members``
    (``_owner``, in the order of the space's opens).
    """

    def __init__(self, model, formula, families):
        space = model.space
        self.model = model
        self.formula = formula
        subsets, public = {}, {}
        for fam in families.values():
            if fam not in public:   # ``~``, ``[]`` and atoms share families
                for m in fam:
                    if m not in subsets:
                        subsets[m] = space._subset(m)
                public[fam] = frozenset(map(subsets.__getitem__, fam))
        self.families = {psi: public[fam] for psi, fam in families.items()}
        self.family = self.families[formula]
        masks = sorted(families[formula],
                       key=lambda m: _open_sort_key(subsets[m]))
        self.members = tuple(map(subsets.__getitem__, masks))
        index = {m: i for i, m in enumerate(masks)}
        owner = []
        for v in space.open_masks:
            least = -1
            for m in masks:
                if not v & ~m:
                    least &= m
            owner.append(index[least])
        self._owner = owner
        rems = [[] for _ in masks]
        for v, i in zip(space.opens, owner):
            rems[i].append(v)
        self.remainders = {u: frozenset(r) for u, r in zip(self.members, rems)}

    def family_sizes(self) -> dict:
        return {render(psi): len(fam) for psi, fam in self.families.items()}


def build_stable_partitions(model: Model, formula: Formula) -> PartitionTable:
    """Families of subsets whose remainders are stable per subformula.

    Built bottom-up over the subformulas, on point masks: atoms need only
    the whole space; conjunction merges and recloses; the knowledge case
    recloses with the truth sets of the child over the child's family
    members.  Negation and the refinement modality reuse the child's
    family.  Every truth set comes from the model's own mask context
    (``Model._ctx``): the knowledge case reads its child's truth at every
    member from one pass, whose extra slots are the members that are not
    opens.
    """
    space = model.space
    if not space.is_treelike():
        raise PartitionError("stable partitions are built over treelike models")
    pos, width = space._pos, len(space.open_masks)
    whole = frozenset([space.open_masks[0]])    # the full set comes first
    families: dict[Formula, frozenset] = {}
    ctx = model._ctx
    for psi in subformulas(formula):
        k = psi.kind
        if k in ("atom", "top", "bot"):
            fam = whole
        elif k in ("not", "box"):
            fam = families[psi.left]
        elif k == "and":
            fam = _close(families[psi.left] | families[psi.right])
        else:  # know
            base = families[psi.left]
            carriers = [m for m in base if m not in pos]
            row = ctx.rows(subformulas(psi.left), [psi.left], carriers)[0]
            truths = [row[pos[m]] for m in base if m in pos] + row[width:]
            fam = _close(base.union(truths))
        families[psi] = fam
    return PartitionTable(model, formula, families)


class FiltrationResult:
    """Open-family collapse of a model along the stable partition.

    ``surviving`` lists the family members whose remainder covers at
    least one point; ``bars[u]`` is that covered region; ``lt`` is the
    strict relation between members whose regions meet; ``classes`` maps
    (member, point) to the point's class, which is an open of ``output``;
    ``owner`` maps each open of the input to the member whose remainder
    holds it.
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
    """Collapse the open family to the classes induced by the partition.

    Works on the table's member indices and point masks throughout; the
    result's fields are built from them at the end.
    """
    table = build_stable_partitions(model, formula)
    space = model.space
    members, owner = table.members, table._owner

    # each member's region, the points its remainder covers
    bar = [0] * len(members)
    for v, i in zip(space.open_masks, owner):
        bar[i] |= v
    alive = [i for i, b in enumerate(bar) if b]

    # a < b: their regions meet, and every remainder open of a that meets
    # one of b lies strictly inside it.  On a tree two opens meet only if
    # nested, so that fails just when an open of b has an open of a among
    # its strict ancestors in the open tree.  ``held[j]`` has bit a when
    # an ancestor of open j is a remainder open of a, and ``inside[b]``
    # has it when that holds for some remainder open of b.
    held = [0] * len(owner)
    inside = [0] * len(members)
    for i, kids in enumerate(space.children):
        for c in kids:
            held[c] = held[i] | 1 << owner[i]
            inside[owner[c]] |= held[c]
    lt = {(a, b) for a in alive for b in alive
          if a != b and bar[a] & bar[b] and not inside[b] >> a & 1}

    for a, b in lt:
        if (b, a) in lt:
            raise PartitionError("strict remainder relation is not asymmetric")

    # a's classes: its region split by the region of every member above it
    parts = {}
    for a in alive:
        split = [bar[a]]
        for b in alive:
            if (a, b) in lt:
                split = [q for p in split for q in (p & bar[b], p & ~bar[b])
                         if q]
        parts[a] = split

    # class-nesting side conditions mirroring the lt relation: where a
    # class of a meets a class of b, it lies strictly inside that class
    # just when a < b
    for a in alive:
        for b in alive:
            if a == b or not bar[a] & bar[b]:
                continue
            strict = (a, b) in lt
            for ca in parts[a]:
                for cb in parts[b]:
                    if not ca & cb:
                        continue
                    nested = ca != cb and not ca & ~cb
                    if strict and not nested:
                        raise PartitionError("strictly related members must "
                                             "give strictly nested classes")
                    if nested and not strict:
                        raise PartitionError("strictly nested classes require "
                                             "strictly related members")

    out = {c: space._subset(c) for a in alive for c in parts[a]}
    if space.open_masks[0] not in out:
        raise PartitionError("filtration lost the full point set")
    classes = {}
    for a in alive:
        u = members[a]
        for c in parts[a]:
            cls = out[c]
            for x in cls:
                classes[(u, x)] = cls
    names = [f"cls({min(u)},{len(u)})" for u in out.values()]
    # the output keeps the input's points, so its atoms keep their masks
    output = Model._from_masks(
        SubsetSpace(space.points, out.values(), names), model.atom_masks)
    if not output.space.is_treelike():
        raise PartitionError("filtration produced a non-treelike space")
    return FiltrationResult(
        table, tuple(members[a] for a in alive),
        {u: space._subset(b) for u, b in zip(members, bar)},
        frozenset((members[a], members[b]) for a, b in lt), classes,
        dict(zip(space.opens, map(members.__getitem__, owner))), output)


def _quotient_parts(model: Model, atoms):
    """The point quotient and the map from each point to its class's least.

    The point set is split by every open's mask and every atom's in turn,
    so each class holds the points with one signature, and its least
    point, its lowest bit, stands for it.  The quotient's points keep the
    input's order: with the classes sorted by their lowest bits, point i
    stands for class i, and an atom holds there when its mask meets that
    class.
    """
    space = model.space
    points = space.points
    classes = [space.open_masks[0]]
    for m in (*space.open_masks, *(model.atom_masks.get(a, 0)
                                   for a in sorted(atoms))):
        classes = [q for p in classes for q in (p & m, p & ~m) if q]
    classes.sort(key=lambda c: c & -c)
    point_map, keep = {}, 0
    for c in classes:
        low = c & -c
        keep |= low
        rep = points[low.bit_length() - 1]
        for x in space._subset(c):
            point_map[x] = rep
    # every open is a union of classes, so it keeps exactly their least
    # points, images of distinct opens stay distinct, and the
    # constructor's duplicate check cannot fire
    new_opens = [space._subset(m & keep) for m in space.open_masks]
    quotient = SubsetSpace(space._subset(keep), new_opens)
    return Model._from_masks(quotient, {
        a: sum(1 << i for i, c in enumerate(classes) if c & m)
        for a, m in model.atom_masks.items()}), point_map


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
    # the table's families list the subformulas: no second walk
    atoms = [g.name for g in filt.table.families if g.kind == "atom"]
    quotient, point_map = _quotient_parts(filt.output, atoms)
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


def _family_bound(post):
    bound = {}
    for g in post:
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
    return b


def complexity_bound(f: Formula) -> Bound:
    """Upper bounds on the finite-model sizes reachable for ``f``."""
    return _bound(subformulas(f))


def _bound(post) -> Bound:
    """``complexity_bound`` of the last formula of ``post``.

    ``post`` lists every subformula of that formula once, children first.
    """
    fam = _family_bound(post)
    if fam is None:
        return Bound(None, None, None, True)
    opens = fam * (1 << fam) if fam <= 60 else None
    if opens is None or opens > _SATURATION:
        return Bound(fam, None, None, True)
    exponent = opens + sum(g.kind == "atom" for g in post)
    points = (1 << exponent) if exponent <= 60 else None
    if points is None or points > _SATURATION:
        return Bound(fam, opens, None, True)
    return Bound(fam, opens, points, False)


def size_report(table: PartitionTable, output: Model) -> dict:
    """Family sizes, the output's size and the paper's bound for the formula."""
    bound = _bound(list(table.families))
    return {
        "family_sizes": table.family_sizes(),
        "output_points": len(output.space.points),
        "output_opens": len(output.space.opens),
        "bound_points": "astronomical" if bound.saturated else bound.max_points,
        "bound_opens": "astronomical" if bound.saturated else bound.max_opens,
    }
