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
points by each open's and atom's mask.  The output spaces are built
from their open masks and the output models keep their atoms as masks.
Frozensets are built on access: the public fields of ``PartitionTable``,
``FiltrationResult`` and ``ExtractResult`` the first time each is read,
an ``image`` for its one neighborhood, an output's opens and valuation
when read.  The size report prints the subformulas in one pass
(``formula.render_all``).  The package has no set-level intersection
closure, remainder or stability test: the tests keep those definitions
and hold the table's families and owners to them.

``complexity_bound`` mirrors the growth of that construction:
conjunction multiplies family sizes, knowledge recloses with truth sets
(factor 2^f), the open collapse yields at most f*2^f classes, and the
point quotient at most 2^(opens + atoms) points.  The size report sets
an extracted model beside it; it is a loose upper bound, and no search
relies on it.
"""

from __future__ import annotations

from functools import cached_property

from .formula import Formula, render_all, subformulas
from .model import (Model, SubsetSpace, _cells, _open_sort_key,
                    _sorted_masks)

__all__ = [
    "PartitionError", "PartitionTable", "build_stable_partitions",
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

    The table keeps point masks: each subformula's family as a set of
    masks (``_families``), the top family's members in ``members`` order
    (``_members``) and each open's owner as an index into them
    (``_owner``, in the order of the space's opens).  The four public
    fields are built from these the first time they are read.
    """

    def __init__(self, model, formula, families):
        self.model = model
        self.formula = formula
        self._families = families
        masks = self._members = _sorted_masks(families[formula])
        index = {m: i for i, m in enumerate(masks)}
        owner = []
        for v in model.space.open_masks:
            least = -1
            for m in masks:
                if not v & ~m:
                    least &= m
            owner.append(index[least])
        self._owner = owner

    @cached_property
    def families(self) -> dict:
        subset, subsets, public = self.model.space._subset, {}, {}
        for fam in self._families.values():
            if fam not in public:   # ``~``, ``[]`` and atoms share families
                for m in fam:
                    if m not in subsets:
                        subsets[m] = subset(m)
                public[fam] = frozenset(map(subsets.__getitem__, fam))
        return {psi: public[fam] for psi, fam in self._families.items()}

    @cached_property
    def family(self) -> frozenset:
        return frozenset(self.members)

    @cached_property
    def members(self) -> tuple:
        return tuple(map(self.model.space._subset, self._members))

    @cached_property
    def remainders(self) -> dict:
        rems = [[] for _ in self._members]
        for v, i in zip(self.model.space.opens, self._owner):
            rems[i].append(v)
        return {u: frozenset(r) for u, r in zip(self.members, rems)}

    def family_sizes(self) -> dict:
        text = render_all(self._families)
        return {text[psi]: len(fam) for psi, fam in self._families.items()}


def _subtree(post, i) -> list:
    """``post[i]`` and its subformulas, children first.

    ``post`` lists subformulas children first, so everything below
    ``post[i]`` comes before it: one backward scan from ``i`` finds them,
    and the result keeps ``post``'s order.
    """
    reach, out = {post[i]}, []
    for j in range(i, -1, -1):
        g = post[j]
        if g in reach:
            out.append(g)
            reach.add(g.left)
            reach.add(g.right)
    out.reverse()
    return out


def build_stable_partitions(model: Model, formula: Formula) -> PartitionTable:
    """Families of subsets whose remainders are stable per subformula.

    Built bottom-up over one children-first walk of the subformulas, on
    point masks: atoms need only the whole space; conjunction merges and
    recloses; the knowledge case recloses with the truth sets of the
    child over the child's family members.  Negation and the refinement
    modality reuse the child's family.  Every truth set comes from the
    model's own mask context (``Model._ctx``): the knowledge case reads
    its child's truth at every member from one pass over the child's part
    of the walk, whose extra slots are the members that are not opens.
    """
    space = model.space
    if not space.is_treelike():
        raise PartitionError("stable partitions are built over treelike models")
    pos, width = space._pos, len(space.open_masks)
    whole = frozenset([space.open_masks[0]])    # the full set comes first
    families: dict[Formula, frozenset] = {}
    at = {}
    ctx = model._ctx
    post = subformulas(formula)
    for i, psi in enumerate(post):
        at[psi] = i
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
            row = ctx.rows(_subtree(post, at[psi.left]), [psi.left],
                           carriers)[0]
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

    The result keeps point masks and the table's member indices: the
    surviving members (``_alive``), every member's region (``_bar``), the
    strict pairs (``_lt``) and each surviving member's classes
    (``_parts``).  The public fields are built from them the first time
    they are read; ``image`` reads the masks.
    """

    def __init__(self, table, alive, bar, lt, parts, output):
        self.table = table
        self.formula = table.formula
        self.output = output
        self._alive = alive
        self._bar = bar
        self._lt = lt
        self._parts = parts

    @cached_property
    def surviving(self) -> tuple:
        members = self.table.members
        return tuple(members[a] for a in self._alive)

    @cached_property
    def bars(self) -> dict:
        subset = self.table.model.space._subset
        return {u: subset(b) for u, b in zip(self.table.members, self._bar)}

    @cached_property
    def lt(self) -> frozenset:
        members = self.table.members
        return frozenset((members[a], members[b]) for a, b in self._lt)

    @cached_property
    def classes(self) -> dict:
        members, subset = self.table.members, self.table.model.space._subset
        out, classes = {}, {}
        for a in self._alive:
            u = members[a]
            for c in self._parts[a]:
                if c not in out:
                    out[c] = subset(c)
                cls = out[c]
                for x in cls:
                    classes[(u, x)] = cls
        return classes

    @cached_property
    def owner(self) -> dict:
        members = self.table.members
        return dict(zip(self.table.model.space.opens,
                        map(members.__getitem__, self.table._owner)))

    def le(self, u1, u2) -> bool:
        return u1 == u2 or (u1, u2) in self.lt

    def _class(self, x, v) -> int:
        """The mask of ``image(x, v)``'s open: the class of the owner of
        ``v`` that holds ``x``."""
        space = self.table.model.space
        i = space._position(frozenset(v))
        if i is None:
            raise PartitionError("not an open of the filtrated model")
        b = space.index.get(x)
        if b is not None:
            for c in self._parts.get(self.table._owner[i], ()):
                if c >> b & 1:
                    return c
        raise PartitionError(f"point {x!r} does not belong to the open")

    def image(self, x, v):
        """Image neighborhood in the output of the input neighborhood (x, v)."""
        return x, self.table.model.space._subset(self._class(x, v))


def filtrate(model: Model, formula: Formula) -> FiltrationResult:
    """Collapse the open family to the classes induced by the partition.

    Works on the table's member indices and point masks throughout; the
    output space is built from the class masks.
    """
    table = build_stable_partitions(model, formula)
    space = model.space
    owner = table._owner

    # each member's region, the points its remainder covers
    bar = [0] * len(table._members)
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
    inside = [0] * len(bar)
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
    parts = {a: _cells(bar[a], [bar[b] for b in alive if (a, b) in lt])
             for a in alive}

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

    points = space.points
    names = {c: f"cls({points[(c & -c).bit_length() - 1]},{c.bit_count()})"
             for a in alive for c in parts[a]}
    if space.open_masks[0] not in names:
        raise PartitionError("filtration lost the full point set")
    # the output keeps the input's points, so its atoms keep their masks
    output = Model._from_masks(
        SubsetSpace._from_masks(points, names.keys(), names),
        model.atom_masks)
    if not output.space.is_treelike():
        raise PartitionError("filtration produced a non-treelike space")
    return FiltrationResult(table, alive, bar, lt, parts, output)


def _quotient_parts(model: Model, atoms):
    """The point quotient and its point map, as the classes' masks.

    The point set is split by every open's mask and every atom's in turn,
    so each class holds the points with one signature, and its least
    point, its lowest bit, stands for it.  The quotient's points keep the
    input's order: with the classes sorted by their lowest bits, point i
    stands for class i, the points of ``classes[i]``, and an open or an
    atom holds there when its mask meets that class.
    """
    space = model.space
    points = space.points
    classes = _cells(space.open_masks[0], (
        *space.open_masks, *(model.atom_masks.get(a, 0) for a in sorted(atoms))))
    classes.sort(key=lambda c: c & -c)

    def pack(m):
        return sum(1 << i for i, c in enumerate(classes) if c & m)

    # every open is a union of classes, so images of distinct opens stay
    # distinct, and the full set goes to the full set
    quotient = SubsetSpace._from_masks(
        tuple(points[(c & -c).bit_length() - 1] for c in classes),
        map(pack, space.open_masks))
    return Model._from_masks(quotient, {
        a: pack(m) for a, m in model.atom_masks.items()}), classes


def point_quotient(model: Model, atoms) -> Model:
    """Identify points that agree on every open and on the given atoms.

    The whole valuation is carried over member-wise; only the atoms in
    ``atoms`` are guaranteed to keep their meaning across the quotient.
    """
    return _quotient_parts(model, atoms)[0]


class ExtractResult:
    """Finite model extracted for one formula, with the size report.

    ``point_map`` sends each point of the input to the point of ``model``
    that stands for it.  The result keeps the point quotient's classes as
    masks (``_classes``, see ``_quotient_parts``); ``point_map`` is built
    from them the first time it is read, and ``image`` reads the masks.
    """

    def __init__(self, model, report, filtration, classes):
        self.model = model
        self.report = report
        self.filtration = filtration
        self.table = filtration.table
        self._classes = classes

    @cached_property
    def point_map(self) -> dict:
        subset = self.table.model.space._subset
        reps = self.model.space.points
        return {x: rep for c, rep in zip(self._classes, reps)
                for x in subset(c)}

    def image(self, x, v):
        """Output neighborhood corresponding to the input neighborhood (x, v)."""
        space = self.table.model.space
        c = self.filtration._class(x, v)
        b = 1 << space.index[x]
        rep = next(p for q, p in zip(self._classes, self.model.space.points)
                   if q & b)
        # the open is a union of classes: its image is their least points
        keep = sum(q & -q for q in self._classes)
        return rep, space._subset(c & keep)


def extract_finite_model(model: Model, formula: Formula) -> ExtractResult:
    """Stable partition, filtration, then point quotient over the atoms."""
    filt = filtrate(model, formula)
    # the table's families list the subformulas: no second walk
    atoms = [g.name for g in filt.table._families if g.kind == "atom"]
    quotient, classes = _quotient_parts(filt.output, atoms)
    return ExtractResult(quotient, size_report(filt.table, quotient), filt,
                         classes)


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
    bound = _bound(list(table._families))
    return {
        "family_sizes": table.family_sizes(),
        "output_points": len(output.space.points),
        "output_opens": len(output.space.opens),
        "bound_points": "astronomical" if bound.saturated else bound.max_points,
        "bound_opens": "astronomical" if bound.saturated else bound.max_opens,
    }
