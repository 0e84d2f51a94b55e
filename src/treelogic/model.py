"""Finite subset-space models and the satisfaction relation.

A subset space is a finite point set X together with a family of opens
O containing X; formulas are evaluated at neighborhoods (x, U) with
x in U in O.  K quantifies over the points of the current open, [] over
the opens shrinking the current one around the current point.

Each space numbers its points once, at construction, keeps every open
as a bitmask in that order, sorts the opens largest first, and links
them into their inclusion tree (each open's maximal strict sub-opens);
each model numbers its atoms the same way.  Truth is computed here, by
the mask engine at the bottom: a bitset evaluator over those masks with
one path, ``MaskContext.rows``.  It makes one bottom-up pass over a
children-first list of subformulas and fills each at every open (and at
any carriers that are not opens), evaluating ``[]`` over the opens from
the smallest up, since ``[]phi`` at U is ``phi`` at U together with
``[]phi`` at the child of U around the point.
``MaskContext.truth`` reads one formula's row off that pass and keeps
that row alone, replacing the last one.  Each model keeps one mask
context, built on first use, and ``Model.satisfies``, ``truth_set``,
``truth_in`` and ``is_valid`` are each one call on it, so a truth table
over all opens evaluates the formula once and turns each open's mask
into a point set by its set bits.  The partition layer runs ``rows`` on
the same context with its family members as carriers.  The soundness
harness runs the pass over many formulas at once through
``first_failure``; the decision sweep runs it once per model, and its
witness model evaluates the formula again as a re-check.  The engine is
bit-sliced: each lane of one int is an n-bit copy of a model, and a
context evaluates all its lanes at once.  Its lanes come in runs,
one per open family, each lane as wide as the widest family, and its
slot j is open j of each lane's family, so one context can hold many
valuations of many families of any point counts; a context over a single
model is the one-lane case.  A formula's truth row holds all slots in
one int, one after another, so every connective but ``[]`` costs one
int operation per subformula.  ``[]`` walks the union of the families'
children, which is exact only when the families are trees, so only
treelike families share a context.  Tests check the engine against the
independent evaluator in ``tests/helpers.py``.
"""

from __future__ import annotations

import json
from functools import cached_property

from .formula import ATOM_RE, RESERVED, Formula, atom_names, subformulas

__all__ = [
    "ModelError", "SubsetSpace", "Model",
    "build_question_tree", "build_stream_space",
    "load_model", "dump_model", "model_from_dict", "model_to_dict",
    "MaskContext",
]


class ModelError(ValueError):
    """Ill-formed space, model file, or evaluation request."""


def _check_atom_name(name: str, error=ModelError):
    if not ATOM_RE.match(name) or name in RESERVED:
        raise error(f"invalid atom name in valuation: {name!r}")


def _open_sort_key(u: frozenset):
    return (-len(u), tuple(sorted(u)))


def _sorted_masks(masks) -> list:
    """Point masks in the order ``_open_sort_key`` gives their point sets.

    Bigger sets come first.  Of two sets of one size, the one holding the
    lowest point that the other lacks comes first, so it has the greater
    string of bits read from the lowest up; two such strings never
    extend one another.
    """
    return sorted(masks, key=lambda m: (m.bit_count(), bin(m)[:1:-1]),
                  reverse=True)


def _cells(whole: int, cuts) -> list:
    """The nonempty cells of the mask ``whole`` cut by each mask of
    ``cuts``, each cut putting a cell's part inside before its part out."""
    cells = [whole] if whole else []
    for m in cuts:
        cells = [q for p in cells for q in (p & m, p & ~m) if q]
    return cells


class SubsetSpace:
    """Finite point set with a family of opens containing the whole set.

    Opens are extensional: two opens with the same members are the same
    open, and the constructor rejects duplicate member sets.  Names are
    aliases used by files and the CLI.  ``index`` numbers the points in
    sorted order, and ``open_masks[i]`` is ``opens[i]`` as a bitmask over
    that numbering.  A space finds an open's index from its mask
    (``_pos``) and from its frozenset (``_set_pos``), so a lookup by
    members costs one hash, and ``_subset`` turns a point mask back into
    its frozenset from the mask's set bits.

    ``opens`` is sorted largest first (``_open_sort_key``), so a strict
    sub-open always comes after every open that contains it, and walking
    the indices backwards visits children first.  The constructor also
    builds the open tree, as tuples of open indices: ``children[i]`` holds
    the maximal strict sub-opens of open i other than the empty open, its
    children on a tree and its covers on any other family.  The empty open
    has no children.

    The constructor checks its opens, masks them and keeps their
    frozensets; it takes input from outside the program.  Each space the
    program builds itself comes from checked masks (``_from_masks``) and
    builds ``opens``, ``full`` and ``index`` only when they are read;
    either way the lookups by members and by name are built on first use.
    """

    def __init__(self, points, opens, names=None):
        points = tuple(sorted(points))
        if not points:
            raise ModelError("a subset space needs at least one point")
        if len(set(points)) != len(points):
            raise ModelError("duplicate point ids")
        self.full = full = frozenset(points)
        self.index = index = {p: i for i, p in enumerate(points)}
        sets = [frozenset(u) for u in opens]
        order = sorted(range(len(sets)), key=lambda i: _open_sort_key(sets[i]))
        self.opens = opens = tuple(sets[i] for i in order)
        if names is None:
            names = ["top" if u == full else f"U{i}"
                     for i, u in enumerate(opens)]
        else:
            names = list(names)
            if len(names) != len(sets):
                raise ModelError("one name per open required")
            names = [names[i] for i in order]
        bits = {p: 1 << i for p, i in index.items()}
        pos = {}            # open mask -> its index in ``opens``
        for name, u in zip(names, opens):
            try:
                m = sum(map(bits.__getitem__, u))
            except KeyError:
                raise ModelError(f"open {name!r} contains unknown points") from None
            if m in pos:
                raise ModelError(f"open {name!r} duplicates another open's members")
            pos[m] = len(pos)
        if len(set(names)) != len(names):
            raise ModelError("duplicate open names")
        if (1 << len(points)) - 1 not in pos:
            raise ModelError("the full point set must be one of the opens")
        self._setup(points, pos, names)

    @classmethod
    def _from_masks(cls, points: tuple, masks, names=None) -> "SubsetSpace":
        """The space on ``points`` whose opens have the point masks ``masks``.

        It equals ``SubsetSpace(points, opens)`` for the opens those masks
        spell out, with ``names[m]`` naming the open of mask ``m`` when
        ``names`` is given, but nothing is checked: ``points`` is sorted
        and free of repeats, and ``masks`` are distinct, within the points
        and hold the full set.
        """
        masks = _sorted_masks(masks)
        if names is None:
            full = (1 << len(points)) - 1
            names = ["top" if m == full else f"U{i}"
                     for i, m in enumerate(masks)]
        else:
            names = [names[m] for m in masks]
        space = cls.__new__(cls)
        space._setup(points, dict(zip(masks, range(len(masks)))), names)
        return space

    def _setup(self, points, pos, names):
        self.points = points
        self.names = tuple(names)
        self.open_masks = tuple(pos)
        self._pos = pos
        self._build_tree()

    @cached_property
    def full(self) -> frozenset:
        return frozenset(self.points)

    @cached_property
    def index(self) -> dict:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def opens(self) -> tuple:
        return tuple(map(self._subset, self.open_masks))

    @cached_property
    def _set_pos(self) -> dict:
        return dict(zip(self.opens, range(len(self.open_masks))))

    @cached_property
    def _by_name(self) -> dict:
        return dict(zip(self.names, self.opens))

    def _build_tree(self):
        """Set ``children`` and the flag that ``is_treelike`` returns.

        On a tree each open's parent is the smallest earlier open (in the
        size-sorted order) around its points, so one pass that keeps, per
        point, the last open placed around it finds every parent.  The pass
        stops at the first open whose points have different owners, which
        is the first open partly overlapping an earlier one, and the covers
        of such a family are then found pairwise.
        """
        masks = self.open_masks
        kids = [[] for _ in masks]
        owner = [0] * len(self.points)      # open 0 is the full set
        tree = True
        for i in range(1, len(masks)):
            parent = None
            m = masks[i]
            while m:
                low = m & -m
                b = low.bit_length() - 1
                m ^= low
                if parent is None:
                    parent = owner[b]
                elif owner[b] != parent:
                    tree = False
                    break
                owner[b] = i
            if not tree:
                break
            if parent is not None:
                kids[parent].append(i)
        if not tree:
            kids = [[] for _ in masks]
            for i, u in enumerate(masks):
                for j in range(i + 1, len(masks)):     # later opens are no larger
                    v = masks[j]
                    if v and not v & ~u and all(v & ~masks[c] for c in kids[i]):
                        kids[i].append(j)
        self.children = tuple(map(tuple, kids))
        self._tree = tree

    def open_named(self, name: str) -> frozenset:
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError(f"unknown open {name!r}") from None

    def name_of(self, u: frozenset) -> str:
        i = self._position(frozenset(u))
        if i is None:
            raise ModelError("unknown open")
        return self.names[i]

    def is_treelike(self) -> bool:
        """Every pair of opens is nested or disjoint (see ``_build_tree``)."""
        return self._tree

    def _position(self, u: frozenset):
        """Index of the open with the members ``u``, or None."""
        return self._set_pos.get(u)

    def _mask(self, subset) -> int:
        """Bitmask of the point set ``subset``; KeyError on an unknown point."""
        return sum(1 << self.index[p] for p in subset)

    def _subset(self, mask: int) -> frozenset:
        """The points of ``mask``, one per set bit."""
        points, out = self.points, []
        while mask:
            low = mask & -mask
            out.append(points[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def _resolve(self, u) -> frozenset:
        if isinstance(u, str):
            return self.open_named(u)
        return frozenset(u)

    def __eq__(self, other):
        return (isinstance(other, SubsetSpace)
                and self.points == other.points
                and self._pos.keys() == other._pos.keys())

    def __hash__(self):
        return hash((self.points, frozenset(self.open_masks)))

    def __repr__(self):
        return (f"SubsetSpace({len(self.points)} points, "
                f"{len(self.open_masks)} opens)")


class Model:
    """Subset space plus an interpretation of atoms as point sets.

    Unknown atoms evaluate to the empty set unless ``strict_atoms`` is
    passed to the evaluation entry points, which then reject them.
    A model keeps its valuation as masks: ``atom_masks`` holds each atom's
    points as a bitmask in the space's point order, and ``valuation``, the
    same atoms as frozensets of points, is read off the masks the first
    time it is asked for.  The constructor checks a valuation of point
    sets and masks it; the enumerators build a model from its masks
    (``_from_masks``).  Two models are equal when their spaces and atom
    masks are.

    ``satisfies``, ``truth_set``, ``truth_in`` and ``is_valid`` are each
    one call on the model's kept context (``_ctx``): a ``MaskContext``
    over the space's open masks and these atom masks, built on first use.
    It keeps the truth row of the last formula asked for, one mask per
    open, so the model's state beyond construction stays bounded: one
    formula and one int per open, never an entry per subformula.
    """

    def __init__(self, space: SubsetSpace, valuation=None):
        self.space = space
        masks = {}
        for name, members in (valuation or {}).items():
            _check_atom_name(name)
            try:
                masks[name] = space._mask(frozenset(members))
            except KeyError:
                raise ModelError(f"valuation of {name!r} contains unknown points") from None
        self.atom_masks = masks

    @classmethod
    def _from_masks(cls, space: SubsetSpace, atom_masks: dict) -> "Model":
        """The model whose atoms hold at the points of ``atom_masks``.

        It equals ``Model(space, valuation)`` for the valuation those
        masks spell out, but the atom names and masks are taken as checked,
        and the model keeps ``atom_masks`` itself.
        """
        model = cls.__new__(cls)
        model.space = space
        model.atom_masks = atom_masks
        return model

    @cached_property
    def valuation(self) -> dict:
        """Each atom's points, in the order of ``atom_masks``."""
        return {name: self.space._subset(m)
                for name, m in self.atom_masks.items()}

    # -- evaluation (one call each on the model's mask context) ------------

    @cached_property
    def _ctx(self) -> "MaskContext":
        return MaskContext.from_model(self)

    def _check_atoms(self, f: Formula, strict: bool):
        """With ``strict``, reject every atom of ``f`` missing from the
        valuation: checked on every call, row kept or not."""
        if strict:
            for name in sorted(atom_names(f)):
                if name not in self.atom_masks:
                    raise ModelError(f"unknown atom {name!r}")

    def _open_mask(self, u, message: str):
        """``u`` (by name or set) as a frozenset with its point mask."""
        u = self.space._resolve(u)
        i = self.space._position(u)
        if i is None:
            raise ModelError(message)
        return u, self.space.open_masks[i]

    def satisfies(self, x, u, f: Formula, strict_atoms: bool = False) -> bool:
        """Truth of ``f`` at the neighborhood ``(x, u)``; ``u`` in O."""
        u, m = self._open_mask(u, "not an open of this model")
        if x not in u:
            raise ModelError(f"point {x!r} does not belong to the open")
        self._check_atoms(f, strict_atoms)
        return bool(self._ctx.truth(f, m) >> self.space.index[x] & 1)

    def truth_set(self, u, f: Formula, strict_atoms: bool = False) -> frozenset:
        """Points of the open ``u`` where ``f`` holds at fixed ``u``."""
        _, m = self._open_mask(
            u, "truth_set expects a member of the open family")
        self._check_atoms(f, strict_atoms)
        return self.space._subset(self._ctx.truth(f, m))

    def truth_in(self, carrier, f: Formula) -> frozenset:
        """Truth set over an arbitrary carrier set, not necessarily open.

        K quantifies over the carrier; [] quantifies over the genuine
        opens inside the carrier around the point.  For carriers that are
        opens this agrees with ``truth_set`` and reads the same kept row.
        """
        carrier = frozenset(carrier)
        if not carrier <= self.space.full:
            raise ModelError("carrier contains unknown points")
        m = self.space._mask(carrier)
        return self.space._subset(self._ctx.truth(f, m))

    def neighborhoods(self):
        for u in self.space.opens:
            for x in sorted(u):
                yield x, u

    def is_valid(self, f: Formula, strict_atoms: bool = False) -> bool:
        """True when ``f`` holds at every neighborhood of the model."""
        self._check_atoms(f, strict_atoms)
        return self._ctx.is_valid(f)

    def __eq__(self, other):
        return (isinstance(other, Model) and self.space == other.space
                and self.atom_masks == other.atom_masks)

    def __hash__(self):
        return hash((self.space, tuple(sorted(self.atom_masks.items()))))

    def __repr__(self):
        return (f"Model({len(self.space.points)} points, "
                f"{len(self.space.open_masks)} opens, "
                f"{sorted(self.atom_masks)} atoms)")


# ---------------------------------------------------------------------------
# builders

def build_question_tree(points, questions) -> Model:
    """Iterated yes/no refinements of a point set.

    ``questions`` is an ordered list of (name, yes_set) pairs.  Level 0
    is the whole set; each question splits every cell of the previous
    level in two.  Empty cells are kept as opens; the valuation maps each
    question name to its yes-set.
    """
    ids = list(points)
    points = frozenset(ids)
    opens = {points}
    level = [points]
    names = []
    valuation = {}
    for name, yes in questions:
        yes = frozenset(yes)
        if not yes <= points:
            raise ModelError(f"yes-set of {name!r} is not a subset of the points")
        if name in valuation:
            raise ModelError(f"duplicate question name {name!r}")
        names.append(name)
        valuation[name] = yes
        level = [cell for prev in level for cell in (prev & yes, prev - yes)]
        opens.update(level)
        # an empty cell splits into empty cells only, and the empty open is
        # in already: the level keeps at most one cell per point
        level = [cell for cell in level if cell]
    space = SubsetSpace(ids, opens)      # rejects repeated point ids
    return Model(space, valuation)


# Stream depths ``build_stream_space`` builds.  Depth d gives 2^d points
# and 2^(d+1) - 1 opens, so a formula's truth row over depth 12 (4,096
# points, 8,191 opens) is about 2^25 bits.
MAX_STREAM_DEPTH = 12


def build_stream_space(depth: int) -> Model:
    """Binary strings of a fixed length with their prefix cylinders.

    A finite stand-in for observing a machine emit one bit at a time:
    points are the possible complete emissions, the cylinder of a prefix
    collects the points still compatible with what has been seen.  A depth
    past ``MAX_STREAM_DEPTH`` is refused before anything is built.  The
    cylinder of the c-th prefix of length l is run c of 2^(depth - l)
    consecutive points, and the space is built from those runs' masks.
    """
    if depth < 1:
        raise ModelError("depth must be at least 1")
    if depth > MAX_STREAM_DEPTH:
        raise ModelError(f"depth {depth} exceeds the limit of "
                         f"{MAX_STREAM_DEPTH} ({1 << MAX_STREAM_DEPTH:,} "
                         "points)")
    points = tuple(format(i, f"0{depth}b") for i in range(1 << depth))
    masks = [((1 << run) - 1) << c * run
             for run in (1 << k for k in range(depth + 1))
             for c in range(len(points) // run)]
    return Model._from_masks(SubsetSpace._from_masks(points, masks), {})


# ---------------------------------------------------------------------------
# files

def _strings(value, what: str, error=ModelError) -> list:
    """``value`` if it is a JSON list of strings; ``error`` otherwise."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise error(f"{what} must be a list of strings")
    return value


def _checked_valuation(data: dict, error=ModelError) -> dict:
    """The ``valuation`` field of a model or frame file: lists of strings."""
    val = data.get("valuation", {})
    if not isinstance(val, dict):
        raise error("valuation must map atom names to lists")
    for name, members in val.items():
        _strings(members, f"valuation of {name!r}", error)
    return val


def _read_json(path, error=ModelError):
    """The parsed contents of a JSON file; ``error`` if it is not JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"not valid JSON: {exc}") from None


def model_from_dict(data: dict) -> Model:
    """Model from parsed JSON; every list in it is a list of strings."""
    try:
        points = data["points"]
        raw_opens = data["opens"]
    except (TypeError, KeyError) as exc:
        raise ModelError(f"model file missing field: {exc}") from None
    if not isinstance(raw_opens, list):
        raise ModelError("opens must be a list")
    names = []
    sets = []
    for entry in raw_opens:
        try:
            name, members = entry["name"], entry["members"]
        except (TypeError, KeyError):
            raise ModelError("each open needs a name and a members list") from None
        if not isinstance(name, str):
            raise ModelError(f"open names must be strings, got {name!r}")
        names.append(name)
        sets.append(frozenset(_strings(members, f"members of {name!r}")))
    space = SubsetSpace(_strings(points, "points"), sets, names)
    return Model(space, _checked_valuation(data))


def model_to_dict(model: Model) -> dict:
    return {
        "points": list(model.space.points),
        "opens": [{"name": name, "members": sorted(u)}
                  for name, u in zip(model.space.names, model.space.opens)],
        "valuation": {a: sorted(v) for a, v in sorted(model.valuation.items())},
    }


def load_model(path) -> Model:
    return model_from_dict(_read_json(path))


def dump_model(model: Model, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# mask engine (the bit-sliced evaluator behind every entry point)

class MaskContext:
    """Bitset view of open families under many valuations at once.

    ``runs`` lists ``(space, lanes)`` pairs, one run of lanes per open
    family, and n is the point count of the widest family.  Lane l is bits
    ``l * n`` to ``l * n + n - 1`` of an int, point i of the lane's family
    is its bit i, and the runs' lanes follow one another.  A family over
    fewer points fills the low bits of its lanes; the bits above them,
    the padding, lie outside every open.  Atom valuations (``vals``) are
    such ints: a lane is one (family, valuation) pair.

    Slot j is, in each lane, open j of that lane's family in its
    largest-first order, and empty in a lane whose family has fewer opens:
    ``wide[j]`` is the slot in every lane.  ``kids[j]`` lists the slots
    that are children of slot j in some family of the context.

    A truth row is one int, slot-major: slot j of the row sits at bits
    ``j * S`` on, where ``S = n * lanes``, so the row is ``lanes * len(wide)``
    lanes of n bits back to back.  ``top`` is ``wide`` packed that way, the
    row of ``top``.  Atoms, ``top``, ``~`` and ``&`` are one big-int
    operation per node on the whole row.  So is ``K``: a lane missing any
    point of its view loses all of it, and the collapse adds the low n-1
    bits of every lane into the lane's top bit.  The carry never leaves its
    lane, and every slot starts on a lane boundary, so the collapse stays
    inside each (slot, lane) cell of the row as it does inside each lane of
    one slot.  Padding stays 0 in every row: atoms and ``top`` are cut to
    ``top``, which has no padding, ``~`` xors against ``top``, and ``K``
    only clears bits.

    ``[]`` follows the open tree: at an open U, ``[]phi`` is ``phi`` at U
    and, on each child C of U, ``[]phi`` at C.  It cuts its operand's row
    into slots with shifts and masks and fills them from the last
    (smallest) to the first, every slot after its children, so evaluation
    never recurses.  The union of the families' children is exact on
    trees: in a lane whose family does not have slot c as a child of slot
    j, open c is disjoint from open j, so it clears no bit there, or
    strictly inside it, where ``[]phi`` failing at a point of c fails at
    the child of j around that point as well.  Off trees a later open can
    partly overlap open j, so a context stacks several families only if
    all are treelike; a family of any shape can have a context of its own.

    With one run, ``space`` is its family and ``kids`` its ``children``;
    a stack of several runs has ``space`` None.  ``from_model`` builds the
    one-lane context of a single model from the masks the space and the
    model hold; each ``Model`` keeps one, as ``Model._ctx``.  ``rep`` is
    the lane-replication constant of one slot (bit 0 of every lane set),
    1 with one lane.

    ``rows`` is the one evaluator: a bottom-up pass over a children-first
    list of subformulas that returns each root's row cut into slots.
    ``truth`` runs it for one formula and keeps the formula's row in
    ``cache``, which holds the row of the last formula asked for alone;
    ``first_failure`` runs the same pass over many formulas at once, as
    the soundness harness checks every scheme instance, without ``cache``,
    and cuts up only the rows that differ from ``top``; the decision sweep
    reads the packed row of that pass (``_fill``) uncut.  ``truth``,
    ``is_valid`` and carriers that are not open read the opens of
    ``space``, so they take a context of one run.
    """

    __slots__ = ("n", "lanes", "rep", "full", "space", "wide", "top", "kids",
                 "vals", "cache")

    def __init__(self, runs, vals):
        (space, lanes), *more = runs
        n = len(space.points)
        if more:
            n = max(n, *(len(s.points) for s, _ in more))
        self.n = n
        self.full = full = (1 << n) - 1
        rep = ((1 << n * lanes) - 1) // full
        wide = [u * rep for u in space.open_masks]
        kids = space.children
        if more:
            if not all(s.is_treelike() for s, _ in ((space, lanes), *more)):
                raise ModelError("only treelike families can share a mask "
                                 "context")
            kids = [set(c) for c in kids]
            for s, count in more:
                rep = ((1 << n * count) - 1) // full << n * lanes
                lanes += count
                for j, (u, c) in enumerate(zip(s.open_masks, s.children)):
                    if j == len(wide):
                        wide.append(0)
                        kids.append(set())
                    wide[j] |= u * rep
                    kids[j].update(c)
            kids = [sorted(k) for k in kids]
            rep = ((1 << n * lanes) - 1) // full
            space = None
        self.lanes = lanes
        self.rep = rep
        self.space = space
        self.wide = wide
        size = n * lanes
        self.top = sum(map(int.__lshift__, wide,
                           range(0, size * len(wide), size)))
        self.kids = kids
        self.vals = dict(vals)
        self.cache = {}

    @classmethod
    def from_model(cls, model: Model) -> "MaskContext":
        return cls(((model.space, 1),), model.atom_masks)

    def truth(self, f: Formula, u_mask: int) -> int:
        """``f``'s truth set at the carrier ``u_mask``, in every lane.

        A call for a formula other than the last one's fills its row with
        ``rows`` and keeps it in ``cache`` under ``f``, in place of the row
        kept before; an open's truth set is its column of that row.  A
        carrier that is not open gets a column of its own, the last slot
        of a packed row that is not cut up.
        """
        i = self.space._pos.get(u_mask)
        if i is None:
            row = self._fill(subformulas(f), [f], [u_mask])[0]
            return row >> self.n * self.lanes * len(self.wide)
        row = self.cache.get(f)
        if row is None:
            row = self.rows(subformulas(f), [f])[0]
            self.cache = {f: row}
        return row[i]

    def is_valid(self, f: Formula) -> bool:
        """True when ``f`` holds at every neighborhood in every lane."""
        return all(self.truth(f, u) == w
                   for u, w in zip(self.space.open_masks, self.wide) if u)

    def rows(self, post, roots, carriers=()) -> list:
        """Each root's truth row: its truth set at every slot of ``wide``.

        ``post`` lists every subformula of ``roots`` once, children first,
        as ``subformulas(*roots)`` does.  One bottom-up pass over it fills
        every node's packed row (``_fill``), and each root's row comes back
        cut into its slots, in the order of ``roots``.  ``carriers`` are
        point masks that are not opens of ``space``; each adds a slot after
        those of ``wide``, where ``K`` ranges over the carrier and
        ``[]phi`` is ``[]phi`` on each nonempty open inside it (a carrier
        is not one of its own refinements).
        """
        size = self.n * self.lanes
        cell = (1 << size) - 1
        shifts = range(0, size * (len(self.wide) + len(carriers)), size)
        return [[r >> s & cell for s in shifts]
                for r in self._fill(post, roots, carriers)]

    def _fill(self, post, roots, carriers=()) -> list:
        """The packed rows of ``roots`` after one pass over ``post``."""
        n, full = self.n, self.full
        size = n * self.lanes
        vals, wide, kids, top = self.vals, self.wide, self.kids, self.top
        # children first; an empty last slot, if any, stays 0
        down = range(len(wide) - 1 - (wide[-1] == 0), -1, -1)
        inside = []
        if carriers:
            opens = self.space.open_masks
            inside = [(len(wide) + c, [i for i, v in enumerate(opens)
                                       if v and not v & ~w])
                      for c, w in enumerate(carriers)]
            wide = wide + [w * self.rep for w in carriers]
            top |= sum(w * self.rep << (len(self.wide) + c) * size
                       for c, w in enumerate(carriers))
        bits = size * len(wide)
        cell = (1 << size) - 1
        shifts = range(0, bits, size)
        # bit 0 of every slot, and of every lane of every slot
        slots = ((1 << bits) - 1) // cell
        lanes = ((1 << bits) - 1) // full
        low = lanes * (full >> 1)       # the low n-1 bits of every lane
        high = low + lanes              # the top bit of every lane
        row = {}
        for g in post:
            k = g.kind
            if k == "and":
                r = row[g.left] & row[g.right]
            elif k == "not":
                # a row lies inside ``top``, so xor complements it there
                r = top ^ row[g.left]
            elif k == "atom":
                r = (vals.get(g.name, 0) & cell) * slots & top
            elif k == "top":
                r = top
            elif k == "bot":
                r = 0
            elif k == "know":
                miss = top ^ row[g.left]
                if miss:
                    # a lane missing any point of the view loses all of it:
                    # the low bits of a lane carry into its top bit, never
                    # past it
                    lost = ((miss & low) + low | miss) & high
                    r = top & ~((lost >> n - 1) * full)
                else:
                    r = top
            else:  # box
                a = row[g.left]
                r = [a >> s & cell for s in shifts]
                for j in down:
                    out = r[j]
                    for c in kids[j]:
                        out &= ~(wide[c] ^ r[c])
                    r[j] = out
                for j, inner in inside:
                    out = wide[j]
                    for c in inner:
                        out &= ~(wide[c] ^ r[c])
                    r[j] = out
                r = sum(map(int.__lshift__, r, shifts))
            row[g] = r
        return [row[f] for f in roots]

    def first_failure(self, post, roots) -> list:
        """First neighborhood falsifying each root, in each lane that has one.

        ``post`` and ``roots`` are as for ``rows``, and ``_fill`` evaluates
        them.  Returns one list per root, of ``(lane, bit, slot)`` triples
        in lane order.  Within a lane, slots are tried in order, which is
        the lane's family's order of its opens, and points from the lowest
        bit, so a single-model context and a lane of a stacked one name the
        same witness.  A root whose row equals ``top`` holds everywhere and
        is never cut into slots.
        """
        n, full, top = self.n, self.full, self.top
        size = n * self.lanes
        cell = (1 << size) - 1
        out = []
        for r in self._fill(post, roots):
            found = []
            if r != top:
                miss, pending = top ^ r, cell
                for j in range(len(self.wide)):
                    m = miss >> j * size & pending
                    while m:
                        pos = (m & -m).bit_length() - 1
                        lane = pos // n
                        found.append((lane, pos - lane * n, j))
                        clear = ~(full << lane * n)
                        m &= clear
                        pending &= clear
                found.sort()
            out.append(found)
        return out
