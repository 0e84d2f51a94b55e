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
``MaskContext.truth`` reads one formula's row off that pass and keeps it;
``Model.satisfies``, ``truth_set``, ``truth_in`` and ``is_valid`` and the
partition layer use it, and a model keeps the truth row of the last
formula it evaluated, one mask per open, so a truth table over all opens
evaluates the formula once.  The soundness harness runs the pass over
many formulas at once through ``first_failure``; the decision sweep runs
it once per model and hands a hit's row to its witness model.  The
engine is bit-sliced: each lane of one int is an n-bit copy of a model,
and a context evaluates all its lanes at once.  Its lanes come in runs,
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

from .formula import ATOM_RE, RESERVED, Formula, atom_names, subformulas

__all__ = [
    "ModelError", "SubsetSpace", "Model",
    "build_question_tree", "build_stream_space",
    "load_model", "dump_model", "model_from_dict", "model_to_dict",
    "MaskContext",
]


class ModelError(ValueError):
    """Ill-formed space, model file, or evaluation request."""


def _check_atom_name(name: str):
    if not ATOM_RE.match(name) or name in RESERVED:
        raise ModelError(f"invalid atom name in valuation: {name!r}")


def _open_sort_key(u: frozenset):
    return (-len(u), tuple(sorted(u)))


class SubsetSpace:
    """Finite point set with a family of opens containing the whole set.

    Opens are extensional: two opens with the same members are the same
    open, and the constructor rejects duplicate member sets.  Names are
    aliases used by files and the CLI.  ``index`` numbers the points in
    sorted order, and ``open_masks[i]`` is ``opens[i]`` as a bitmask over
    that numbering.

    ``opens`` is sorted largest first (``_open_sort_key``), so a strict
    sub-open always comes after every open that contains it, and walking
    the indices backwards visits children first.  The constructor also
    builds the open tree, as tuples of open indices: ``children[i]`` holds
    the maximal strict sub-opens of open i other than the empty open, its
    children on a tree and its covers on any other family.  The empty open
    has no children.
    """

    def __init__(self, points, opens, names=None):
        self.points = tuple(sorted(points))
        if not self.points:
            raise ModelError("a subset space needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise ModelError("duplicate point ids")
        self.full = frozenset(self.points)
        self.index = {p: i for i, p in enumerate(self.points)}
        sets = [frozenset(u) for u in opens]
        order = sorted(range(len(sets)), key=lambda i: _open_sort_key(sets[i]))
        self.opens = tuple(sets[i] for i in order)
        if names is None:
            gen = ("top" if u == self.full else f"U{i}"
                   for i, u in enumerate(self.opens))
            self.names = tuple(gen)
        else:
            names = list(names)
            if len(names) != len(sets):
                raise ModelError("one name per open required")
            self.names = tuple(names[i] for i in order)
        bits = {p: 1 << i for i, p in enumerate(self.points)}
        pos = {}            # open mask -> its index in ``opens``
        for name, u in zip(self.names, self.opens):
            try:
                m = sum(map(bits.__getitem__, u))
            except KeyError:
                raise ModelError(f"open {name!r} contains unknown points") from None
            if m in pos:
                raise ModelError(f"open {name!r} duplicates another open's members")
            pos[m] = len(pos)
        if len(set(self.names)) != len(self.names):
            raise ModelError("duplicate open names")
        if (1 << len(self.points)) - 1 not in pos:
            raise ModelError("the full point set must be one of the opens")
        self.open_masks = tuple(pos)
        self._pos = pos
        self._by_name = dict(zip(self.names, self.opens))
        self._build_tree()

    def _build_tree(self):
        """Set ``children`` and the flag that ``is_treelike`` returns.

        On a tree each open's parent is the smallest earlier open (in the
        size-sorted order) around its points, so one pass that keeps, per
        point, the last open placed around it finds every parent.  The pass
        stops at the first open whose points have different owners, which
        is the first open partly overlapping an earlier one, and the covers
        of such a family are then found pairwise.
        """
        masks, index = self.open_masks, self.index
        kids = [[] for _ in masks]
        owner = [0] * len(self.points)      # open 0 is the full set
        tree = True
        for i in range(1, len(masks)):
            parent = None
            for p in self.opens[i]:
                b = index[p]
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
        for name, v in zip(self.names, self.opens):
            if v == u:
                return name
        raise ModelError("unknown open")

    def is_treelike(self) -> bool:
        """Every pair of opens is nested or disjoint (see ``_build_tree``)."""
        return self._tree

    def down_set(self, u) -> frozenset:
        """All opens contained in ``u`` (an open, by name or by set)."""
        i = self._position(self._resolve(u))
        if i is None:
            raise ModelError("down_set expects a member of the open family")
        w = self.open_masks[i]
        return frozenset(v for v, m in zip(self.opens, self.open_masks)
                         if not m & ~w)

    def _position(self, u):
        """Index of the open with the members ``u``, or None."""
        try:
            return self._pos.get(self._mask(u))
        except KeyError:
            return None

    def _mask(self, subset) -> int:
        """Bitmask of the point set ``subset``; KeyError on an unknown point."""
        return sum(1 << self.index[p] for p in subset)

    def _resolve(self, u) -> frozenset:
        if isinstance(u, str):
            return self.open_named(u)
        return frozenset(u)

    def __eq__(self, other):
        return (isinstance(other, SubsetSpace)
                and self.points == other.points
                and set(self.opens) == set(other.opens))

    def __hash__(self):
        return hash((self.points, frozenset(self.opens)))

    def __repr__(self):
        return f"SubsetSpace({len(self.points)} points, {len(self.opens)} opens)"


class Model:
    """Subset space plus an interpretation of atoms as point sets.

    Unknown atoms evaluate to the empty set unless ``strict_atoms`` is
    passed to the evaluation entry points, which then reject them.
    ``atom_masks`` holds each atom's points as a bitmask in the space's
    point order, built once with the valuation; the enumerators build a
    model the other way round, from its masks (``_from_masks``).

    ``satisfies``, ``truth_set``, ``is_valid`` and ``truth_in`` at an open
    read the model's kept row: the truth mask of the last formula asked
    for at every open, filled by one mask context over the space's open
    masks and these atom masks (see ``_row``).  It is the model's only
    state beyond construction, and it is bounded: one formula and one int
    per open, never an entry per subformula.  ``truth_in`` at any other
    carrier runs on a mask context of its own.
    """

    def __init__(self, space: SubsetSpace, valuation=None):
        self.space = space
        val, masks = {}, {}
        for name, members in (valuation or {}).items():
            _check_atom_name(name)
            members = frozenset(members)
            try:
                masks[name] = space._mask(members)
            except KeyError:
                raise ModelError(f"valuation of {name!r} contains unknown points") from None
            val[name] = members
        self.valuation = val
        self.atom_masks = masks
        self._kept = (None, ())     # (formula, its row): see ``_row``

    @classmethod
    def _from_masks(cls, space: SubsetSpace, atom_masks: dict,
                    members: dict) -> "Model":
        """The model whose atoms hold at the points of ``atom_masks``.

        It equals ``Model(space, valuation)`` for the valuation those
        masks spell out, but the atom names and masks are taken as checked,
        and the model keeps ``atom_masks`` itself.  ``members`` maps a
        point mask to its frozenset of ``space``'s points and is filled as
        masks are met, so the models of one point set can share it, and
        each subset's frozenset is built once.
        """
        model = cls.__new__(cls)
        model.space = space
        val = {}
        for name, m in atom_masks.items():
            points = members.get(m)
            if points is None:
                points = members[m] = frozenset(
                    p for i, p in enumerate(space.points) if m >> i & 1)
            val[name] = points
        model.valuation = val
        model.atom_masks = atom_masks
        model._kept = (None, ())
        return model

    # -- evaluation (thin wrappers over the mask engine) -------------------

    def _row(self, f: Formula, strict: bool) -> tuple:
        """``f``'s truth mask at every open, in the order of ``open_masks``.

        The model keeps the row of the last formula asked for, so asking
        again for the same (interned) formula reads it back; another
        formula replaces it.  One mask context fills it in one bottom-up
        pass (``MaskContext.truth``).  With ``strict``, every
        atom of ``f`` missing from the valuation is rejected first, on
        every call.
        """
        if strict:
            for name in sorted(atom_names(f)):
                if name not in self.valuation:
                    raise ModelError(f"unknown atom {name!r}")
        kept, row = self._kept
        if kept is not f:
            ctx = MaskContext.from_model(self)
            row = tuple([ctx.truth(f, u) for u in self.space.open_masks])
            self._kept = (f, row)
        return row

    def _open_index(self, u, message: str):
        """``u`` (by name or set) as a frozenset with its open index."""
        u = self.space._resolve(u)
        i = self.space._position(u)
        if i is None:
            raise ModelError(message)
        return u, i

    def _truth(self, carrier: frozenset, f: Formula, ctx) -> frozenset:
        """Points of ``carrier`` where ``f`` holds with ``carrier`` as view."""
        return self._points(carrier, ctx.truth(f, self.space._mask(carrier)))

    def _points(self, carrier: frozenset, t: int) -> frozenset:
        index = self.space.index
        return frozenset(x for x in carrier if t >> index[x] & 1)

    def satisfies(self, x, u, f: Formula, strict_atoms: bool = False) -> bool:
        """Truth of ``f`` at the neighborhood ``(x, u)``; ``u`` in O."""
        u, i = self._open_index(u, "not an open of this model")
        if x not in u:
            raise ModelError(f"point {x!r} does not belong to the open")
        return bool(self._row(f, strict_atoms)[i] >> self.space.index[x] & 1)

    def truth_set(self, u, f: Formula, strict_atoms: bool = False) -> frozenset:
        """Points of the open ``u`` where ``f`` holds at fixed ``u``."""
        u, i = self._open_index(u, "truth_set expects a member of the open family")
        return self._points(u, self._row(f, strict_atoms)[i])

    def truth_in(self, carrier, f: Formula) -> frozenset:
        """Truth set over an arbitrary carrier set, not necessarily open.

        K quantifies over the carrier; [] quantifies over the genuine
        opens inside the carrier around the point.  For carriers that are
        opens this agrees with ``truth_set``, and reads the same row; any
        other carrier is evaluated on a mask context of its own.
        """
        carrier = frozenset(carrier)
        if not carrier <= self.space.full:
            raise ModelError("carrier contains unknown points")
        m = self.space._mask(carrier)
        i = self.space._pos.get(m)
        if i is None:
            return self._points(carrier, MaskContext.from_model(self).truth(f, m))
        return self._points(carrier, self._row(f, False)[i])

    def neighborhoods(self):
        for u in self.space.opens:
            for x in sorted(u):
                yield x, u

    def is_valid(self, f: Formula, strict_atoms: bool = False) -> bool:
        """True when ``f`` holds at every neighborhood of the model."""
        return self._row(f, strict_atoms) == self.space.open_masks

    def __eq__(self, other):
        return (isinstance(other, Model) and self.space == other.space
                and self.valuation == other.valuation)

    def __hash__(self):
        return hash((self.space, tuple(sorted(self.valuation.items()))))

    def __repr__(self):
        return (f"Model({len(self.space.points)} points, "
                f"{len(self.space.opens)} opens, "
                f"{sorted(self.valuation)} atoms)")


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
    space = SubsetSpace(ids, opens)      # rejects repeated point ids
    return Model(space, valuation)


def build_stream_space(depth: int) -> Model:
    """Binary strings of a fixed length with their prefix cylinders.

    A finite stand-in for observing a machine emit one bit at a time:
    points are the possible complete emissions, the cylinder of a prefix
    collects the points still compatible with what has been seen.
    """
    if depth < 1:
        raise ModelError("depth must be at least 1")
    points = ["".join(bits) for bits in _bit_strings(depth)]
    opens = {frozenset(points)}
    for plen in range(1, depth + 1):
        for prefix in ("".join(bits) for bits in _bit_strings(plen)):
            opens.add(frozenset(w for w in points if w.startswith(prefix)))
    return Model(SubsetSpace(points, opens), {})


def _bit_strings(n: int):
    if n == 0:
        yield ()
        return
    for rest in _bit_strings(n - 1):
        yield ("0",) + rest
        yield ("1",) + rest


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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"not valid JSON: {exc}") from None
    return model_from_dict(data)


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
    model hold.  ``rep`` is the lane-replication constant of one slot (bit
    0 of every lane set), 1 with one lane.

    ``rows`` is the one evaluator: a bottom-up pass over a children-first
    list of subformulas that returns each root's row cut into slots.
    ``truth`` runs it for one formula and keeps the formula's row in
    ``cache``, so ``cache`` holds one row per formula asked for;
    ``first_failure`` runs the same pass over many formulas at once, as
    the soundness harness checks every scheme instance, without ``cache``,
    and cuts up only the rows that differ from ``top``.  ``truth``,
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

        The first call for ``f`` fills its row with ``rows`` and keeps it
        in ``cache`` under ``f``; an open's truth set is its column of that
        row.  A carrier that is not open gets a column of its own, the
        last slot of a packed row that is not cut up.
        """
        i = self.space._pos.get(u_mask)
        if i is None:
            row = self._fill(subformulas(f), [f], [u_mask])[0]
            return row >> self.n * self.lanes * len(self.wide)
        row = self.cache.get(f)
        if row is None:
            row = self.cache[f] = self.rows(subformulas(f), [f])[0]
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
