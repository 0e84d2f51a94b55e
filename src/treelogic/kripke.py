"""Finite birelational frames and their unfolding into treelike models.

A frame carries an S4-style refinement relation (box) and an epistemic
equivalence (k).  ``check_frame`` verifies the structural properties a
frame needs for the unfolding; ``unfold`` turns a frame generated from a
maximal state into an equivalent treelike subset-space model by tracing
every k-class back to the top class and splitting it along the classes
it can reach.

Internally both relations are successor rows over state indices: row i
is an int whose bit j is set when state i relates to state j.  States
are sorted, so ascending bit order is the sorted order in which every
witness is reported.  A frame is checked once, in one walk over its box
pairs for the checks that read them, and keeps the witnesses and each
k-class's box image.  ``unfold`` requires ``check_frame`` and that the
root generates the frame, which imply the rest; it cuts each class's
carrier, a state mask, into opens with ``model._cells``.
"""

from __future__ import annotations

from functools import cached_property

from .formula import Formula, subformulas
from .model import (Model, SubsetSpace, _cells, _check_atom_name,
                    _checked_valuation, _read_json, _strings)

__all__ = [
    "FrameError", "BiFrame", "FrameReport", "check_frame", "bi_satisfies",
    "UnfoldResult", "unfold", "induced_frame", "load_frame",
    "frame_from_dict",
]


class FrameError(ValueError):
    """Ill-formed frame or an unfolding precondition failure."""


def _bits(m: int):
    """Indices of the set bits of ``m``, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _low(m: int) -> int:
    """Index of the lowest set bit of a non-zero mask."""
    return (m & -m).bit_length() - 1


def _image(rows, m: int) -> int:
    """Union of the rows of the states in ``m``."""
    out = 0
    for i in _bits(m):
        out |= rows[i]
    return out


def _transpose(rows) -> list:
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in _bits(row):
            cols[j] |= bit
    return cols


def _closure(rows) -> list:
    """Reflexive-transitive closure of successor rows (Warshall)."""
    rows = [row | 1 << i for i, row in enumerate(rows)]
    for k in range(len(rows)):
        bit, via = 1 << k, rows[k]
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | via
    return rows


def _index_states(states):
    states = tuple(sorted(states))
    if not states:
        raise FrameError("a frame needs at least one state")
    index = {s: i for i, s in enumerate(states)}
    if len(index) != len(states):
        raise FrameError("duplicate state ids")
    return states, index


class BiFrame:
    """Finite Kripke structure with a box relation and a k relation.

    By default the constructor closes the given generator pairs:
    reflexive-transitive closure for box, full equivalence closure for k.
    Pass ``close=False`` to keep raw relations (used by fixtures that
    document property failures).  ``box`` and ``k`` are the relations as
    sets of state pairs.  The constructor checks a valuation of state sets
    and keeps it as masks over the state indices (``_val_masks``), as
    ``_from_rows`` takes it; ``valuation``, the same atoms as frozensets
    of states, is read off the masks the first time it is asked for.
    """

    def __init__(self, states, box_pairs=(), k_pairs=(), valuation=None,
                 close: bool = True):
        states, index = _index_states(states)
        rows = []
        for pairs in (box_pairs, k_pairs):
            succ = [0] * len(states)
            for pair in pairs:
                pair = tuple(pair)
                if len(pair) != 2:
                    raise FrameError(f"relations are lists of pairs, got {pair!r}")
                try:
                    a, b = index[pair[0]], index[pair[1]]
                except (KeyError, TypeError):
                    raise FrameError(
                        f"relation mentions unknown state {pair!r}") from None
                succ[a] |= 1 << b
            rows.append(succ)
        box, k = rows
        if close:
            box = _closure(box)
            k = _closure([row | col for row, col in zip(k, _transpose(k))])
        val_masks = {}
        for name, members in (valuation or {}).items():
            _check_atom_name(name, FrameError)
            mask = 0
            for s in members:
                i = index.get(s)
                if i is None:
                    raise FrameError(
                        f"valuation of {name!r} mentions unknown states")
                mask |= 1 << i
            val_masks[name] = mask
        self._setup(states, index, box, k, val_masks)

    @classmethod
    def _from_rows(cls, states, index, box_rows, k_rows, val_masks):
        """A frame whose successor rows and valuation masks are already as
        wanted; no closure, no check."""
        frame = cls.__new__(cls)
        frame._setup(states, index, box_rows, k_rows, val_masks)
        return frame

    def _setup(self, states, index, box_rows, k_rows, val_masks):
        self.states = states
        self._index = index
        self._box_rows = box_rows
        self._k_rows = k_rows
        self._val_masks = val_masks

    @cached_property
    def valuation(self) -> dict:
        """Each atom's states, in the order of ``_val_masks``."""
        return {name: self._ids(m) for name, m in self._val_masks.items()}

    @cached_property
    def box(self) -> frozenset:
        return self._pairs(self._box_rows)

    @cached_property
    def k(self) -> frozenset:
        return self._pairs(self._k_rows)

    @cached_property
    def _box_cols(self) -> list:
        """Box predecessors: bit i of column j when state i refines into j."""
        return _transpose(self._box_rows)

    @cached_property
    def _class_images(self) -> dict:
        """Each k row (a k-class, when k is an equivalence) -> the union of
        the box rows of its states."""
        return {m: _image(self._box_rows, m) for m in set(self._k_rows)}

    @cached_property
    def _witnesses(self) -> tuple:
        """(name, first witness or None) of each structural check, found
        once; ``check_frame`` reports them."""
        return _check_witnesses(self)

    def _pairs(self, rows) -> frozenset:
        states = self.states
        return frozenset((states[i], states[j])
                         for i, row in enumerate(rows) for j in _bits(row))

    def _ids(self, m: int) -> frozenset:
        states = self.states
        return frozenset(states[i] for i in _bits(m))

    def __repr__(self):
        box = sum(row.bit_count() for row in self._box_rows)
        k = sum(row.bit_count() for row in self._k_rows)
        return (f"BiFrame({len(self.states)} states, {box} box pairs, "
                f"{k} k pairs)")


# ---------------------------------------------------------------------------
# structural checks

class CheckResult:
    __slots__ = ("name", "passed", "witness")

    def __init__(self, name, passed, witness=None):
        self.name = name
        self.passed = passed
        self.witness = witness

    def __repr__(self):
        status = "pass" if self.passed else f"FAIL {self.witness}"
        return f"<{self.name}: {status}>"


class FrameReport:
    def __init__(self, results):
        self.results = list(results)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self):
        return [r for r in self.results if not r.passed]

    def result(self, name) -> CheckResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_dict(self):
        return {r.name: {"passed": r.passed, "witness": r.witness}
                for r in self.results}


# Each search below returns the first witness of a failure as a tuple of
# state indices, or None.  Pairs (a, b) are visited in sorted order, and
# a third state c from the lowest bit, as the quantifiers read.

def _irreflexive(rows):
    return next(((i,) for i, row in enumerate(rows) if not row >> i & 1), None)


def _intransitive(rows):
    """(a, b, c) with a -> b -> c but not a -> c."""
    for a, row in enumerate(rows):
        for b in _bits(row):
            extra = rows[b] & ~row
            if extra:
                return a, b, _low(extra)
    return None


def _first_in_row(rows):
    """(a, b) for the first row a with a bit b set."""
    return next(((a, _low(row)) for a, row in enumerate(rows) if row), None)


def _is_equivalence(rows) -> bool:
    """Each row is exactly the set of states sharing that row."""
    members = {}
    for i, row in enumerate(rows):
        members[row] = members.get(row, 0) | 1 << i
    return all(row == m for row, m in members.items())


def _k_failure(rows):
    witness = _irreflexive(rows)
    if witness is not None or _is_equivalence(rows):
        return witness
    # reflexive but no equivalence: a missing converse, else a missing link
    cols = _transpose(rows)
    return (_first_in_row([row & ~col for row, col in zip(rows, cols)])
            or _intransitive(rows))


def _pair_failures(box, cols, k, images):
    """One walk over the box pairs s -> t for three witnesses (s, t, r):
    of transitivity, t -> r but not s -> r; of connectedness, s -> r and
    neither of t, r refines into the other; of the cross property, r ~ t
    and no state ~ s refines into r."""
    trans = conn = cross = None
    for s, row in enumerate(box):
        img = images[k[s]]
        for t in _bits(row):
            if trans is None and (miss := box[t] & ~row):
                trans = s, t, _low(miss)
            if conn is None and (miss := row & ~(box[t] | cols[t])):
                conn = s, t, _low(miss)
            if cross is None and (miss := k[t] & ~img):
                cross = s, t, _low(miss)
    return trans, conn, cross


def _fading_atom(box, atoms):
    """(a, b, atom): a refines into b and the atom differs between them."""
    for a, row in enumerate(box):
        best = None
        for name, members in atoms:
            flips = row & ~members if members >> a & 1 else row & members
            if flips and (best is None or _low(flips) < best[1]):
                best = (a, _low(flips), name)
        if best is not None:
            return best
    return None


def _check_witnesses(frame: BiFrame) -> tuple:
    states = frame.states
    box, k = frame._box_rows, frame._k_rows
    cols = frame._box_cols
    others = [~(1 << i) for i in range(len(states))]
    trans, conn, cross = _pair_failures(box, cols, k, frame._class_images)
    found = {
        "box_reflexive": _irreflexive(box),
        "box_transitive": trans,
        "box_antisymmetric": _first_in_row(
            [row & col & o for row, col, o in zip(box, cols, others)]),
        "box_connected": conn,
        "k_equivalence": _k_failure(k),
        "cross_property": cross,
        "box_k_identity": _first_in_row(
            [row & kr & o for row, kr, o in zip(box, k, others)]),
    }
    witnesses = [(name, w and tuple(states[i] for i in w))
                 for name, w in found.items()]
    fading = _fading_atom(box, sorted(frame._val_masks.items()))
    witnesses.append(("atom_persistence", fading and (
        states[fading[0]], states[fading[1]], fading[2])))
    return tuple(witnesses)


def check_frame(frame: BiFrame) -> FrameReport:
    """Verify the structural properties needed by the unfolding.

    The checks run once per frame, which keeps their witnesses; each call
    reports them afresh.  Report-valued on purpose: fixtures documenting
    failures are data, not exceptions.
    """
    return FrameReport(CheckResult(name, w is None, w)
                       for name, w in frame._witnesses)


# ---------------------------------------------------------------------------
# unfolding

class UnfoldResult:
    """Treelike model produced from a frame, with its bookkeeping.

    ``model`` is the subset-space model; points are the states of the
    root's k-class, ``x_class``.  ``open_for(t, s)`` returns the open
    obtained from state ``s``'s class that contains point ``t``.  Both
    are read, when asked, off state masks: the root's class and each
    class's opens (``_cells``, keyed by the class's mask).
    """

    def __init__(self, model, frame, x_mask, cells):
        self.model = model
        # the frame's states and k rows, not the relations it caches
        self._states, self._index = frame.states, frame._index
        self._k_rows, self._x_mask = frame._k_rows, x_mask
        self._cells = cells     # k-class mask -> its opens' state masks

    @cached_property
    def x_class(self) -> frozenset:
        return frozenset(map(self._states.__getitem__, _bits(self._x_mask)))

    def open_for(self, t, s) -> frozenset:
        index = self._index
        if s not in index:
            raise FrameError(f"unknown state {s!r}")
        bit = 1 << index[t] if t in index else 0
        for cell in self._cells[self._k_rows[index[s]]]:
            if cell & bit:
                return frozenset(map(self._states.__getitem__, _bits(cell)))
        raise FrameError(
            f"point {t!r} lies outside the carrier of {s!r}'s class")


def unfold(frame: BiFrame, root) -> UnfoldResult:
    """Unfold a generated frame into an equivalent treelike model.

    Requires, and checks: the structural checks pass (``check_frame``,
    which reads a checked frame's kept witnesses), and every state is
    reachable from ``root`` along box/k edges.  These imply (see below)
    that the class order is a partial order with the root's k-class on
    top, and that no state refines into two states of one class.
    """
    if root not in frame._index:
        raise FrameError(f"unknown root state {root!r}")
    report = check_frame(frame)
    if not report.ok:
        bad = ", ".join(f"{r.name} {r.witness}" for r in report.failures())
        raise FrameError(f"frame fails structural checks: {bad}")

    states = frame.states
    box, k = frame._box_rows, frame._k_rows
    reached = frontier = 1 << frame._index[root]
    while frontier:
        step = 0
        for s in _bits(frontier):
            step |= box[s] | k[s]
        frontier = step & ~reached
        reached |= frontier
    unreached = (1 << len(states)) - 1 & ~reached
    if unreached:
        missing = [states[i] for i in _bits(unreached)]
        raise FrameError(f"frame is not generated by {root!r}; "
                         f"unreachable states: {missing}")

    # C <= D when a state of D refines into a state of C.  This order is
    # reflexive as box is.  It is transitive: if e in E refines into d2,
    # and d ~ d2 refines into c in C, the cross property gives a state of
    # E refining into d, hence into c.  It is antisymmetric: if d in D
    # refines into c in C, and c' ~ c into d' ~ d, the cross property
    # gives some c2 ~ c refining into d, hence into c; box_k_identity
    # makes c2 = c, and box antisymmetry then d = c.  The root's class is
    # the top, since each state is reached from the root and a box step
    # goes down the order.  Two states of one class that a state refines
    # into are comparable, box being connected, and so equal by
    # box_k_identity.  So none of these is checked again here.

    # the k-classes as state masks, least state first, and the states
    # refining into each; the carrier of a class is the points of X among
    # these
    masks = sorted(frame._class_images, key=lambda m: (m & -m, m))
    cols = frame._box_cols
    preds = [_image(cols, m) for m in masks]
    x_mask = k[frame._index[root]]
    carriers = {m: x_mask & pred for m, pred in zip(masks, preds)}

    # point i of the model is the i-th state of the root's class, so a
    # state mask moves onto the model's points bit by bit
    point = {t: 1 << i for i, t in enumerate(_bits(x_mask))}

    def squeeze(m):
        return sum(map(point.__getitem__, _bits(m & x_mask)))

    cells = {}
    names = {}      # the model's open masks -> their names
    for m, pred in zip(masks, preds):
        # split the carrier by membership in the carriers of the classes
        # above, the other classes of the states refining into this one's
        # (its own carrier splits nothing), taking each class once
        above, rest = [], pred & ~m
        while rest:
            c = k[_low(rest)]
            above.append(carriers[c])
            rest &= ~c
        parts = _cells(carriers[m], above)
        parts.sort(key=lambda p: p & -p)
        for p in parts:
            # classes come least state first, and the first one names an open
            names.setdefault(squeeze(p),
                             f"cls({states[_low(m)]},{states[_low(p)]})")
        cells[m] = parts

    space = SubsetSpace._from_masks(tuple(states[t] for t in point),
                                    names.keys(), names)
    model = Model._from_masks(space, {a: squeeze(m)
                                      for a, m in frame._val_masks.items()})
    if not space.is_treelike():
        raise FrameError("unfolding produced a non-treelike space")
    return UnfoldResult(model, frame, x_mask, cells)


# ---------------------------------------------------------------------------
# evaluation on frames

def bi_satisfies(frame: BiFrame, s, f: Formula) -> bool:
    """Standard birelational Kripke truth: box over box, K over k."""
    i = frame._index.get(s)
    if i is None:
        raise FrameError(f"unknown state {s!r}")
    return bool(_frame_truth(frame, f) >> i & 1)


def _within(rows, t: int) -> int:
    """Mask of the states all of whose successors lie in ``t``."""
    out = 0
    for i, row in enumerate(rows):
        if not row & ~t:
            out |= 1 << i
    return out


def _frame_truth(frame: BiFrame, f: Formula) -> int:
    """Mask of the states where ``f`` holds, one subformula at a time."""
    full = (1 << len(frame.states)) - 1
    truth = {}
    for g in subformulas(f):
        k = g.kind
        if k == "atom":
            out = frame._val_masks.get(g.name, 0)
        elif k == "top":
            out = full
        elif k == "bot":
            out = 0
        elif k == "not":
            out = full & ~truth[g.left]
        elif k == "and":
            out = truth[g.left] & truth[g.right]
        elif k == "know":
            out = _within(frame._k_rows, truth[g.left])
        else:  # box
            out = _within(frame._box_rows, truth[g.left])
        truth[g] = out
    return truth[f]


def induced_frame(model: Model) -> BiFrame:
    """The subset frame of a model: one state per neighborhood.

    Box relates (x, U) to (x, V) when V refines U around x; k relates
    neighborhoods sharing their open.  State ids are "point@open-name".
    Both relations are built closed (reflexive and transitive, k an
    equivalence), so no closure runs: the box row of (x, U) is x's
    neighborhoods AND those of the opens inside U.  An atom holds at the
    neighborhoods of its points, a mask read off the model's atom mask.
    """
    space = model.space
    # (id, point, open) of each neighborhood, sorted: state i is hoods[i]
    hoods = sorted((f"{space.points[x]}@{name}", x, j) for j, (name, m)
                   in enumerate(zip(space.names, space.open_masks))
                   for x in _bits(m))
    states, index = _index_states(sid for sid, _, _ in hoods)
    at = [0] * len(space.points)        # point -> mask of its neighborhoods
    down = [0] * len(space.open_masks)  # open -> mask of its neighborhoods
    for i, (_, x, j) in enumerate(hoods):
        at[x] |= 1 << i
        down[j] |= 1 << i
    k = [down[j] for _, _, j in hoods]
    # add to each open the neighborhoods of the opens inside it: children
    # (covers, off trees) first, as sub-opens come after their supersets
    for j in reversed(range(len(down))):
        for c in space.children[j]:
            down[j] |= down[c]
    box = [at[x] & down[j] for _, x, j in hoods]
    val_masks = {a: _image(at, m) for a, m in model.atom_masks.items()}
    return BiFrame._from_rows(states, index, box, k, val_masks)


# ---------------------------------------------------------------------------
# files

def frame_from_dict(data: dict) -> BiFrame:
    try:
        states = data["states"]
    except (TypeError, KeyError):
        raise FrameError("frame file needs a states list") from None
    relations = []
    for key in ("box", "k"):
        pairs = data.get(key, [])
        if not isinstance(pairs, list):
            raise FrameError(f"{key} must be a list of pairs")
        for pair in pairs:
            _strings(pair, f"each {key} pair", FrameError)
        relations.append(pairs)
    close = data.get("close", True)
    if not isinstance(close, bool):
        raise FrameError("close must be true or false")
    return BiFrame(_strings(states, "states", FrameError), *relations,
                   _checked_valuation(data, FrameError), close=close)


def load_frame(path) -> BiFrame:
    return frame_from_dict(_read_json(path, FrameError))
