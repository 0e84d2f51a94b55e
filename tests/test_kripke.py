import hashlib
import json
import random
import re
from itertools import product

import pytest

from helpers import (FIXTURES, naive_box_successors, naive_check_frame,
                     naive_class_le, naive_is_treelike, naive_k_class,
                     oracle_model, random_raw_frame, random_treelike_model,
                     same_model)

from treelogic import (BiFrame, FrameError, TOP, atom, bi_satisfies, box,
                       check_frame, enumerate_spaces, formula_pool,
                       induced_frame, instantiate, load_frame, load_model,
                       parse, scheme, unfold)
from treelogic.kripke import CheckResult, _frame_truth


def test_closure_from_generators(fig_frame):
    nonreflexive = {(a, b) for a, b in fig_frame.box if a != b}
    assert nonreflexive == {
        ("r1", "t1"), ("r2", "t2"), ("r3", "s1"), ("r3", "t1"),
        ("r4", "s2"), ("r4", "t2"), ("r5", "s3"), ("s1", "t1"), ("s2", "t2")}
    assert naive_k_class(fig_frame, "r1") == frozenset(
        {"r1", "r2", "r3", "r4", "r5", "r6"})
    assert naive_k_class(fig_frame, "t2") == frozenset({"t1", "t2"})


def test_check_frame_passes_on_fixture(fig_frame):
    report = check_frame(fig_frame)
    assert report.ok, report.failures()
    names = {r.name for r in report.results}
    assert names == {"box_reflexive", "box_transitive", "box_antisymmetric",
                     "box_connected", "k_equivalence", "cross_property",
                     "box_k_identity", "atom_persistence"}


def test_check_frame_flags_asymmetric_k():
    frame = BiFrame(["a", "b"], k_pairs=[("a", "b")], close=False)
    report = check_frame(frame)
    assert not report.result("k_equivalence").passed
    assert report.result("k_equivalence").witness is not None


def test_check_frame_flags_cross_violation():
    # a refines into b, b epistemically sees c, but a's class never
    # refines into c
    frame = BiFrame(["a", "b", "c"], box_pairs=[("a", "b")],
                    k_pairs=[("b", "c")])
    report = check_frame(frame)
    assert not report.result("cross_property").passed
    s, s2, t = report.result("cross_property").witness
    assert (s, s2) in frame.box and t in naive_k_class(frame, s2)


def test_check_frame_flags_identity_and_persistence():
    twisted = BiFrame(["a", "b"], box_pairs=[("a", "b")],
                      k_pairs=[("a", "b")])
    assert not check_frame(twisted).result("box_k_identity").passed
    fading = BiFrame(["a", "b"], box_pairs=[("a", "b")],
                     valuation={"P": {"a"}})
    assert not check_frame(fading).result("atom_persistence").passed


def _assert_opens_follow_class_order(frame, root):
    """Unfold from ``root`` and check each class's opens against the
    pairwise class order: the open of class c holding the point t is the
    set of points of c's carrier that lie in the carriers of the same
    classes above c as t.  A carrier is the points of the root's class
    refining into a state of the class."""
    result = unfold(frame, root)
    top = naive_k_class(frame, root)
    classes = {naive_k_class(frame, s) for s in frame.states}
    carrier = {c: {t for t in top if any((t, s) in frame.box for s in c)}
               for c in classes}
    for c in classes:
        above = [carrier[d] for d in classes if naive_class_le(frame, c, d)]
        for t in carrier[c]:
            want = frozenset(x for x in carrier[c]
                             if all((x in a) == (t in a) for a in above))
            for s in c:
                assert result.open_for(t, s) == want, (root, sorted(c), t)
    return result


def test_class_order(fig_frame):
    classes = sorted({naive_k_class(fig_frame, s) for s in fig_frame.states},
                     key=min)
    assert [min(c) for c in classes] == ["r1", "s1", "t1"]
    top = naive_k_class(fig_frame, "r1")
    assert naive_class_le(fig_frame, naive_k_class(fig_frame, "t1"),
                          naive_k_class(fig_frame, "s1"))
    assert naive_class_le(fig_frame, naive_k_class(fig_frame, "s1"), top)
    assert not naive_class_le(fig_frame, top, naive_k_class(fig_frame, "t1"))
    result = _assert_opens_follow_class_order(fig_frame, "r1")
    # each open is named after the least state of the first class cut into it
    assert {name[4:name.index(",")] for name in result.model.space.names} \
        == {min(c) for c in classes}


def test_unfold_matches_golden(fig_frame):
    result = unfold(fig_frame, "r1")
    model = result.model
    assert sorted(map(len, model.space.opens), reverse=True) == [6, 3, 2, 2]
    golden = load_model(FIXTURES / "frame_two_level_unfolded.json")
    assert same_model(model, golden)
    assert set(model.space.names) == {"cls(r1,r1)", "cls(s1,r3)",
                                      "cls(t1,r1)", "cls(t1,r3)"}
    assert model.space.is_treelike()


def test_unfold_single_state():
    result = unfold(BiFrame(["a"]), "a")
    assert result.model.space.opens == (frozenset({"a"}),)


def test_unfold_requires_generated_frame(fig_frame):
    with pytest.raises(FrameError, match="not generated"):
        unfold(fig_frame, "s1")
    with pytest.raises(FrameError, match="unknown root"):
        unfold(fig_frame, "zz")


def test_unfold_rejects_failing_frame():
    frame = BiFrame(["a", "b", "c"], box_pairs=[("a", "b")],
                    k_pairs=[("b", "c")])
    with pytest.raises(FrameError, match="structural checks"):
        unfold(frame, "a")


def test_bi_satisfies(fig_frame):
    assert bi_satisfies(fig_frame, "r1", parse("<>P"))
    assert bi_satisfies(fig_frame, "r6", TOP)
    # reflexivity of the refinement relation
    for f in formula_pool(("P",), 2)[:40]:
        inst = parse(f"[]({f}) -> ({f})")
        assert all(bi_satisfies(fig_frame, s, inst) for s in fig_frame.states)


def test_bi_satisfies_deep_nesting(fig_frame):
    # built with box, past the parser's reach: 1,200 levels
    f = parse("P")
    for _ in range(1200):
        f = box(f)
    for s in fig_frame.states:
        assert bi_satisfies(fig_frame, s, f) == bi_satisfies(
            fig_frame, s, parse("[]P"))


def test_unfold_equivalence_on_fixture(fig_frame):
    result = unfold(fig_frame, "r1")
    model = result.model
    pool = formula_pool(("P",), 2)
    for t in sorted(naive_k_class(fig_frame, "r1")):
        for s in fig_frame.states:
            if (t, s) not in fig_frame.box:
                continue
            u = result.open_for(t, s)
            for f in pool:
                assert bi_satisfies(fig_frame, s, f) == model.satisfies(t, u, f)


def test_open_for_rejects_unknown_states_and_points_off_the_carrier(fig_frame):
    result = unfold(fig_frame, "r1")
    with pytest.raises(FrameError, match=r"^unknown state 'zz'$"):
        result.open_for("r1", "zz")
    # r1 refines into no state of s1's class; t1 and zz are no points at all
    for t, s in [("r1", "s1"), ("t1", "t1"), ("zz", "r1")]:
        with pytest.raises(FrameError, match=re.escape(
                f"point {t!r} lies outside the carrier of {s!r}'s class")):
            result.open_for(t, s)
    assert result.open_for("r3", "s1") == frozenset({"r3", "r4", "r5"})


def test_unfold_equivalence_on_induced_frames():
    rng = random.Random(29)
    for _ in range(12):
        base = random_treelike_model(rng, max_points=4, max_opens=6)
        frame = induced_frame(base)
        assert check_frame(frame).ok
        root = next(f"{x}@{name}" for name, u in
                    zip(base.space.names, base.space.opens)
                    if u == base.space.full for x in sorted(u))
        result = unfold(frame, root)
        for f in formula_pool(("A", "B"), 1):
            for t in sorted(result.x_class):
                for s in frame.states:
                    if (t, s) in frame.box:
                        assert bi_satisfies(frame, s, f) == \
                            result.model.satisfies(t, result.open_for(t, s), f)


def test_induced_frame_roundtrip(m1):
    frame = induced_frame(m1)
    assert check_frame(frame).ok
    result = unfold(frame, "q1@top")
    recovered = {frozenset(x.split("@")[0] for x in u)
                 for u in result.model.space.opens}
    # the empty open has no neighborhoods, so it cannot reappear
    assert recovered == {u for u in m1.space.opens if u}
    assert {frozenset(x.split("@")[0] for x in v)
            for v in result.model.valuation.values()} == \
        {v for v in m1.valuation.values()}


def test_frame_rejects_invalid_atom_names():
    for name in ("K", "L", "true", "1x", "a-b"):
        with pytest.raises(FrameError, match=re.escape(
                f"invalid atom name in valuation: {name!r}")):
            BiFrame(["a"], valuation={name: {"a"}})


def _partitions(items):
    """Every set partition of the list ``items``, as a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in _partitions(rest):
        yield [[first]] + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + [[first] + blocks[i]] + blocks[i + 1:]


def small_frames(n):
    """Every frame on ``n`` states, without atoms, that passes
    ``check_frame``: each reflexive box relation times each k partition.

    A box relation is paired with the partitions only if it passes with
    the discrete one.  That drops no passing frame: the box conditions do
    not read k, and the discrete partition meets every k condition
    whatever box is.
    """
    states = [f"s{i}" for i in range(n)]
    diagonal = [(s, s) for s in states]
    off = [(a, b) for a in states for b in states if a != b]
    for bits in range(1 << len(off)):
        box = diagonal + [p for i, p in enumerate(off) if bits >> i & 1]
        if not check_frame(BiFrame(states, box, diagonal, close=False)).ok:
            continue
        for blocks in _partitions(states):
            k = [(a, b) for block in blocks for a in block for b in block]
            frame = BiFrame(states, box, k, close=False)
            if check_frame(frame).ok:
                yield frame


def _generated_by(frame, root) -> bool:
    """Every state is reached from ``root`` along box and k pairs."""
    edges = frame.box | frame.k
    seen, todo = {root}, [root]
    while todo:
        s = todo.pop()
        for a, b in edges:
            if a == s and b not in seen:
                seen.add(b)
                todo.append(b)
    return seen == set(frame.states)


def unfolding_conditions(max_states):
    """Check, on every small frame that passes ``check_frame`` and each
    root generating it, the conditions that ``unfold`` does not check
    itself; return the counts of frames and of (frame, root) pairs."""
    frames = pairs = 0
    for n in range(1, max_states + 1):
        for frame in small_frames(n):
            frames += 1
            classes = {naive_k_class(frame, s) for s in frame.states}
            le = {(c1, c2) for c1 in classes for c2 in classes
                  if naive_class_le(frame, c1, c2)}
            # a partial order, with or without a generating root
            assert all((c, c) in le for c in classes)
            assert not any((c2, c1) in le for c1, c2 in le if c1 != c2)
            assert all((c1, c3) in le for c1, c2 in le
                       for c2b, c3 in le if c2b == c2)
            for root in frame.states:
                if not _generated_by(frame, root):
                    continue
                pairs += 1
                top = naive_k_class(frame, root)
                assert all((c, top) in le for c in classes)
                for t in top:
                    for c in classes:
                        assert sum((t, s) in frame.box for s in c) <= 1
                assert naive_is_treelike(unfold(frame, root).model.space)
    return frames, pairs


def test_check_frame_and_a_generating_root_imply_the_unfolding_conditions():
    assert unfolding_conditions(4) == (369, 312)


def _relations(max_states):
    """Every relation over 1 to ``max_states`` states, as successor rows,
    with the states, their index and the identity's rows."""
    for n in range(1, max_states + 1):
        states = tuple(f"s{i}" for i in range(n))
        index = {s: i for i, s in enumerate(states)}
        identity = [1 << i for i in range(n)]
        low = (1 << n) - 1
        for bits in range(1 << n * n):
            rows = [bits >> n * i & low for i in range(n)]
            yield states, index, identity, rows


def _frame_valid(states, index, box_rows, k_rows, scheme_id) -> bool:
    """The scheme holds at every state under every valuation of its
    metavariables, each read as an atom (phi as P, psi as Q) that ranges
    over all the state sets."""
    template = scheme(scheme_id)
    atoms = {"phi": "P", "psi": "Q"}
    names = [atoms[mv] for mv in sorted(template.metavars)]
    instance = instantiate(template, {mv: atom(atoms[mv])
                                      for mv in template.metavars})
    full = (1 << len(states)) - 1
    return all(_frame_truth(BiFrame._from_rows(
        states, index, box_rows, k_rows, dict(zip(names, masks))),
        instance) == full
        for masks in product(range(full + 1), repeat=len(names)))


def test_one_relation_schemes_match_their_frame_conditions():
    # the other relation is the identity, on which every scheme about it
    # holds; each scheme is valid exactly on the frames of its condition
    seen = {}
    for states, index, identity, rows in _relations(3):
        plain = BiFrame._from_rows(states, index, rows, identity, {})
        report = check_frame(plain)
        for scheme_id, condition in [(4, "box_reflexive"),
                                     (5, "box_transitive"),
                                     (11, "box_connected")]:
            valid = _frame_valid(states, index, rows, identity, scheme_id)
            assert valid == report.result(condition).passed, \
                (scheme_id, rows)
            seen.setdefault(scheme_id, set()).add(valid)
        k_frame = BiFrame._from_rows(states, index, identity, rows, {})
        k = k_frame.k
        conditions = {
            7: all((s, s) in k for s in states),
            8: all((a, c) in k for a, b in k for b2, c in k if b == b2),
            9: all((b, a) in k for a, b in k),
        }
        verdicts = {scheme_id: _frame_valid(states, index, identity, rows,
                                            scheme_id)
                    for scheme_id in conditions}
        assert verdicts == conditions, rows
        for scheme_id, valid in verdicts.items():
            seen.setdefault(scheme_id, set()).add(valid)
        assert check_frame(k_frame).result("k_equivalence").passed == \
            all(verdicts.values()), rows
    assert seen == {i: {True, False} for i in (4, 5, 7, 8, 9, 11)}


def test_scheme_ten_matches_the_cross_property():
    # K []P -> []K P holds everywhere under every valuation exactly when a
    # box step followed by a k step can be matched by a k step followed by
    # a box step: every frame of one or two states, and every frame of
    # three whose box is a preorder, each with every k relation
    relations = {}
    for states, index, identity, rows in _relations(3):
        relations.setdefault(states, (index, identity, []))[2].append(rows)
    frames, seen = 0, set()
    for states, (index, identity, all_rows) in relations.items():
        for box_rows in all_rows:
            plain = check_frame(BiFrame._from_rows(states, index, box_rows,
                                                   identity, {}))
            if len(states) == 3 and not (
                    plain.result("box_reflexive").passed
                    and plain.result("box_transitive").passed):
                continue
            for k_rows in all_rows:
                cross = check_frame(BiFrame._from_rows(
                    states, index, box_rows, k_rows, {})).result(
                        "cross_property").passed
                valid = _frame_valid(states, index, box_rows, k_rows, 10)
                assert valid == cross, (box_rows, k_rows)
                seen.add(valid)
                frames += 1
    assert frames == 15_108 and seen == {True, False}


def test_load_frame_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"states": ["a"], "box": [["a", "zz"]]}')
    with pytest.raises(FrameError):
        load_frame(bad)
    bad.write_text("not json")
    with pytest.raises(FrameError):
        load_frame(bad)


def _oracle_frames():
    """Raw and closed random frames, the fixtures and induced frames, of
    random trees and of every model over up to three points with one atom
    (off trees too)."""
    rng = random.Random(41)
    for _ in range(300):
        states, box_pairs, k_pairs, val = random_raw_frame(rng)
        yield BiFrame(states, box_pairs, k_pairs, val, close=False)
        yield BiFrame(states, box_pairs, k_pairs, val, close=True)
    for path in sorted(FIXTURES.glob("frame_*.json")):
        if "unfolded" not in path.name:
            yield load_frame(path)
    yield induced_frame(oracle_model())
    for _ in range(40):
        yield induced_frame(random_treelike_model(rng, max_points=5,
                                                  max_opens=7))
    for model in enumerate_spaces(3, None, ("A",), treelike=False):
        yield induced_frame(model)


def test_check_frame_matches_quantifier_oracle():
    outcomes = {}
    frames = 0
    for frame in _oracle_frames():
        frames += 1
        report = check_frame(frame).to_dict()
        assert report == naive_check_frame(frame), frame.states
        for name, entry in report.items():
            outcomes.setdefault(name, set()).add(entry["passed"])
    assert frames > 600
    # the corpus makes every property both pass and fail somewhere
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


def test_check_frame_reports_afresh_from_one_check(fig_frame):
    first, second = check_frame(fig_frame), check_frame(fig_frame)
    assert first is not second and first.results is not second.results
    expected = first.to_dict()
    assert second.to_dict() == expected
    first.results.append(CheckResult("box_connected", False, ("r1",)))
    second.results[0].passed = False
    assert not first.ok and not second.ok
    assert check_frame(fig_frame).to_dict() == expected
    assert unfold(fig_frame, "r1").model.space.opens


def _refusal(frame, root) -> str:
    with pytest.raises(FrameError) as info:
        unfold(frame, root)
    return str(info.value)


def test_unfold_refuses_alike_with_or_without_a_prior_check():
    refused = 0
    for fresh, checked in zip(_oracle_frames(), _oracle_frames()):
        if check_frame(checked).ok:
            continue
        root = fresh.states[0]
        message = _refusal(fresh, root)
        assert message.startswith("frame fails structural checks: ")
        assert _refusal(checked, root) == message
        refused += 1
    assert refused > 600


def test_class_order_matches_pairwise_definition():
    # unfold reads the class order only on the frames it accepts: there the
    # order is partial with the root's class on top, and each class's opens
    # are cut by the carriers of the classes above it
    seen = set()
    unfolded = 0
    for frame in _oracle_frames():
        classes = {naive_k_class(frame, s) for s in frame.states}
        if frozenset() in classes:
            with pytest.raises(FrameError, match="structural checks"):
                unfold(frame, frame.states[0])
            seen.add("empty class")
            continue
        le = {(c1, c2) for c1 in classes for c2 in classes
              if naive_class_le(frame, c1, c2)}
        partial = (all((c, c) in le for c in classes)
                   and not any((c2, c1) in le for c1, c2 in le if c1 != c2)
                   and all((c1, c3) in le for c1, c2 in le
                           for c2b, c3 in le if c2b == c2))
        tops = [c for c in classes if all((d, c) in le for d in classes)]
        seen.add((partial, bool(tops)))
        if not check_frame(frame).ok:
            continue
        for root in frame.states:
            if _generated_by(frame, root):
                assert partial and naive_k_class(frame, root) in tops
                _assert_opens_follow_class_order(frame, root)
                unfolded += 1
    assert seen == {"empty class"} | {(a, b) for a in (True, False)
                                      for b in (True, False)}
    assert unfolded > 800


def _closure_models():
    rng = random.Random(43)
    for _ in range(40):
        yield random_treelike_model(rng, max_points=5, max_opens=7)
    # off trees the induced frame reads each open's covers, not children
    yield from enumerate_spaces(3, None, ("A",), treelike=False)


def test_induced_frame_equals_closure_of_generators():
    # the induced frame skips the closure: it must already be closed
    for model in _closure_models():
        frame = induced_frame(model)
        hoods = {s: (s.split("@")[0], model.space.open_named(s.split("@")[1]))
                 for s in frame.states}
        strict_box = [(s, t) for s, (x, u) in hoods.items()
                      for t, (y, v) in hoods.items() if x == y and v < u]
        k_chain = []
        for u in model.space.opens:
            members = sorted(s for s, (_, v) in hoods.items() if v == u)
            k_chain += zip(members, members[1:])
        closed = BiFrame(frame.states, strict_box, k_chain, frame.valuation,
                         close=True)
        assert frame.states == closed.states
        assert frame.box == closed.box and frame.k == closed.k
        assert frame.valuation == closed.valuation
        # an atom holds at the neighborhoods of its points in the model
        assert frame.valuation == {
            a: {f"{x}@{name}" for name, u in zip(model.space.names,
                                                 model.space.opens)
                for x in u if x in members}
            for a, members in model.valuation.items()}
        for s in frame.states:
            assert naive_box_successors(frame, s) == \
                naive_box_successors(closed, s)
            assert naive_k_class(frame, s) == naive_k_class(closed, s)


def _frame_record(model) -> str:
    frame = induced_frame(model)
    return json.dumps([frame.states, frame._box_rows, frame._k_rows,
                       list(frame._val_masks.items())],
                      separators=(",", ":"))


def _frame_records():
    """Induced frames of seeded random trees, of every model over up to
    three points with one atom (off trees too), and of the oracle model."""
    rng = random.Random(47)
    for _ in range(300):
        yield _frame_record(random_treelike_model(rng, max_points=5,
                                                  max_opens=7))
    for model in enumerate_spaces(3, None, ("A",), treelike=False):
        yield _frame_record(model)
    yield _frame_record(oracle_model())


def test_induced_frames_are_pinned():
    # sha256 of the records, one line each, joined by newlines; recorded
    # while ``induced_frame`` still compared the opens around each point
    lines = "\n".join(_frame_records())
    assert hashlib.sha256(lines.encode()).hexdigest() == \
        "920687a99dc28a168f6dc74682c5327f8ed7f029f0ba6681acfc497f91bda760"
