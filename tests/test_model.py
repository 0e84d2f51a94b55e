import hashlib
import json
import random

import pytest

from helpers import (FIXTURES, naive_children, naive_is_treelike,
                     naive_satisfies, naive_valid, oracle_model,
                     random_formula, random_question_model,
                     random_treelike_model, same_model)

from treelogic import (FrameError, MaskContext, Model, ModelError, ProofError,
                       SCHEMES, SubsetSpace, TOP, atom, atom_names, box,
                       build_question_tree, build_stream_space, conj, diamond,
                       enumerate_spaces, formula_pool, induced_frame,
                       instantiate, know, load_frame, load_model, load_proof,
                       model_from_dict, model_to_dict, neg, parse, poss,
                       render, satisfiable, subformulas, unfold)
from treelogic.decide import _families
from treelogic.model import MAX_STREAM_DEPTH

X = frozenset({"q1", "q2", "q3", "q4"})
U12 = frozenset({"q1", "q2"})
U34 = frozenset({"q3", "q4"})


def test_is_treelike(m1):
    assert m1.space.is_treelike()
    overlapping = SubsetSpace(["q1", "q2", "q3"],
                              [frozenset({"q1", "q2", "q3"}),
                               frozenset({"q1", "q2"}), frozenset({"q2", "q3"})])
    assert not overlapping.is_treelike()
    assert SubsetSpace(["p"], [frozenset({"p"})]).is_treelike()


def _tree_test_spaces():
    """Every three-point family, random families with and without empty
    opens, random trees, stream spaces and question trees."""
    spaces = [m.space for m in enumerate_spaces(3, treelike=False)]
    rng = random.Random(17)
    for _ in range(400):
        points = [f"x{i}" for i in range(rng.randint(1, 6))]
        opens = {frozenset(points)}
        for _ in range(rng.randint(0, 6)):
            opens.add(frozenset(p for p in points if rng.random() < 0.5))
        if rng.random() < 0.5:
            opens.add(frozenset())
        spaces.append(SubsetSpace(points, opens))
    spaces += [random_treelike_model(rng).space for _ in range(100)]
    spaces += [build_stream_space(depth).space for depth in range(1, 6)]
    spaces += [random_question_model(rng).space for _ in range(40)]
    # the only overlap comes late in the size order: two small opens under
    # a third beside a disjoint one, and two opens of equal size
    spaces.append(SubsetSpace("abcde", map(frozenset, [
        "abcde", "abc", "de", "ab", "bc"])))
    spaces.append(SubsetSpace("abcdefgh", map(frozenset, [
        "abcdefgh", "abcd", "efgh", "ab", "cd", "ef", "fg"])))
    return spaces


def test_is_treelike_agrees_with_pairwise_definition():
    spaces = _tree_test_spaces()
    assert not all(map(naive_is_treelike, spaces))
    assert sum(frozenset() in s.opens for s in spaces) > 200
    verdicts = [space.is_treelike() for space in spaces]
    assert verdicts == [naive_is_treelike(space) for space in spaces]
    assert 100 < sum(verdicts) < len(spaces) - 100


def test_open_tree_agrees_with_pairwise_definitions():
    # children are the maximal nonempty strict sub-opens
    for space in _tree_test_spaces():
        opens = space.opens
        for i, u in enumerate(opens):
            kids = [opens[c] for c in space.children[i]]
            assert len(set(kids)) == len(kids)
            assert set(kids) == naive_children(space, u)


@pytest.mark.parametrize("points, opens, names, message", [
    ([], [[]], None, "a subset space needs at least one point"),
    (["a", "a"], [["a"]], None, "duplicate point ids"),
    (["a", "b"], [["a", "b"]], ["top", "extra"], "one name per open required"),
    (["a", "b"], [["a", "b"], ["a", "zz"]], ["top", "u"],
     "open 'u' contains unknown points"),
    (["a", "b"], [["a", "b"], ["a"], ["a"]], ["top", "u", "v"],
     "open 'v' duplicates another open's members"),
    (["a", "b"], [["a", "b"], ["a"]], ["top", "top"], "duplicate open names"),
    (["a", "b"], [["a"], ["b"]], None,
     "the full point set must be one of the opens"),
])
def test_space_constructor_messages(points, opens, names, message):
    with pytest.raises(ModelError, match=f"^{message}$"):
        SubsetSpace(points, opens, names)


def test_model_constructor_messages():
    space = SubsetSpace(["a", "b"], [frozenset({"a", "b"})])
    with pytest.raises(ModelError,
                       match="^valuation of 'A' contains unknown points$"):
        Model(space, {"A": {"a", "zz"}})
    with pytest.raises(ModelError, match="^invalid atom name in valuation"):
        Model(space, {"K": {"a"}})
    assert Model(space, {"A": {"b"}, "B": set()}).atom_masks == {"A": 2, "B": 0}


def test_satisfaction_golden(m1):
    # frozen from the independent evaluator in helpers (asserted below)
    assert m1.satisfies("q1", X, parse("K Q1")) is False
    assert m1.satisfies("q1", U12, parse("K Q1")) is True
    assert m1.satisfies("q1", X, parse("<>K Q1")) is True
    assert m1.satisfies("q3", U34, parse("[]L Q2")) is True
    for x, u, text, expected in [
            ("q1", X, "K Q1", False), ("q1", U12, "K Q1", True),
            ("q1", X, "<>K Q1", True), ("q3", U34, "[]L Q2", True)]:
        assert naive_satisfies(m1, x, u, parse(text)) is expected


def test_satisfies_validates_neighborhood(m1):
    with pytest.raises(ModelError):
        m1.satisfies("q3", U12, TOP)
    with pytest.raises(ModelError):
        m1.satisfies("q1", frozenset({"q1"}), TOP)


def test_unknown_atoms_default_false(m1):
    assert m1.satisfies("q1", X, parse("Mystery")) is False
    assert m1.satisfies("q1", X, parse("Q1 | Mystery")) is True
    # strict mode rejects every unknown atom, whatever the evaluation order
    for text in ("Mystery", "Q1 | Mystery", "false & Mystery",
                 "true | []K Mystery"):
        f = parse(text)
        with pytest.raises(ModelError, match="unknown atom 'Mystery'"):
            m1.satisfies("q1", X, f, strict_atoms=True)
        with pytest.raises(ModelError, match="unknown atom 'Mystery'"):
            m1.truth_set(X, f, strict_atoms=True)
        with pytest.raises(ModelError, match="unknown atom 'Mystery'"):
            m1.is_valid(f, strict_atoms=True)


def test_valid_in_model(m1):
    assert m1.is_valid(parse("Q1 -> []Q1"))
    assert not m1.is_valid(parse("K Q1"))
    assert m1.is_valid(TOP)


def test_truth_set(m1):
    assert m1.truth_set(X, parse("Q1")) == U12
    assert m1.truth_set(X, parse("K Q1")) == frozenset()
    assert m1.truth_set(U12, parse("K Q1")) == U12
    with pytest.raises(ModelError):
        m1.truth_set(frozenset({"q2"}), TOP)


def test_truth_in_arbitrary_carrier(m1):
    # carrier that is not an open: K ranges over it, [] over opens inside
    carrier = frozenset({"q1", "q2", "q3"})
    assert m1.truth_in(carrier, parse("Q2")) == carrier
    assert m1.truth_in(carrier, parse("K Q2")) == carrier
    assert m1.truth_in(carrier, parse("K Q1")) == frozenset()


def test_dual_expansions_match(m1):
    rng = random.Random(11)
    models = [m1] + [random_treelike_model(rng, atoms=("Q1", "Q2"))
                     for _ in range(30)]
    for model in models:
        for _ in range(20):
            f = random_formula(rng, ("Q1", "Q2"), 2)
            for u in model.space.opens:
                for x in u:
                    dia = model.satisfies(x, u, diamond(f))
                    direct = any(model.satisfies(x, v, f)
                                 for v in model.space.opens
                                 if v <= u and x in v)
                    assert dia == direct
                    lphi = model.satisfies(x, u, poss(f))
                    assert lphi == any(model.satisfies(y, u, f) for y in u)


def _agrees_with_reference(model, formulas, carriers):
    # the model answers f, then g, then f again, then a formula sharing
    # f's subformulas, so the truth row it keeps is built, replaced, built
    # again and reused; strict_atoms must reject unknown atoms whether or
    # not the row is reused
    ctx = MaskContext.from_model(model)
    points = model.space.points
    opens = model.space.opens
    stream = []
    for f, g in zip(formulas, formulas[1:] + formulas[:1]):
        stream += [f, g, f, conj(box(f), neg(g))]
    want = {}           # formula -> naive truth sets at opens, at carriers
    for f in stream:
        if f not in want:
            want[f] = ([{x for x in u if naive_satisfies(model, x, u, f)}
                        for u in opens],
                       [{x for x in c if naive_satisfies(model, x, c, f)}
                        for c in carriers])
        at_opens, at_carriers = want[f]
        for u_mask, u, w in zip(model.space.open_masks, opens, at_opens):
            got = {points[i] for i in range(len(points))
                   if ctx.truth(f, u_mask) >> i & 1}
            assert got == w
            assert model.truth_set(u, f) == w
            assert all(model.satisfies(x, u, f) == (x in w) for x in u)
        for c, w in zip(carriers, at_carriers):
            assert model.truth_in(c, f) == w
        valid = all(w == u for u, w in zip(opens, at_opens))    # naive_valid
        assert model.is_valid(f) == valid
        u, x = opens[0], points[0]
        strict = [lambda: model.satisfies(x, u, f, strict_atoms=True),
                  lambda: model.truth_set(u, f, strict_atoms=True),
                  lambda: model.is_valid(f, strict_atoms=True)]
        if atom_names(f) <= set(model.valuation):
            assert [call() for call in strict] == [
                x in at_opens[0], at_opens[0], valid]
        else:
            for call in strict:
                with pytest.raises(ModelError, match="unknown atom"):
                    call()


def test_mask_engine_agrees_with_reference(m1):
    # every Model entry point against the independent evaluator, on
    # treelike and non-treelike models, over opens and over carriers
    # built from opens (intersections and unions) that need not be open;
    # naive_satisfies reads a carrier the way truth_in does
    rng = random.Random(5)
    models = [m1] + [random_treelike_model(rng, atoms=("A", "B"))
                     for _ in range(40)]
    loose = list(enumerate_spaces(3, atoms=("A",), treelike=False))
    models += rng.sample([m for m in loose if not m.space.is_treelike()], 25)
    for model in models:
        opens = model.space.opens
        carriers = {u & v for u in opens for v in opens}
        carriers |= {u | v for u in opens for v in opens}
        formulas = [random_formula(rng, ("A", "B", "Q1"), 3)
                    for _ in range(15)]
        _agrees_with_reference(model, formulas, carriers)
    # depth-5 stream spaces and question trees: every open, and the
    # non-open carriers among unions of two opens and complements of opens
    rng = random.Random(7)
    models = []
    for _ in range(2):
        space = build_stream_space(5).space
        models.append(Model(space, {a: {p for p in space.points
                                        if rng.random() < 0.5}
                                    for a in ("A", "B")}))
    models += [random_question_model(rng, 12, 4) for _ in range(6)]
    checked = 0
    for model in models:
        space = model.space
        opens = [u for u in space.opens if u]
        carriers = {rng.choice(opens) | rng.choice(opens) for _ in range(30)}
        carriers |= {space.full - u for u in opens}
        carriers = {c for c in carriers if c not in set(space.opens)}
        checked += len(carriers)
        formulas = [random_formula(rng, ("A", "B", "Q0"), 3)
                    for _ in range(8)]
        _agrees_with_reference(model, formulas, carriers)
    assert checked > 200


def test_a_model_keeps_one_context_and_one_row(m1, monkeypatch):
    # every entry point reads the model's one context; the row of one
    # formula is built once, and another formula's row replaces it
    built, passes = [], []
    init, rows = MaskContext.__init__, MaskContext.rows

    def counted_init(ctx, *args):
        built.append(ctx)
        init(ctx, *args)

    def counted_rows(ctx, *args):
        passes.append(args[1])
        return rows(ctx, *args)

    monkeypatch.setattr(MaskContext, "__init__", counted_init)
    monkeypatch.setattr(MaskContext, "rows", counted_rows)
    f, g = parse("<>K Q1 & L ~Q2"), parse("K[]Q1 -> []K Q1")
    table = [m1.truth_set(u, f) for u in m1.space.opens]
    top = m1.space.full
    assert m1.satisfies("q1", top, f) == ("q1" in table[0])
    assert m1.is_valid(f) is False
    assert m1.truth_in(top, f) == table[0]
    assert len(built) == 1 and passes == [[f]]
    assert m1._ctx is built[0] and list(m1._ctx.cache) == [f]
    assert m1.is_valid(g) is True
    assert len(built) == 1 and passes == [[f], [g]]
    assert list(m1._ctx.cache) == [g]
    assert [m1.truth_set(u, f) for u in m1.space.opens] == table
    assert len(m1._ctx.cache) == 1 and passes == [[f], [g], [f]]


def test_rows_agree_with_truth():
    # the bottom-up pass against the independent evaluator, lane by lane
    # and root by root, at every open and at carriers that are not open:
    # on every family over up to three points, trees or not, and on
    # random trees, with one lane and with many lanes of random valuations
    rng = random.Random(29)
    spaces = {m.space: None for m in enumerate_spaces(3, treelike=False)}
    spaces = list(spaces) + [random_treelike_model(rng).space
                             for _ in range(30)]
    carried = 0
    for space in spaces:
        n, points = len(space.points), space.points
        roots = [random_formula(rng, ("A", "B"), 4) for _ in range(10)]
        roots.append(roots[0].left or roots[0])     # a root inside a root
        post = subformulas(*roots)
        carriers = [m for m in dict.fromkeys(rng.getrandbits(n)
                                             for _ in range(3))
                    if m not in space.open_masks]
        carried += len(carriers)
        columns = [{p for i, p in enumerate(points) if m >> i & 1}
                   for m in space.open_masks + tuple(carriers)]
        for lanes in (1, 7):
            vals = {a: rng.getrandbits(n * lanes) for a in ("A", "B")}
            got = MaskContext([(space, lanes)], vals).rows(post, roots,
                                                           carriers)
            for lane in range(lanes):
                model = Model(space, {
                    a: {p for i, p in enumerate(points)
                        if v >> lane * n + i & 1}
                    for a, v in vals.items()})
                for f, row in zip(roots, got):
                    assert [t >> lane * n & (1 << n) - 1 for t in row] == [
                        sum(1 << i for i, p in enumerate(points)
                            if p in c and naive_satisfies(model, p, c, f))
                        for c in columns]
    assert carried > 50


def test_stacked_rows_match_each_family():
    # a lane of a stacked context reads, in its low bits, what a one-lane
    # context over the lane's family reads, 0 in the padding above them,
    # and 0 at the slots past the family's last open: treelike families of
    # one point count, and of 1 to 4 points mixed in any order, share a
    # context in runs of 1 to 5 lanes as wide as the widest family, any
    # other family gets a multi-lane context of its own, and a stack that
    # mixes the two is refused
    rng = random.Random(31)
    roots = [random_formula(rng, ("A", "B"), 4) for _ in range(12)]
    roots += [parse(text) for text in (
        "[]L A", "<>K B", "[]K A -> K[]A", "<>[]L A -> []<>L A")]
    post = subformulas(*roots)
    by_points = {}
    for m in enumerate_spaces(4, treelike=False):
        by_points.setdefault(len(m.space.points), []).append(m.space)
    contexts = []
    every_tree = []
    for n, spaces in by_points.items():
        trees = [s for s in spaces if s.is_treelike()]
        others = [s for s in spaces if not s.is_treelike()]
        contexts.append([(s, rng.randint(1, 5))
                         for s in rng.sample(trees, min(len(trees), 30))])
        contexts += [[(s, rng.randint(1, 5))]
                     for s in rng.sample(others, min(len(others), 12))]
        every_tree.append(trees)
        if trees and others:
            with pytest.raises(ModelError, match="only treelike families "
                                                 "can share a mask context"):
                MaskContext([(trees[0], 1), (others[0], 1)], {})
    for _ in range(4):
        mixed = [rng.choice(trees) for trees in every_tree]
        mixed += rng.sample([s for trees in every_tree for s in trees], 20)
        rng.shuffle(mixed)
        contexts.append([(s, rng.randint(1, 5)) for s in mixed])
    # one-point families stacked: a lane has no low bits for K's collapse
    contexts.append([(s, rng.randint(1, 5)) for s in by_points[1] * 2])
    stacks = mixed_stacks = 0
    for runs in contexts:
        lanes = sum(count for _, count in runs)
        width = max(len(s.points) for s, _ in runs)
        # random bits in the padding too: atoms are cut to the opens
        vals = {a: rng.getrandbits(width * lanes) for a in ("A", "B")}
        ctx = MaskContext(runs, vals)
        assert ctx.n == width
        got = ctx.rows(post, roots)
        lane = 0
        for space, count in runs:
            n = len(space.points)
            for _ in range(count):
                one = {a: v >> lane * width & (1 << n) - 1
                       for a, v in vals.items()}
                want = MaskContext([(space, 1)], one).rows(post, roots)
                for row, one_row in zip(got, want):
                    cells = [t >> lane * width & (1 << width) - 1 for t in row]
                    assert [c & (1 << n) - 1 for c in cells] == (
                        one_row + [0] * (len(row) - len(one_row)))
                    assert not any(c >> n for c in cells)
                lane += 1
        stacks += len(runs) > 1
        mixed_stacks += len({len(s.points) for s, _ in runs}) == 4
    assert (stacks, mixed_stacks) == (9, 4)
    # a one-run context of many lanes reads carriers that are not open as
    # extra columns, each lane as a one-lane context reads them
    carried = 0
    for runs in contexts:
        (space, count), *more = runs
        n = len(space.points)
        carriers = [m for m in range(1, 1 << n)
                    if m not in space.open_masks][:3]
        if more or count == 1 or not carriers:
            continue
        vals = {a: rng.getrandbits(n * count) for a in ("A", "B")}
        got = MaskContext(runs, vals).rows(post, roots, carriers)
        for lane in range(count):
            one = {a: v >> lane * n & (1 << n) - 1 for a, v in vals.items()}
            want = MaskContext([(space, 1)], one).rows(
                post, roots, carriers)
            for row, one_row in zip(got, want):
                assert len(row) == len(space.opens) + len(carriers)
                assert [t >> lane * n & (1 << n) - 1 for t in row] == one_row
        carried += 1
    assert carried > 10


def test_deep_nesting_evaluates():
    f = atom("Q1")
    for _ in range(400):
        f = box(f)
    model = oracle_model()
    assert model.satisfies("q1", model.space.full, f) is True
    assert model.satisfies("q3", model.space.full, f) is False


def test_deep_chain_of_opens_evaluates():
    # 1,200 nested opens, the tails of p0000 < ... < p1199: [] walks the
    # chain in one loop instead of recursing down it
    points = [f"p{i:04d}" for i in range(1200)]
    space = SubsetSpace(points, [points[i:] for i in range(1200)])
    assert space.is_treelike()
    tail = frozenset(points[600:])
    model = Model(space, {"A": tail})
    top = space.full
    # A is a point property, so <>A and []<>A hold exactly where A does
    assert model.satisfies(points[600], top, parse("[]<>A")) is True
    assert model.satisfies(points[599], top, parse("[]<>A")) is False
    # the least open around p_i is the tail from p_i, inside A exactly
    # when i >= 600, and every open around p_i contains it
    assert model.truth_set(top, parse("[]<>K A")) == tail
    assert model.is_valid(parse("A -> []A")) is True


def test_box_collapses_without_knowledge():
    rng = random.Random(13)
    for _ in range(40):
        model = random_treelike_model(rng)
        f = random_formula(rng, ("A", "B"), 2)
        if any(g.kind == "know" for g in subformulas(f)):
            continue
        assert model.is_valid(parse(f"({render(f)}) -> []({render(f)})"))
        assert model.is_valid(parse(f"[]({render(f)}) -> ({render(f)})"))


def test_monotone_knowledge_on_treelike():
    rng = random.Random(17)
    for _ in range(30):
        model = random_treelike_model(rng)
        f = random_formula(rng, ("A", "B"), 2)
        for u in model.space.opens:
            for x in u:
                if model.satisfies(x, u, box(know(f))):
                    for v in model.space.opens:
                        if v <= u and x in v:
                            assert model.satisfies(x, v, know(f))


def test_axioms_hold_on_random_treelike_models():
    rng = random.Random(19)
    pool = formula_pool(("A", "B"), 2)
    models = [random_treelike_model(rng) for _ in range(8)]
    for model in models:
        ctx = MaskContext.from_model(model)
        for sid in range(3, 13):
            template = SCHEMES[sid]
            for _ in range(60):
                sub = {name: rng.choice(pool) for name in template.metavars}
                assert ctx.is_valid(instantiate(template, sub)), (sid, sub)
        # scheme 2 over atoms
        for a in ("A", "B"):
            assert ctx.is_valid(instantiate(2, {"A": atom(a)}))


def test_refinement_commutation_dichotomy():
    # <>[]p -> []<>p needs the treelike shape; []<>p -> <>[]p never fails
    # on finite spaces (minimal refinements settle it), tree or not.
    rng = random.Random(23)
    s13 = instantiate("S13", {"phi": know(atom("A"))})
    s15 = instantiate("S15", {"phi": know(atom("A"))})
    for _ in range(60):
        model = random_treelike_model(rng, atoms=("A",))
        assert model.is_valid(s13)
        assert model.is_valid(s15)
    witness = Model(
        SubsetSpace(["a", "b", "c"],
                    [frozenset({"a", "b", "c"}), frozenset({"a", "b"}),
                     frozenset({"b", "c"})]),
        {"A": {"a", "b"}})
    assert not witness.space.is_treelike()
    assert not witness.is_valid(s13)
    assert witness.satisfies("b", frozenset({"a", "b", "c"}), neg(s13))
    assert witness.is_valid(s15)


def test_build_question_tree_matches_oracle_fixture(m1):
    built = build_question_tree(
        ["q1", "q2", "q3", "q4"],
        [("Q1", {"q1", "q2"}), ("Q2", {"q1", "q2", "q3"})])
    assert same_model(built, m1)
    assert built.space.is_treelike()


def test_build_question_tree_degenerate():
    none = build_question_tree(["a", "b"], [])
    assert set(none.space.opens) == {frozenset({"a", "b"})}
    single = build_question_tree(["p"], [("Q", {"p"})])
    assert set(single.space.opens) == {frozenset({"p"}), frozenset()}
    with pytest.raises(ModelError):
        build_question_tree(["p"], [("Q", {"zz"})])
    with pytest.raises(ModelError, match="duplicate point ids"):
        build_question_tree(["p", "q", "p"], [])


def test_question_tree_opens_are_every_cell_of_every_level():
    # the cells of each level, empty ones included, spelled out in full
    rng = random.Random(29)
    for _ in range(60):
        points = [f"w{i}" for i in range(rng.randint(1, 6))]
        questions = [(f"Q{j}", {p for p in points if rng.random() < 0.5})
                     for j in range(rng.randint(0, 5))]
        level, cells = [frozenset(points)], {frozenset(points)}
        for _, yes in questions:
            level = [c for prev in level for c in (prev & yes, prev - yes)]
            cells.update(level)
        built = build_question_tree(points, questions)
        assert set(built.space.opens) == cells


def test_question_tree_levels_keep_no_empty_cells():
    # 30 questions over 4 points: at most 4 cells a level, not 2^30
    points = ["a", "b", "c", "d"]
    questions = [(f"Q{j}", set(points[:j % 5])) for j in range(30)]
    model = build_question_tree(points, questions)
    assert model.space.is_treelike()
    assert frozenset() in model.space.opens
    assert len(model.space.opens) <= 2 * len(points)


def test_build_stream_space():
    s2 = build_stream_space(2)
    assert set(s2.space.opens) == {
        frozenset({"00", "01", "10", "11"}), frozenset({"00", "01"}),
        frozenset({"10", "11"}), frozenset({"00"}), frozenset({"01"}),
        frozenset({"10"}), frozenset({"11"})}
    s1 = build_stream_space(1)
    assert set(s1.space.opens) == {frozenset({"0", "1"}),
                                   frozenset({"0"}), frozenset({"1"})}
    for depth in range(1, 7):
        assert build_stream_space(depth).space.is_treelike()
    with pytest.raises(ModelError):
        build_stream_space(0)


def test_stream_cylinders_match_the_prefix_scan():
    # each cylinder is split off its parent; the scan of every point for
    # every prefix is the definition
    for depth in range(1, 9):
        points = [format(i, f"0{depth}b") for i in range(1 << depth)]
        prefixes = [format(i, f"0{plen}b") for plen in range(1, depth + 1)
                    for i in range(1 << plen)]
        scan = {frozenset(points)} | {
            frozenset(w for w in points if w.startswith(p)) for p in prefixes}
        space = build_stream_space(depth).space
        assert space.points == tuple(sorted(points))
        assert set(space.opens) == scan
        assert len(space.opens) == 2 ** (depth + 1) - 1


def test_stream_depth_is_refused_past_the_limit():
    # the limit is checked before anything is built, so these return at once
    assert MAX_STREAM_DEPTH == 12
    for depth in (13, 20, 10 ** 9):
        with pytest.raises(ModelError, match=f"depth {depth} exceeds the "
                           "limit of 12"):
            build_stream_space(depth)


def test_loader_round_trip(m1):
    loaded = load_model(FIXTURES / "fig_oracle.json")
    assert same_model(loaded, m1)
    again = model_from_dict(model_to_dict(loaded))
    assert same_model(again, loaded)


def test_loader_rejects_bad_files():
    base = {"points": ["a", "b"],
            "opens": [{"name": "top", "members": ["a", "b"]}],
            "valuation": {}}
    model_from_dict(base)
    bad = dict(base, opens=[{"name": "top", "members": ["a", "b", "zz"]}])
    with pytest.raises(ModelError):
        model_from_dict(bad)
    bad = dict(base, opens=[{"name": "u", "members": ["a"]}])
    with pytest.raises(ModelError):
        model_from_dict(bad)          # full point set missing
    bad = dict(base, opens=base["opens"] + [{"name": "dup", "members": ["b", "a"]}])
    with pytest.raises(ModelError):
        model_from_dict(bad)          # extensional duplicate
    bad = dict(base, valuation={"K": ["a"]})
    with pytest.raises(ModelError):
        model_from_dict(bad)          # reserved atom
    with pytest.raises(ModelError):
        model_from_dict({"points": [], "opens": [{"name": "top", "members": []}]})


@pytest.mark.parametrize("text", ["{", ""], ids=["brace", "empty"])
@pytest.mark.parametrize("load, error", [(load_model, ModelError),
                                         (load_frame, FrameError),
                                         (load_proof, ProofError)],
                         ids=["model", "frame", "proof"])
def test_loaders_reject_text_that_is_not_json(tmp_path, load, error, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error, match="^not valid JSON: "):
        load(path)


def test_empty_open_contributes_no_neighborhoods(m1):
    assert frozenset() in set(m1.space.opens)
    assert all(u for _, u in m1.neighborhoods())


def test_space_from_masks_equals_the_checked_constructor():
    # the constructor path that takes checked masks sorts them as the
    # public one sorts point sets and gives the same opens, names and tree
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 7)
        points = tuple(f"p{i}" for i in range(n))
        full = (1 << n) - 1
        masks = {full} | {rng.randrange(full + 1)
                          for _ in range(rng.randint(0, 12))}
        sets = [frozenset(p for i, p in enumerate(points) if m >> i & 1)
                for m in masks]
        names = {m: f"n{m}" for m in masks}
        for given in (None, names):
            want = SubsetSpace(points, sets, None if given is None
                               else [names[m] for m in masks])
            got = SubsetSpace._from_masks(points, masks, given)
            assert got == want
            assert got.opens == want.opens
            assert got.open_masks == want.open_masks
            assert got.names == want.names
            assert got.children == want.children
            assert got.is_treelike() == want.is_treelike()
            assert got.full == want.full and got.index == want.index
            assert got.open_named(got.names[-1]) == \
                want.open_named(want.names[-1])


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _family_records():
    """Every space ``_families`` lists over up to four points, of each cap
    and shape, and over up to eight points with at most two opens."""
    for n in range(1, 9):
        for most in (1, 2, 3, None):
            if n > 4 and most not in (1, 2):
                continue
            for treelike in (True, False):
                for space in _families(n, most, treelike):
                    yield _canonical([n, most, treelike,
                                      model_to_dict(Model(space))])


def _stream_records():
    for depth in range(1, 9):
        yield _canonical(model_to_dict(build_stream_space(depth)))


# five L-conjuncts with pairwise different valuations: the sweep passes
# 20,000 models before saturation gives a six-point witness
MATERIALIZED = ("L(A & B & C) & L(A & B & ~C) & L(A & ~B & C) & "
                "L(~A & B & C) & L(~A & ~B & C)")


def _materialize_records():
    yield _canonical(satisfiable(parse(MATERIALIZED), use_bound=True).to_dict())


def _unfold_record(frame, root):
    result = unfold(frame, root)
    opens = [[t, s, sorted(result.open_for(t, s))]
             for t in sorted(result.x_class) for s in frame.states
             if (t, s) in frame.box]
    return _canonical([root, sorted(result.x_class),
                       model_to_dict(result.model), opens])


def _unfold_records():
    yield _unfold_record(load_frame(FIXTURES / "frame_two_level.json"), "r1")
    rng = random.Random(29)
    for _ in range(12):
        base = random_treelike_model(rng, max_points=4, max_opens=6)
        root = next(f"{x}@{name}" for name, u in
                    zip(base.space.names, base.space.opens)
                    if u == base.space.full for x in sorted(u))
        yield _unfold_record(induced_frame(base), root)


# sha256 of the records above, one line each, joined by newlines: the
# spaces the program builds for itself, recorded while every one of them
# still went through the checked constructor
PINNED_BUILT = [
    (_family_records,
     "352ba14c17ef029a7ad61218c9b8e558cfc3f46fb77ba8d755b9097596d0a0a6"),
    (_stream_records,
     "ba15d72066216819053ee1d9928953e5a3449d228d73fc686bbf523a001ae6ba"),
    (_materialize_records,
     "9d5bab63338ee66a5eda8c4c0999269c32c065e089d5b7ab3dbe47b44c5b8c77"),
    (_unfold_records,
     "709913d5e40507fce8eeb8decfb6fb3a4c6d052a9e28eb3782c919d40589bd25"),
]


@pytest.mark.parametrize("records, digest", PINNED_BUILT,
                         ids=["families", "stream", "materialize", "unfold"])
def test_program_built_spaces_are_pinned(records, digest):
    lines = "\n".join(records())
    assert hashlib.sha256(lines.encode()).hexdigest() == digest
