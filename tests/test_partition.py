import hashlib
import json
import random

import pytest

from helpers import (corpus, naive_closure, naive_is_stable, naive_remainder,
                     naive_satisfies, oracle_model, random_formula,
                     random_treelike_model)

from treelogic import (Model, PartitionError, SubsetSpace, atom_names,
                       build_question_tree, build_stable_partitions,
                       build_stream_space, complexity_bound,
                       extract_finite_model, filtrate, model_to_dict,
                       ordered_family, parse, point_quotient, render,
                       subformulas)

X = frozenset({"q1", "q2", "q3", "q4"})
U12 = frozenset({"q1", "q2"})
U34 = frozenset({"q3", "q4"})
Q3 = frozenset({"q3"})
Q4 = frozenset({"q4"})
EMPTY = frozenset()


def test_closure_intersection():
    assert naive_closure([X, U12, U34]) == frozenset({X, U12, U34, EMPTY})
    assert naive_closure([X]) == frozenset({X})
    chain = [X, U12, frozenset({"q1"})]
    assert naive_closure(chain) == frozenset(chain)


def test_remainder_golden(m1):
    family = naive_closure([X, U12, U34])
    assert naive_remainder(m1, family, X) == frozenset({X})
    assert naive_remainder(m1, family, U34) == frozenset({U34, Q3, Q4})
    assert naive_remainder(m1, family, EMPTY) == frozenset({EMPTY})
    assert naive_remainder(m1, family, U12) == frozenset({U12})
    with pytest.raises(ValueError, match="expects a member of the family"):
        naive_remainder(m1, family, frozenset({"q1"}))


def test_remainders_partition_down_family():
    rng = random.Random(31)
    for _ in range(80):
        model = random_treelike_model(rng)
        # arbitrary member sets, not necessarily opens; also exercise
        # non-treelike open families underneath
        points = list(model.space.points)
        members = {frozenset(model.space.full)}
        for _ in range(rng.randint(0, 4)):
            members.add(frozenset(rng.sample(points,
                                             rng.randint(0, len(points)))))
        family = naive_closure(members)
        rems = {u: naive_remainder(model, family, u) for u in family}
        # pairwise disjoint
        seen = set()
        for u, rem in rems.items():
            assert not (rem & seen)
            seen |= rem
            # convex: an open squeezed between a remainder open and the
            # member belongs to the same remainder
            for v1 in rem:
                for v2 in model.space.opens:
                    if v1 <= v2 <= u:
                        assert v2 in rem
            # unions of remainder opens stay below the member
            assert set().union(frozenset(), *rem) <= u
        # together the remainders cover exactly the opens below the family
        assert seen == {v for v in model.space.opens
                        if any(v <= u for u in family)}


def test_remainders_are_nesting_classes():
    # two opens share a remainder exactly when the same members sit above
    rng = random.Random(37)
    for _ in range(60):
        model = random_treelike_model(rng)
        members = {frozenset(model.space.full)}
        points = list(model.space.points)
        for _ in range(rng.randint(0, 3)):
            members.add(frozenset(rng.sample(points,
                                             rng.randint(0, len(points)))))
        family = naive_closure(members)
        rems = {u: naive_remainder(model, family, u) for u in family}
        for v1 in model.space.opens:
            for v2 in model.space.opens:
                same_class = any(v1 in rem and v2 in rem
                                 for rem in rems.values())
                same_uppers = all((v1 <= u) == (v2 <= u) for u in family)
                if any(v1 <= u for u in family) and \
                   any(v2 <= u for u in family):
                    assert same_class == same_uppers


def test_is_stable_golden(m1):
    kq1 = parse("K Q1")
    family = naive_closure([X, U12])
    assert naive_is_stable(m1, naive_remainder(m1, family, X), kq1)
    assert not naive_is_stable(m1, {X, U12}, kq1)
    assert naive_is_stable(m1, {U34}, kq1)
    assert naive_is_stable(m1, set(), kq1)
    with pytest.raises(ValueError, match="expects a set of opens"):
        naive_is_stable(m1, {frozenset({"q1"})}, kq1)


def test_stability_closed_under_subsets_and_intersection():
    rng = random.Random(41)
    for _ in range(40):
        model = random_treelike_model(rng)
        f = random_formula(rng, ("A", "B"), 2)
        g = random_formula(rng, ("A", "B"), 2)
        tf = build_stable_partitions(model, f)
        tg = build_stable_partitions(model, g)
        rem_f = tf.remainders[tf.members[0]]
        rem_g = tg.remainders[tg.members[0]]
        sub = frozenset(list(rem_f)[: max(0, len(rem_f) - 1)])
        assert naive_is_stable(model, sub, f)
        both = rem_f & rem_g
        assert naive_is_stable(model, both,
                               parse(f"({render(f)}) & ({render(g)})"))


def test_build_stable_partitions_golden(m1):
    kq1 = parse("K Q1")
    table = build_stable_partitions(m1, kq1)
    assert table.family == frozenset({X, U12})
    assert table.remainders[X] == frozenset({X, U34, Q3, Q4})
    assert table.remainders[U12] == frozenset({U12, EMPTY})
    assert build_stable_partitions(m1, parse("Q1")).family == frozenset({X})
    assert build_stable_partitions(m1, parse("<>K Q1")).family == table.family
    assert m1.truth_in(U12, kq1) == U12
    assert m1.truth_in(X, kq1) == frozenset()


def test_build_stable_partitions_requires_treelike():
    crooked = Model(SubsetSpace(["a", "b", "c"],
                                [frozenset({"a", "b", "c"}),
                                 frozenset({"a", "b"}),
                                 frozenset({"b", "c"})]), {})
    with pytest.raises(PartitionError):
        build_stable_partitions(crooked, parse("K A"))


def test_partition_families_monotone_closed_stable():
    for model, f in corpus(101, 120):
        table = build_stable_partitions(model, f)
        # the table's remainders come from each open's least member around
        # it; ``naive_remainder`` scans members x opens x other members
        for u in table.members:
            assert table.remainders[u] == naive_remainder(
                model, table.family, u), \
                (render(f), sorted(u))
        full = model.space.full
        for psi in subformulas(f):
            family = table.families[psi]
            assert full in family
            assert naive_closure(family) == family
            assert family <= table.family
            for u in family:
                assert naive_is_stable(
                    model, naive_remainder(model, family, u), psi), \
                    (render(f), render(psi))


def test_partition_truth_sets_match_naive_oracle():
    # table members need not be opens; the truth set at each member must
    # be the one read off the clauses at that carrier
    for model, f in corpus(103, 60):
        table = build_stable_partitions(model, f)
        for psi in subformulas(f):
            for u in table.members:
                assert model.truth_in(u, psi) == frozenset(
                    x for x in u if naive_satisfies(model, x, u, psi)), \
                    (render(f), render(psi), sorted(u))


def test_refining_a_stable_partition_keeps_it_stable():
    rng = random.Random(43)
    count = 0
    while count < 40:
        model = random_treelike_model(rng)
        f = random_formula(rng, ("A", "B"), 2)
        table = build_stable_partitions(model, f)
        down = [v for v in model.space.opens
                if any(v <= u for u in table.family)]
        if not down:
            continue
        count += 1
        extra = rng.choice(sorted(down, key=sorted))
        refined = naive_closure(table.family | {extra})
        for u in refined:
            assert naive_is_stable(model,
                                   naive_remainder(model, refined, u), f)


def test_filtrate_golden(m1):
    result = filtrate(m1, parse("K Q1"))
    assert set(result.output.space.opens) == {X, U12}
    assert result.surviving == (X, U12)
    assert result.bars[X] == X and result.bars[U12] == U12
    assert result.lt == frozenset({(U12, X)})
    plain = filtrate(m1, parse("Q1"))
    assert set(plain.output.space.opens) == {X}


def test_filtrate_equivalence_and_lemmas():
    for model, f in corpus(211, 150):
        result = filtrate(model, f)
        out = result.output
        assert out.space.is_treelike()
        bound = complexity_bound(f)
        if not bound.saturated:
            assert len(out.space.opens) <= bound.max_opens
        surviving = result.surviving
        assert len(out.space.opens) <= len(surviving) * 2 ** len(surviving)
        for v in model.space.opens:
            for x in sorted(v):
                x2, cls = result.image(x, v)
                assert x2 == x
                for psi in subformulas(f):
                    assert model.satisfies(x, v, psi) == \
                        out.satisfies(x, cls, psi), (render(f), render(psi))


def test_filtration_order_matches_pointwise_definition():
    # u1 < u2 when their regions meet and, at each shared point, every
    # remainder open of u1 holding it lies strictly inside every one of
    # u2 holding it; question trees give members with disjoint regions
    rng = random.Random(29)
    disjoint = 0
    for _ in range(60):
        points = [f"q{i}" for i in range(1, 9)]
        questions = [(f"Q{j}", {p for p in points if rng.random() < 0.5})
                     for j in range(1, 4)]
        model = build_question_tree(points, questions)
        result = filtrate(model, random_formula(rng, ("Q1", "Q2", "Q3"), 4))
        table = result.table
        rem = {u: naive_remainder(model, table.family, u)
               for u in table.members}
        # each open's owner holds it in its remainder; a bar is the union
        # of the remainder's opens
        assert result.owner == {v: u for u in table.members for v in rem[u]}
        bars = {u: frozenset().union(*rem[u]) for u in table.members}
        assert result.bars == bars
        assert result.surviving == tuple(u for u in table.members if bars[u])
        want = set()
        for u1 in result.surviving:
            for u2 in result.surviving:
                shared = bars[u1] & bars[u2]
                disjoint += u1 != u2 and not shared
                if u1 != u2 and shared and all(
                        v1 < v2 for x in shared
                        for v1 in rem[u1] if x in v1
                        for v2 in rem[u2] if x in v2):
                    want.add((u1, u2))
        assert result.lt == want
        # a point's class under u: the points of u's bar that lie in the
        # same bars of the members at or above u
        classes = {}
        for u in result.surviving:
            ups = [w for w in result.surviving if result.le(u, w)]
            for x in bars[u]:
                classes[(u, x)] = frozenset(
                    y for y in bars[u]
                    if all((x in bars[w]) == (y in bars[w]) for w in ups))
        assert result.classes == classes
    assert disjoint


def test_point_quotient_golden(m1):
    filtered = filtrate(m1, parse("K Q1")).output
    small = point_quotient(filtered, {"Q1"})
    assert len(small.space.points) == 2
    assert len(small.space.opens) == 2
    bare = point_quotient(m1, set())
    assert len(bare.space.points) == 3     # q1~q2; q3, q4 split by opens
    distinct = Model(SubsetSpace(["a", "b"], [frozenset({"a", "b"})]),
                     {"A": {"a"}})
    assert len(point_quotient(distinct, {"A"}).space.points) == 2


def test_point_quotient_preserves_satisfaction():
    rng = random.Random(47)
    for _ in range(60):
        model = random_treelike_model(rng)
        f = random_formula(rng, ("A", "B"), 3)
        atoms = sorted(atom_names(f))
        small = point_quotient(model, atoms)

        def signature(x):
            return (tuple(x in u for u in model.space.opens),
                    tuple(x in model.valuation.get(a, frozenset())
                          for a in atoms))

        rep = {}
        for x in model.space.points:
            key = signature(x)
            rep[key] = min(rep.get(key, x), x)
        for u in model.space.opens:
            u_img = frozenset(rep[signature(x)] for x in u)
            for x in u:
                assert model.satisfies(x, u, f) == \
                    small.satisfies(rep[signature(x)], u_img, f)


def test_extract_golden(m1):
    result = extract_finite_model(m1, parse("<>K Q1"))
    assert result.report["output_points"] == 2
    assert result.report["output_opens"] == 2
    x, u = result.image("q1", X)
    assert result.model.satisfies(x, u, parse("<>K Q1"))
    assert result.report["bound_points"] == 512
    assert result.report["bound_opens"] == 8
    assert set(result.report["family_sizes"]) == \
        {render(p) for p in subformulas(parse("<>K Q1"))}

    streams = extract_finite_model(build_stream_space(4), parse("<>K true"))
    assert streams.report["output_points"] == 1
    assert streams.report["output_opens"] == 1


def test_extract_single_atom_bound():
    rng = random.Random(53)
    for _ in range(30):
        model = random_treelike_model(rng, atoms=("A",))
        result = extract_finite_model(model, parse("A"))
        assert result.report["output_points"] <= 2
        assert result.report["output_opens"] == 1


def _extraction_record(model, f):
    """Canonical JSON of everything an extraction exposes, for pinning."""
    ex = extract_finite_model(model, f)
    space = model.space
    name = dict(zip(space.opens, space.names))
    filt, table = ex.filtration, ex.table

    def key(u):
        return ",".join(sorted(u))

    record = {
        "formula": render(f),
        "model": model_to_dict(ex.model),
        "report": ex.report,
        "remainders": {key(u): [sorted(v) for v in ordered_family(rem)]
                       for u, rem in table.remainders.items()},
        "surviving": [sorted(u) for u in filt.surviving],
        "lt": sorted([sorted(a), sorted(b)] for a, b in filt.lt),
        "owner": {name[v]: sorted(u) for v, u in filt.owner.items()},
        "image": [[x, name[v], x2, sorted(cls)]
                  for x, v in model.neighborhoods()
                  for x2, cls in [ex.image(x, v)]],
        "truth": {n: sorted(model.truth_set(u, f))
                  for n, u in zip(space.names, space.opens)},
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _pinned_formulas(rng, atoms, count):
    """Seeded depth-4/5 formulas with a K or L and a [] or <>."""
    out = []
    while len(out) < count:
        f = random_formula(rng, atoms, 4 + len(out) % 2)
        text = render(f)
        if ("K" in text or "L" in text) and ("[]" in text or "<>" in text):
            out.append(f)
    return out


def _pinned_stream(seed):
    rng = random.Random(seed)
    space = build_stream_space(5).space
    atoms = ("A", "B", "C")
    val = {a: {p for p in space.points if rng.random() < 0.5} for a in atoms}
    return Model(space, val), _pinned_formulas(rng, atoms, 8)


def _pinned_question_tree(seed):
    rng = random.Random(seed)
    points = [f"w{i:02d}" for i in range(rng.randint(12, 24))]
    questions = [(f"Q{j}", {p for p in points if rng.random() < 0.5})
                 for j in range(1, 4)]
    tree = build_question_tree(points, questions)
    val = {**tree.valuation,
           "A": {p for p in points if rng.random() < 0.5}}
    return (Model(tree.space, val),
            _pinned_formulas(rng, ("Q1", "Q2", "Q3", "A"), 8))


# sha256 of the ``_extraction_record`` lines, one per formula, joined by
# newlines: the extracted model, its report, the remainders, the filtration's
# surviving members, order and owners, every neighborhood's image and the
# input's truth table, recorded before extraction moved onto point masks
PINNED_EXTRACTIONS = [
    (_pinned_stream, 71,
     "488733dd3bef40cec116297bd61ee1d3935d59bea20df363b1d590466b46e20b"),
    (_pinned_stream, 72,
     "c6cb3e64c61ec79d9063bc77c93439fc3d33659b08bf085dd7748d958c8182a9"),
    (_pinned_question_tree, 73,
     "be62fd68fd28e3f4304663d7eab45798d913f40777570d61f7634cdaa2719cea"),
    (_pinned_question_tree, 74,
     "5b56481d5433ab9831b04002f546d41fd1aba4bce031eeaf97b00365f43044a3"),
    (_pinned_question_tree, 75,
     "0cc1174cc0314a7ed7d3cf60ab943ebeaf29dc6ae1df4fa3e671e400fd13f487"),
]


@pytest.mark.parametrize("build, seed, digest", PINNED_EXTRACTIONS)
def test_extraction_bytes_are_pinned(build, seed, digest):
    model, formulas = build(seed)
    lines = "\n".join(_extraction_record(model, f) for f in formulas)
    assert hashlib.sha256(lines.encode()).hexdigest() == digest


def _field_record(model, f):
    """Canonical JSON of the extraction fields the record above leaves out."""
    ex = extract_finite_model(model, f)
    filt, table = ex.filtration, ex.table

    def key(u):
        return ",".join(sorted(u))

    record = {
        "families": {render(psi): sorted(map(key, fam))
                     for psi, fam in table.families.items()},
        "family": sorted(map(key, table.family)),
        "members": [sorted(u) for u in table.members],
        "bars": {key(u): sorted(b) for u, b in filt.bars.items()},
        "classes": sorted([key(u), x, sorted(cls)]
                          for (u, x), cls in filt.classes.items()),
        "point_map": ex.point_map,
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# sha256 of the ``_field_record`` lines, built as above, recorded before
# these fields were built on access from the pipeline's masks
PINNED_FIELDS = [
    (_pinned_stream, 71,
     "ca8ecf5a96b73df6b2d87012d853a5d8494c7ceae2f8f1bdf42fdb9cf159e272"),
    (_pinned_stream, 72,
     "ebedacf1ceb3deaa5ab8a65adcbb84b286f461bc0b131d19c2075f84130e33f8"),
    (_pinned_question_tree, 73,
     "6a6582905f847e0ed1ae5669db6bb70670127f1f6c45fc8bbd5f663e9e9afa7a"),
    (_pinned_question_tree, 74,
     "424213bffe6b7dad211e133a27acfbe967cc24849b4776aee0309e0646a86fee"),
    (_pinned_question_tree, 75,
     "89ba05426ae9d1d1f1efda13e738ca493175c895bd2e707312f0503174fa86bf"),
]


@pytest.mark.parametrize("build, seed, digest", PINNED_FIELDS)
def test_extraction_fields_are_pinned(build, seed, digest):
    model, formulas = build(seed)
    lines = "\n".join(_field_record(model, f) for f in formulas)
    assert hashlib.sha256(lines.encode()).hexdigest() == digest
