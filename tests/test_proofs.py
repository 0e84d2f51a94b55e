import copy
import itertools
import json
import random

import pytest

from helpers import FIXTURES, naive_satisfies

from treelogic import (MaskContext, Proof, ProofError, ProofLine, SearchError,
                       atom, check_proof, enumerate_spaces, formula_pool,
                       instantiate, is_tautology, know, load_proof,
                       model_to_dict, parse, proof_from_dict, proof_to_dict,
                       render, scheme, soundness_suite)
from treelogic import proofs
from treelogic.proofs import (INSTANCE_BUDGET, LANE_BLOCK_BITS,
                              TAUTOLOGY_REPS, _instance_bound, _instances,
                              _label)

FIXTURE = FIXTURES / "proof_scheme10_from_scheme12.json"


def test_tautology_oracle_agrees_with_truth_tables():
    rng = random.Random(61)
    opaque = [parse(t) for t in ("A", "B", "K A", "[]B")]

    def rand_skeleton(depth):
        if depth == 0:
            return rng.choice(opaque)
        r = rng.random()
        if r < 0.4:
            return parse(f"~({render(rand_skeleton(depth - 1))})")
        left, right = rand_skeleton(depth - 1), rand_skeleton(depth - 1)
        return parse(f"({render(left)}) & ({render(right)})")

    def brute(f):
        for bits in itertools.product([False, True], repeat=len(opaque)):
            env = dict(zip(map(id, opaque), bits))

            def ev(g):
                if g.kind == "not":
                    return not ev(g.left)
                if g.kind == "and":
                    return ev(g.left) and ev(g.right)
                if g.kind == "top":
                    return True
                if g.kind == "bot":
                    return False
                return env[id(g)]

            if not ev(f):
                return False
        return True

    for _ in range(300):
        f = rand_skeleton(rng.randrange(1, 5))
        assert is_tautology(f) == brute(f)
    assert is_tautology(parse("A -> A"))
    assert is_tautology(parse("K A | ~K A"))
    assert not is_tautology(parse("K A -> A"))   # modal, not boolean
    # twenty letters, the cap: the only falsifying row of the second is
    # the last one, where every letter is true
    letters = [f"A{i}" for i in range(1, 21)]
    assert is_tautology(parse(f"({' & '.join(letters)}) -> A1"))
    assert not is_tautology(parse(f"({' & '.join(letters)}) -> ~A20"))
    with pytest.raises(ProofError, match="too large"):
        is_tautology(parse(f"({' & '.join(letters)}) -> A21"))


def test_tautology_deep_skeleton():
    # a chain of 400 implications nests 1,200 connectives, past the
    # recursion limit of a walk that recurses once per level
    assert is_tautology(parse(" -> ".join(["A"] * 400)))
    assert not is_tautology(parse(" -> ".join(["A"] * 399 + ["B"])))
    assert is_tautology(parse("~" * 800 + "true"))


def _line(text, by):
    data = {"formula": text, "by": by}
    return data


def test_check_proof_accepts_simple_proofs():
    proof = proof_from_dict({"lines": [
        _line("K A -> A", {"axiom": 7, "subst": {"phi": "A"}}),
        _line("(K A -> A) -> (K A -> A)", {"axiom": 1}),
        _line("K A -> A", {"mp": [1, 2]}),
    ]})
    outcome = check_proof(proof)
    assert outcome.accepted
    assert render(outcome.conclusion) == "K A -> A"

    boxed = proof_from_dict({"lines": [
        _line("K A -> A", {"axiom": 7, "subst": {"phi": "A"}}),
        _line("[](K A -> A)", {"necbox": 1}),
        _line("[](K A -> A) -> ([]K A -> []A)",
              {"axiom": 3, "subst": {"phi": "K A", "psi": "A"}}),
        _line("[]K A -> []A", {"mp": [2, 3]}),
    ]})
    outcome = check_proof(boxed)
    assert outcome.accepted
    assert render(outcome.conclusion) == "[]K A -> []A"


def test_check_proof_rejects_corruption():
    corrupted = proof_from_dict({"lines": [
        _line("K A -> A", {"axiom": 7, "subst": {"phi": "A"}}),
        _line("[](K A -> B)", {"necbox": 1}),
    ]})
    outcome = check_proof(corrupted)
    assert not outcome.accepted
    assert outcome.line == 2
    assert "necessitation mismatch" in outcome.reason


def test_check_proof_rejects_bad_indices_and_schemes():
    out = check_proof(proof_from_dict({"lines": [
        _line("K A -> A", {"mp": [1, 1]})]}))
    assert not out.accepted and out.line == 1 and "out of range" in out.reason

    out = check_proof(proof_from_dict({"lines": [
        _line("K A", {"axiom": 1})]}))
    assert not out.accepted and "tautology" in out.reason

    out = check_proof(proof_from_dict({"lines": [
        _line("K A -> A", {"axiom": 99, "subst": {}})]}))
    assert not out.accepted and "unknown scheme" in out.reason

    with pytest.raises(ProofError):
        check_proof(proof_from_dict({"lines": [
            _line("A", {"axiom": 1})]}), system="zz")


def test_system_selection():
    twelve = proof_from_dict({"lines": [
        _line("[]K true & K([]true -> []A) -> []K([]true -> []A)",
              {"axiom": 12, "subst": {"phi": "true", "psi": "A"}})]})
    assert check_proof(twelve, "mpt").accepted
    rejected = check_proof(twelve, "mp")
    assert not rejected.accepted and "not part of system" in rejected.reason

    lattice = proof_from_dict({"lines": [
        _line("<>[]A -> []<>A", {"axiom": "S13", "subst": {"phi": "A"}})]})
    assert check_proof(lattice, "mp*").accepted
    assert not check_proof(lattice, "mpt").accepted


def test_fixture_accepted_and_concludes_the_exchange_law():
    proof = load_proof(FIXTURE)
    outcome = check_proof(proof, "mpt")
    assert outcome.accepted
    assert outcome.conclusion is instantiate(10, {"phi": atom("A")})
    # round-trips through the dict form
    again = proof_from_dict(proof_to_dict(proof))
    assert check_proof(again, "mpt").accepted


# one token changed per variant; expected rejection line derived by hand
MUTATIONS = [
    ("ax1 formula not a tautology", 1, {"formula": "A"}, 1),
    ("neck result altered", 2, {"formula": "K A"}, 2),
    ("neck self-reference", 2, {"by": {"neck": 2}}, 2),
    ("necbox result altered", 3, {"formula": "[]K A"}, 3),
    ("taut stays taut, consumer breaks", 4,
     {"formula": "[]A -> ([]A -> []A)"}, 5),
    ("axiom id changed", 6, {"by": {"axiom": 3, "subst": {
        "phi": "[]A", "psi": "[]true -> []A"}}}, 6),
    ("substitution value changed", 6, {"by": {"axiom": 6, "subst": {
        "phi": "A", "psi": "[]true -> []A"}}}, 6),
    ("mp premise index changed", 7, {"by": {"mp": [4, 6]}}, 7),
    ("scheme-12 instance atom changed", 8,
     {"formula": "[]K true & K([]true -> []A) -> []K([]true -> []B)"}, 8),
    ("scheme-12 substitution changed", 8, {"by": {"axiom": 12, "subst": {
        "phi": "true", "psi": "B"}}}, 8),
    ("pairing tautology broken", 9,
     {"formula": "[]K true -> (K([]true -> []A) -> K true & K([]true -> []A))"},
     9),
    ("mp premise points at wrong line", 10, {"by": {"mp": [2, 9]}}, 10),
    ("conclusion of mp altered", 13,
     {"formula": "K []A -> []K true & K([]true -> []B)"}, 13),
    ("mp implication index changed", 16, {"by": {"mp": [8, 14]}}, 16),
    ("necessitation flavor swapped", 17, {"by": {"neck": 1}}, 17),
    ("axiom 4 replaced by 5", 20, {"by": {"axiom": 5, "subst": {"phi": "A"}}},
     20),
    ("axiom 4 substitution changed", 20,
     {"by": {"axiom": 4, "subst": {"phi": "K A"}}}, 20),
    ("neck premise index changed", 24, {"by": {"neck": 22}}, 24),
    ("axiom 3 substitution changed", 28, {"by": {"axiom": 3, "subst": {
        "phi": "K([]true -> []A)", "psi": "A"}}}, 28),
    ("final conclusion altered", 32, {"formula": "K []A -> []K B"}, 32),
]


@pytest.mark.parametrize("label,line_no,patch,expected",
                         MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_fixture_mutations_rejected_at_the_right_line(label, line_no, patch,
                                                      expected):
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    data = copy.deepcopy(data)
    data["lines"][line_no - 1].update(patch)
    outcome = check_proof(proof_from_dict(data), "mpt")
    assert not outcome.accepted
    assert outcome.line == expected, (label, outcome.reason)


def test_accepted_conclusions_hold_on_small_treelike_models():
    conclusions = []
    for path_lines in (
        [{"formula": "K A -> A", "by": {"axiom": 7, "subst": {"phi": "A"}}},
         {"formula": "[](K A -> A)", "by": {"necbox": 1}},
         {"formula": "[](K A -> A) -> ([]K A -> []A)",
          "by": {"axiom": 3, "subst": {"phi": "K A", "psi": "A"}}},
         {"formula": "[]K A -> []A", "by": {"mp": [2, 3]}}],
    ):
        outcome = check_proof(proof_from_dict({"lines": path_lines}))
        assert outcome.accepted
        conclusions.append(outcome.conclusion)
    conclusions.append(check_proof(load_proof(FIXTURE)).conclusion)
    for model in enumerate_spaces(3, None, ("A",)):
        ctx = MaskContext.from_model(model)
        for f in conclusions:
            assert ctx.is_valid(f)


def test_soundness_suite_small_runs():
    report = soundness_suite(max_points=2, schemes=tuple(range(1, 13)),
                             atoms=("A",), depth=1)
    assert report.ok, report.violations[:3]
    assert report.models_checked > 0 and report.instances > 0

    report = soundness_suite(max_points=3, schemes=["S13"], atoms=("A",),
                             depth=1)
    assert report.ok

    report = soundness_suite(max_points=3, schemes=["C10"], atoms=("A",),
                             depth=1)
    assert not report.ok
    first = report.violations[0]
    assert len(first.model.space.points) <= 3
    assert not first.model.satisfies(
        first.point, first.model.space.open_named(first.open_name),
        first.instance)

    report = soundness_suite(max_points=3, schemes=["S13"], atoms=("A",),
                             depth=1, treelike=False)
    assert not report.ok
    assert any(not v.model.space.is_treelike() for v in report.violations)


def test_soundness_suite_rejects_vacuous_requests():
    for kwargs in (dict(atoms=()), dict(schemes=()), dict(depth=-1),
                   dict(max_opens=0), dict(max_points=0)):
        with pytest.raises(SearchError):
            soundness_suite(**kwargs)
    # constants alone still give instances
    report = soundness_suite(max_points=2, schemes=(1, 7), atoms=(),
                             include_constants=True)
    assert report.ok and report.instances > 0 and report.models_checked > 0


def test_instance_bound_sizes_the_pool_before_it_is_built():
    # |P(d+1)| <= 6|P(d)| + |P(d)|^2 from one atom: 1, 7, 91, 8,827, then
    # 77,968,891, past the budget; a template with k metavariables has at
    # most |P|^k instances
    one, two = [scheme(4)], [scheme(3)]
    for depth, bound in enumerate((1, 7, 91, 8827)):
        assert _instance_bound(one, 1, depth, False) == bound
        assert _instance_bound(two, 1, depth, False) == bound ** 2
        assert len(formula_pool(("A",), depth)) <= bound
    assert _instance_bound(one, 1, 4, False) is None
    assert _instance_bound(one, 1, 0, True) == 3
    # schemes 1-12 at depth 2 over two atoms (802,732 instances) pass
    templates = list(TAUTOLOGY_REPS) + [scheme(s) for s in range(2, 13)]
    size = _instance_bound(templates, 2, 2, False)
    assert 802_732 <= size <= INSTANCE_BUDGET
    assert _instance_bound(templates, 1, 3, False) > INSTANCE_BUDGET
    with pytest.raises(SearchError, match="lower --depth or --atoms"):
        _instances(tuple(range(1, 13)), ("A",), 3, False)


def test_soundness_blocks_span_point_counts(monkeypatch):
    # every treelike family of a run shares the lane blocks, whatever its
    # point count; a family that is not treelike gets blocks of its own
    blocks = []

    class Recording(MaskContext):
        def __init__(self, runs, vals):
            super().__init__(runs, vals)
            blocks.append(([len(s.points) for s, _ in runs], self.lanes,
                           self.n, [s.is_treelike() for s, _ in runs]))

    monkeypatch.setattr(proofs, "MaskContext", Recording)
    soundness_suite(max_points=3, schemes=tuple(range(1, 13)), atoms=("A",))
    assert [(sorted(set(counts)), lanes, n)
            for counts, lanes, n, _ in blocks] == [([1, 2, 3], 188, 3)]
    blocks.clear()
    soundness_suite(max_points=3, schemes=("C10",), atoms=("A", "B"))
    assert [lanes for _, lanes, _, _ in blocks] == [341] * 4 + [20]
    assert sorted(set(blocks[0][0])) == [1, 2, 3]
    blocks.clear()
    soundness_suite(max_points=3, schemes=("S13",), atoms=("A",),
                    treelike=False)
    alone = [counts for counts, _, _, trees in blocks if not all(trees)]
    assert len(alone) == 20 and all(counts == [3] for counts in alone)
    assert sum(lanes for _, lanes, _, _ in blocks) == 348


def _expected_violations(max_points, schemes, atoms, depth, treelike=True,
                         max_opens=None, include_constants=False):
    """The harness's violation list, rebuilt model by model.

    Every instance is checked at every neighborhood of every enumerated
    model by ``naive_satisfies``; a violation is the first open in space
    order, then the lowest point, where the instance fails.
    """
    instances = _instances(schemes, atoms, depth, include_constants)
    out = []
    for model in enumerate_spaces(max_points, max_opens, atoms,
                                  treelike=treelike):
        for inst, *source in instances:
            witness = next(((x, name) for name, u in zip(model.space.names,
                                                          model.space.opens)
                            for x in sorted(u)
                            if not naive_satisfies(model, x, u, inst)), None)
            if witness is not None:
                out.append({"scheme": _label(*source),
                            "instance": render(inst),
                            "model": model_to_dict(model),
                            "point": witness[0], "open": witness[1]})
    return out


def test_soundness_suite_matches_naive_oracle():
    configs = [
        # one block spans point counts 1-3, its lanes three bits wide
        dict(max_points=3, schemes=("C10",), atoms=("A", "B"), depth=1),
        dict(max_points=3, schemes=("S13",), atoms=("A",), depth=1,
             treelike=False),
        dict(max_points=3, schemes=tuple(range(1, 13)), atoms=("A",),
             depth=1, include_constants=True, max_opens=2),
        # 2^(3 points x 3 atoms) lanes of 3 bits: more than one lane block
        dict(max_points=3, schemes=("C10",), atoms=("A", "B", "C"), depth=1,
             max_opens=2),
        # a block holds the lanes of many treelike families of different
        # shapes and point counts, with violations in many of them
        dict(max_points=4, schemes=("C10",), atoms=("A",), depth=1),
        # treelike and non-treelike families of one point count: only the
        # treelike ones may share a block
        dict(max_points=3, schemes=("S13", "S15"), atoms=("A", "B"),
             depth=1, treelike=False, max_opens=3),
    ]
    assert (1 << 3 * 3) * 3 > LANE_BLOCK_BITS
    for config in configs:
        report = soundness_suite(**config)
        expected = _expected_violations(**config)
        assert [v.to_dict() for v in report.violations] == expected, config
        models = list(enumerate_spaces(
            config["max_points"], config.get("max_opens"), config["atoms"],
            treelike=config.get("treelike", True)))
        assert report.models_checked == len(models), config
        assert all(models[v.number - 1] == v.model
                   for v in report.violations), config
