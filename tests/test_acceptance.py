"""Acceptance battery: one test per shipped guarantee, desk scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import json
import time

import pytest

from helpers import (FIXTURES, corpus, naive_closure, naive_is_stable,
                     naive_remainder, naive_satisfies, oracle_model,
                     same_model)

from test_proofs import MUTATIONS

from treelogic import (MaskContext, atom, atom_names, build_stable_partitions,
                       check_frame, check_proof, complexity_bound,
                       enumerate_spaces, extract_finite_model, filtrate,
                       formula_pool, instantiate, know, load_frame,
                       load_model, load_proof, parse, proof_from_dict, render,
                       satisfiable, soundness_suite, subformulas, unfold,
                       valid)

SOUND_BUDGET_SECONDS = 300
SMOKE_BUDGET_SECONDS = 10


@pytest.fixture(scope="session")
def corpus500():
    return list(corpus(20260808, 500, max_points=6, max_opens=10, depth=3,
                       atoms=("A", "B")))


def _report(name, detail):
    print(f"acceptance {name}: PASS ({detail})")


def test_criterion_01_axiom_soundness_at_desk_scale():
    """Schemes 1-12 hold on every open family over up to three points."""
    start = time.monotonic()
    report = soundness_suite(max_points=3, schemes=tuple(range(1, 13)),
                             atoms=("A", "B"), depth=1)
    elapsed = time.monotonic() - start
    assert report.ok, report.violations[:3]
    assert elapsed < SOUND_BUDGET_SECONDS
    _report("01 axiom-soundness",
            f"{report.instances} instances x {report.models_checked} models, "
            f"{elapsed:.0f}s, 0 violations")


def test_criterion_02a_refinement_commutation_holds_on_trees():
    """[]<>phi -> <>[]phi over the same treelike enumeration: no failures."""
    report = soundness_suite(max_points=3, schemes=["S15"],
                             atoms=("A", "B"), depth=1)
    assert report.ok, report.violations[:3]
    _report("02a commutation-on-trees",
            f"{report.instances} instances x {report.models_checked} models")


def test_criterion_02b_commutation_countermodel_off_trees():
    """[]<>phi -> <>[]phi off trees: the three-point search comes up empty.

    In a finite subset space take a minimal open V inside U that contains
    the point x.  []<>phi at (x, U) gives <>phi at (x, V), and since no
    open lies strictly below V around x, phi holds at (x, V); for the same
    reason []phi holds there, hence <>[]phi holds at (x, U).  The argument
    uses neither the tree shape nor closure under intersection, so no
    finite space, treelike or not, refutes the implication.  The search
    must therefore find nothing; test 02c shows that the same enumeration
    does find off-tree countermodels when they exist (scheme S13).
    """
    atoms = ("A", "B")
    report = soundness_suite(max_points=3, schemes=["S15"],
                             atoms=atoms, depth=1, treelike=False)
    assert report.ok, report.violations[:3]
    models = list(enumerate_spaces(3, atoms=atoms, treelike=False))
    off_trees = [m for m in models if not m.space.is_treelike()]
    assert off_trees
    assert report.models_checked == len(models)
    instances = [instantiate("S15", {"phi": f})
                 for f in formula_pool(atoms, 1)]
    assert len(instances) == report.instances
    for model in off_trees:
        for u in model.space.opens:
            for x in u:
                for inst in instances:
                    assert naive_satisfies(model, x, u, inst), \
                        (render(inst), x, model.space.name_of(u))
    _report("02b commutation-off-trees",
            f"{report.instances} instances x {report.models_checked} models "
            f"({len(off_trees)} non-treelike), 0 violations")


def test_criterion_02c_exchange_axiom_separates_trees():
    """<>[]phi -> []<>phi: sound on trees, refuted off trees at |X|<=3."""
    on_trees = soundness_suite(max_points=3, schemes=["S13"],
                               atoms=("A", "B"), depth=1)
    assert on_trees.ok
    off_trees = soundness_suite(max_points=3, schemes=["S13"],
                                atoms=("A",), depth=1, treelike=False)
    assert off_trees.violations
    witness = off_trees.violations[0]
    assert len(witness.model.space.points) <= 3
    assert not witness.model.space.is_treelike()
    _report("02c exchange-axiom-dichotomy",
            f"off-tree witness on {len(witness.model.space.points)} points")


def test_criterion_03_knowledge_refinement_converse_fails():
    """The converse exchange []K phi -> K []phi has a treelike countermodel."""
    report = soundness_suite(max_points=3, schemes=["C10"],
                             atoms=("A",), depth=1)
    assert report.violations
    witness = report.violations[0]
    assert len(witness.model.space.points) <= 3
    assert witness.model.space.is_treelike()
    u = witness.model.space.open_named(witness.open_name)
    assert not naive_satisfies(witness.model, witness.point, u,
                               witness.instance)
    _report("03 converse-exchange-countermodel",
            f"{render(witness.instance)} fails at "
            f"({witness.point}, {witness.open_name})")


def test_criterion_03b_decider_agrees_with_harness_on_c10():
    """valid --use-bound refutes exactly the C10 instances the harness does."""
    report = soundness_suite(max_points=3, schemes=("C10",), atoms=("A",),
                             depth=1)
    violated = {v.instance for v in report.violations}
    instances = [instantiate("C10", {"phi": f})
                 for f in formula_pool(("A",), 1)]
    assert len(instances) == report.instances == 7
    assert violated
    for inst in instances:
        outcome = valid(inst, use_bound=True)
        if inst in violated:
            assert outcome.verdict == "countermodel", render(inst)
            model, x, u = outcome.countermodel
            assert model.space.is_treelike()
            assert not naive_satisfies(model, x, u, inst)
        else:
            assert outcome.verdict == "valid", render(inst)
    _report("03b decider-agrees-on-C10",
            f"{len(violated)} countermodels, "
            f"{len(instances) - len(violated)} valid")


def test_criterion_04_frame_unfolding_golden():
    """The two-level frame checks out and unfolds to the golden tree."""
    frame = load_frame(FIXTURES / "frame_two_level.json")
    report = check_frame(frame)
    assert report.ok, report.failures()
    assert {r.name for r in report.results} >= {
        "box_connected", "k_equivalence", "cross_property",
        "box_k_identity", "box_antisymmetric"}
    result = unfold(frame, "r1")
    sizes = sorted(map(len, result.model.space.opens), reverse=True)
    assert sizes == [6, 3, 2, 2]
    golden = load_model(FIXTURES / "frame_two_level_unfolded.json")
    assert same_model(result.model, golden)
    _report("04 frame-unfolding", f"open sizes {sizes}")


def test_criterion_05_stable_partitions(corpus500):
    """Families are closed, contain the space, remainders are stable."""
    failures = 0
    for model, f in corpus500:
        table = build_stable_partitions(model, f)
        full = model.space.full
        for psi in subformulas(f):
            family = table.families[psi]
            if full not in family:
                failures += 1
            if naive_closure(family) != family:
                failures += 1
            for u in family:
                if not naive_is_stable(model, naive_remainder(model, family,
                                                              u), psi):
                    failures += 1
    assert failures == 0
    _report("05 stable-partitions", f"{len(corpus500)} instances, 0 failures")


def test_criterion_06_filtration_equivalence(corpus500):
    """Collapsing the open family preserves every subformula everywhere."""
    failures = 0
    for model, f in corpus500:
        result = filtrate(model, f)
        if not result.output.space.is_treelike():
            failures += 1
        bound = complexity_bound(f)
        if not bound.saturated and \
                len(result.output.space.opens) > bound.max_opens:
            failures += 1
        for v in model.space.opens:
            for x in sorted(v):
                x2, cls = result.image(x, v)
                for psi in subformulas(f):
                    if model.satisfies(x, v, psi) != \
                            result.output.satisfies(x2, cls, psi):
                        failures += 1
    assert failures == 0
    _report("06 filtration-equivalence",
            f"{len(corpus500)} instances, 0 failures")


def test_criterion_07_small_model_pipeline(corpus500):
    """Extraction keeps the formula true at the image neighborhood."""
    satisfied_pairs = 0
    for model, f in corpus500:
        hit = None
        for v in model.space.opens:
            for x in sorted(v):
                if model.satisfies(x, v, f):
                    hit = (x, v)
                    break
            if hit:
                break
        if hit is None:
            continue
        satisfied_pairs += 1
        result = extract_finite_model(model, f)
        x2, u2 = result.image(*hit)
        assert result.model.satisfies(x2, u2, f), render(f)
        bound = complexity_bound(f)
        if not bound.saturated:
            assert result.report["output_points"] <= bound.max_points
            assert result.report["output_opens"] <= bound.max_opens
    assert satisfied_pairs > 100
    _report("07 small-model-pipeline",
            f"{satisfied_pairs} satisfiable pairs preserved")


def test_criterion_08_decidability_smoke():
    """Bound-driven sat, unsat and valid verdicts, each one fast."""
    start = time.monotonic()
    sat_outcome = satisfiable(parse("L A & L ~A"), use_bound=True)
    sat_elapsed = time.monotonic() - start
    assert sat_outcome.verdict == "sat"
    model, x, u = sat_outcome.witness
    assert len(model.space.points) <= 2
    assert naive_satisfies(model, x, u, parse("L A & L ~A"))
    assert sat_elapsed < SMOKE_BUDGET_SECONDS

    start = time.monotonic()
    unsat_outcome = satisfiable(parse("K A & ~A"), use_bound=True)
    unsat_elapsed = time.monotonic() - start
    assert unsat_outcome.verdict == "unsat_proved"
    assert unsat_elapsed < SMOKE_BUDGET_SECONDS

    # S5 facts, scheme 10 and the box-over-knowledge tail: all proved
    slowest = 0.0
    for text in ("K A -> K K A", "A -> K L A", "K(A -> B) -> (K A -> K B)",
                 "K[]A -> []K A", "K[]A -> []A"):
        start = time.monotonic()
        outcome = valid(parse(text), use_bound=True)
        elapsed = time.monotonic() - start
        assert outcome.verdict == "valid", text
        assert elapsed < SMOKE_BUDGET_SECONDS, text
        slowest = max(slowest, elapsed)
    _report("08 decidability-smoke",
            f"sat {sat_elapsed:.2f}s, unsat_proved {unsat_elapsed:.2f}s, "
            f"five valid facts each within {slowest:.2f}s")


def test_criterion_09_proof_checker_fixture_and_mutations():
    """The scheme-12 to scheme-10 derivation passes; 20 mutations fail."""
    proof = load_proof(FIXTURES / "proof_scheme10_from_scheme12.json")
    outcome = check_proof(proof, "mpt")
    assert outcome.accepted
    assert outcome.conclusion is instantiate(10, {"phi": atom("A")})

    with open(FIXTURES / "proof_scheme10_from_scheme12.json") as fh:
        pristine = json.load(fh)
    assert len(MUTATIONS) == 20
    for label, line_no, patch, expected in MUTATIONS:
        data = json.loads(json.dumps(pristine))
        data["lines"][line_no - 1].update(patch)
        mutated = check_proof(proof_from_dict(data), "mpt")
        assert not mutated.accepted, label
        assert mutated.line == expected, (label, mutated.line, mutated.reason)
    _report("09 proof-checker", "fixture accepted, 20/20 mutations rejected "
            "at the predicted lines")


def test_criterion_10_oracle_model_epistemics():
    """Golden truths on the four-world question model."""
    m1 = oracle_model()
    top = m1.space.full
    assert m1.satisfies("q1", top, parse("<>K Q1")) is True
    assert m1.satisfies("q4", top, parse("<>K ~Q2")) is True
    assert m1.satisfies("q1", top, parse("K Q1")) is False
    _report("10 oracle-epistemics",
            "q1 can come to know Q1, q4 can come to know ~Q2, "
            "q1 does not yet know Q1")
