import hashlib
import itertools
import json
import math
import random
import re

import pytest

from helpers import (naive_satisfies, naive_tree_sat, random_formula,
                     random_treelike_model)

from treelogic import (Model, SearchError, SubsetSpace, atom, atom_names,
                       complexity_bound, conj, decide, enumerate_spaces,
                       extract_finite_model, instantiate, know, neg, parse,
                       poss, satisfiable, subformulas, valid)


def test_bound_frozen_values():
    b = complexity_bound(atom("A"))
    assert (b.max_family, b.max_opens, b.max_points) == (1, 2, 8)
    b = complexity_bound(parse("K A"))
    assert (b.max_family, b.max_opens, b.max_points) == (2, 8, 512)
    assert not b.saturated


def test_bound_negation_invariant():
    rng = random.Random(67)
    for _ in range(50):
        f = random_formula(rng, ("A", "B"), 3)
        b1 = complexity_bound(f)
        b2 = complexity_bound(parse(f"~({f})"))
        assert (b1.max_family, b1.max_opens, b1.max_points, b1.saturated) == \
            (b2.max_family, b2.max_opens, b2.max_points, b2.saturated)


def test_bound_saturates_on_knowledge_towers():
    assert complexity_bound(parse("K K K A")).saturated
    assert complexity_bound(parse("K K A")).saturated   # 2^2049 points
    assert not complexity_bound(parse("K A & B")).saturated


def test_enumerate_smallest():
    models = list(enumerate_spaces(1, 1))
    assert len(models) == 1
    assert models[0].space.opens == (frozenset({"p1"}),)
    per_valuation = list(enumerate_spaces(1, 1, ("A",)))
    assert len(per_valuation) == 2


def test_enumerate_two_point_stratum():
    small = {m.space for m in enumerate_spaces(1, 2)}
    both = {m.space for m in enumerate_spaces(2, 2)}
    # the size-two stratum: {X}, {X,{p}}, {X,empty} up to renaming
    assert len(both - small) == 3
    assert len(small) == 2


def test_enumerate_only_treelike_and_deduped():
    seen = set()
    for m in enumerate_spaces(3, None):
        assert m.space.is_treelike()
        assert m.space not in seen
        seen.add(m.space)


def test_enumerate_matches_brute_force_counts():
    def brute(n, treelike):
        pts = tuple(f"p{i + 1}" for i in range(n))
        full = frozenset(pts)
        subs = [frozenset(c) for r in range(n + 1)
                for c in itertools.combinations(pts, r)]
        subs = [s for s in subs if s != full]
        fams = set()
        for r in range(len(subs) + 1):
            for combo in itertools.combinations(subs, r):
                fam = frozenset(combo) | {full}
                if treelike and not all(a <= b or b <= a or not (a & b)
                                        for a in fam for b in fam):
                    continue
                fams.add(fam)
        canon = set()
        for fam in fams:
            keys = []
            for perm in itertools.permutations(range(n)):
                relab = {pts[i]: pts[perm[i]] for i in range(n)}
                mapped = frozenset(frozenset(relab[p] for p in u) for u in fam)
                keys.append(tuple(sorted((len(u), tuple(sorted(u)))
                                         for u in mapped)))
            canon.add(min(keys))
        return len(canon)

    for treelike in (True, False):
        total = 0
        seen = set()
        for m in enumerate_spaces(3, None, (), treelike=treelike):
            seen.add(m.space)
        assert len(seen) == sum(brute(n, treelike) for n in (1, 2, 3))


def test_five_point_families_are_one_per_class():
    # one space per relabelling class, the least labelling of its class:
    # the orbits of the kept spaces cover every labelled family once
    spaces = [s for s in decide._family_spaces(5, None, True)
              if len(s.points) == 5]
    assert len(spaces) == 340
    least, labelled = set(), 0
    for space in spaces:
        images = {frozenset(frozenset(perm[space.index[p]] for p in u)
                            for u in space.opens)
                  for perm in itertools.permutations(range(5))}
        keys = [tuple(sorted((len(u), tuple(sorted(u))) for u in fam))
                for fam in images]
        own = tuple(sorted((len(u), tuple(sorted(space.index[p] for p in u)))
                           for u in space.opens))
        assert own == min(keys)
        least.add(own)
        labelled += len(images)
    assert len(least) == 340
    assert labelled == 15_104


def test_off_tree_families_are_sized_before_listing():
    # off trees a family is the full set and up to max_opens - 1 of the
    # other 2^n - 1 masks; the count is checked, never an over-budget run
    assert [decide._family_count(n, None, False) for n in (1, 2, 3, 4)] == [
        2, 8, 128, 32_768]
    assert decide._family_count(5, None, False) == 2 ** 31
    assert decide._family_count(5, 6, False) == sum(
        math.comb(31, k) for k in range(6)) == 206_368
    assert decide._family_count(7, 4, False) == sum(
        math.comb(127, k) for k in range(4)) == 341_504
    assert decide._family_count(3, 2, False) == 8
    assert decide._family_count(10 ** 6, 1, False) == 1
    assert decide._family_count(7, None, False) is None
    assert decide._family_count(10 ** 6, 2, False) is None
    # what the tests and the benchmark enumerate off trees passes
    for max_points, max_opens in ((3, None), (4, None), (3, 3), (5, 6),
                                  (7, 4)):
        decide._check_family_budget(max_points, max_opens, False)
    for max_points, max_opens, amount in ((5, None, "2,147,483,648"),
                                          (5, 7, "942,649"),
                                          (7, None, "more than 2**63")):
        with pytest.raises(SearchError, match=re.escape(
                f"{amount} labelled open families over {max_points} points "
                "exceed the budget of 400,000: lower --max-points or "
                "--max-opens")):
            decide._check_family_budget(max_points, max_opens, False)


def test_tree_families_are_sized_before_listing():
    # the recurrence agrees with the labelled families _families' recursion
    # walks before it removes relabelled copies, here listed by brute force
    def listed(n, max_opens):
        full = (1 << n) - 1
        count, stack = 0, [(0, ())]
        while stack:
            start, chosen = stack.pop()
            count += 1
            if max_opens is not None and len(chosen) >= max_opens - 1:
                continue
            for u in range(start, full):
                if all(u & c in (0, u, c) for c in chosen):
                    stack.append((u + 1, chosen + (u,)))
        return count

    for n in (1, 2, 3, 4):
        for max_opens in (None, 1, 2, 3, 4, 6, 9):
            assert decide._family_count(n, max_opens, True) == listed(
                n, max_opens), (n, max_opens)
    assert [decide._family_count(n, None, True) for n in range(1, 8)] == [
        2, 8, 64, 832, 15_104, 352_256, 10_037_248]
    assert decide._family_count(6, 6, True) == 81_124
    assert decide._family_count(7, 4, True) == 31_208
    assert decide._family_count(10 ** 6, 1, True) == 1
    assert decide._family_count(64, 2, True) is None
    assert decide._family_count(63, None, True) is None
    # six-point trees pass; seven points are refused before any is listed
    for max_points, max_opens in ((6, None), (7, 4), (24, 1), (18, 2)):
        decide._check_family_budget(max_points, max_opens, True)
    with pytest.raises(SearchError, match=re.escape(
            "10,037,248 treelike open families over 7 points exceed the "
            "budget of 400,000")):
        decide._check_family_budget(7, None, True)


def test_one_open_families_skip_the_masks():
    # a family of one open is the full set alone, whatever the point count
    (space,) = decide._families(40, 1, True)
    assert len(space.points) == 40 and space.opens == (space.full,)
    assert decide._families(40, 1, False)[0] == space


def test_two_open_families_are_listed_directly():
    # the direct listing keeps the general one's classes, open order and
    # names, on both shapes
    for n in range(1, 7):
        for treelike in (True, False):
            direct = decide._families(n, 2, treelike)
            general = [s for s in decide._families(n, 3, treelike)
                       if len(s.opens) <= 2]
            assert list(direct) == general
            assert [(s.opens, s.names) for s in direct] == \
                [(s.opens, s.names) for s in general]
    spaces = decide._families(18, 2, True)
    assert len(spaces) == 19
    assert [len(s.opens[-1]) for s in spaces] == [18, *range(18)]


def test_point_names_sort_in_bit_order():
    # valuation masks number a space's points in sorted order, and a model
    # built from masks equals the one built from the valuation they spell
    (space,) = decide._families(10, 1, True)
    assert space.points == tuple(f"p{i:02d}" for i in range(1, 11))
    for bit in range(10):
        model = Model._from_masks(space, {"A": 1 << bit, "B": 0})
        plain = Model(space, {"A": {f"p{bit + 1:02d}"}, "B": ()})
        assert model.valuation == plain.valuation
        assert model.atom_masks == plain.atom_masks == {"A": 1 << bit, "B": 0}
        assert model == plain and hash(model) == hash(plain)


def test_enumerated_models_equal_their_valuations():
    for model in enumerate_spaces(3, None, ("B", "A")):
        plain = Model(model.space, model.valuation)
        assert list(model.valuation) == ["A", "B"]
        assert model.atom_masks == plain.atom_masks and model == plain


def test_five_point_search_visits_each_class_once():
    outcome = satisfiable(parse("false"), max_points=5)
    assert outcome.verdict == "unsat_proved"
    assert outcome.stats["models"] == 2 + 6 + 20 + 80 + 340
    # the first hit is the least labelling of its class, which the
    # labelled enumeration also reached first
    f = parse("L(A & ~B) & L(~A & B) & L(~A & ~B) & L(A & B & <>K(A & B))"
              " & L(A & B & []~K B)")
    outcome = satisfiable(f, max_points=5)
    assert (outcome.stats["models"], outcome.stats["neighborhoods"]) == \
        (24_148, 206_639)
    model, x, u = outcome.witness
    assert model.space.opens == (frozenset(model.space.points),
                                 frozenset({"p1"}))
    assert model.valuation == {"A": {"p1", "p2", "p3"},
                               "B": {"p1", "p2", "p4"}}
    assert (x, u) == ("p1", model.space.full)
    assert naive_satisfies(model, x, u, f)


def test_satisfiable_epistemic_uncertainty():
    outcome = satisfiable(parse("L A & L ~A"), use_bound=True)
    assert outcome.verdict == "sat"
    model, x, u = outcome.witness
    assert len(model.space.points) == 2
    assert len(model.space.opens) == 1
    assert naive_satisfies(model, x, u, parse("L A & L ~A"))
    # deterministic first witness: two points, one open, A on the first
    assert model.valuation["A"] == frozenset({"p1"})
    assert x == "p1"


def test_satisfiable_refutes_unknown_truths():
    outcome = satisfiable(parse("K A & ~A"), use_bound=True)
    assert outcome.verdict == "unsat_proved"
    assert outcome.searched["coverage"] == "saturation"
    assert "note" not in outcome.searched


# answers that turn on refinement: a [] read as "here only" flips them
REFINEMENT_CASES = ["~K A & <>K A", "L ~A & <>K A", "<>K A & <>K ~A",
                    "L<>K A & L<>K ~A & L A & L ~A", "[]K L A & ~K[]L A"]


def test_saturation_agrees_with_the_naive_oracle():
    rng = random.Random(83)
    formulas = [random_formula(rng, ("A", "B")[:rng.randint(1, 2)],
                               rng.randint(1, 3)) for _ in range(200)]
    verdicts = set()
    for f in formulas + [parse(text) for text in REFINEMENT_CASES]:
        atoms = sorted(atom_names(f))
        outcome = satisfiable(f, use_bound=True)
        verdicts.add(outcome.verdict)
        if outcome.verdict == "sat":
            model, x, u = outcome.witness
            assert model.space.is_treelike()
            assert naive_satisfies(model, x, u, f), str(f)
        else:
            assert outcome.verdict == "unsat_proved", str(f)
            assert not any(naive_satisfies(m, x, u, f)
                           for m in enumerate_spaces(3, None, atoms)
                           for u in m.space.opens for x in u), str(f)
        # saturation alone, without the sweep in front of it
        types = decide._Types(f, atoms)
        members = types.saturate()
        assert (members is not None) == (outcome.verdict == "sat"), str(f)
        if members is not None:
            model = decide._materialize(*types.tree(members), atoms)
            assert model.space.is_treelike()
            assert any(naive_satisfies(model, x, model.space.full, f)
                       for x in model.space.points), str(f)
    assert verdicts == {"sat", "unsat_proved"}


PROFILES = ("A & B", "A & ~B", "~A & B", "~A & ~B")


def _four_profile_formulas():
    """L over each profile of A and B, with one conjunct or the whole
    conjunction under <>, [], K, L or ~~: satisfiable ones need four
    points, and an L K conjunct makes them unsatisfiable."""
    base = [f"L({p})" for p in PROFILES]
    texts = [" & ".join(base)]
    for i, p in enumerate(PROFILES):
        for wrap in ("<>L({})", "[]L({})", "L<>({})", "L[]({})", "L K({})"):
            texts.append(" & ".join(base[:i] + [wrap.format(p)] + base[i + 1:]))
    for wrap in ("<>({})", "[]({})", "K({})", "L({})", "~~({})"):
        texts.append(wrap.format(" & ".join(base)))
    return [parse(text) for text in texts]


# the open below the root must witness its false K with a point that has
# A, as the root's K(~A -> K ...) asks; the first candidate witness, a
# private point without A, will not do
WITNESS_CHOICE_CASES = ["K(~A -> K B) & L B & <>K B & <>L ~B",
                        "K(~A -> K B) & L ~B & <>K B & <>L B",
                        "K(~A -> K ~B) & L B & <>K ~B & <>L ~B",
                        "K(~A -> K ~B) & L ~B & <>K ~B & <>L B"]


def test_saturation_agrees_with_the_reference_decider():
    # naive_types saturates with no pruning; the decision, and _Types
    # alone without the sweep in front of it, must give its verdicts
    rng = random.Random(89)
    formulas = [random_formula(rng, ("A", "B")[:rng.randint(1, 2)],
                               rng.randint(1, 3)) for _ in range(500)]
    formulas += _four_profile_formulas()
    formulas += [parse(text) for text in WITNESS_CHOICE_CASES]
    verdicts, wide = set(), 0
    for f in formulas:
        atoms = sorted(atom_names(f))
        expected = "sat" if naive_tree_sat(f) else "unsat_proved"
        outcome = satisfiable(f, use_bound=True)
        assert outcome.verdict == expected, str(f)
        verdicts.add(expected)
        assert (decide._Types(f, atoms).saturate() is not None) == \
            (expected == "sat"), str(f)
        if expected == "sat" and len(outcome.witness[0].space.points) >= 4:
            assert not any(naive_satisfies(m, x, u, f)
                           for m in enumerate_spaces(3, None, atoms)
                           for u in m.space.opens for x in u), str(f)
            wide += 1
    assert verdicts == {"sat", "unsat_proved"}
    assert wide >= 20


def test_budgeted_unsat_answers_agree_with_the_reference_decider():
    # the answers a budget used to leave unsat_within, read by naive_types
    # (<> x 400 false is past its recursion; 30 levels of <> stand in)
    s13 = instantiate("S13", {"phi": know(atom("A"))})
    for text, budget in (("K A & ~A", {"max_points": 2}),
                         ("K A & ~A", {"max_points": 3, "max_opens": 4}),
                         (f"~({s13})", {"max_points": 3}),
                         ("~(K A -> []K A)", {"max_points": 2}),
                         ("<>" * 30 + "false", {"max_points": 1}),
                         ("<>K A & <>K ~A & L A & L ~A",
                          {"max_points": 4, "max_opens": 6})):
        f = parse(text)
        outcome = satisfiable(f, **budget)
        assert outcome.verdict == "unsat_proved", text
        assert outcome.searched["coverage"] == "saturation"
        assert not naive_tree_sat(f), text


def test_budgeted_and_exact_searches_agree():
    # within a budget of 1-3 points a witness is an exact sat; a budgeted
    # unsat_proved is exact; "beyond the budget" means the smallest
    # witness is larger than the budget.  Half the formulas are L r & L ~r,
    # which needs two points when it holds at all.
    rng = random.Random(101)
    seen = set()
    for i in range(120):
        if i % 2:
            f = random_formula(rng, ("A", "B"), rng.randint(2, 4))
        else:
            r = random_formula(rng, ("A", "B"), rng.randint(0, 2))
            f = conj(poss(r), poss(neg(r)))
        points = rng.randint(1, 3)
        opens = rng.choice((None, points + 1))
        outcome = satisfiable(f, max_points=points, max_opens=opens)
        exact = satisfiable(f, use_bound=True)
        seen.add(outcome.verdict)
        assert (outcome.verdict == "unsat_proved") == \
            (exact.verdict == "unsat_proved"), str(f)
        if outcome.verdict == "sat":
            assert exact.verdict == "sat", str(f)
            model, x, u = outcome.witness
            assert len(model.space.points) <= points
            assert opens is None or len(model.space.opens) <= opens
            assert naive_satisfies(model, x, u, f)
        elif outcome.verdict == "unsat_within":
            assert outcome.searched["note"] == "satisfiable beyond the budget"
            model = exact.witness[0]
            assert len(model.space.points) > points or (
                opens is not None and len(model.space.opens) > opens), str(f)
    assert seen == {"sat", "unsat_proved", "unsat_within"}


FIVE_POINTS = ("L(A&B&C) & L(A&B&~C) & L(A&~B&C) & L(~A&B&C) "
               "& L(~A&~B&~C)")


def test_saturation_materialises_witnesses_beyond_the_sweep():
    f = parse(FIVE_POINTS)
    outcome = satisfiable(f, use_bound=True)
    assert outcome.verdict == "sat"
    assert outcome.searched["coverage"] == "saturation"
    model, x, u = outcome.witness
    assert len(model.space.points) >= 5
    assert model.space.is_treelike()
    assert naive_satisfies(model, x, u, f)
    again = satisfiable(f, use_bound=True)
    assert again.to_dict() == outcome.to_dict()


def test_saturation_step_cap_keeps_unsat_within(monkeypatch):
    monkeypatch.setattr(decide, "SATURATION_STEPS", 3)
    for text in ("K A & ~A", FIVE_POINTS):
        outcome = satisfiable(parse(text), use_bound=True)
        assert outcome.verdict == "unsat_within"
        assert outcome.searched["note"] == "saturation step cap reached"


def test_satisfiable_budget_modes():
    # a budget the sweep exhausts hands the formula to saturation
    out = satisfiable(parse("K A & ~A"), max_points=3, max_opens=4)
    assert out.verdict == "unsat_proved"
    assert out.searched["coverage"] == "saturation"
    assert (out.searched["max_points"], out.searched["max_opens"]) == (3, 4)
    out = satisfiable(parse("A & ~A"), max_points=8, max_opens=2)
    assert out.verdict == "unsat_proved"
    # satisfiable, but not within the budget: nothing proved either way
    out = satisfiable(parse("A & ~K A"), max_points=1)
    assert out.verdict == "unsat_within" and out.witness is None
    assert out.searched["note"] == "satisfiable beyond the budget"
    # the goal type is the first one derived, and it counts
    assert out.searched["types"] == 1
    # off trees the sweep is all there is
    out = satisfiable(parse("K A & ~A"), max_points=2, treelike=False)
    assert out.verdict == "unsat_within"
    assert out.searched == {"max_points": 2, "max_opens": None,
                            "coverage": "plain"}
    with pytest.raises(ValueError):
        satisfiable(parse("A"))
    with pytest.raises(ValueError):
        satisfiable(parse("A"), max_points=0)
    # the exact decision rejects a budget rather than ignore it
    for budget in ({"max_points": 2}, {"max_opens": 0},
                   {"max_points": 3, "max_opens": 3}):
        with pytest.raises(decide.SearchError, match="takes no max_points"):
            satisfiable(parse("A"), use_bound=True, **budget)


def test_conflicting_discoveries_are_unsatisfiable():
    # coming to know A and coming to know ~A at one neighborhood clash:
    # both refinements contain the current point
    outcome = satisfiable(parse("<>K A & <>K ~A & L A & L ~A"),
                          max_points=4, max_opens=6)
    assert outcome.verdict == "unsat_proved"
    assert outcome.searched["coverage"] == "saturation"
    # spreading the discoveries over the view is satisfiable
    outcome = satisfiable(parse("L<>K A & L<>K ~A & L A & L ~A"),
                          max_points=4, max_opens=6)
    assert outcome.verdict == "sat"
    model, x, u = outcome.witness
    assert len(model.space.points) == 2 and len(model.space.opens) == 3


def test_valid_connectedness_scheme():
    outcome = valid(parse("[](([]A -> B)) | []([]B -> A)"), use_bound=True)
    assert outcome.verdict == "valid"
    assert outcome.outcome.searched["coverage"] == "saturation"


def test_valid_knowledge_is_not_automatic():
    outcome = valid(parse("A -> K A"), use_bound=True)
    assert outcome.verdict == "countermodel"
    model, x, u = outcome.countermodel
    assert len(model.space.points) == 2
    assert naive_satisfies(model, x, u, parse("~(A -> K A)"))


def test_valid_refinement_commutation_needs_trees():
    s13 = instantiate("S13", {"phi": know(atom("A"))})
    treelike = valid(s13, max_points=3, max_opens=None)
    assert treelike.verdict == "valid"
    assert treelike.outcome.searched["coverage"] == "saturation"
    assert treelike.countermodel is None
    off_trees = valid(s13, max_points=3, max_opens=None, treelike=False)
    assert off_trees.verdict == "countermodel"
    model, x, u = off_trees.countermodel
    assert len(model.space.points) <= 3
    assert not model.space.is_treelike()
    assert naive_satisfies(model, x, u, parse(f"~({s13})"))


def test_negation_duality():
    rng = random.Random(71)
    for _ in range(25):
        f = random_formula(rng, ("A",), 2)
        sat = satisfiable(f, max_points=3, max_opens=4)
        vld = valid(parse(f"~({f})"), max_points=3, max_opens=4)
        assert (sat.verdict == "sat") == (vld.verdict == "countermodel")
        if sat.verdict == "sat":
            m1, x1, u1 = sat.witness
            m2, x2, u2 = vld.countermodel
            assert (x1, u1) == (x2, u2)
            assert m1.space == m2.space and m1.valuation == m2.valuation


def test_extraction_sizes_within_bound():
    rng = random.Random(73)
    checked = 0
    while checked < 40:
        model = random_treelike_model(rng, max_points=5, max_opens=8)
        f = random_formula(rng, ("A", "B"), 2)
        sat_somewhere = any(model.satisfies(x, u, f)
                            for u in model.space.opens for x in u)
        if not sat_somewhere:
            continue
        checked += 1
        bound = complexity_bound(f)
        result = extract_finite_model(model, f)
        if not bound.saturated:
            assert result.report["output_points"] <= bound.max_points
            assert result.report["output_opens"] <= bound.max_opens


def test_search_is_deterministic():
    a = satisfiable(parse("L A & L ~A"), use_bound=True)
    b = satisfiable(parse("L A & L ~A"), use_bound=True)
    am, ax, au = a.witness
    bm, bx, bu = b.witness
    assert (ax, au) == (bx, bu)
    assert am.space == bm.space and am.valuation == bm.valuation


# the budgets of the decision bytes below: the fixed sweep of use_bound,
# a point cap, a point and open cap, and a point cap off trees
PINNED_BUDGETS = [{"use_bound": True}, {"max_points": 3},
                  {"max_points": 3, "max_opens": 3},
                  {"max_points": 3, "treelike": False}]


def _decision_records():
    rng = random.Random(29)
    for _ in range(150):
        f = random_formula(rng, ("A", "B"), rng.randint(1, 4))
        for budget in PINNED_BUDGETS:
            for search in (satisfiable, valid):
                yield json.dumps(search(f, **budget).to_dict(),
                                 sort_keys=True)


def test_decision_bytes_are_pinned():
    # sha256 of the verdicts, searched sizes, stats and witnesses, one line
    # each, joined by newlines; recorded while the sweep still built a
    # fresh mask context for every model
    lines = "\n".join(_decision_records())
    assert hashlib.sha256(lines.encode()).hexdigest() == \
        "3d0afddfce4727b12d9821fb2c499cf187e84cc9d34463a604398e037b47ec0f"
