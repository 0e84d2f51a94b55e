import itertools
import random
import re

import pytest

from helpers import naive_instantiate, random_formula

from treelogic import (BOT, TOP, ParseError, SchemaError, ast_dump, atom,
                       atom_names, box, conj, diamond, disj, implies,
                       SCHEMES, formula_pool, instantiate, know, neg, parse,
                       poss, render, size, subformulas)
from treelogic.formula import render_all
from treelogic.proofs import TAUTOLOGY_REPS


def test_parse_desugars_diamond():
    assert parse("<>K A") is neg(box(neg(know(atom("A")))))


def test_parse_arrow_right_associative():
    assert parse("A -> B -> C") is implies(atom("A"),
                                           implies(atom("B"), atom("C")))
    assert parse("(A -> B) -> C") is implies(implies(atom("A"), atom("B")),
                                             atom("C"))


def test_parse_matches_connectedness_scheme():
    f = parse("[](([]A -> B)) | []([]B -> A)")
    assert f is instantiate(11, {"phi": atom("A"), "psi": atom("B")})


def test_parse_precedence():
    assert parse("A & B | C") is disj(conj(atom("A"), atom("B")), atom("C"))
    assert parse("~A & B") is conj(neg(atom("A")), atom("B"))
    assert parse("[]A & B") is conj(box(atom("A")), atom("B"))
    assert parse("L A | B") is disj(poss(atom("A")), atom("B"))


def test_parse_constants():
    assert parse("true") is TOP
    assert parse("false") is BOT
    assert parse("K true") is know(TOP)


@pytest.mark.parametrize("text", ["A &", "(A", "A | | B", "K", "-> A", ""])
def test_parse_errors_carry_position(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position >= 1


def test_parse_depth_limit_is_a_parse_error():
    f = parse("~" * 900 + "A")
    for _ in range(900):
        assert f.kind == "not"
        f = f.left
    assert f is atom("A")
    for text in ("(" * 900 + "A" + ")" * 900, "~" * 1000 + "A"):
        with pytest.raises(ParseError, match="formula nests too deeply"):
            parse(text)


def test_reserved_words_are_not_atoms():
    for word in ("K", "L", "true", "false"):
        with pytest.raises(ValueError):
            atom(word)
    with pytest.raises(ValueError):
        atom("9bad")
    with pytest.raises(ParseError):
        parse("A & L")          # L with no operand


def test_render_resugars():
    assert render(neg(box(neg(atom("A"))))) == "<>A"
    assert render(atom("A")) == "A"
    assert render(neg(know(neg(atom("A"))))) == "L A"
    assert render(disj(atom("A"), atom("B"))) == "A | B"
    assert render(implies(atom("A"), atom("B"))) == "A -> B"


def test_render_scheme_twelve_instance():
    inst = instantiate(12, {"phi": atom("A"), "psi": atom("B")})
    assert render(inst) == "[]K A & K([]A -> []B) -> []K([]A -> []B)"


def test_roundtrip_random_asts():
    rng = random.Random(7)

    def rand(depth):
        if depth == 0:
            return rng.choice([atom("A"), atom("B_2"), TOP, BOT])
        op = rng.randrange(8)
        if op < 4:
            return [neg, box, know, diamond][op](rand(depth - 1))
        if op == 4:
            return poss(rand(depth - 1))
        return [conj, disj, implies][op - 5](rand(depth - 1), rand(depth - 1))

    for _ in range(2000):
        f = rand(rng.randrange(1, 7))
        assert parse(render(f)) is f


def test_render_all_matches_render():
    # the one-pass printer joins each formula from its operands' strings;
    # over a seeded corpus it prints every subformula as ``render`` does,
    # and the corpus holds every sugared form and spacing rule
    rng = random.Random(3)
    forms = {"|": r" \| ", "->": r" -> ", "<>": r"<>", "L": r"L",
             "K before an atom": r"K [AB]", "true": r"true",
             "K or L before K or L": r"[KL] [KL]"}
    seen, and_under_unary, count = set(), False, 0
    for i in range(3000):
        f = random_formula(rng, ("A", "B"), 2 + i % 5)
        post = subformulas(f)
        text = render_all(post)
        assert list(text) == post
        for g in post:
            assert text[g] == render(g)
            assert parse(text[g]) is g
            seen.update(k for k, r in forms.items() if re.search(r, text[g]))
            and_under_unary |= g.kind in ("box", "know") and \
                g.left.kind == "and"
        count += len(post)
    assert seen == set(forms) and and_under_unary
    assert count > 25_000


def test_render_deep_nesting():
    # printing is iterative, so what the parser accepts prints back
    for op in (neg, box, know, diamond, poss):
        f = atom("A")
        for _ in range(900):
            f = op(f)
        assert parse(render(f)) is f
        lines = ast_dump(f).splitlines()     # one line per node of the chain
        assert lines[-1] == "  " * (len(lines) - 1) + "atom A"


def test_subformulas_postorder():
    got = [render(g) for g in subformulas(parse("<>K A"))]
    assert got == ["A", "K A", "~K A", "[]~K A", "<>K A"]


def test_subformulas_dedup():
    f = conj(atom("A"), atom("A"))
    assert [render(g) for g in subformulas(f)] == ["A", "A & A"]


def test_subformulas_are_subtrees():
    rng = random.Random(3)
    for _ in range(200):
        f = None
        for _ in range(5):
            g = atom(rng.choice("AB"))
            f = g if f is None else conj(box(f), know(g))
        subs = subformulas(f)
        assert subs[-1] is f
        assert len(subs) <= size(f)
        whole = set(map(id, subs))
        for g in subs:
            if g.left is not None:
                assert id(g.left) in whole


def _recursive_subformulas(f, seen, out):
    # the order subformulas had as a recursive walk: left, right, node
    if id(f) in seen:
        return
    for g in (f.left, f.right):
        if g is not None:
            _recursive_subformulas(g, seen, out)
    seen.add(id(f))
    out.append(f)


def test_subformulas_keeps_the_recursive_order():
    rng = random.Random(31)
    for _ in range(300):
        roots = [random_formula(rng, ("A", "B", "C"), rng.randint(0, 6))
                 for _ in range(rng.randint(1, 4))]
        seen, want = set(), []
        for f in roots:
            _recursive_subformulas(f, seen, want)
        assert subformulas(*roots) == want
    assert subformulas() == []


def test_subformulas_deep_nesting():
    # <> desugars to ~[]~: 400 of them are 1,200 levels, past the
    # recursion limit of a walk that recurses once per level
    f = parse("<>" * 400 + "A")
    subs = subformulas(f)
    assert len(subs) == 1201 and subs[0] is atom("A") and subs[-1] is f
    assert atom_names(f) == {"A"}
    assert size(f) == 1201
    g = atom("A")
    for _ in range(1200):
        g = box(g)
    assert size(conj(g, g)) == 2403


def test_instantiate_basics():
    assert render(instantiate(7, {"phi": atom("A")})) == "K A -> A"
    assert instantiate(2, {"A": atom("P")}) is parse("(P -> []P) & (~P -> []~P)")


def test_instantiate_rejects_bad_substitutions():
    with pytest.raises(SchemaError):
        instantiate(2, {"A": know(atom("P"))})
    with pytest.raises(SchemaError):
        instantiate(2, {"A": TOP})
    with pytest.raises(SchemaError):
        instantiate(7, {})
    with pytest.raises(SchemaError):
        instantiate(7, {"phi": atom("A"), "zeta": atom("B")})
    with pytest.raises(SchemaError):
        instantiate(1, {"phi": atom("A")})


def test_instantiate_compositional():
    s1 = {"phi": conj(atom("A"), atom("B")), "psi": box(atom("A"))}
    s2 = {"phi": conj(atom("A"), atom("B")), "psi": box(atom("A"))}
    assert instantiate(12, s1) is instantiate(12, s2)


def test_instantiate_matches_plain_substitution():
    # every instance over a depth-1 pool of two atoms and the constants,
    # of every scheme with a body and every tautology representative, is
    # the node a plain recursive substitution builds: S14's three
    # metavariables and scheme 2's atom-kinded one included
    pool = formula_pool(("A", "B"), 1, include_constants=True)
    atoms = [f for f in pool if f.kind == "atom"]
    templates = [t for t in SCHEMES.values() if t.body is not None]
    templates += TAUTOLOGY_REPS
    checked = 0
    for template in templates:
        names = sorted(template.metavars)
        choices = [atoms if template.metavars[n] == "atom" else pool
                   for n in names]
        for combo in itertools.product(*choices):
            substitution = dict(zip(names, combo))
            assert instantiate(template, substitution) is naive_instantiate(
                template.body, substitution)
            checked += 1
    assert checked == 2 + 12 * 40 + 7 * 40 ** 2 + 40 ** 3


def test_size_and_atoms():
    f = parse("<>A")            # ~[]~A
    assert size(f) == 4
    assert atom_names(parse("K A & ~B -> C_1")) == {"A", "B", "C_1"}


def test_ast_dump_shape():
    lines = ast_dump(parse("<>A")).splitlines()
    assert lines[0] == "not"
    assert lines[1].strip() == "box"
    assert lines[-1].strip() == "atom A"
