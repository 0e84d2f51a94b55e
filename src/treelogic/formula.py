"""Formula AST, concrete syntax, and axiom-scheme instantiation.

The AST keeps five primitive constructors (atoms, ~, &, [], K) plus the
two constants true/false.  Everything else in the surface syntax
(|, ->, <>, L) is desugared by the parser and re-sugared by the printer,
so semantic code only ever dispatches on seven node kinds.

The parser makes its tokens in one regular-expression scan and descends
over their indices, finding each node in the intern table.  The grammar
reads one token ahead, so the descent stops at the first token that no
formula can continue with and reports that token's position; a
character that starts no token is reported first, wherever it stands.
The descent takes one frame per prefix operator and two per parenthesis
level, and input nested past the interpreter's recursion limit is a
ParseError, never a RecursionError.
"""

from __future__ import annotations

import re

__all__ = [
    "Formula", "ParseError", "SchemaError", "SchemaTemplate",
    "TOP", "BOT",
    "atom", "neg", "conj", "box", "know",
    "disj", "implies", "diamond", "poss",
    "parse", "render", "ast_dump", "subformulas", "size",
    "atom_names",
    "SCHEMES", "SYSTEMS", "instantiate", "scheme",
]

ATOM_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
RESERVED = frozenset({"K", "L", "true", "false"})

# node kinds
_ATOM, _TOP, _BOT, _NOT, _AND, _BOX, _KNOW = (
    "atom", "top", "bot", "not", "and", "box", "know")


class ParseError(ValueError):
    """Syntax error with a 1-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SchemaError(ValueError):
    """Bad scheme instantiation (missing/ill-kinded binding)."""


class Formula:
    """Immutable, hash-consed formula node.

    Instances are interned: two structurally equal formulas are the same
    object, so identity comparison, dict keys and memo tables are cheap.
    Build formulas through the module constructors, never directly.
    """

    __slots__ = ("kind", "name", "left", "right")

    _interned: dict = {}

    def __new__(cls, kind: str, name: str | None = None,
                left: "Formula | None" = None, right: "Formula | None" = None):
        key = (kind, name, id(left), id(right))
        cached = cls._interned.get(key)
        if cached is not None:
            return cached
        node = object.__new__(cls)
        object.__setattr__(node, "kind", kind)
        object.__setattr__(node, "name", name)
        object.__setattr__(node, "left", left)
        object.__setattr__(node, "right", right)
        cls._interned[key] = node
        return node

    def __setattr__(self, *_):
        raise AttributeError("formulas are immutable")

    # identity equality/hash are structural thanks to interning
    def __repr__(self):
        return f"Formula({render(self)!r})"

    def __str__(self):
        return render(self)


TOP = Formula(_TOP)
BOT = Formula(_BOT)


def atom(name: str) -> Formula:
    if not ATOM_RE.match(name):
        raise ValueError(f"invalid atom name: {name!r}")
    if name in RESERVED:
        raise ValueError(f"{name!r} is a reserved word and cannot be an atom")
    return Formula(_ATOM, name=name)


_interned = Formula._interned


def _made(kind: str, left: Formula, right: Formula | None = None) -> Formula:
    """The node of a connective, found in the intern table before
    ``Formula`` is called: a dict lookup costs under half a class call."""
    node = _interned.get((kind, None, id(left), id(right)))
    return Formula(kind, left=left, right=right) if node is None else node


def neg(f: Formula) -> Formula:
    return _made(_NOT, f)


def conj(a: Formula, b: Formula) -> Formula:
    return _made(_AND, a, b)


def box(f: Formula) -> Formula:
    return _made(_BOX, f)


def know(f: Formula) -> Formula:
    return _made(_KNOW, f)


# defined connectives (desugared on construction)

def disj(a: Formula, b: Formula) -> Formula:
    return neg(conj(neg(a), neg(b)))


def implies(a: Formula, b: Formula) -> Formula:
    return neg(conj(a, neg(b)))


def diamond(f: Formula) -> Formula:
    return neg(box(neg(f)))


def poss(f: Formula) -> Formula:
    """L: consistent with everything known in the current view."""
    return neg(know(neg(f)))


# ---------------------------------------------------------------------------
# parsing

# One alternative per token kind, numbered as ``Match.lastindex`` reports
# it.  Whitespace matches none of them, so ``finditer`` skips it, and every
# other character that starts no token is a one-character ``_BAD`` token.
_TOKEN_RE = re.compile(r"""
    ([A-Za-z][A-Za-z0-9_]*)
  | (~) | (&) | (\|) | (->) | (\[\]) | (<>) | (\() | (\)) | (\S)
""", re.VERBOSE)
(_WORD, _TILDE, _AMP, _BAR, _ARROW, _BOXES, _DIAMOND, _OPEN, _CLOSE, _BAD,
 _END) = range(1, 12)
_CONSTANTS = {"true": TOP, "false": BOT}
_PREFIX = {_TILDE: neg, _BOXES: box, _DIAMOND: diamond, "K": know, "L": poss}
_NO = id(None)


def _unary(tokens, i: int):
    """The prefix formula that starts at token ``i``, and the index of the
    token after it.

    One frame per prefix operator and two per parenthesis level (this one
    and ``_binary``'s), so nesting that runs out of frames is reported at
    the operator or parenthesis where it did.
    """
    g, value, pos = tokens[i]
    if g == _WORD:
        if value not in RESERVED:
            node = _interned.get((_ATOM, value, _NO, _NO))
            return (atom(value) if node is None else node), i + 1
        if value in _CONSTANTS:
            return _CONSTANTS[value], i + 1
        g = value
    elif g == _OPEN:
        try:
            f, i = _binary(tokens, i + 1)
        except RecursionError:
            raise ParseError("formula nests too deeply", pos) from None
        g, value, pos = tokens[i]
        if g != _CLOSE:
            raise ParseError("expected ')'", pos)
        return f, i + 1
    op = _PREFIX.get(g)
    if op is None:
        if g == _END:
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected {value!r}", pos)
    try:
        f, i = _unary(tokens, i + 1)
    except RecursionError:
        raise ParseError("formula nests too deeply", pos) from None
    return op(f), i


def _binary(tokens, i: int):
    """The formula that starts at token ``i`` and ends at the first token
    no connective can take, and that token's index.

    ``->`` chains of ``|`` chains of ``&`` chains of prefix formulas, one
    loop each; ``->`` groups to the right, so its left operands wait in
    ``heads`` until the chain ends.
    """
    heads = []
    while True:
        d = None
        while True:
            f, i = _unary(tokens, i)
            while tokens[i][0] == _AMP:
                b, i = _unary(tokens, i + 1)
                f = conj(f, b)
            d = f if d is None else disj(d, f)
            if tokens[i][0] != _BAR:
                break
            i += 1
        if tokens[i][0] != _ARROW:
            break
        heads.append(d)
        i += 1
    for h in reversed(heads):
        d = implies(h, d)
    return d, i


def parse(text: str) -> Formula:
    """Parse concrete syntax into a desugared Formula.

    One ``finditer`` scan makes the ``(kind, text, position)`` tokens,
    and ``_binary`` descends over them.  A character that starts no token
    is looked for only once the descent has failed, which it must: no
    rule takes a ``_BAD`` token.  Nesting that runs out of frames before
    ``_unary`` can name the token is reported at position 1.
    """
    tokens = [(m.lastindex, m.group(), m.start() + 1)
              for m in _TOKEN_RE.finditer(text)]
    tokens.append((_END, "", len(text) + 1))
    try:
        f, i = _binary(tokens, 0)
        g, value, pos = tokens[i]
        if g != _END:
            raise ParseError(f"unexpected {value!r}", pos)
        return f
    except (ParseError, RecursionError) as exc:
        for g, value, pos in tokens:
            if g == _BAD:
                raise ParseError(f"unexpected character {value!r}",
                                 pos) from None
        if isinstance(exc, ParseError):
            raise
        raise ParseError("formula nests too deeply", 1) from None


# ---------------------------------------------------------------------------
# printing

_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4


def _prefix(g: Formula):
    """``(op, operand)`` when ``g`` prints as a prefix operator or a word.

    Words (atoms, ``true``, ``false``) have no operand; the binary forms
    (``&``, ``|``, ``->``) give None.  Negations try their sugared
    readings first.
    """
    k = g.kind
    if k == _NOT:
        x = g.left
        if x.kind == _AND and x.right.kind == _NOT:
            return None
        if x.kind == _BOX and x.left.kind == _NOT:
            return "<>", x.left.left
        if x.kind == _KNOW and x.left.kind == _NOT:
            return "L", x.left.left
        return "~", x
    if k == _AND:
        return None
    if k == _BOX:
        return "[]", g.left
    if k == _KNOW:
        return "K", g.left
    return g.name if k == _ATOM else "true" if k == _TOP else "false", None


def _sugar(g: Formula):
    """How ``g`` prints: ``(prec, left, left_prec, op, right, right_prec)``.

    ``g`` prints as ``left``, ``op`` and ``right`` in turn; a prefix
    operator has no ``left``, and a word neither operand.  ``prec`` is the
    precedence of ``g``'s outermost form, and each operand is put in
    parentheses when its own is below the one given for it.  ``K`` and
    ``L`` are spaced from an operand that prints as a word or starts with
    one.  Every printer reads the sugar here: ``render`` and
    ``render_all``.
    """
    pre = _prefix(g)
    if pre is not None:
        op, x = pre
        if op in ("K", "L"):
            nxt = _prefix(x)
            if nxt is not None and nxt[0][0].isalnum():
                op += " "
        return _PREC_UNARY, None, 0, op, x, _PREC_UNARY
    if g.kind == _AND:
        return _PREC_AND, g.left, _PREC_AND, " & ", g.right, _PREC_AND + 1
    a, b = g.left.left, g.left.right.left
    if a.kind == _NOT:
        return _PREC_OR, a.left, _PREC_OR, " | ", b, _PREC_OR + 1
    return _PREC_IMP, a, _PREC_IMP + 1, " -> ", b, _PREC_IMP


def render(f: Formula) -> str:
    """Concrete syntax for ``f``; ``parse(render(f)) is f``.

    Iterative, so every formula the parser accepts prints back, and linear
    in the output.  ``todo`` is a stack of the formulas still to print,
    each pushed after the least precedence it may have without
    parentheses, and of the literal pieces (operators, closing
    parentheses) between them.
    """
    out, todo = [], [0, f]
    while todo:
        g = todo.pop()
        if g.__class__ is str:
            out.append(g)
            continue
        min_prec = todo.pop()
        prec, left, left_prec, op, right, right_prec = _sugar(g)
        if prec < min_prec:
            out.append("(")
            todo.append(")")
        if right is not None:
            todo += (right_prec, right)
        if left is None:
            out.append(op)
        else:
            todo += (op, left_prec, left)
    return "".join(out)


def render_all(post) -> dict:
    """``render`` of every formula of ``post``, in one pass.

    ``post`` lists formulas children first and holds every subformula of
    each; each string is joined from its operands' strings, so the pass
    costs the total length of the strings, not one walk per formula.
    """
    text = {}
    for g in post:
        prec, left, left_prec, op, right, right_prec = _sugar(g)
        s = op
        if left is not None:
            p, t = text[left]
            s = (f"({t})" if p < left_prec else t) + s
        if right is not None:
            p, t = text[right]
            s += f"({t})" if p < right_prec else t
        text[g] = prec, s
    return {g: s for g, (_, s) in text.items()}


def ast_dump(f: Formula) -> str:
    """Indented prefix dump of the desugared tree (iterative, like render)."""
    lines, todo = [], [(f, 0)]
    while todo:
        g, depth = todo.pop()
        pad = "  " * depth
        if g.kind == _ATOM:
            lines.append(f"{pad}atom {g.name}")
        elif g.kind in (_TOP, _BOT):
            lines.append(f"{pad}{'true' if g.kind == _TOP else 'false'}")
        else:
            lines.append(f"{pad}{g.kind}")
            if g.kind == _AND:
                todo.append((g.right, depth + 1))
            todo.append((g.left, depth + 1))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# structural utilities

def subformulas(*roots: Formula) -> list[Formula]:
    """Duplicate-free post-order list of the subformulas of ``roots``.

    Children come before their parents, the left subtree before the right,
    and the roots in the order given, each after everything below it; with
    one root it is last.  Iterative, so any depth the parser accepts (or
    deeper) passes through: a node stays on the stack until both its
    children are listed.
    """
    seen = set()
    out = []
    todo = list(reversed(roots))
    while todo:
        g = todo[-1]
        left = g.left
        if left is not None and left not in seen:
            todo.append(left)
            continue
        right = g.right
        if right is not None and right not in seen:
            todo.append(right)
            continue
        todo.pop()
        if g not in seen:
            seen.add(g)
            out.append(g)
    return out


def size(f: Formula) -> int:
    """Node count of the desugared tree (counting repeated subtrees)."""
    sizes = {}
    for g in subformulas(f):
        sizes[g] = 1 + sizes.get(g.left, 0) + sizes.get(g.right, 0)
    return sizes[f]


def atom_names(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if g.kind == _ATOM)


# ---------------------------------------------------------------------------
# axiom schemes

class SchemaTemplate:
    """An axiom scheme: a body over metavariables, or the tautology scheme.

    ``metavars`` maps each metavariable name to "formula" or "atom";
    atom-kinded metavariables accept only atoms when instantiated.
    Scheme 1 (all propositional tautologies) has no body; the proof
    checker validates its instances by a boolean-skeleton decision.

    A body is compiled once, here, for ``instantiate``: ``_cells`` holds
    the body's subformulas children first, each with its own node where it
    stays fixed under substitution and None elsewhere, ``_binds`` the
    ``(cell, metavariable)`` pairs to fill from a substitution, and
    ``_steps`` the ``(cell, kind, left cell, right cell or None)``
    connectives to rebuild above them, in the same order.
    """

    def __init__(self, scheme_id, body: Formula | None,
                 metavars: dict[str, str], note: str = ""):
        self.scheme_id = scheme_id
        self.body = body
        self.metavars = dict(metavars)
        self.note = note
        self._cells, self._binds, self._steps = [], (), ()
        if body is not None:
            post = subformulas(body)
            at = {g: i for i, g in enumerate(post)}
            bound = [g.kind == _ATOM and g.name in self.metavars for g in post]
            moved = set()
            for i, g in enumerate(post):
                if bound[i] or g.left in moved or g.right in moved:
                    moved.add(g)
            self._cells = [None if g in moved else g for g in post]
            self._binds = tuple((i, g.name) for i, g in enumerate(post)
                                if bound[i])
            self._steps = tuple((i, g.kind, at[g.left], at.get(g.right))
                                for i, g in enumerate(post)
                                if g in moved and not bound[i])

    def __repr__(self):
        if self.body is None:
            return f"SchemaTemplate({self.scheme_id}, <tautologies>)"
        return f"SchemaTemplate({self.scheme_id}, {render(self.body)!r})"


_FORMULA_MV = {"phi": "formula"}
_TWO_MV = {"phi": "formula", "psi": "formula"}

SCHEMES: dict = {
    1: SchemaTemplate(1, None, {}, "all propositional tautologies"),
    2: SchemaTemplate(2, parse("(A -> []A) & (~A -> []~A)"),
                      {"A": "atom"}, "atoms are settled once and for all"),
    3: SchemaTemplate(3, parse("[](phi -> psi) -> ([]phi -> []psi)"),
                      _TWO_MV),
    4: SchemaTemplate(4, parse("[]phi -> phi"), _FORMULA_MV),
    5: SchemaTemplate(5, parse("[]phi -> [][]phi"), _FORMULA_MV),
    6: SchemaTemplate(6, parse("K(phi -> psi) -> (K phi -> K psi)"),
                      _TWO_MV),
    7: SchemaTemplate(7, parse("K phi -> phi"), _FORMULA_MV),
    8: SchemaTemplate(8, parse("K phi -> K K phi"), _FORMULA_MV),
    9: SchemaTemplate(9, parse("phi -> K L phi"), _FORMULA_MV),
    10: SchemaTemplate(10, parse("K []phi -> []K phi"), _FORMULA_MV),
    11: SchemaTemplate(11, parse("[]([]phi -> psi) | []([]psi -> phi)"),
                       _TWO_MV),
    12: SchemaTemplate(12, parse(
        "[]K phi & K([]phi -> []psi) -> []K([]phi -> []psi)"), _TWO_MV),
    # refinement-commutation schemes for lattice-shaped open families
    "S13": SchemaTemplate("S13", parse("<>[]phi -> []<>phi"), _FORMULA_MV),
    "S14": SchemaTemplate("S14", parse(
        "<>(K phi & psi) & L<>(K phi & chi) -> <>(K<>phi & <>psi & L<>chi)"),
        {"phi": "formula", "psi": "formula", "chi": "formula"}),
    "S15": SchemaTemplate("S15", parse("[]<>phi -> <>[]phi"), _FORMULA_MV),
    # converse of scheme 10; unsound, kept for counterexample searches
    "C10": SchemaTemplate("C10", parse("[]K phi -> K []phi"), _FORMULA_MV),
}

SYSTEMS: dict[str, tuple] = {
    "mp": tuple(range(1, 11)),
    "mpt": tuple(range(1, 13)),
    "mp*": tuple(range(1, 11)) + ("S13", "S14"),
}


def scheme(scheme_id) -> SchemaTemplate:
    try:
        return SCHEMES[scheme_id]
    except KeyError:
        raise SchemaError(f"unknown scheme {scheme_id!r}") from None


def instantiate(template, substitution: dict[str, Formula]) -> Formula:
    """Simultaneous substitution of metavariables in a scheme body.

    The bindings are checked first: every metavariable bound, atom-kinded
    ones to atoms, and no other name.  The instance is then built from the
    body the template compiled once (see ``SchemaTemplate``), one
    children-first walk over the connectives above the metavariables, so
    the substitution neither recurses nor revisits the fixed parts.
    """
    if not isinstance(template, SchemaTemplate):
        template = scheme(template)
    if template.body is None:
        raise SchemaError(
            f"scheme {template.scheme_id} has no template body; "
            "its instances are checked as propositional tautologies")
    for name, kind in template.metavars.items():
        if name not in substitution:
            raise SchemaError(f"missing binding for metavariable {name!r}")
        if kind == "atom" and substitution[name].kind != _ATOM:
            raise SchemaError(
                f"metavariable {name!r} accepts atoms only, got "
                f"{render(substitution[name])!r}")
    for name in substitution:
        if name not in template.metavars:
            raise SchemaError(f"unknown metavariable {name!r} for scheme "
                              f"{template.scheme_id}")

    # rebuild the connectives above the metavariables from the compiled
    # body, looking each node up in the intern table as ``Formula`` does
    cells = template._cells.copy()
    for i, name in template._binds:
        cells[i] = substitution[name]
    interned, blank = Formula._interned, id(None)
    for i, kind, left, right in template._steps:
        a = cells[left]
        b = None if right is None else cells[right]
        node = interned.get((kind, None, id(a), blank if b is None else id(b)))
        cells[i] = node if node is not None else Formula(kind, left=a, right=b)
    return cells[-1]
