"""Shared test utilities: independent references and corpus generators.

The references (``naive_*``) read each definition off public fields and
frozensets, so the package's code is held to code it does not share.
"""

import random
from pathlib import Path

from treelogic import (Formula, Model, SubsetSpace, atom, box,
                       build_question_tree, conj, diamond, disj, implies, know,
                       neg, parse, poss)

FIXTURES = Path(__file__).parent / "fixtures"


def naive_satisfies(model, x, u, f):
    """Word-for-word reading of the satisfaction clauses, no sharing.

    Kept deliberately separate from the package evaluators so frozen
    expectations rest on an independent code path.
    """
    kind = f.kind
    if kind == "atom":
        return x in model.valuation.get(f.name, frozenset())
    if kind == "top":
        return True
    if kind == "bot":
        return False
    if kind == "not":
        return not naive_satisfies(model, x, u, f.left)
    if kind == "and":
        return (naive_satisfies(model, x, u, f.left)
                and naive_satisfies(model, x, u, f.right))
    if kind == "know":
        return all(naive_satisfies(model, y, u, f.left) for y in u)
    if kind == "box":
        return all(naive_satisfies(model, x, v, f.left)
                   for v in model.space.opens if v <= u and x in v)
    raise AssertionError(f"unknown kind {kind}")


def naive_types(f):
    """Every type a node of a finite treelike space can have, for ``f``.

    Saturation with no pruning, read off the definition: a type is the
    set of the profiles (true subformulas of ``f``) of a node's points.
    A point's state at a node is its atoms and the [] subformulas true at
    it one node down (None for a private point, in no child).  A node's
    states are those of some private points and the seeds of some of its
    children's types, so every union of such generators is a node, and its
    profiles follow from the states alone: K psi holds iff psi holds at
    every state, []psi iff psi holds and the state has []psi below.  Types
    are added until no new one appears.  ``f`` is satisfiable on trees iff
    some profile of some type holds it.  It enumerates every union of
    generators, whose seeds grow with the atoms and the [] subformulas, so
    keep it to one or two atoms and a few [] (three atoms and five L
    conjuncts already take seconds).
    """
    closure = []

    def walk(g):
        if g not in closure:
            for child in (g.left, g.right):
                if child is not None:
                    walk(child)
            closure.append(g)

    walk(f)
    atoms = sorted({g.name for g in closure if g.kind == "atom"})

    def type_of(states):
        truth = [{} for _ in states]
        for g in closure:
            if g.kind == "know":
                holds = all(t[g.left] for t in truth)
            for t, (true_atoms, below) in zip(truth, states):
                if g.kind == "atom":
                    t[g] = g.name in true_atoms
                elif g.kind in ("top", "bot"):
                    t[g] = g.kind == "top"
                elif g.kind == "not":
                    t[g] = not t[g.left]
                elif g.kind == "and":
                    t[g] = t[g.left] and t[g.right]
                elif g.kind == "know":
                    t[g] = holds
                else:   # box
                    t[g] = t[g.left] and (below is None or g in below)
        return frozenset(frozenset(g for g in closure if t[g]) for t in truth)

    def seeds(type_):
        return frozenset((frozenset(g.name for g in p if g.kind == "atom"),
                          frozenset(g for g in p if g.kind == "box"))
                         for p in type_)

    privates = [frozenset({(frozenset(a for j, a in enumerate(atoms)
                                      if v >> j & 1), None)})
                for v in range(1 << len(atoms))]
    generators, todo = set(privates), list(privates)
    nodes, types = set(), set()
    while todo:
        # every union of generators is a node: extend the unions by one more
        g = todo.pop()
        new = ({g} | {u | g for u in nodes}) - nodes
        nodes |= new
        for states in new:
            type_ = type_of(list(states))
            if type_ not in types:
                types.add(type_)
                if seeds(type_) not in generators:
                    generators.add(seeds(type_))
                    todo.append(seeds(type_))
    return types


def naive_tree_sat(f):
    """``f`` holds somewhere in some finite treelike space (``naive_types``)."""
    return any(f in p for type_ in naive_types(f) for p in type_)


def naive_instantiate(body, substitution):
    """Plain recursive substitution of metavariables in a scheme body."""
    if body.kind == "atom" and body.name in substitution:
        return substitution[body.name]
    if body.left is None:
        return body
    left = naive_instantiate(body.left, substitution)
    if body.right is None:
        return Formula(body.kind, left=left)
    return Formula(body.kind, left=left,
                   right=naive_instantiate(body.right, substitution))


def naive_is_treelike(space):
    """Every pair of opens, read as frozensets, is nested or disjoint."""
    return all(u <= v or v <= u or not (u & v)
               for u in space.opens for v in space.opens)


def naive_children(space, u):
    """Maximal nonempty opens strictly inside ``u``, read pairwise."""
    below = [v for v in space.opens if v and v < u]
    return {v for v in below if not any(v < w for w in below)}


def naive_valid(model, f):
    return all(naive_satisfies(model, x, u, f)
               for u in model.space.opens for x in u)


def oracle_model():
    """Four worlds, two questions: the running example model."""
    points = ["q1", "q2", "q3", "q4"]
    opens = [frozenset(points), frozenset({"q1", "q2"}), frozenset({"q3", "q4"}),
             frozenset({"q3"}), frozenset({"q4"}), frozenset()]
    return Model(SubsetSpace(points, opens),
                 {"Q1": {"q1", "q2"}, "Q2": {"q1", "q2", "q3"}})


def random_treelike_model(rng, max_points=6, max_opens=10, atoms=("A", "B")):
    n = rng.randint(1, max_points)
    points = [f"x{i}" for i in range(1, n + 1)]
    opens = {frozenset(points)}
    for _ in range(rng.randint(0, max_opens + 2)):
        if len(opens) >= max_opens:
            break
        base = rng.choice(sorted(opens, key=sorted))
        sub = frozenset(rng.sample(sorted(base), rng.randint(0, len(base))))
        if all(sub <= v or v <= sub or not (sub & v) for v in opens):
            opens.add(sub)
    valuation = {a: frozenset(p for p in points if rng.random() < 0.5)
                 for a in atoms}
    return Model(SubsetSpace(points, opens), valuation)


def random_question_model(rng, max_points=8, max_questions=3,
                          atoms=("A", "B")):
    """A question tree over random yes-sets (empty cells kept as opens)."""
    points = [f"w{i}" for i in range(rng.randint(1, max_points))]
    questions = [(f"Q{j}", {p for p in points if rng.random() < 0.5})
                 for j in range(rng.randint(0, max_questions))]
    model = build_question_tree(points, questions)
    valuation = {a: frozenset(p for p in points if rng.random() < 0.5)
                 for a in atoms}
    return Model(model.space, {**model.valuation, **valuation})


_UNARY = [neg, box, know, diamond, poss]
_BINARY = [conj, disj, implies]


def random_formula(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.85:
            return atom(rng.choice(list(atoms)))
        return parse("true") if r < 0.93 else parse("false")
    if rng.random() < 0.55:
        return rng.choice(_UNARY)(random_formula(rng, atoms, depth - 1))
    op = rng.choice(_BINARY)
    return op(random_formula(rng, atoms, depth - 1),
              random_formula(rng, atoms, depth - 1))


def corpus(seed, count, max_points=6, max_opens=10, depth=3, atoms=("A", "B")):
    rng = random.Random(seed)
    for _ in range(count):
        yield (random_treelike_model(rng, max_points, max_opens, atoms),
               random_formula(rng, atoms, depth))


def same_model(m1, m2):
    """Extensional equality: points, open family, valuation (names ignored)."""
    return (m1.space.points == m2.space.points
            and set(m1.space.opens) == set(m2.space.opens)
            and m1.valuation == m2.valuation)


def naive_check_frame(frame):
    """The eight frame properties read as quantifiers over pair sets.

    Same keys, pass flags and first witnesses as
    ``check_frame(frame).to_dict()``: pairs are visited in sorted order,
    states in sorted order.
    """
    box, k = frame.box, frame.k
    sbox = sorted(box)
    succ = {s: sorted(t for a, t in box if a == s) for s in frame.states}
    cls = {s: sorted(t for a, t in k if a == s) for s in frame.states}

    def first(gen):
        return next(gen, None)

    k_witness = (first((s,) for s in frame.states if (s, s) not in k)
                 or first((a, b) for a, b in sorted(k) if (b, a) not in k)
                 or first((a, b, c) for a, b in sorted(k) for c in cls[b]
                          if (a, c) not in k))
    found = {
        "box_reflexive": first((s,) for s in frame.states if (s, s) not in box),
        "box_transitive": first((a, b, c) for a, b in sbox for c in succ[b]
                                if (a, c) not in box),
        "box_antisymmetric": first((a, b) for a, b in sbox
                                   if a != b and (b, a) in box),
        "box_connected": first((s, t, r) for s in frame.states
                               for t in succ[s] for r in succ[s]
                               if (t, r) not in box and (r, t) not in box),
        "k_equivalence": k_witness,
        "cross_property": first(
            (s, s2, t) for s, s2 in sbox for t in cls[s2]
            if not any((t2, t) in box for t2 in cls[s])),
        "box_k_identity": first((a, b) for a, b in sbox
                                if a != b and (a, b) in k),
        "atom_persistence": first(
            (a, b, atom) for a, b in sbox
            for atom, members in sorted(frame.valuation.items())
            if (a in members) != (b in members)),
    }
    return {name: {"passed": w is None, "witness": w}
            for name, w in found.items()}


def naive_box_successors(frame, s):
    """The states ``s`` refines into, read off the box pairs."""
    return frozenset(t for a, t in frame.box if a == s)


def naive_k_class(frame, s):
    """The states ``s`` relates to by k, read off the k pairs."""
    return frozenset(t for a, t in frame.k if a == s)


def naive_class_le(frame, c1, c2):
    """c1 sits below c2: some state of c2 refines into a state of c1."""
    return any((s2, s1) in frame.box for s1 in c1 for s2 in c2)


def naive_closure(members):
    """Smallest superset of ``members`` closed under pairwise intersection:
    add the intersections of every two sets until none is new."""
    closed = {frozenset(u) for u in members}
    while True:
        new = {u & v for u in closed for v in closed} - closed
        if not new:
            return frozenset(closed)
        closed |= new


def naive_remainder(model, family, u):
    """Opens below the member ``u`` of ``family`` that lie below no member
    not above ``u`` (members are point sets, not necessarily opens)."""
    family = {frozenset(o) for o in family}
    u = frozenset(u)
    if u not in family:
        raise ValueError("remainder expects a member of the family")
    return frozenset(v for v in model.space.opens if v <= u
                     and not any(v <= o for o in family if not u <= o))


def naive_is_stable(model, opens, f):
    """No point flips its verdict on ``f`` (``naive_satisfies``) between
    two of the given opens that hold it."""
    group = [frozenset(v) for v in opens]
    if not set(group) <= set(model.space.opens):
        raise ValueError("is_stable expects a set of opens of the model")
    truth = {v: {x for x in v if naive_satisfies(model, x, v, f)}
             for v in group}
    return all(truth[v] & w == truth[w] & v for v in group for w in group)


def random_raw_frame(rng, max_states=7, atoms=("P", "Q", "R")):
    """Random states, box pairs, k pairs and valuation.

    The k pairs are random in half the draws; in the other half they are
    every pair within the blocks of a random partition, so k is an
    equivalence while box stays raw.
    """
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in rng.sample(range(3 * max_states), n)]

    def pairs():
        return [(rng.choice(states), rng.choice(states))
                for _ in range(rng.randint(0, 2 * n))]

    if rng.random() < 0.5:
        k = pairs()
    else:
        block = {s: rng.randrange(n) for s in states}
        k = [(s, t) for s in states for t in states if block[s] == block[t]]
    valuation = {a: [s for s in states if rng.random() < 0.4]
                 for a in rng.sample(atoms, rng.randint(0, len(atoms)))}
    return states, pairs(), k, valuation
