"""Hilbert-style proof checking and the exhaustive soundness harness.

A proof is a list of lines, each justified as an explicit axiom-scheme
instance, modus ponens over two earlier lines, or necessitation of an
earlier line.  The checker is a syntactic-equality verifier: no scheme
matching is attempted, the substitution must be spelled out.  Scheme 1
(all propositional tautologies) is decided over the boolean skeleton of
the stated formula, with modal subtrees read as opaque letters.

The soundness harness grinds every open family over small point sets,
every valuation, and every scheme instance from a bounded formula pool,
and reports any falsified instance with a full witness.
"""

from __future__ import annotations

from bisect import bisect_right

from .decide import SearchError, _family_spaces, formula_pool
from .formula import (BOT, TOP, Formula, SchemaError, SchemaTemplate, SYSTEMS,
                      SCHEMES, box, instantiate, know, parse, render, scheme,
                      subformulas)
from .model import MaskContext, Model, _read_json, model_to_dict

__all__ = [
    "ProofError", "ProofLine", "Proof", "CheckOutcome", "check_proof",
    "is_tautology", "proof_from_dict", "proof_to_dict", "load_proof",
    "Violation", "SoundnessReport", "soundness_suite",
]


class ProofError(ValueError):
    """Malformed proof file (not a judgment about validity)."""


class ProofLine:
    __slots__ = ("formula", "justification")

    def __init__(self, formula: Formula, justification: tuple):
        self.formula = formula
        self.justification = justification

    def __repr__(self):
        return f"ProofLine({render(self.formula)!r}, {self.justification!r})"


class Proof:
    def __init__(self, lines):
        self.lines = list(lines)
        if not self.lines:
            raise ProofError("a proof needs at least one line")

    @property
    def conclusion(self) -> Formula:
        return self.lines[-1].formula

    def __len__(self):
        return len(self.lines)


class CheckOutcome:
    """Accepted, or rejected at a 1-based line with a reason."""

    def __init__(self, accepted: bool, line=None, reason=None, conclusion=None):
        self.accepted = accepted
        self.line = line
        self.reason = reason
        self.conclusion = conclusion

    def __repr__(self):
        if self.accepted:
            return f"CheckOutcome(accepted, {render(self.conclusion)!r})"
        return f"CheckOutcome(rejected at line {self.line}: {self.reason})"

    def to_dict(self):
        out = {"accepted": self.accepted}
        if self.accepted:
            out["conclusion"] = render(self.conclusion)
        else:
            out["line"] = self.line
            out["reason"] = self.reason
        return out


_MAX_SKELETON_VARS = 20


def is_tautology(f: Formula) -> bool:
    """Truth-table decision over the boolean skeleton of ``f``.

    Atoms and modal subtrees are opaque propositional letters; repeated
    subtrees share a letter (formulas are hash-consed).  The table is
    bit-sliced: bit b of a value is its truth under assignment b, in
    which letter i is bit i of b, so one pass evaluates every row.
    """
    # the skeleton's connective nodes children first, and its letters;
    # a node stays on the stack until its children are done
    post, letters, done, todo = [], {}, set(), [f]
    while todo:
        g = todo[-1]
        if g.kind in ("not", "and"):
            if g.left not in done:
                todo.append(g.left)
                continue
            if g.right is not None and g.right not in done:
                todo.append(g.right)
                continue
            if g not in done:
                post.append(g)
        elif g.kind not in ("top", "bot"):
            letters.setdefault(g, len(letters))
        todo.pop()
        done.add(g)
    if len(letters) > _MAX_SKELETON_VARS:
        raise ProofError("boolean skeleton too large to decide by truth table")
    # each letter doubles the table: the rows so far, then them again
    # with the new letter true
    column, rows = [], 1
    for _ in letters:
        column = [c | c << rows for c in column]
        column.append(((1 << rows) - 1) << rows)
        rows *= 2
    full = (1 << rows) - 1
    value = {g: column[i] for g, i in letters.items()}
    value[TOP], value[BOT] = full, 0
    for g in post:
        if g.kind == "not":
            value[g] = full & ~value[g.left]
        else:
            value[g] = value[g.left] & value[g.right]
    return value[f] == full


def _is_implication(candidate: Formula, antecedent: Formula,
                    consequent: Formula) -> bool:
    # desugared implication: ~(antecedent & ~consequent)
    return (candidate.kind == "not"
            and candidate.left.kind == "and"
            and candidate.left.left is antecedent
            and candidate.left.right.kind == "not"
            and candidate.left.right.left is consequent)


def check_proof(proof: Proof, system: str = "mpt") -> CheckOutcome:
    """Verify every line; reject at the first line that fails."""
    try:
        allowed = set(SYSTEMS[system])
    except KeyError:
        raise ProofError(f"unknown system {system!r}; "
                         f"one of {sorted(SYSTEMS)}") from None

    for number, line in enumerate(proof.lines, start=1):
        just = line.justification
        kind = just[0]

        def reject(reason):
            return CheckOutcome(False, number, reason)

        if kind == "axiom":
            scheme_id, substitution = just[1], just[2]
            if scheme_id not in SCHEMES:
                return reject(f"unknown scheme {scheme_id!r}")
            if scheme_id not in allowed:
                return reject(f"scheme {scheme_id} is not part of system "
                              f"{system}")
            if scheme_id == 1:
                if not is_tautology(line.formula):
                    return reject("not a propositional tautology")
            else:
                try:
                    instance = instantiate(scheme_id, substitution)
                except SchemaError as exc:
                    return reject(str(exc))
                if instance is not line.formula:
                    return reject(f"formula is not the stated instance of "
                                  f"scheme {scheme_id}")
        elif kind in ("mp", "neck", "necbox"):
            refs = just[1:]
            for r in refs:
                if not (1 <= r < number):
                    return reject(f"reference to line {r} is out of range")
            if kind == "mp":
                i, j = refs
                prem = proof.lines[i - 1].formula
                imp = proof.lines[j - 1].formula
                if not _is_implication(imp, prem, line.formula):
                    return reject(f"line {j} is not the implication from "
                                  f"line {i} to this formula")
            elif kind == "neck":
                if know(proof.lines[refs[0] - 1].formula) is not line.formula:
                    return reject("necessitation mismatch")
            else:
                if box(proof.lines[refs[0] - 1].formula) is not line.formula:
                    return reject("necessitation mismatch")
        else:
            return reject(f"unknown justification {kind!r}")

    return CheckOutcome(True, conclusion=proof.conclusion)


# ---------------------------------------------------------------------------
# proof files

def _parse_scheme_id(raw):
    if type(raw) is int:        # a JSON integer; true/false are not ids
        return raw
    if isinstance(raw, str) and raw.upper() in SCHEMES:
        return raw.upper()
    if isinstance(raw, str) and raw.isascii() and raw.isdigit():
        return int(raw)
    raise ProofError(f"unknown scheme id {raw!r}")


def _line_refs(k: int, refs, count: int) -> list:
    """``refs`` if it is a list of ``count`` line numbers (JSON integers)."""
    if (isinstance(refs, list) and len(refs) == count
            and all(type(i) is int for i in refs)):
        return refs
    raise ProofError(f"line {k}: expected {count} line number(s), got {refs!r}")


def proof_from_dict(data: dict) -> Proof:
    raw_lines = data.get("lines") if isinstance(data, dict) else None
    if not isinstance(raw_lines, list):
        raise ProofError("proof file needs a lines list")
    lines = []
    for k, entry in enumerate(raw_lines, start=1):
        try:
            text = entry["formula"]
            by = entry["by"]
        except (TypeError, KeyError):
            raise ProofError(f"line {k}: needs formula and by") from None
        if not isinstance(text, str) or not isinstance(by, dict):
            raise ProofError(f"line {k}: formula must be a string, by an object")
        formula = parse(text)
        if "axiom" in by:
            subst = by.get("subst", {})
            if not isinstance(subst, dict) or not all(
                    isinstance(v, str) for v in subst.values()):
                raise ProofError(f"line {k}: subst must map names to formulas")
            substitution = {name: parse(value) for name, value in subst.items()}
            just = ("axiom", _parse_scheme_id(by["axiom"]), substitution)
        elif "mp" in by:
            just = ("mp", *_line_refs(k, by["mp"], 2))
        elif "neck" in by:
            just = ("neck", *_line_refs(k, [by["neck"]], 1))
        elif "necbox" in by:
            just = ("necbox", *_line_refs(k, [by["necbox"]], 1))
        else:
            raise ProofError(f"line {k}: unknown justification {by!r}")
        lines.append(ProofLine(formula, just))
    return Proof(lines)


def proof_to_dict(proof: Proof) -> dict:
    lines = []
    for line in proof.lines:
        just = line.justification
        if just[0] == "axiom":
            by = {"axiom": just[1],
                  "subst": {k: render(v) for k, v in sorted(just[2].items())}}
        elif just[0] == "mp":
            by = {"mp": [just[1], just[2]]}
        else:
            by = {just[0]: just[1]}
        lines.append({"formula": render(line.formula), "by": by})
    return {"lines": lines}


def load_proof(path) -> Proof:
    return proof_from_dict(_read_json(path, ProofError))


# ---------------------------------------------------------------------------
# soundness harness

TAUTOLOGY_REPS = (
    SchemaTemplate("1a", parse("phi -> phi"), {"phi": "formula"}),
    SchemaTemplate("1b", parse("phi -> (psi -> phi)"),
                   {"phi": "formula", "psi": "formula"}),
    SchemaTemplate("1c", parse("phi & psi -> phi"),
                   {"phi": "formula", "psi": "formula"}),
    SchemaTemplate("1d", parse("~~phi -> phi"), {"phi": "formula"}),
    SchemaTemplate("1e", parse("phi -> phi | psi"),
                   {"phi": "formula", "psi": "formula"}),
    SchemaTemplate("1f", parse("false -> phi"), {"phi": "formula"}),
)


class Violation:
    """A scheme instance falsified at ``(point, open_name)`` in ``model``.

    ``number`` is the model's 1-based place in ``enumerate_spaces`` order
    for the run's configuration; it tells apart lines that would otherwise
    read the same, and stays off ``to_dict``.
    """

    __slots__ = ("label", "instance", "model", "point", "open_name", "number")

    def __init__(self, label, instance, model, point, open_name, number):
        self.label = label
        self.instance = instance
        self.model = model
        self.point = point
        self.open_name = open_name
        self.number = number

    def __repr__(self):
        return (f"Violation({self.label} as {render(self.instance)!r} "
                f"at ({self.point}, {self.open_name}) in model {self.number})")

    def to_dict(self):
        return {"scheme": self.label, "instance": render(self.instance),
                "model": model_to_dict(self.model),
                "point": self.point, "open": self.open_name}


class SoundnessReport:
    def __init__(self, violations, models_checked, instances, config):
        self.violations = violations
        self.models_checked = models_checked
        self.instances = instances
        self.config = config

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self):
        return {"violations": [v.to_dict() for v in self.violations],
                "models_checked": self.models_checked,
                "instances": self.instances,
                "config": self.config}


# Scheme instances a soundness run may build.  The pool and the instances
# grow doubly exponentially with the depth, so a run is sized before any
# of them is built.  This admits schemes 1-12 at depth 2 over two atoms
# (802,732 instances), not at depth 3 over one.
INSTANCE_BUDGET = 2_000_000


def _instance_bound(templates, n_atoms, depth, include_constants):
    """An upper bound on the instances of ``templates`` over the pool, or
    None once the pool alone is bound to pass ``INSTANCE_BUDGET``.

    A pool layer adds at most five unary formulas and one conjunction per
    pair, so |P(d+1)| <= 6|P(d)| + |P(d)|^2, and a template has at most
    |P| choices per metavariable.
    """
    pool = n_atoms + 2 * include_constants
    for _ in range(depth if pool else 0):     # an empty pool stays empty
        pool = 6 * pool + pool * pool
        if pool > INSTANCE_BUDGET:
            return None
    return max(pool, sum(pool ** len(t.metavars) for t in templates))


def _instances(schemes, atoms, depth, include_constants):
    """Each distinct scheme instance over the pool, in order of first
    appearance, as ``(instance, scheme id, metavariable names, their
    formulas)``; ``_label`` renders the last three.  A request whose
    ``_instance_bound`` passes ``INSTANCE_BUDGET`` is refused before the
    pool is built."""
    templates = []
    for sid in schemes:
        if sid == 1:
            templates += TAUTOLOGY_REPS
        else:
            templates.append(sid if isinstance(sid, SchemaTemplate)
                             else scheme(sid))
    size = _instance_bound(templates, len(atoms), depth, include_constants)
    if size is None or size > INSTANCE_BUDGET:
        amount = (f"more than {INSTANCE_BUDGET:,}" if size is None
                  else f"up to {size:,}")
        raise SearchError(f"{amount} scheme instances at depth {depth} over "
                          f"{len(atoms)} atom{'s' * (len(atoms) != 1)} "
                          f"exceed the budget of {INSTANCE_BUDGET:,}: "
                          "lower --depth or --atoms")
    pool = formula_pool(atoms, depth, include_constants)
    out = []
    seen = set()

    def add(f, *source):
        if id(f) not in seen:
            seen.add(id(f))
            out.append((f, *source))

    for template in templates:
        names = sorted(template.metavars)
        kinds = [template.metavars[n] for n in names]
        choice_lists = [
            [f for f in pool if f.kind == "atom"] if kind == "atom"
            else pool
            for kind in kinds]
        stack = [()]
        for choices in choice_lists:
            stack = [got + (c,) for got in stack for c in choices]
        for combo in stack:
            substitution = dict(zip(names, combo))
            add(instantiate(template, substitution), template.scheme_id,
                names, combo)
    return out


def _label(scheme_id, names, combo) -> str:
    """An instance's name, for example ``scheme 3 {phi: A, psi: K B}``."""
    return (f"scheme {scheme_id} "
            + "{" + ", ".join(f"{n}: {render(v)}"
                              for n, v in zip(names, combo)) + "}")


# Bits one context may hold across its lanes.  The lanes of a run's
# families are cut into blocks of this many bits, so truth sets stay small
# whatever the number of atoms and points.
LANE_BLOCK_BITS = 1024


def _packed_valuations(n_atoms: int, n_points: int, width: int) -> list:
    """Each atom's mask under every valuation of ``n_points`` points.

    Valuation k, numbered as ``_valuation_masks`` numbers it, is lane k,
    bits ``k * width`` on, of each atom's int.  Atom j's mask stays put
    for ``run`` valuations at a time and steps through every mask, so
    its int repeats one period of ``run << n_points`` lanes.
    """
    ones = (1 << width) - 1
    out = []
    for j in range(n_atoms):
        run = 1 << n_points * (n_atoms - 1 - j)
        bits = run * width
        spread = ((1 << bits) - 1) // ones      # bit 0 of each of run lanes
        period = 0
        for m in range(1 << n_points):
            period |= m * spread << m * bits
        span = bits << n_points
        repeats = 1 << n_points * j
        out.append(period * (((1 << span * repeats) - 1) // ((1 << span) - 1)))
    return out


def soundness_suite(max_points: int = 3, schemes=tuple(range(1, 13)),
                    atoms=("A", "B"), depth: int = 1,
                    treelike: bool = True, max_opens=None,
                    include_constants: bool = False) -> SoundnessReport:
    """Check every scheme instance against every enumerated model.

    Enumerates all open families over point sets up to ``max_points``
    (canonically deduplicated), all valuations of ``atoms`` over them,
    and all instances of the requested schemes over the depth-bounded
    pool.  The models are those of ``enumerate_spaces``, in its order, but
    the instances are not evaluated model by model.  Every (family,
    valuation) pair of the run is one lane, in that order, whatever the
    family's point count, and the lanes are cut into blocks of
    ``LANE_BLOCK_BITS`` bits, a family's lanes straddling two blocks where
    the cut falls inside them.  A block's lanes are as wide as its widest
    family, a narrower family filling their low bits.  A block's families
    are the runs of one stacked ``MaskContext``, and the instances'
    subformulas, listed once children first, are filled in one bottom-up
    pass per block.  Only treelike families share a block (see
    ``MaskContext``): any other family's lanes get blocks of their own.
    Each atom's masks under every valuation of a point count are packed
    once, and a run's valuations are cut out of them.  A model is built
    only for a lane that fails, from its atom masks alone, which it keeps
    (its point sets wait until a report reads ``valuation``), and an
    instance's label only when it fails.  Violations are ordered by model, then by
    instance, each at its first failing open, in the family's order, and
    lowest point.
    """
    instances = _instances(schemes, atoms, depth, include_constants)
    if not instances:
        raise SearchError("no scheme instance to check: give at least one "
                          "scheme and one atom")
    roots = [inst for inst, *_ in instances]
    post = subformulas(*roots)
    atoms = sorted(atoms)
    violations = []
    labels = {}     # instance index -> its label
    packed = {}     # (point count, lane width) -> ``_packed_valuations``

    def check(block):
        """Evaluate one block of ``(space, first valuation, lanes, first
        model number)`` runs and add its violations, in model order."""
        n = max(len(space.points) for space, *_ in block)
        vals = [0] * len(atoms)
        starts, shift = [], 0
        for space, lo, lanes, _ in block:
            key = (len(space.points), n)
            if key not in packed:
                packed[key] = _packed_valuations(len(atoms), *key)
            cut = (1 << lanes * n) - 1
            for j, v in enumerate(packed[key]):
                vals[j] |= (v >> lo * n & cut) << shift * n
            starts.append(shift)
            shift += lanes
        ctx = MaskContext([(space, lanes) for space, _, lanes, _ in block],
                          zip(atoms, vals))
        lost = [(lane, i, bit, slot)
                for i, fails in enumerate(ctx.first_failure(post, roots))
                for lane, bit, slot in fails]
        lost.sort()
        last = None
        for lane, i, bit, slot in lost:
            if lane != last:
                # lanes ascend, so a failing lane's run is found once
                last, r = lane, bisect_right(starts, lane) - 1
                space, _, _, first = block[r]
                m = len(space.points)
                masks = {a: v >> lane * n & (1 << m) - 1
                         for a, v in zip(atoms, vals)}
                model = Model._from_masks(space, masks)
                number = first + lane - starts[r] + 1
            label = labels.get(i)
            if label is None:
                label = labels[i] = _label(*instances[i][1:])
            violations.append(Violation(label, roots[i], model,
                                        space.points[bit], space.names[slot],
                                        number))

    # point counts ascend, so a block's lanes are as wide as its last
    # family's points, and a wider family shrinks the room left in it;
    # blocks follow the models' order
    models = 0
    block, used = [], 0
    for space in _family_spaces(max_points, max_opens, treelike):
        n = len(space.points)
        total = 1 << n * len(atoms)
        per_block = max(1, LANE_BLOCK_BITS // n)
        alone = not space.is_treelike()
        if block and (alone or used >= per_block):
            check(block)
            block, used = [], 0
        lo = 0
        while lo < total:
            lanes = min(per_block - used, total - lo)
            block.append((space, lo, lanes, models + lo))
            lo += lanes
            used += lanes
            if used == per_block or alone and lo == total:
                check(block)
                block, used = [], 0
        models += total
    if block:
        check(block)
    config = {"max_points": max_points,
              "schemes": [getattr(s, "scheme_id", s) for s in schemes],
              "atoms": atoms, "depth": depth,
              "treelike": treelike, "max_opens": max_opens}
    return SoundnessReport(violations, models, len(instances), config)
