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

import json
import time

from .decide import (SearchError, _family_spaces, _valuation,
                     _valuation_masks, formula_pool)
from .formula import (BOT, TOP, Formula, SchemaError, SchemaTemplate, SYSTEMS,
                      SCHEMES, box, instantiate, know, parse, render, scheme,
                      subformulas)
from .model import MaskContext, Model, model_to_dict

__all__ = [
    "ProofError", "ProofLine", "Proof", "CheckOutcome", "check_proof",
    "is_tautology", "proof_from_dict", "proof_to_dict", "load_proof",
    "Violation", "SoundnessReport", "soundness_suite", "TAUTOLOGY_REPS",
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
    if isinstance(raw, str) and raw.isdigit():
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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProofError(f"not valid JSON: {exc}") from None
    return proof_from_dict(data)


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
    __slots__ = ("label", "instance", "model", "point", "open_name")

    def __init__(self, label, instance, model, point, open_name):
        self.label = label
        self.instance = instance
        self.model = model
        self.point = point
        self.open_name = open_name

    def __repr__(self):
        return (f"Violation({self.label} as {render(self.instance)!r} "
                f"at ({self.point}, {self.open_name}))")

    def to_dict(self):
        return {"scheme": self.label, "instance": render(self.instance),
                "model": model_to_dict(self.model),
                "point": self.point, "open": self.open_name}


class SoundnessReport:
    def __init__(self, violations, models_checked, instances, config, seconds):
        self.violations = violations
        self.models_checked = models_checked
        self.instances = instances
        self.config = config
        self.seconds = seconds

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        return (f"{len(self.violations)} violations "
                f"({self.instances} instances x {self.models_checked} models, "
                f"{self.seconds:.1f}s)")

    def to_dict(self):
        # wall-clock time stays off the record: json output is meant to
        # be byte-identical across runs of the same configuration
        return {"violations": [v.to_dict() for v in self.violations],
                "models_checked": self.models_checked,
                "instances": self.instances,
                "config": self.config}


def _instances(schemes, atoms, depth, include_constants):
    pool = formula_pool(atoms, depth, include_constants)
    out = []
    seen = set()

    def add(label, f):
        if id(f) not in seen:
            seen.add(id(f))
            out.append((label, f))

    for sid in schemes:
        templates = []
        if sid == 1:
            templates = list(TAUTOLOGY_REPS)
        else:
            templates = [scheme(sid) if not isinstance(sid, SchemaTemplate)
                         else sid]
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
                label = (f"scheme {template.scheme_id} "
                         + "{" + ", ".join(f"{n}: {render(v)}"
                                           for n, v in zip(names, combo)) + "}")
                add(label, instantiate(template, substitution))
    return out


# Bits one context may hold across its lanes.  A family with more
# valuations than fit is checked block by block, so truth sets stay small
# whatever the number of atoms and points.
LANE_BLOCK_BITS = 1024


def soundness_suite(max_points: int = 3, schemes=tuple(range(1, 13)),
                    atoms=("A", "B"), depth: int = 1,
                    treelike: bool = True, max_opens=None,
                    include_constants: bool = False) -> SoundnessReport:
    """Check every scheme instance against every enumerated model.

    Enumerates all open families over point sets up to ``max_points``
    (canonically deduplicated), all valuations of ``atoms`` over them,
    and all instances of the requested schemes over the depth-bounded
    pool.  The models are those of ``enumerate_spaces``, in its order, but
    the instances are evaluated once per open family: the family's
    valuations are the lanes of one bit-sliced ``MaskContext``, and the
    instances' subformulas, listed once children first, are filled in
    one bottom-up pass per lane block.  A model is built only for a lane
    that fails.  Violations are ordered by model, then by instance, each
    at its first failing open and lowest point.
    """
    start = time.monotonic()
    instances = _instances(schemes, atoms, depth, include_constants)
    if not instances:
        raise SearchError("no scheme instance to check: give at least one "
                          "scheme and one atom")
    roots = [inst for _, inst in instances]
    post = subformulas(*roots)
    atoms = sorted(atoms)
    found = []
    models = 0
    for space in _family_spaces(max_points, max_opens, treelike):
        n = len(space.points)
        open_names = dict(zip(space.open_masks, space.names))
        total = 1 << n * len(atoms)
        per_block = max(1, LANE_BLOCK_BITS // n)
        for lo in range(0, total, per_block):
            lanes = min(per_block, total - lo)
            packed = [0] * len(atoms)
            for lane in range(lanes):
                for j, m in enumerate(_valuation_masks(lo + lane, len(atoms), n)):
                    packed[j] |= m << lane * n
            ctx = MaskContext(space, zip(atoms, packed), lanes)
            failed = {}     # lane -> its model, shared by its violations
            fails = ctx.first_failure(post, roots)
            for i_idx, ((label, inst), lost) in enumerate(zip(instances, fails)):
                for lane, bit, u in lost:
                    model = failed.get(lane)
                    if model is None:
                        model = failed[lane] = Model(
                            space, _valuation(space, atoms, lo + lane))
                    found.append((models + lo + lane, i_idx, Violation(
                        label, inst, model, space.points[bit],
                        open_names[u])))
        models += total
    found.sort(key=lambda t: (t[0], t[1]))
    violations = [v for _, _, v in found]
    config = {"max_points": max_points,
              "schemes": [getattr(s, "scheme_id", s) for s in schemes],
              "atoms": atoms, "depth": depth,
              "treelike": treelike, "max_opens": max_opens}
    return SoundnessReport(violations, models, len(instances), config,
                           time.monotonic() - start)
