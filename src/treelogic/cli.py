"""Batch command-line surface.

Exit codes are uniform across commands: 0 for success / a true answer,
1 for a false answer, a rejected proof or a found counterexample,
2 for usage or file-format problems (an error of one of the package's
own classes, or an unreadable input file), and 3 for an internal error
(any other exception, such as a bare ``ValueError`` or an
``AssertionError`` from a bug), so that a crash never reads as a false
answer or as bad input.  A stdout closed by its reader ends the command
with 141 (128 + SIGPIPE) and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import decide, kripke, partition, proofs
from .formula import (RESERVED, ParseError, SchemaError, ast_dump, parse,
                      render)
from .model import (ModelError, build_question_tree, build_stream_space,
                    dump_model, load_model)


class UsageError(ValueError):
    """Command-line arguments that do not make a request."""


_FORMAT_ERRORS = (UsageError, ParseError, SchemaError, ModelError,
                  kripke.FrameError, proofs.ProofError,
                  partition.PartitionError, decide.SearchError)


def _read_formula(args) -> "Formula":
    if args.formula_file:
        with open(args.formula_file, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    else:
        text = args.formula
        if text is None:
            raise ParseError("no formula given", 1)
    return parse(text)


def _emit(data, as_json: bool, text: str):
    print(json.dumps(data, indent=2) if as_json else text)


def _add_formula_args(sub):
    sub.add_argument("formula", nargs="?", help="formula in concrete syntax")
    sub.add_argument("--formula-file", help="read the formula from a file")


def _add_json(sub):
    sub.add_argument("--json", action="store_true",
                     help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="treelogic",
        description="Model checking, proof checking and bounded decision "
                    "procedures for the bimodal logic of knowledge and "
                    "effort over treelike subset spaces.")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("parse", help="parse a formula and print it back")
    _add_formula_args(s)
    s.add_argument("--ast", action="store_true",
                   help="print the desugared tree instead")

    s = sub.add_parser("check", help="truth at one neighborhood")
    _add_formula_args(s)
    s.add_argument("--model", required=True)
    s.add_argument("--point", required=True)
    s.add_argument("--open", required=True, dest="open_name",
                   help="open name from the model file")
    s.add_argument("--strict-atoms", action="store_true",
                   help="error on atoms missing from the valuation")
    _add_json(s)

    s = sub.add_parser("valid-in-model", help="truth at every neighborhood")
    _add_formula_args(s)
    s.add_argument("--model", required=True)
    s.add_argument("--strict-atoms", action="store_true")
    _add_json(s)

    s = sub.add_parser("treelike-check",
                       help="are the opens pairwise nested or disjoint?")
    s.add_argument("--model", required=True)
    _add_json(s)

    s = sub.add_parser("partition",
                       help="stable partition table for a formula")
    _add_formula_args(s)
    s.add_argument("--model", required=True)
    _add_json(s)

    for name, help_text in (("filtrate", "collapse the open family"),
                            ("extract", "full finite-model extraction")):
        s = sub.add_parser(name, help=help_text)
        _add_formula_args(s)
        s.add_argument("--model", required=True)
        s.add_argument("-o", "--output", required=True,
                       help="write the output model JSON here")
        s.add_argument("--report", help="write the size report here")
        _add_json(s)

    for name, help_text in (("sat", "bounded satisfiability search"),
                            ("valid", "bounded countermodel search")):
        s = sub.add_parser(name, help=help_text)
        _add_formula_args(s)
        s.add_argument("--max-points", type=int)
        s.add_argument("--max-opens", type=int)
        s.add_argument("--use-bound", action="store_true",
                       help="decide exactly over treelike spaces (type "
                            "saturation after a small sweep)")
        s.add_argument("--all-spaces", action="store_true",
                       help="search arbitrary subset spaces, not only treelike")
        s.add_argument("-o", "--output",
                       help="write the witness/countermodel model JSON here")
        _add_json(s)

    s = sub.add_parser("prove", help="check a proof file")
    s.add_argument("--proof", required=True)
    s.add_argument("--system", default="mpt", choices=["mpt", "mp", "mp*"],
                   help="axiom system the proof may use")
    _add_json(s)

    s = sub.add_parser("soundness", help="exhaustive axiom-soundness run")
    s.add_argument("--max-points", type=int, default=3)
    s.add_argument("--max-opens", type=int)
    s.add_argument("--schemes", default="1-12",
                   help="comma list with ranges, e.g. 1-12 or 1-10,S13,C10")
    s.add_argument("--atoms", type=int, default=2,
                   help="number of atoms (A, B, ..., skipping K and L)")
    s.add_argument("--depth", type=int, default=1,
                   help="connective depth of the instantiation pool")
    s.add_argument("--all-spaces", action="store_true",
                   help="drop the treelike restriction")
    _add_json(s)

    s = sub.add_parser("unfold", help="frame to treelike model")
    s.add_argument("--frame", required=True)
    s.add_argument("--root", required=True)
    s.add_argument("-o", "--output", required=True)
    _add_json(s)

    s = sub.add_parser("build-oracle",
                       help="question-tree model from yes/no questions")
    s.add_argument("--points", required=True, help="comma-separated point ids")
    s.add_argument("--question", action="append", default=[],
                   metavar="NAME=P1,P2", help="question with its yes-set")
    s.add_argument("-o", "--output", required=True)
    _add_json(s)

    s = sub.add_parser("build-stream", help="binary-stream observation model")
    s.add_argument("--depth", type=int, required=True)
    s.add_argument("-o", "--output", required=True)
    _add_json(s)

    return p


def _is_number(token: str) -> bool:
    """ASCII digits only: ``int`` also reads other scripts' digits."""
    return token.isascii() and token.isdigit()


def _parse_schemes(listing: str):
    out = []
    for token in listing.split(","):
        token = token.strip()
        if not token:
            continue
        if "-" in token and not token.upper().startswith("S"):
            lo, hi = (end.strip() for end in token.split("-", 1))
            if not (_is_number(lo) and _is_number(hi)):
                raise UsageError(f"bad scheme range {token!r}")
            out.extend(range(int(lo), int(hi) + 1))
        elif _is_number(token):
            out.append(int(token))
        else:
            out.append(token.upper())
    return out


def _atom_names(count: int):
    """A, B, ... skipping the reserved K and L, then A1, B1, ..."""
    letters = [c for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ" if c not in RESERVED]
    names = []
    for i in range(count):
        name = letters[i % len(letters)]
        if i >= len(letters):
            name += str(i // len(letters))
        names.append(name)
    return names


def _cmd_parse(args) -> int:
    f = _read_formula(args)
    print(ast_dump(f) if args.ast else render(f))
    return 0


def _cmd_check(args) -> int:
    model = load_model(args.model)
    f = _read_formula(args)
    u = model.space.open_named(args.open_name)
    verdict = model.satisfies(args.point, u, f,
                              strict_atoms=args.strict_atoms)
    _emit({"holds": verdict, "point": args.point, "open": args.open_name},
          args.json, "true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_valid_in_model(args) -> int:
    model = load_model(args.model)
    f = _read_formula(args)
    verdict = model.is_valid(f, strict_atoms=args.strict_atoms)
    _emit({"valid": verdict}, args.json, "true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_treelike_check(args) -> int:
    model = load_model(args.model)
    verdict = model.space.is_treelike()
    _emit({"treelike": verdict}, args.json, "true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_partition(args) -> int:
    model = load_model(args.model)
    f = _read_formula(args)
    table = partition.build_stable_partitions(model, f)
    if args.json:
        data = {
            "formula": render(f),
            "family_sizes": table.family_sizes(),
            "members": [sorted(u) for u in table.members],
            "remainders": {",".join(sorted(u)) or "(empty)":
                           [sorted(v) for v in partition.ordered_family(
                               table.remainders[u])]
                           for u in table.members},
        }
        print(json.dumps(data, indent=2))
    else:
        print(f"family for {render(f)}: {len(table.members)} members")
        for u in table.members:
            rem = partition.ordered_family(table.remainders[u])
            print(f"  {{{', '.join(sorted(u))}}}: remainder "
                  f"{[sorted(v) for v in rem]}")
    return 0


def _cmd_filtrate(args) -> int:
    model = load_model(args.model)
    f = _read_formula(args)
    result = partition.filtrate(model, f)
    dump_model(result.output, args.output)
    return _finish_report(args, partition.size_report(result.table,
                                                      result.output))


def _cmd_extract(args) -> int:
    model = load_model(args.model)
    f = _read_formula(args)
    result = partition.extract_finite_model(model, f)
    dump_model(result.model, args.output)
    return _finish_report(args, result.report)


def _finish_report(args, report) -> int:
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    _emit(report, args.json,
          f"points: {report['output_points']}, opens: {report['output_opens']}")
    return 0


def _search_kwargs(args):
    if not args.use_bound and args.max_points is None:
        raise UsageError("give --max-points (and optionally --max-opens) "
                         "or --use-bound")
    return {"treelike": not args.all_spaces, "use_bound": args.use_bound,
            "max_points": args.max_points, "max_opens": args.max_opens}


def _cmd_sat(args) -> int:
    f = _read_formula(args)
    outcome = decide.satisfiable(f, **_search_kwargs(args))
    print(f"searched {outcome.searched}; {outcome.stats}", file=sys.stderr)
    _emit(outcome.to_dict(), args.json, outcome.verdict)
    if outcome.witness is not None and args.output:
        dump_model(outcome.witness[0], args.output)
    return {"sat": 0, "unsat_proved": 1, "unsat_within": 2}[outcome.verdict]


def _cmd_valid(args) -> int:
    f = _read_formula(args)
    outcome = decide.valid(f, **_search_kwargs(args))
    print(f"searched {outcome.outcome.searched}; {outcome.outcome.stats}",
          file=sys.stderr)
    _emit(outcome.to_dict(), args.json, outcome.verdict)
    if outcome.countermodel is not None and args.output:
        dump_model(outcome.countermodel[0], args.output)
    return {"valid": 0, "countermodel": 1, "inconclusive": 2}[outcome.verdict]


def _cmd_prove(args) -> int:
    proof = proofs.load_proof(args.proof)
    outcome = proofs.check_proof(proof, args.system)
    if args.json:
        print(json.dumps(outcome.to_dict(), indent=2))
    elif outcome.accepted:
        print(f"accepted: {render(outcome.conclusion)}")
    else:
        print(f"rejected at line {outcome.line}: {outcome.reason}")
    return 0 if outcome.accepted else 1


def _cmd_soundness(args) -> int:
    schemes = _parse_schemes(args.schemes)
    report = proofs.soundness_suite(
        max_points=args.max_points, schemes=schemes,
        atoms=tuple(_atom_names(args.atoms)), depth=args.depth,
        treelike=not args.all_spaces, max_opens=args.max_opens)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"{len(report.violations)} violations")
        for v in report.violations[:20]:
            print(f"  {v.label} as {render(v.instance)} "
                  f"fails at ({v.point}, {v.open_name}) in model {v.number}")
        if len(report.violations) > 20:
            print(f"  ... and {len(report.violations) - 20} more")
    return 0 if report.ok else 1


def _cmd_unfold(args) -> int:
    frame = kripke.load_frame(args.frame)
    result = kripke.unfold(frame, args.root)
    dump_model(result.model, args.output)
    opens = result.model.space.opens
    _emit({"points": len(result.model.space.points),
           "opens": sorted(map(len, opens), reverse=True)},
          args.json,
          f"points: {len(result.model.space.points)}, "
          f"open sizes: {sorted(map(len, opens), reverse=True)}")
    return 0


def _cmd_build_oracle(args) -> int:
    points = [p.strip() for p in args.points.split(",") if p.strip()]
    questions = []
    for q in args.question:
        if "=" not in q:
            raise UsageError(f"question {q!r} must look like NAME=p1,p2")
        name, members = q.split("=", 1)
        yes = [p.strip() for p in members.split(",") if p.strip()]
        questions.append((name.strip(), yes))
    model = build_question_tree(points, questions)
    dump_model(model, args.output)
    _emit_sizes(args, model)
    return 0


def _cmd_build_stream(args) -> int:
    model = build_stream_space(args.depth)
    dump_model(model, args.output)
    _emit_sizes(args, model)
    return 0


def _emit_sizes(args, model):
    _emit({"points": len(model.space.points),
           "opens": len(model.space.opens)},
          args.json,
          f"points: {len(model.space.points)}, opens: {len(model.space.opens)}")


_HANDLERS = {
    "parse": _cmd_parse,
    "check": _cmd_check,
    "valid-in-model": _cmd_valid_in_model,
    "treelike-check": _cmd_treelike_check,
    "partition": _cmd_partition,
    "filtrate": _cmd_filtrate,
    "extract": _cmd_extract,
    "sat": _cmd_sat,
    "valid": _cmd_valid,
    "prove": _cmd_prove,
    "soundness": _cmd_soundness,
    "unfold": _cmd_unfold,
    "build-oracle": _cmd_build_oracle,
    "build-stream": _cmd_build_stream,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()      # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone, as with ``| head``: stop quietly, as a filter
        # killed by SIGPIPE does, and leave nothing for the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _FORMAT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeError) as exc:    # an unreadable input file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:    # a bug or a resource limit, never "false"
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: internal: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
