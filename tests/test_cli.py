import argparse
import json
import random
import subprocess
import sys
import time

import pytest

from helpers import FIXTURES, oracle_model, same_model

from treelogic import cli, load_model, model_from_dict, parse, proofs
from treelogic.cli import main

ORACLE = str(FIXTURES / "fig_oracle.json")
FRAME = str(FIXTURES / "frame_two_level.json")
PROOF = str(FIXTURES / "proof_scheme10_from_scheme12.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_command(capsys):
    code, out, _ = run(capsys, "parse", "<>K Q1")
    assert code == 0 and out.strip() == "<>K Q1"
    code, out, _ = run(capsys, "parse", "--ast", "<>A")
    assert code == 0
    assert out.splitlines()[0] == "not"
    code, _, err = run(capsys, "parse", "A & & B")
    assert code == 2 and "error:" in err


def test_check_command(capsys):
    code, out, _ = run(capsys, "check", "--model", ORACLE, "--point", "q1",
                       "--open", "top", "<>K Q1")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "check", "--model", ORACLE, "--point", "q1",
                       "--open", "top", "K Q1")
    assert code == 1 and out.strip() == "false"
    code, out, _ = run(capsys, "check", "--json", "--model", ORACLE,
                       "--point", "q4", "--open", "top", "<>K ~Q2")
    assert code == 0 and json.loads(out)["holds"] is True
    code, _, err = run(capsys, "check", "--model", ORACLE, "--point", "q9",
                       "--open", "top", "A")
    assert code == 2
    # an unknown atom is rejected even where evaluation would not reach it
    for text in ("Mystery", "Q1 | Mystery", "false & Mystery"):
        code, out, err = run(capsys, "check", "--model", ORACLE, "--point",
                             "q1", "--open", "top", "--strict-atoms", text)
        assert code == 2 and out == ""
        assert err.strip() == "error: unknown atom 'Mystery'"


def test_valid_in_model_and_treelike(capsys):
    code, out, _ = run(capsys, "valid-in-model", "--model", ORACLE,
                       "Q1 -> []Q1")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "valid-in-model", "--model", ORACLE, "K Q1")
    assert code == 1 and out.strip() == "false"
    code, out, _ = run(capsys, "treelike-check", "--model", ORACLE)
    assert code == 0 and out.strip() == "true"


def test_partition_command(capsys):
    code, out, _ = run(capsys, "partition", "--model", ORACLE, "--json", "K Q1")
    assert code == 0
    data = json.loads(out)
    assert data["family_sizes"]["K Q1"] == 2
    assert sorted(map(tuple, data["members"])) == \
        [("q1", "q2"), ("q1", "q2", "q3", "q4")]


def test_filtrate_and_extract_commands(tmp_path, capsys):
    out_model = tmp_path / "out.json"
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "extract", "--model", ORACLE,
                       "-o", str(out_model), "--report", str(report),
                       "--json", "<>K Q1")
    assert code == 0
    data = json.loads(report.read_text())
    assert data["output_points"] == 2 and data["output_opens"] == 2
    assert data["bound_points"] == 512 and data["bound_opens"] == 8
    small = load_model(out_model)
    assert len(small.space.points) == 2

    code, _, _ = run(capsys, "filtrate", "--model", ORACLE,
                     "-o", str(out_model), "K Q1")
    assert code == 0
    filtered = load_model(out_model)
    assert len(filtered.space.opens) == 2


def test_sat_command(tmp_path, capsys):
    witness = tmp_path / "witness.json"
    code, out, err = run(capsys, "sat", "--use-bound", "-o", str(witness),
                         "L A & L ~A")
    assert code == 0 and out.strip() == "sat"
    model = load_model(witness)
    assert len(model.space.points) == 2
    assert "searched" in err

    code, out, _ = run(capsys, "sat", "--use-bound", "K A & ~A")
    assert code == 1 and out.strip() == "unsat_proved"
    # a budgeted sweep that finds nothing hands the formula to saturation
    code, out, err = run(capsys, "sat", "--max-points", "2", "K A & ~A")
    assert code == 1 and out.strip() == "unsat_proved"
    assert "'coverage': 'saturation'" in err
    code, _, err = run(capsys, "sat", "A")
    assert code == 2 and "error" in err


def test_valid_command(tmp_path, capsys):
    counter = tmp_path / "counter.json"
    code, out, _ = run(capsys, "valid", "--use-bound", "A -> K A",
                       "-o", str(counter))
    assert code == 1 and out.strip() == "countermodel"
    assert load_model(counter).space.points == ("p1", "p2")
    code, out, _ = run(capsys, "valid", "--use-bound",
                       "[](([]A -> B)) | []([]B -> A)")
    assert code == 0 and out.strip() == "valid"
    code, out, _ = run(capsys, "valid", "--max-points", "2", "K A -> []K A")
    assert code == 0 and out.strip() == "valid"
    # the countermodel needs two points: none within the budget, so no
    # answer, and saturation says why
    code, out, err = run(capsys, "valid", "--max-points", "1", "A -> K A")
    assert code == 2 and out.strip() == "inconclusive"
    assert "'note': 'satisfiable beyond the budget'" in err
    code, out, err = run(capsys, "valid", "--max-points", "1",
                         "--all-spaces", "A -> K A")
    assert code == 2 and out.strip() == "inconclusive"
    assert "'coverage': 'plain'" in err


def test_prove_command(capsys):
    code, out, _ = run(capsys, "prove", "--proof", PROOF)
    assert code == 0 and out.startswith("accepted:")
    code, out, _ = run(capsys, "prove", "--proof", PROOF, "--system", "mp")
    assert code == 1 and "rejected at line 8" in out
    code, out, _ = run(capsys, "prove", "--proof", PROOF, "--json")
    assert code == 0 and json.loads(out)["accepted"] is True


def test_soundness_command(capsys):
    code, out, _ = run(capsys, "soundness", "--max-points", "2",
                       "--schemes", "1-12", "--atoms", "1", "--depth", "1")
    assert code == 0 and out.strip() == "0 violations"
    code, out, _ = run(capsys, "soundness", "--max-points", "3",
                       "--schemes", "C10", "--atoms", "1", "--depth", "1")
    assert code == 1 and "violations" in out
    code, out, _ = run(capsys, "soundness", "--max-points", "3",
                       "--schemes", "S13", "--atoms", "1", "--depth", "1",
                       "--all-spaces", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["violations"]
    assert not model_from_dict(
        data["violations"][0]["model"]).space.is_treelike()


def test_unfold_command(tmp_path, capsys):
    out_path = tmp_path / "unfolded.json"
    code, out, _ = run(capsys, "unfold", "--frame", FRAME, "--root", "r1",
                       "-o", str(out_path))
    assert code == 0 and "open sizes: [6, 3, 2, 2]" in out
    golden = load_model(FIXTURES / "frame_two_level_unfolded.json")
    assert same_model(load_model(out_path), golden)
    code, _, err = run(capsys, "unfold", "--frame", FRAME, "--root", "s1",
                       "-o", str(out_path))
    assert code == 2 and "not generated" in err


def test_unfold_refuses_a_frame_with_a_reserved_atom(tmp_path, capsys):
    src = tmp_path / "frame.json"
    src.write_text(json.dumps({"states": ["a"], "valuation": {"K": ["a"]}}))
    code, out, err = run(capsys, "unfold", "--frame", str(src), "--root", "a",
                         "-o", str(tmp_path / "out.json"))
    assert code == 2 and out == ""
    assert "invalid atom name in valuation: 'K'" in err
    assert not (tmp_path / "out.json").exists()


def test_build_commands(tmp_path, capsys):
    oracle_path = tmp_path / "oracle.json"
    code, out, _ = run(capsys, "build-oracle",
                       "--points", "q1,q2,q3,q4",
                       "--question", "Q1=q1,q2",
                       "--question", "Q2=q1,q2,q3",
                       "-o", str(oracle_path))
    assert code == 0
    assert same_model(load_model(oracle_path), oracle_model())

    stream_path = tmp_path / "stream.json"
    code, out, _ = run(capsys, "build-stream", "--depth", "2",
                       "-o", str(stream_path))
    assert code == 0
    assert len(load_model(stream_path).space.opens) == 7
    code, _, err = run(capsys, "build-stream", "--depth", "20",
                       "-o", str(stream_path))
    assert code == 2 and "depth 20 exceeds the limit of 12" in err


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    # the parser is built once per process, and a call leaves nothing in
    # it for the next: each file holds its own questions only, and a
    # usage error does not stop the next command from answering
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    cli._parser.cache_clear()
    questions = {"first.json": ["Q1=q1,q2", "Q2=q2,q3"],
                 "second.json": ["Q3=q4"]}
    for name, asked in questions.items():
        argv = ["build-oracle", "--points", "q1,q2,q3,q4",
                "-o", str(tmp_path / name)]
        for q in asked:
            argv += ["--question", q]
        assert run(capsys, *argv)[0] == 0
    for name, asked in questions.items():
        valuation = load_model(tmp_path / name).valuation
        assert sorted(valuation) == [q.split("=")[0] for q in asked]
    with pytest.raises(SystemExit) as exit_info:
        main(["sat", "--max-points", "x", "A"])
    assert exit_info.value.code == 2
    capsys.readouterr()
    assert run(capsys, "parse", "A&B") == (0, "A & B\n", "")
    assert run(capsys, "build-oracle", "--points", "p", "-o",
               str(tmp_path / "none.json"))[0] == 0
    assert load_model(tmp_path / "none.json").valuation == {}
    assert built == [1]
    monkeypatch.undo()
    assert isinstance(cli.build_parser(), argparse.ArgumentParser)


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sat", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--max-points", "--max-opens", "--use-bound", "--all-spaces",
                 "--formula-file", "--json"):
        assert flag in out
    with pytest.raises(SystemExit):
        main(["soundness", "--help"])
    out = capsys.readouterr().out
    for flag in ("--schemes", "--atoms", "--depth", "--all-spaces"):
        assert flag in out


def test_outputs_are_reproducible(capsys):
    first = run(capsys, "soundness", "--max-points", "2",
                "--schemes", "7-9", "--atoms", "1", "--depth", "1", "--json")
    second = run(capsys, "soundness", "--max-points", "2",
                 "--schemes", "7-9", "--atoms", "1", "--depth", "1", "--json")
    assert first[1] == second[1]        # byte-identical stdout
    third = run(capsys, "sat", "--use-bound", "--json", "K A & ~A")
    fourth = run(capsys, "sat", "--use-bound", "--json", "K A & ~A")
    assert third[1] == fourth[1]


@pytest.mark.parametrize("exc, line", [
    (RuntimeError("boom\non two lines"),
     "error: internal: RuntimeError: boom on two lines"),
    (RecursionError("too deep"), "error: internal: RecursionError: too deep"),
    (ValueError("bug"), "error: internal: ValueError: bug"),
])
def test_unexpected_exception_exits_3(capsys, monkeypatch, exc, line):
    # an internal failure must not exit 1, which reads as "false"
    def broken(args):
        raise exc
    monkeypatch.setitem(cli._HANDLERS, "parse", broken)
    code, out, err = run(capsys, "parse", "A")
    assert code == 3 and out == ""
    assert err.splitlines() == [line]


@pytest.mark.parametrize("argv, message", [
    (["sat", "A"], "give --max-points"),
    (["sat", "--max-points", "0", "A"], "at least one point"),
    (["valid", "--use-bound", "--all-spaces", "A"], "treelike"),
    (["build-oracle", "--points", "p,q", "--question", "Q", "-o", "x.json"],
     "must look like NAME=p1,p2"),
    (["soundness", "--max-points", "0"], "at least one point"),
    (["soundness", "--schemes", "1-x"], "bad scheme range"),
    # a request with nothing to check must not read as a passed check
    (["soundness", "--atoms", "0", "--max-points", "1"], "no scheme instance"),
    (["soundness", "--schemes", ","], "no scheme instance"),
    (["soundness", "--depth", "-1"], "depth must be at least 0"),
    (["soundness", "--max-opens", "0"], "at least one point and open"),
    (["sat", "--max-points", "2", "--max-opens", "0", "A"],
     "at least one point and open"),
    # nesting past the parser's recursion is bad input, not a crash
    (["parse", "(" * 900 + "A" + ")" * 900], "formula nests too deeply"),
    (["parse", "~" * 1000 + "A"], "formula nests too deeply"),
    # the exact decision takes no budget: one given must not be dropped
    (["sat", "--use-bound", "--max-opens", "0", "A"], "takes no max_points"),
    (["sat", "--use-bound", "--max-points", "2", "A"], "takes no max_points"),
    (["valid", "--use-bound", "--max-points", "3", "--max-opens", "3", "A"],
     "takes no max_points"),
    # scheme ids are ASCII digits: int() reads other scripts' digits too
    (["soundness", "--schemes", "\u00b2"], "unknown scheme"),
    (["soundness", "--schemes", "\u0661"], "unknown scheme"),
    (["soundness", "--schemes", "1-\u0663"], "bad scheme range"),
    # sized before any family is listed: 10,037,248 labelled trees
    (["sat", "--max-points", "7", "A & ~A"], "exceed the budget of 400,000"),
])
def test_bad_input_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_build_oracle_rejects_repeated_points(capsys, tmp_path):
    target = tmp_path / "m.json"
    code, out, err = run(capsys, "build-oracle", "--points", "a,b,a",
                         "--question", "Q=a", "-o", str(target))
    assert (code, out, err) == (2, "", "error: duplicate point ids\n")
    assert not target.exists()


def test_parse_prints_deep_formulas(capsys):
    for op in ("~", "[]", "K ", "<>", "L "):
        text = op * 900 + "A"
        code, out, err = run(capsys, "parse", text)
        assert code == 0 and err == ""
        assert out.strip() == text
        code, out, err = run(capsys, "parse", "--ast", text)
        assert code == 0 and err == ""
        assert out.rstrip().endswith("atom A")


@pytest.mark.parametrize("argv, want", [
    # <> desugars to ~[]~, so these nest 990 and 1,200 levels deep
    (["check", "--model", ORACLE, "--point", "q1", "--open", "top",
      "<>" * 330 + "Q1"], 0),
    (["sat", "--max-points", "1", "<>" * 400 + "A"], 0),
    # the budget holds no witness, and saturation proves there is none
    (["sat", "--max-points", "1", "<>" * 400 + "false"], 1),
    (["sat", "--max-points", "4", "<>" * 400 + "false"], 1),
    (["extract", "--model", ORACLE, "-o", "OUT", "<>" * 400 + "Q1"], 0),
    (["filtrate", "--model", ORACLE, "-o", "OUT", "<>" * 400 + "Q1"], 0),
    # the bare sweep stops at the budget: inconclusive, not false
    (["sat", "--max-points", "1", "--all-spaces", "<>" * 400 + "false"], 2),
])
def test_deep_formulas_get_a_verdict(tmp_path, capsys, argv, want):
    # every formula the parser accepts is evaluated, never exit 3
    argv = [str(tmp_path / "out.json") if a == "OUT" else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == want, err


def test_undecodable_input_file_exits_2(tmp_path, capsys):
    path = tmp_path / "formula.txt"
    path.write_bytes(b"\xff\xfe A")
    code, _, err = run(capsys, "parse", "--formula-file", str(path))
    assert code == 2 and err.startswith("error: ")


# Small well-formed inputs; each case below replaces one field with a value
# of the wrong JSON type.  Strings must not be read as lists of characters.
MALFORMED_BASES = {
    "model": {"points": ["a", "b"],
              "opens": [{"name": "top", "members": ["a", "b"]},
                        {"name": "U", "members": ["a"]}],
              "valuation": {"A": ["a"]}},
    "frame": {"states": ["a", "b"], "box": [["a", "b"]],
              "valuation": {"A": ["a", "b"]}},
    "proof": {"lines": [{"formula": "K A -> A",
                         "by": {"axiom": 7, "subst": {"phi": "A"}}}]},
}


@pytest.mark.parametrize("kind, path, value", [
    ("model", ["valuation"], ["A"]),
    ("model", ["valuation"], {"A": 5}),
    ("model", ["valuation"], {"A": "a"}),
    ("model", ["points"], [["a"]]),
    ("model", ["points"], ["a", 1]),
    ("model", ["opens", 0, "name"], ["top"]),
    ("frame", ["valuation"], ["A"]),
    ("frame", ["valuation"], {"A": 5}),
    ("frame", ["states"], [["a"]]),
    ("frame", ["states"], ["a", 1]),
    ("frame", ["states"], "ab"),
    ("frame", ["box"], 5),
    ("frame", ["close"], "no"),
    ("proof", ["lines"], 5),
    ("proof", ["lines", 0, "by"], "mp"),
    ("proof", ["lines", 0, "by"], {"mp": [1]}),
    ("proof", ["lines", 0, "by"], {"neck": "x"}),
    ("proof", ["lines", 0, "by", "subst"], []),
    ("proof", ["lines", 0, "by", "subst"], {"phi": 5}),
    ("proof", ["lines", 0, "formula"], 5),
    ("proof", ["lines", 0, "by", "axiom"], True),
    ("proof", ["lines", 0, "by", "axiom"], "\u00b2"),
    ("proof", ["lines", 0, "by", "axiom"], "\uff11"),
])
def test_malformed_input_file_exits_2(tmp_path, capsys, kind, path, value):
    data = json.loads(json.dumps(MALFORMED_BASES[kind]))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    src = tmp_path / "input.json"
    src.write_text(json.dumps(data))
    argv = {"model": ["valid-in-model", "--model", str(src), "A"],
            "frame": ["unfold", "--frame", str(src), "--root", "a",
                      "-o", str(tmp_path / "out.json")],
            "proof": ["prove", "--proof", str(src)]}[kind]
    code, _, err = run(capsys, *argv)
    assert code == 2 and "internal" not in err, err


def test_soundness_names_atoms_past_the_reserved_letters(capsys):
    code, _, err = run(capsys, "soundness", "--atoms", "12", "--max-points",
                       "1", "--schemes", "4", "--depth", "0")
    assert code == 0, err


def test_soundness_refuses_an_oversized_pool_unbuilt(capsys, monkeypatch):
    # the instance set is sized from the pool's recurrence first: a pool
    # built to depth 99 would not fit in memory
    def build(*args):
        raise AssertionError("the pool was built")

    monkeypatch.setattr(proofs, "formula_pool", build)
    start = time.monotonic()
    code, out, err = run(capsys, "soundness", "--max-points", "2",
                         "--schemes", "4", "--depth", "99")
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: more than 2,000,000 scheme instances at "
                          "depth 99 over 2 atoms")
    assert "lower --depth or --atoms" in err


def test_soundness_text_lines_name_their_model(capsys):
    # models with valuations B={p2} and A={p1}, B={p2} fail the same
    # instance at the same neighborhood; each line names its model
    code, out, _ = run(capsys, "soundness", "--max-points", "3",
                       "--schemes", "C10", "--atoms", "2")
    lines = out.splitlines()[1:21]
    assert code == 1 and len(set(lines)) == len(lines) == 20
    assert lines[0].endswith("fails at (p2, top) in model 43")


def test_closed_stdout_exits_141_quietly():
    # the reader stops after one line, as ``| head -1`` does, while a
    # large output is still being written: neither bad input nor a crash
    with subprocess.Popen(
            [sys.executable, "-m", "treelogic", "soundness", "--max-points",
             "3", "--schemes", "C10", "--atoms", "2", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert proc.stderr.read() == b""


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "treelogic", "parse", "K A -> A"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip() == "K A -> A"


def _fuzz_values(tmp_path):
    """Values for each option ``dest`` of the parser, good and bad alike.

    Sizes are zero, negative, small, or refused by a budget before any
    work, whatever the other options say: a point count past the family
    budget, a pool depth past the instance budget, a stream depth past
    its limit.  Small sizes stay small together, and ``--max-opens 1`` is
    left out, because the budgets size the families of the largest point
    count alone, not the valuations of a sweep or of the soundness harness
    nor the smaller point counts (ROADMAP item 15).  Files are fixtures,
    files written by earlier commands, and empty, malformed, undecodable,
    missing or directory paths.
    """
    def write(name, data):
        path = tmp_path / name
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        return str(path)

    out = str(tmp_path / "out.json")
    bad = [write("empty.json", ""), write("brace.json", "{"),
           write("list.json", "[]"), write("null.json", "null"),
           write("bytes.json", b"\xff\xfe{}"), str(tmp_path / "missing.json"),
           str(tmp_path)]
    proof = json.dumps({"lines": [{"formula": "A -> A",
                                   "by": {"axiom": "²"}}]})
    deep = ["<>" * 400 + "A", "~" * 1200 + "A", "(" * 1200 + "A" + ")" * 1200]
    return {
        "formula": ["A", "K A & ~A", "L A & L ~A", "A -> K A", "<>K Q1",
                    "[]Q1 -> Q1", "Mystery & ~Mystery", "A & & B", "",
                    *deep],
        "formula_file": [write("f.txt", "K Q1 -> Q1"),
                         write("deep.txt", deep[0]), *bad],
        "model": [ORACLE, out, FRAME, PROOF, *bad],
        "frame": [FRAME, out, ORACLE, *bad],
        "proof": [PROOF, write("sup2.json", proof), out, ORACLE, *bad],
        "output": [out, str(tmp_path / "no" / "such" / "dir.json"),
                   str(tmp_path)],
        "report": [str(tmp_path / "report.json"), str(tmp_path)],
        "point": ["q1", "q4", "p1", "nope", ""],
        "open_name": ["top", "U1", "nope", ""],
        "root": ["r1", "s1", "a", "nope"],
        "points": ["q1,q2,q3,q4", "a,b,a", "", ",", "²"],
        "question": ["Q1=q1,q2", "Q2=q1,q2,q3", "Q=zz", "bad", "=q1",
                     "K=q1"],
        "system": ["mpt", "mp", "mp*", "none"],
        "schemes": ["4", "1-12", "C10", "S13", "1-x", ",", "²",
                    "١", "1-٣", "１"],
        "max_points": ["-1", "0", "1", "2", "7", "1000000000", "x"],
        "max_opens": ["-1", "0", "2", "3", "99"],
        "atoms": ["-1", "0", "1", "2"],
        "depth": ["-1", "0", "1", "99", "1000000000"],
    }


def test_fuzzed_commands_keep_the_exit_code_contract(tmp_path, capsys):
    # seeded argv built from the parser's own commands and options: every
    # request answers (0, 1) or is refused as bad input (2), never exit 3
    rng = random.Random(20)
    values = _fuzz_values(tmp_path)
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for case in range(400):
        name = rng.choice(sorted(commands))
        argv = [name]
        for action in commands[name]._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            keep = 0.95 if action.required or not action.option_strings \
                else 0.4
            if rng.random() > keep:
                continue
            if action.option_strings:
                argv.append(rng.choice(action.option_strings))
            if action.nargs != 0:
                argv.append(rng.choice(values[action.dest]))
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse rejects the command line
            code = exc.code
        _, err = capsys.readouterr()
        assert code in (0, 1, 2) and "internal:" not in err, (case, argv, err)
