"""Byte identity of the `--json` command outputs.

``fixtures/golden_json.json`` holds, for each command of ``COMMANDS``,
its exit code and stdout, and the contents of every file it writes.  A
change that alters any of them fails here; to record a deliberate change
of output, run this module as a script from the repository root
(``PYTHONPATH=src python tests/test_golden.py``) and review the diff of
the fixture.

Paths in a command are written with ``{fixtures}`` for the fixture
directory and ``{out}`` for a fresh output directory, so the record does
not depend on where the checkout lives.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from helpers import FIXTURES

from treelogic import load_model
from treelogic.cli import main

GOLDEN = FIXTURES / "golden_json.json"

ORACLE = "{fixtures}/fig_oracle.json"
FORMULAS = ["K Q1", "<>K Q1", "Q1 -> []Q1", "[]<>K Q2", "L ~Q1 & <>K Q2",
            "K[]Q1 -> []K Q1", "[](Q2 -> <>K Q1) | K ~Q2"]
README_SAT = ["L A & L ~A", "K A & ~A"]
README_VALID = ["A -> K A", "[](([]A -> B)) | []([]B -> A)", "K A -> K K A"]


def _commands():
    model = load_model(FIXTURES / "fig_oracle.json")
    cmds = []
    for name, u in zip(model.space.names, model.space.opens):
        for x in sorted(u):
            for f in FORMULAS:
                cmds.append(["check", "--json", "--model", ORACLE,
                             "--point", x, "--open", name, f])
    for f in FORMULAS:
        cmds.append(["valid-in-model", "--json", "--model", ORACLE, f])
    cmds.append(["treelike-check", "--json", "--model", ORACLE])
    for f in FORMULAS:
        cmds.append(["partition", "--json", "--model", ORACLE, f])
        cmds.append(["filtrate", "--json", "--model", ORACLE, f,
                     "-o", "{out}/filtrate.json"])
        cmds.append(["extract", "--json", "--model", ORACLE, f,
                     "-o", "{out}/small.json", "--report", "{out}/sizes.json"])
    cmds.append(["unfold", "--json", "--frame",
                 "{fixtures}/frame_two_level.json", "--root", "r1",
                 "-o", "{out}/tree.json"])
    for f in README_SAT:
        cmds.append(["sat", "--json", f, "--use-bound", "-o", "{out}/witness.json"])
    for f in README_VALID:
        cmds.append(["valid", "--json", f, "--use-bound",
                     "-o", "{out}/counter.json"])
    # budgeted searches that the sweep leaves to saturation
    cmds.append(["sat", "--json", "--max-points", "4", "--max-opens", "6",
                 "<>K A & <>K ~A & L A & L ~A"])
    cmds.append(["valid", "--json", "--max-points", "2", "K A -> []K A"])
    cmds.append(["soundness", "--json", "--max-points", "3", "--schemes",
                 "C10", "--atoms", "1", "--depth", "1"])
    for system in ("mpt", "mp"):
        cmds.append(["prove", "--json", "--proof",
                     "{fixtures}/proof_scheme10_from_scheme12.json",
                     "--system", system])
    return cmds


COMMANDS = _commands()


def record(argv):
    """Exit code, stdout and written files of one command, as a dict."""
    with tempfile.TemporaryDirectory() as out:
        real = [a.format(fixtures=FIXTURES, out=out) for a in argv]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(real)
        files = {p.name: p.read_text(encoding="utf-8")
                 for p in sorted(Path(out).iterdir())}
    return {"argv": argv, "exit": code, "stdout": buf.getvalue(),
            "files": files}


def test_json_outputs_match_the_recorded_bytes():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [r["argv"] for r in golden] == COMMANDS
    for expected in golden:
        assert record(expected["argv"]) == expected, expected["argv"]


if __name__ == "__main__":
    records = [record(argv) for argv in COMMANDS]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} records written to {GOLDEN}", file=sys.stderr)
