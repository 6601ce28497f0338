"""Byte pins of the CLI: sha256 of stdout, stderr, exit code and every file
written, over a fixed matrix of systems and commands run in-process.

The matrix is the four preset forms of ``tools/cli_snapshot.py``, the
generated-zippers configs at seed 0 and ``test_cli.EVENTUAL_CONFIG``, each
through ``validate``, ``lift``, ``eval-f``/``eval-g``, ``verify`` and one
depth-6 render, plus two ``inverse-design`` runs, which read no system.
``cli_digests.json`` holds the pins; regenerate it from the CLI, never by
hand, with

    PYTHONPATH=src python tests/test_cli_digests.py --write

which prints the system label and command of every record that moved
against the file it replaces, or "no change".
"""

import contextlib
import hashlib
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

from zipperlift.cli import main
from conftest import workloads
from test_cli import EVENTUAL_CONFIG

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("cli_digests.json")
GENERATED_SEED = 0

COMMANDS = [
    ["validate"],
    ["lift", "--out", "lifted.json"],
    ["validate", "lifted.json"],
    ["eval-f", "--t", "0.3141"],
    ["eval-g", "--t", "0.3141"],
    ["verify", "--suite", "all"],
    ["verify", "lifted.json", "--suite", "contraction"],
    ["render", "--depth", "6", "--project", "0,1", "--svg", "render.svg", "--csv", "render.csv",
     "--lifted", "--chaos", "chaos.csv", "--points", "500"],
]

#: The README's and ``demos/06``'s ``inverse-design`` runs.
INVERSE_DESIGN = [
    ["inverse-design", "--q1", "0.5", "--x1", "0.5", "--g1", "0.045", "--g2", "0.3"],
    ["inverse-design", "--q1", "0.4", "--x1", "0.4", "--g1", "0.1", "--g2", "0.55"],
]


def systems():
    """{label: (source arguments, config text or None)} of the matrix."""
    # run_path compiles each file in memory and writes no bytecode beside it
    presets = runpy.run_path(str(ROOT / "tools" / "cli_snapshot.py"))["PRESETS"]
    found = {label: (source, None) for label, source in presets.items()}
    workload = workloads().build_workload("generated-zippers", GENERATED_SEED)
    for name, text in workload.configs.items():
        found[f"seed{GENERATED_SEED}-{Path(name).stem}"] = (["zipper.json"], text)
    found["eventual"] = (["zipper.json"], json.dumps(EVENTUAL_CONFIG))
    return found


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _file_digests(directory):
    return {path.name: _sha(path.read_bytes()) for path in sorted(directory.iterdir())}


def run_command(directory, argv):
    """Run ``zipperlift argv`` in ``directory``: its digest record."""
    before = _file_digests(directory)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    written = {name: digest for name, digest in _file_digests(directory).items()
               if before.get(name) != digest}
    return {"exit": code, "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()), "files": written}


def matrix_digests(root):
    """{system: {command: record}} of the whole matrix, run under ``root``."""
    records = {}
    for label, (source, text) in systems().items():
        directory = Path(root) / label
        directory.mkdir()
        if text is not None:
            (directory / "zipper.json").write_text(text, encoding="utf-8")
        records[label] = {}
        for command in COMMANDS:
            # a command naming its own config (the lift) takes no source flags
            own = command[1:2] == ["lifted.json"]
            argv = command if own else [command[0], *source, *command[1:]]
            records[label][" ".join(command)] = run_command(directory, argv)
    directory = Path(root) / "inverse-design"
    directory.mkdir()
    records["inverse-design"] = {" ".join(argv): run_command(directory, argv)
                                 for argv in INVERSE_DESIGN}
    return records


def moved_records(old, new):
    """[(label, command)] of every record that differs between two digest
    maps or is in only one of them, in the new map's order, then the old's."""
    pairs = [(label, command) for records in (new, old)
             for label, commands in records.items() for command in commands]
    return [pair for pair in dict.fromkeys(pairs)
            if old.get(pair[0], {}).get(pair[1]) != new.get(pair[0], {}).get(pair[1])]


def test_moved_records_names_changed_added_and_removed_commands():
    old = {"a": {"validate": {"exit": 0}, "lift": {"exit": 0}}, "gone": {"validate": {"exit": 0}}}
    new = {"a": {"validate": {"exit": 1}, "lift": {"exit": 0}, "verify": {"exit": 0}}}
    assert moved_records(old, old) == []
    assert moved_records(old, new) == [("a", "validate"), ("a", "verify"), ("gone", "validate")]


def test_cli_bytes_match_pinned_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = matrix_digests(tmp_path)
    assert list(got) == list(expected)
    for label, commands in expected.items():
        assert list(got[label]) == list(commands), label
        for command, record in commands.items():
            assert got[label][command] == record, (label, command)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as scratch:
        records = matrix_digests(scratch)
    previous = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    DIGESTS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS.name}: {sum(len(c) for c in records.values())} commands")
    moved = moved_records(previous, records)
    for label, command in moved:
        print(f"moved: {label}: {command}")
    if not moved:
        print("no change")
