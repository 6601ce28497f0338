"""Record what the CLI prints and writes over a fixed matrix of commands.

    python tools/cli_snapshot.py OUTDIR [CONFIG...]
    python tools/cli_snapshot.py --compare OLD NEW

Runs ``python -m zipperlift`` from this checkout's ``src`` on four preset
forms, the generated configs of ``perfbench/workloads.py`` (seeds 0-3) and
any extra CONFIG files.  Each system gets a directory under OUTDIR that
holds its config, every file the commands write (by relative name) and one
``NN-command.txt`` per command with its exit code, stdout and stderr.
``diff -r`` of two OUTDIRs made from two checkouts shows every change in
CLI behaviour over the matrix.

``--compare`` says how far each change went.  It prints one JSON line per
file that differs between the two OUTDIRs (or exists in only one): the
exit code and stderr of a command record when they change, verbatim; each
``"passed"`` verdict that flipped; for the number tokens that pair up
between the two texts, how many changed and the largest move in ulps and
relative; and every other differing line, verbatim.  A ``verify`` report's
offenders (its ``details``) pair by location, not by rank: each check
whose offender locations changed rank or membership gets both location
lists under ``"offenders"``, and only errors at one location pair up as
numbers.  It exits 1 when any file differs, like ``diff``.
"""

import difflib
import json
import os
import re
import runpy
import shutil
import struct
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRESETS = {"ex1-p0.3": ["--example1", "p=0.3"], "ex1-q1": ["--example1", "q1=0.4,y1=0.3,y2=1"],
           "ex2-h0.5": ["--example2", "h=0.5"], "ex2-h0.1": ["--example2", "h=0.1"]}
SEEDS = range(4)
RENDER = ["--depth", "6", "--project", "0,1", "--svg"]
#: Chaos renders whose CSVs hold about 10^5 formatted numbers of every sign and size.
CHAOS = ["--depth", "4", "--project", "0,1", "--points", "50000", "--svg"]
MATRIX = [
    ["validate"], ["lift", "--out", "lifted.json"], ["validate", "lifted.json"],
    ["verify", "--suite", "all"], ["verify", "--suite", "contraction"],
    ["verify", "lifted.json", "--suite", "all"],
    ["verify", "lifted.json", "--suite", "contraction"],
    ["render", *RENDER, "plain.svg", "--csv", "plain.csv"],
    ["render", *RENDER, "lifted.svg", "--lifted", "--chaos", "chaos.csv", "--points", "500"],
    ["render", "--depth", "31", "--svg", "deep.svg"],
    ["render", "--depth", "-1", "--svg", "negative.svg"],
    ["eval-f", "--t", "0.3141"], ["eval-g", "--t", "0.3141"],
    ["render", *CHAOS, "product-chaos.svg", "--chaos", "product-chaos.csv"],
    ["render", *CHAOS, "lifted-chaos.svg", "--lifted", "--chaos", "lifted-chaos.csv"],
]


def generated_configs():
    """{name: JSON text} of the generated-zippers workload at SEEDS."""
    # run_path compiles the file in memory and writes no bytecode beside it
    build_workload = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["build_workload"]
    configs = {}
    for seed in SEEDS:
        workload = build_workload("generated-zippers", seed)
        for name, text in workload.configs.items():
            configs[f"seed{seed}-{Path(name).stem}"] = text
    return configs


def run(directory, argv):
    """Run one command in ``directory``; return its record as text."""
    result = subprocess.run(
        [sys.executable, "-m", "zipperlift", *argv], cwd=directory,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=600,
    )
    return (f"$ zipperlift {' '.join(argv)}\nexit {result.returncode}\n"
            f"--- stdout\n{result.stdout}--- stderr\n{result.stderr}")


def main(outdir, *extra):
    outdir = Path(outdir)
    systems = dict(PRESETS)
    files = {**generated_configs(), **{Path(p).stem: Path(p).read_text() for p in extra}}
    for label in files:
        systems[label] = ["zipper.json"]
    for label, source in systems.items():
        directory = outdir / label
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        if label in files:
            (directory / "zipper.json").write_text(files[label])
        for number, command in enumerate(MATRIX):
            # a command naming its own config (the lift) takes no source flags
            own = command[1:2] == ["lifted.json"]
            argv = command if own else [command[0], *source, *command[1:]]
            record = run(directory, argv)
            (directory / f"{number:02d}-{command[0]}.txt").write_text(record)
        print(f"{label}: {len(MATRIX)} commands", flush=True)


RECORD = re.compile(r"(\$ .*\n)exit (-?\d+)\n--- stdout\n(.*?)--- stderr\n(.*)\Z", re.DOTALL)
NUMBER = re.compile(r"-?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?")
VERDICT = re.compile(r'"check": "([^"]*)"[^{}]*?"passed": (true|false)')


def _ordinal(value):
    """Position of a float on the number line, counted in ulps."""
    bits = struct.unpack("<q", struct.pack("<d", value))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _skeleton(line):
    """``line`` with its verdicts and number tokens blanked."""
    return NUMBER.sub("#", re.sub(r'"passed": (true|false)', '"passed": ?', line))


def _common(a, b):
    """Length of the common head of two lists."""
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def compare_texts(old, new):
    """The report fields for two versions of one text."""
    report = {}
    flips = [{"check": name, "old": was == "true", "new": now == "true"}
             for (name, was), (new_name, now) in zip(VERDICT.findall(old), VERDICT.findall(new))
             if name == new_name and was != now]
    if flips:
        report["flipped"] = flips
    old_lines, new_lines = old.splitlines(keepends=True), new.splitlines(keepends=True)
    old_keys, new_keys = ([_skeleton(line) for line in lines] for lines in (old_lines, new_lines))
    # lines whose skeletons match pair up number by number; the matcher only
    # sees what lies between the common head and tail, since it is quadratic
    # in repeated lines such as a CSV's
    head = _common(old_keys, new_keys)
    tail = _common(old_keys[head:][::-1], new_keys[head:][::-1])
    same = list(zip(old_lines[:head], new_lines[:head]))
    same += zip(old_lines[len(old_lines) - tail:], new_lines[len(new_lines) - tail:])
    text = []
    matcher = difflib.SequenceMatcher(None, old_keys[head:len(old_keys) - tail],
                                      new_keys[head:len(new_keys) - tail])
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        was, now = old_lines[head + i1:head + i2], new_lines[head + j1:head + j2]
        if tag == "equal":
            same += zip(was, now)
        else:
            text.append({"old": was, "new": now})
    pairs = [pair for was, now in same for pair in zip(NUMBER.findall(was), NUMBER.findall(now))]
    moved = [(float(a), float(b)) for a, b in pairs if a != b]
    if moved:
        report["numbers"] = {
            "paired": len(pairs), "moved": len(moved),
            "maxUlps": max(abs(_ordinal(a) - _ordinal(b)) for a, b in moved),
            "maxRelative": max(abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
                               for a, b in moved),
        }
    if text:
        report["text"] = text
    return report


def _offenders_apart(old_out, new_out):
    """Two ``verify`` reports' stdouts with their offenders taken apart.

    Returns both reports with every ``details`` list emptied, each followed
    by one line per offender location that both list, in the old rank
    order, so that an error pairs with the error at its own location; and,
    for each check whose offender locations differ in rank or in
    membership, both location lists.  Returns None unless both stdouts are
    reports of the same checks."""
    try:
        old, new = json.loads(old_out), json.loads(new_out)
        if [was["check"] for was in old] != [now["check"] for now in new]:
            return None
        lines, offenders = ([], []), []
        for was, now in zip(old, new):
            errors = {json.dumps(location): error for location, error in now["details"]}
            for location, error in was["details"]:
                key = json.dumps(location)
                if key in errors:
                    for text, value in zip(lines, (error, errors[key])):
                        text.append(f"{was['check']} at {key}: {json.dumps(value)}\n")
            places = [[location for location, _ in report["details"]] for report in (was, now)]
            if places[0] != places[1]:
                offenders.append({"check": was["check"], "old": places[0], "new": places[1]})
    except (ValueError, TypeError, KeyError):
        return None
    texts = (json.dumps([{**report, "details": []} for report in reports], indent=2) + "\n"
             + "".join(text) for reports, text in zip((old, new), lines))
    return *texts, offenders


def compare(old_dir, new_dir):
    """Print one JSON line per file that differs; return 1 if any does."""
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    names = sorted({path.relative_to(root).as_posix() for root in (old_dir, new_dir)
                    for path in root.rglob("*") if path.is_file()})
    changed = 0
    for name in names:
        old_path, new_path = old_dir / name, new_dir / name
        if not (old_path.is_file() and new_path.is_file()):
            line = {"file": name, "onlyIn": "old" if old_path.is_file() else "new"}
        elif old_path.read_bytes() == new_path.read_bytes():
            continue
        else:
            old, new = old_path.read_text(encoding="utf-8"), new_path.read_text(encoding="utf-8")
            line = {"file": name}
            records = RECORD.match(old), RECORD.match(new)
            if all(records):
                (head, code, out, err), (new_head, new_code, new_out, new_err) = (
                    record.groups() for record in records)
                if code != new_code:
                    line["exit"] = [int(code), int(new_code)]
                if err != new_err:
                    line["stderr"] = [err, new_err]
                apart = _offenders_apart(out, new_out)
                if apart:
                    out, new_out, offenders = apart
                    if offenders:
                        line["offenders"] = offenders
                old, new = head + out, new_head + new_out
            line.update(compare_texts(old, new))
        print(json.dumps(line))
        changed = 1
    return changed


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        sys.exit(compare(*sys.argv[2:]))
    if len(sys.argv) < 2 or sys.argv[1].startswith("--"):
        sys.exit(__doc__)
    main(*sys.argv[1:])
