"""Record what the CLI prints and writes over a fixed matrix of commands.

    python tools/cli_snapshot.py OUTDIR [CONFIG...]

Runs ``python -m zipperlift`` from this checkout's ``src`` on four preset
forms, the generated configs of ``perfbench/workloads.py`` (seeds 0-3) and
any extra CONFIG files.  Each system gets a directory under OUTDIR that
holds its config, every file the commands write (by relative name) and one
``NN-command.txt`` per command with its exit code, stdout and stderr.
``diff -r`` of two OUTDIRs made from two checkouts shows every change in
CLI behaviour over the matrix.
"""

import os
import runpy
import shutil
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


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(*sys.argv[1:])
