"""zipperlift benchmark: end-to-end CLI metrics, or per-layer metrics traced
in-process.

    python3 perfbench/run.py --workload verify-presets --seed 1 --seconds 35 --trace 0

Run from the repository root.  ``--trace 0`` runs the workload's CLI
commands by subprocess, back to back from this one process (a closed loop
with one client), until ``--seconds`` have passed, then checks the outputs.
``--trace 1`` runs one pass, each command in a fresh interpreter through
``zipperlift.cli.main`` with spans around every library call it makes (see
``layers.py``).  Human-readable lines come first; the last line of stdout is
the JSON result.  Run records and spans go to ``.bench_work/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH_DIR), str(SRC)]

# ``layers`` imports zipperlift at module level, so it is imported only
# after main() has found the sources.
from checks import (  # noqa: E402
    TANGENT_VERDICTS,
    digest_problems,
    exact_reference_problems,
    file_digest,
    render_problems,
    text_digest,
    verify_problems,
    verify_sample_count,
)
from workloads import WORKLOADS, build_workload  # noqa: E402

#: Command time between two fresh-interpreter set-up samples, and the fewest
#: set-up samples per run; ``setup_s`` is their median.
SETUP_EVERY_S = 2.0
MIN_SETUP_SAMPLES = 7
#: Passes measured even when one pass outlasts ``--seconds``.
MIN_PASSES = 2
#: A traced command: import the CLI module (timed), then run the command.
TRACED_CHILD = (
    "import sys, time; start = time.perf_counter(); import zipperlift.cli; "
    "end = time.perf_counter(); import layers; "
    "layers.trace_command(sys.argv[1], sys.argv[2], end - start)"
)
TRACED_PROBE = "import sys, layers; layers.trace_probe(sys.argv[1], int(sys.argv[2]), sys.argv[3])"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv, workdir, stdout_path):
    """Run one child process to completion: (exit code, wall s, CPU s, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(os.path.join(workdir, "stderr.txt"), "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def tail_percentile(values):
    """(label, value) of the highest percentile with ten samples beyond it."""
    count = len(values)
    for pct in (99.9, 99, 95, 90, 75, 50):
        if count * (1 - pct / 100) >= 10:
            return f"p{pct:g}", statistics.quantiles(values, n=1000)[round(pct * 10) - 1]
    return None, None


def environment_record():
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    threads = {key: os.environ.get(key) for key in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_settings": threads,
        "loadavg_at_start": os.getloadavg(),
    }


class Outcome:
    """Operations attempted and the problems of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.problems = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.problems.append(f"{what}: " + "; ".join(problems))


def pass_digests(workload, results, workdir):
    """sha256 of each command's stdout and output files, per command name
    ("missing" for an output file a failed command did not write)."""
    def digest(name):
        path = os.path.join(workdir, name)
        return file_digest(path) if os.path.exists(path) else "missing"

    return {command.name: [text_digest(text)] + [digest(name) for name in command.outputs]
            for command, (text, _) in zip(workload.commands, results)}


def check_outputs(workload, results, digests, workdir, outcome):
    """Check each command's output and its digests against the committed ones
    (outputs are identical in every pass, see ``measure``).  Returns the
    points one pass delivers."""
    from layers import resolve_system

    rng = np.random.default_rng([workload.seed, 7])
    points = 0
    for command, (text, code) in zip(workload.commands, results):
        if command.kind == "verify":
            problems = verify_problems(text, code, TANGENT_VERDICTS.get(command.system.preset))
            if workload.name == "verify-presets":
                points += verify_sample_count(text)
        elif code:
            problems = [f"exit code {code}"]
        elif command.kind == "render":
            zipper, line = resolve_system(command.system, workdir)
            paths = [os.path.join(workdir, name) for name in command.outputs]
            problems, written = render_problems(
                paths[1], paths[0], paths[2] if command.chaos_points else None, zipper, line,
                command.lifted, command.depth, command.chaos_points, rng)
            points += written
        else:
            problems = []
        problems += digest_problems(workload.name, command, digests[command.name])
        outcome.record(f"check {command.name}", problems)
    problems, _ = exact_reference_problems(rng)
    outcome.record("exact reference at example1 p=0.5", problems)
    return points


def measure(workload, seconds, workdir, outcome, report):
    """Untraced CLI passes for ``seconds``; the end-to-end metrics.

    Set-up samples are interleaved with the commands, one whenever
    SETUP_EVERY_S of command time has passed, so that they see the same mix
    of fast and slow host phases as the passes do.
    """
    cli = [sys.executable, "-m", "zipperlift"]
    setup_argv = [sys.executable, "-c",
                  "import sys, layers; layers.setup_child(sys.argv[1])",
                  json.dumps([vars(s) for s in workload.systems])]
    setup_walls = []

    def sample_setup():
        code, wall, _, _ = run_child(setup_argv, workdir, os.path.join(workdir, "setup.txt"))
        outcome.record("set-up", [f"exit code {code}"] if code else [])
        setup_walls.append(wall)

    command_walls = {c.name: [] for c in workload.commands}
    passes, first_results, first_digests = [], None, None
    start = time.perf_counter()
    since_setup = SETUP_EVERY_S
    while True:
        wall = cpu = rss = 0.0
        results = []
        for index, command in enumerate(workload.commands):
            if since_setup >= SETUP_EVERY_S:
                sample_setup()
                since_setup = 0.0
            stdout_path = os.path.join(workdir, f"stdout-{index}.txt")
            code, c_wall, c_cpu, c_rss = run_child(cli + command.argv(), workdir, stdout_path)
            wall, cpu, rss = wall + c_wall, cpu + c_cpu, max(rss, c_rss)
            since_setup += c_wall
            command_walls[command.name].append(c_wall)
            with open(stdout_path, "r", encoding="utf-8") as handle:
                results.append((handle.read(), code))
        # digests are taken after the pass so hashing stays out of the timed window
        digests = pass_digests(workload, results, workdir)
        outcome.attempted += len(workload.commands)
        if first_digests is None:
            first_results, first_digests = results, digests
        else:
            for command in workload.commands:
                if digests[command.name] != first_digests[command.name]:
                    outcome.problems.append(f"{command.name}: output bytes differ between "
                                            f"pass 1 and pass {len(passes) + 1}")
        passes.append((wall, cpu, rss))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p[0] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    while len(setup_walls) < MIN_SETUP_SAMPLES:
        sample_setup()

    points = check_outputs(workload, first_results, first_digests, workdir, outcome)
    walls = [p[0] for p in passes]
    wall_s = statistics.median(walls)
    label, tail = tail_percentile(walls)
    report["passes"] = [{"wall_s": w, "cpu_s": c, "peak_rss_mb": r} for w, c, r in passes]
    report["command_wall_s"] = command_walls
    report["setup_wall_s"] = setup_walls
    report["digests"] = first_digests
    report["wall_s_tail"] = {"percentile": label, "value": tail, "samples": len(walls)}
    report["points_per_pass"] = points
    return {
        "setup_s": (statistics.median(setup_walls), "s"),
        "wall_s": (wall_s, "s"),
        "cpu_s": (statistics.median(p[1] for p in passes), "s"),
        "points_per_s": (points / wall_s, "1/s"),
        "peak_rss_mb": (max(p[2] for p in passes), "MB"),
    }


def traced(workload, workdir, outcome, report):
    """One pass through the traced CLI, one fresh interpreter per command,
    then the layer probe in another; the per-layer metrics."""
    from layers import layer_metrics, span_cost

    spans, results, import_times = [], [], []
    traced_wall = attributed = 0.0
    for index, command in enumerate(workload.commands):
        result_path = os.path.join(workdir, f"traced-{index}.json")
        code, wall, _, _ = run_child(
            [sys.executable, "-c", TRACED_CHILD, json.dumps(command.argv()), result_path],
            workdir, os.path.join(workdir, "traced-stdout.txt"))
        outcome.record(f"traced {command.name}", [f"exit code {code}"] if code else [])
        if code:
            results.append(("", code))
            continue
        with open(result_path, encoding="utf-8") as handle:
            child = json.load(handle)
        spans += [{**record, "process": command.name} for record in child["spans"]]
        results.append((child["stdout"], child["code"]))
        import_times.append(child["import_s"])
        traced_wall += wall
        attributed += child["attributed_s"]
    check_outputs(workload, results, pass_digests(workload, results, workdir), workdir,
                  outcome)

    result_path = os.path.join(workdir, "probe.json")
    code, _, _, _ = run_child(
        [sys.executable, "-c", TRACED_PROBE, json.dumps([vars(s) for s in workload.systems]),
         str(workload.seed), result_path], workdir, os.path.join(workdir, "probe-stdout.txt"))
    outcome.record("layer probe", [f"exit code {code}"] if code else [])
    if code == 0:
        with open(result_path, encoding="utf-8") as handle:
            spans += [{**record, "process": "probe"} for record in json.load(handle)["spans"]]
    with open(os.path.join(workdir, "spans.jsonl"), "w", encoding="utf-8") as handle:
        for record in spans:
            handle.write(json.dumps(record) + "\n")
    metrics = layer_metrics(spans, traced_wall - attributed, span_cost())
    metrics["cli.import_s"] = (statistics.median(import_times), "s")
    report["traced_wall_s"] = traced_wall
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zipperlift" / "__init__.py").is_file():
        print(f"error: no zipperlift sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    workload = build_workload(args.workload, args.seed)
    workdir = ROOT / ".bench_work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    for path in workdir.iterdir():
        path.unlink()
    for name, text in workload.configs.items():
        (workdir / name).write_text(text, encoding="utf-8")

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment_record()}
    outcome = Outcome()
    if args.trace:
        metrics = traced(workload, str(workdir), outcome, report)
    else:
        metrics = measure(workload, args.seconds, str(workdir), outcome, report)
    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    report["problems"] = outcome.problems

    records = ROOT / ".bench_work" / "records"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    env = report["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} | nproc {env['nproc']} "
          f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"load {env['loadavg_at_start'][0]:.2f}")
    if not args.trace:
        tail = report["wall_s_tail"]
        print(f"passes {tail['samples']}; wall_s tail: "
              + (f"{tail['percentile']} = {tail['value']:.4f} s" if tail["percentile"]
                 else "no percentile has ten samples beyond it"))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in outcome.problems:
        print(f"FAILED {problem}")
    print(f"record: {record_path.relative_to(ROOT)}")
    failed = len(outcome.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
