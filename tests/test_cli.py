import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zipperlift.cli import main
from zipperlift.config_io import parse_config


def test_validate_preset(capsys):
    assert main(["validate", "--example1", "p=0.3"]) == 0
    assert "valid zipper" in capsys.readouterr().out


def test_validate_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"dimension": 1, "maps": [{"linear": [[0.3]], "translation": [0]},'
        '{"linear": [[0.7]], "translation": [0.3]}],'
        '"vertices": [[0], [0.5], [1]], "signature": [0, 0]}'
    )
    assert main(["validate", str(path)]) == 1


def test_usage_errors(capsys):
    assert main(["validate"]) == 2  # no config at all
    assert main(["validate", "--example1", "p=0.3", "--example2", "h=0.5"]) == 2
    assert main(["validate", "--example1", "p=nope"]) == 2
    assert main(["validate", "--example2", "h=2.0"]) == 2  # out of range
    assert main(["eval-f", "--example1", "wat=1", "--t", "0.5"]) == 2


def test_parse_error_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


def test_eval_f_output(capsys):
    assert main(["eval-f", "--example1", "p=0.3", "--t", "0.25"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"][0] == pytest.approx(0.09, abs=1e-12)
    assert payload["errorBound"] <= 1e-9


def test_eval_g_output(capsys):
    assert main(["eval-g", "--example1", "p=0.3", "--t", "0.25"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"][0] == pytest.approx(0.00675, abs=1e-12)


def test_verify_stdout_matches_benchmark_digest(capsys):
    # one-dimensional maps leave no summation order to BLAS, so this digest
    # holds on any host; an evaluator edit that moves one bit fails here
    digests = Path(__file__).resolve().parents[1] / "perfbench" / "expected_digests.json"
    expected = json.loads(digests.read_text())["verify-presets"]["verify:example1:p=0.3"][0]
    assert main(["verify", "--example1", "p=0.3", "--suite", "all"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == expected


@pytest.mark.parametrize("command", ["eval-f", "eval-g"])
@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
def test_eval_rejects_unreachable_tolerance(capsys, command, tol):
    for preset in (["--example1", "p=0.3"], ["--example2", "h=0.5"]):
        assert main([command, *preset, "--t", "0.3", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tolerance must be finite and positive")


def test_render_stdout_and_files_match_benchmark_digests(tmp_path, monkeypatch, capsys):
    # Example 1's product maps are diagonal, so no BLAS summation order can
    # move a bit; a formatter or refine edit that changes one byte fails here
    digests = Path(__file__).resolve().parents[1] / "perfbench" / "expected_digests.json"
    expected = json.loads(digests.read_text())["render-presets"]["render:example1:p=0.3"]
    monkeypatch.chdir(tmp_path)  # the benchmark's relative file names are in stdout
    argv = ["render", "--example1", "p=0.3", "--depth", "18",
            "--svg", "render0.svg", "--csv", "render0.csv"]
    assert main(argv) == 0
    got = [hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()]
    got += [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("render0.svg", "render0.csv")]
    assert got == expected


def test_lift_round_trips_through_validate(tmp_path, capsys):
    out = tmp_path / "lifted.json"
    assert main(["lift", "--example1", "p=0.3", "--out", str(out)]) == 0
    config = parse_config(out.read_text())
    assert config.dimension == 2
    assert main(["validate", str(out)]) == 0
    # the emitted maps are the closed-form lifted pair at p = 0.3
    assert config.maps[0].linear.tolist() == [[0.5, 0.0], [0.0, 0.15]]
    assert config.maps[1].linear.tolist() == [[0.5, 0.0], [0.15, 0.35]]


def test_render_writes_svg_and_csv(tmp_path, capsys):
    svg = tmp_path / "curve.svg"
    csv = tmp_path / "curve.csv"
    code = main([
        "render", "--example1", "p=0.3", "--depth", "8",
        "--svg", str(svg), "--csv", str(csv),
    ])
    assert code == 0
    assert svg.read_text().count("<polyline") == 1
    assert csv.read_text().startswith("t,x1,x2\n0,0,0\n")


def test_render_lifted_and_chaos(tmp_path):
    svg = tmp_path / "arc.svg"
    chaos = tmp_path / "cloud.csv"
    code = main([
        "render", "--example1", "p=0.3", "--depth", "8", "--lifted",
        "--svg", str(svg), "--chaos", str(chaos), "--points", "200", "--seed", "5",
    ])
    assert code == 0
    assert chaos.read_text().startswith("x1,x2\n")


def test_render_single_chaos_point(tmp_path):
    chaos = tmp_path / "one.csv"
    code = main([
        "render", "--example1", "p=0.3", "--depth", "4",
        "--svg", str(tmp_path / "curve.svg"), "--chaos", str(chaos), "--points", "1",
    ])
    assert code == 0
    lines = chaos.read_text().splitlines()
    assert lines[0] == "x1,x2" and len(lines) == 2


def test_render_rejects_no_chaos_points_before_writing(tmp_path, capsys):
    svg = tmp_path / "curve.svg"
    code = main([
        "render", "--example1", "p=0.3", "--depth", "4",
        "--svg", str(svg), "--chaos", str(tmp_path / "none.csv"), "--points", "0",
    ])
    assert code == 2
    assert "--points" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_render_deterministic(tmp_path):
    outputs = []
    for name in ("one", "two"):
        svg = tmp_path / f"{name}.svg"
        csv = tmp_path / f"{name}.csv"
        assert main([
            "render", "--example2", "h=0.5", "--depth", "10",
            "--svg", str(svg), "--csv", str(csv), "--project", "0,1",
        ]) == 0
        outputs.append(svg.read_bytes() + csv.read_bytes())
    assert outputs[0] == outputs[1]


def test_verify_interval_family(capsys):
    assert main(["verify", "--example1", "p=0.3", "--samples", "200"]) == 0
    reports = json.loads(capsys.readouterr().out)
    names = {report["check"] for report in reports}
    assert {"parametrization-residual", "integral-residual", "quadrature-agreement",
            "derivative-check", "tangent-scan", "eventual-contraction"} <= names
    assert all(report["passed"] for report in reports)


def test_verify_single_suite(capsys):
    assert main(["verify", "--example1", "p=0.5", "--suite", "contraction"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 1
    assert reports[0]["check"] == "eventual-contraction"


def test_inverse_design_output(capsys):
    code = main([
        "inverse-design", "--q1", "0.5", "--x1", "0.5", "--g1", "0.045", "--g2", "0.3",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["y1"] == pytest.approx(0.3, abs=1e-12)
    assert payload["y2"] == pytest.approx(1.0, abs=1e-12)
    assert payload["config"]["dimension"] == 1


def test_inverse_design_degenerate_exit(capsys):
    assert main([
        "inverse-design", "--q1", "0.5", "--x1", "0.5", "--g1", "0", "--g2", "0.3",
    ]) == 2


SRC = str(Path(__file__).resolve().parents[1] / "src")

#: A valid two-map interval zipper with one placeholder left to fill.
FINITE_CHECK_CONFIG = (
    '{"dimension": 1, "maps": [{"linear": [[0.5]], "translation": [0]},'
    ' {"linear": [[0.5]], "translation": [%s]}],'
    ' "vertices": [[0], [%s], [1]], "signature": [0, 0], "lineNodes": [0, %s, 1]}'
)


@pytest.mark.parametrize("translation, vertex, node, field", [
    ("0.5", "NaN", "0.5", "vertices[1]"),
    ("NaN", "0.5", "0.5", "maps[1].translation"),
    ("0.5", "0.5", "Infinity", "lineNodes"),
    ("0.5", "1e400", "0.5", "vertices[1]"),
    ("0.5", "1" + "0" * 400, "0.5", "vertices[1]"),
])
def test_non_finite_config_numbers_exit_with_shape_error(
        tmp_path, capsys, translation, vertex, node, field):
    path = tmp_path / "bad.json"
    path.write_text(FINITE_CHECK_CONFIG % (translation, vertex, node))
    svg = tmp_path / "curve.svg"
    for command in (["validate"], ["eval-f", "--t", "0.5"], ["render", "--svg", str(svg)]):
        assert main([*command, str(path)]) == 2
        assert f"error: field {field!r} must hold finite numbers" in capsys.readouterr().err
    assert not svg.exists()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity control")
def test_render_pinned_to_one_cpu_writes_the_same_bytes(tmp_path):
    one_cpu = min(os.sched_getaffinity(0))
    outputs = []
    for name, pin in (("pinned", lambda: os.sched_setaffinity(0, {one_cpu})), ("free", None)):
        files = [tmp_path / f"{name}.svg", tmp_path / f"{name}.csv"]
        subprocess.run(
            [sys.executable, "-m", "zipperlift", "render", "--example2", "h=0.5",
             "--depth", "13", "--svg", str(files[0]), "--csv", str(files[1])],
            env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=pin, check=True,
            stdout=subprocess.DEVNULL, timeout=120,
        )
        outputs.append([path.read_bytes() for path in files])
    assert outputs[0] == outputs[1]


def test_cli_import_loads_no_process_pool():
    # nor scipy, which only the residual checks need and which would double
    # the import time of every command
    probe = (
        "import sys, zipperlift.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'scipy') "
        "or m.startswith('concurrent.futures')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("width", ["nan", "-2"])
def test_render_rejects_bad_stroke_width(tmp_path, capsys, width):
    svg = tmp_path / "out.svg"
    argv = ["render", "--example1", "p=0.3", "--svg", str(svg), "--stroke-width", width]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: stroke width must be finite")
    assert not svg.exists()


def test_render_with_a_dead_worker_is_an_io_error(tmp_path, kill_worker, capfd):
    kill_worker(2, lambda columns: True)
    argv = ["render", "--example1", "p=0.3", "--depth", "14", "--svg", str(tmp_path / "out.svg")]
    assert main(argv) == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("io error: a row-formatting child stopped")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


#: Valid only in the eventual-contraction mode: each linear part has norm
#: about 3.08, but the words of length 8 contract.
EVENTUAL_CONFIG = {
    "dimension": 2,
    "maps": [
        {"linear": [[0.5, 3.0], [0.0, 0.5]], "translation": [0.0, 0.0]},
        {"linear": [[0.5, 3.0], [0.0, 0.5]], "translation": [0.5, 0.0]},
    ],
    "vertices": [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]],
    "signature": [0, 0],
}


def test_graph_render_of_an_eventually_contracting_zipper(tmp_path, capsys):
    config = tmp_path / "eventual.json"
    config.write_text(json.dumps(EVENTUAL_CONFIG))
    assert main(["validate", str(config)]) == 0
    assert "eventual contraction" in capsys.readouterr().out
    svg = tmp_path / "graph.svg"
    assert main(["render", str(config), "--depth", "6", "--svg", str(svg)]) == 0
    assert svg.read_text().count("<polyline") == 1


def test_f_of_an_eventually_contracting_zipper_is_a_typed_error(tmp_path, capfd):
    from zipperlift.config_io import build_system
    from zipperlift.errors import ZipperLiftError
    from zipperlift.parametrization import eval_f_many

    zipper, line = build_system(parse_config(json.dumps(EVENTUAL_CONFIG)))
    with pytest.raises(ZipperLiftError, match="needs every map to contract"):
        eval_f_many([0.3], zipper, line)
    config = tmp_path / "eventual.json"
    config.write_text(json.dumps(EVENTUAL_CONFIG))
    for command in (["eval-f", "--t", "0.3"], ["verify"]):
        assert main([*command, str(config)]) == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: parametrization evaluation")


def test_g_with_a_rescaled_map_that_does_not_contract_is_a_typed_error(tmp_path):
    # q_2 |A_2| = 0.7 * 3.08 > 1: the descent could never certify a radius
    config = tmp_path / "eventual.json"
    config.write_text(json.dumps({**EVENTUAL_CONFIG, "lineNodes": [0, 0.3, 1]}))
    result = subprocess.run(
        [sys.executable, "-m", "zipperlift", "eval-g", str(config), "--t", "0.123"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2 and result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: integral evaluation")
    assert "RuntimeWarning" not in result.stderr


#: Runs the command in argv[1:] and prints its exit code and peak RSS in
#: MB, its children included.  A child's ru_maxrss starts at its
#: launcher's high-water mark, which the exec keeps, so a small fresh
#: interpreter launches the render: pytest's own mark can exceed it.
PEAK_RSS = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024)\n"
)


def _render_peak_rss_mb(tmp_path, depth):
    """Peak RSS, in MB, of ``render --example2 h=0.5 --svg --csv`` at a depth
    in a fresh interpreter, its formatting children included."""
    argv = [sys.executable, "-m", "zipperlift", "render", "--example2", "h=0.5",
            "--depth", str(depth), "--svg", str(tmp_path / "curve.svg"),
            "--csv", str(tmp_path / "curve.csv")]
    result = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, *argv], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True, timeout=120,
    )
    code, peak = result.stdout.split()
    assert code == "0"
    return float(peak)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_render_memory_does_not_grow_with_depth(tmp_path):
    # depth 18 has 64 times the rows of depth 12; a render that held them
    # all would read about 45 MB more
    shallow = _render_peak_rss_mb(tmp_path, 12)
    deep = _render_peak_rss_mb(tmp_path, 18)
    assert abs(deep - shallow) <= 8.0, (shallow, deep)
