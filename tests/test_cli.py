import ast
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from zipperlift.cli import main
from zipperlift.config_io import build_system, parse_config
from conftest import workloads


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


def test_usage_errors(capsys, tmp_path):
    assert main(["validate"]) == 2  # no config at all
    assert main(["validate", "--example1", "p=0.3", "--example2", "h=0.5"]) == 2
    assert main(["validate", "--example1", "p=nope"]) == 2
    assert main(["validate", "--example2", "h=2.0"]) == 2  # out of range
    assert main(["eval-f", "--example1", "wat=1", "--t", "0.5"]) == 2
    capsys.readouterr()
    for command in ("eval-f", "eval-g"):
        for t in ("1.5", "-0.1", "nan"):
            assert main([command, "--example1", "p=0.3", "--t", t]) == 2
            assert "outside [0, 1]" in capsys.readouterr().err
    for flag, value, name in (("--samples", "0", "samples"), ("--samples", "-3", "samples"),
                              ("--deriv-samples", "0", "sample_count")):
        assert main(["verify", "--example1", "p=0.3", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name} must be at least 1, got {value}\n"
    assert main(["validate", "--example1", "p=0.3,p=0.4"]) == 2
    assert capsys.readouterr().err == "error: --example1: parameter 'p' given twice\n"
    # the product of example 1 lives in R^2: axes 0 and 1, once each
    svg, csv = tmp_path / "out.svg", tmp_path / "out.csv"
    for axes in ("0,5", "0,-1", "0,0", "1,1", "0,1,1", "a,b", "0,"):
        argv = ["render", "--example1", "p=0.3", "--svg", str(svg), "--csv", str(csv),
                "--project", axes]
        assert main(argv) == 2
        err = capsys.readouterr().err
        if axes in ("a,b", "0,"):
            assert err == f"error: --project takes comma-separated axis indices, got {axes!r}\n"
        else:
            assert "does not select two axes of R^2" in err
    assert list(tmp_path.iterdir()) == []


VALID_CONFIG = (
    '{"dimension": 1, "maps": [{"linear": [[0.5]], "translation": [0]}, '
    '{"linear": [[0.5]], "translation": [0.5]}], '
    '"vertices": [[0], [0.5], [1]], "signature": [0, 0]}'
)


@pytest.mark.parametrize("text, key", [
    (VALID_CONFIG.replace('"signature": [0, 0]', '"signature": [0, 0], "signature": [1, 1]'),
     "signature"),
    (VALID_CONFIG.replace('"translation": [0]', '"translation": [0], "translation": [0.1]'),
     "translation"),
], ids=["top-level", "map-entry"])
def test_duplicate_config_keys_are_parse_errors(tmp_path, capsys, text, key):
    path = tmp_path / "twice.json"
    path.write_text(VALID_CONFIG)
    assert main(["validate", str(path)]) == 0
    path.write_text(text)
    capsys.readouterr()
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: duplicate key {key!r}\n"


@pytest.mark.parametrize("entry", ["1e50", "1e80"])
def test_words_past_the_float_range_fail_contraction(tmp_path, capsys, entry):
    # per-map norms ~entry; longer words overflow, which certifies nothing
    path = tmp_path / "huge.json"
    path.write_text(
        '{"dimension": 2, "maps": [{"linear": [[0.5, %s], [0.0, %s]], "translation": [0.0, 0.0]}, '
        '{"linear": [[0.5, 0.0], [0.0, 0.5]], "translation": [0.5, 0.0]}], '
        '"vertices": [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]], "signature": [0, 0]}' % (entry, entry)
    )
    for command in (["validate"], ["eval-f", "--t", "0.3"]):
        assert main([command[0], str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert "map 0, contraction: deviation" in captured.out + captured.err
        assert "Warning" not in captured.err


#: |z_m - z_0| = 1e200 squares past the float range; the norms prescale.
FLOAT_RANGE_CONFIG = (
    '{"dimension": 1, "maps": [{"linear": [[0.5]], "translation": [0.0]}, '
    '{"linear": [[0.5]], "translation": [5e199]}], '
    '"vertices": [[0.0], [5e199], [1e200]], "signature": [0, 0]}'
)


def test_translations_near_the_float_range_evaluate_without_overflow(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(FLOAT_RANGE_CONFIG)
    zipper, _ = build_system(parse_config(path.read_text()))
    assert zipper.diameter_bound == 2e200
    for command in ("eval-f", "eval-g"):
        assert main([command, str(path), "--t", "0.3"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["value"] and captured.err == ""


def test_vertex_deviation_near_the_float_range_is_finite(tmp_path, capsys):
    # both maps send the middle vertex to 5e199, 1e199 away from where it is
    path = tmp_path / "moved.json"
    path.write_text(FLOAT_RANGE_CONFIG.replace("[[0.0], [5e199]", "[[0.0], [6e199]"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["validate", str(path)]) == 1
    report = capsys.readouterr().err
    assert "Warning" not in report
    assert re.findall(r"-vertex: deviation (\S+) ", report) == ["1.000e+199", "1.000e+199"]


def test_residual_norms_near_the_float_range_are_finite(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(FLOAT_RANGE_CONFIG)
    # the error tolerances are absolute, so those checks fail at this scale;
    # a one-dimensional f keeps one direction, so the tangent scan passes
    for suite, checks, code in (
        ("feq", ["parametrization-residual", "integral-residual"], 1),
        ("quad", ["quadrature-agreement"], 1),
        ("tangent", ["tangent-scan"], 0),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["verify", str(path), "--suite", suite]) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        reports = json.loads(captured.out)
        assert [report["check"] for report in reports] == checks
        assert all(math.isfinite(report["maxError"]) for report in reports)
        assert all(None not in pair for report in reports for pair in report["details"])


def test_deeply_nested_config_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: JSON nested too deeply\n"


#: VALID_CONFIG moved by 0.1: a valid zipper whose vertices[0] is not the origin.
SHIFTED_CONFIG = (
    '{"dimension": 1, "maps": [{"linear": [[0.5]], "translation": [0.05]}, '
    '{"linear": [[0.5]], "translation": [0.55]}], '
    '"vertices": [[0.1], [0.6], [1.1]], "signature": [0, 0]}'
)


def test_commands_that_lift_need_vertices_0_at_the_origin(tmp_path, capsys):
    config = tmp_path / "shifted.json"
    config.write_text(SHIFTED_CONFIG)
    for command in (["lift", "--out", str(tmp_path / "lifted.json")], ["verify"],
                    ["eval-g", "--t", "0.5"],
                    ["render", "--lifted", "--svg", str(tmp_path / "lifted.svg")]):
        assert main([command[0], str(config), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: vertices[0] must be the origin, got [0.1]\n"
    assert list(tmp_path.iterdir()) == [config]
    svg = tmp_path / "plain.svg"
    assert main(["validate", str(config)]) == 0
    assert main(["eval-f", str(config), "--t", "0.5"]) == 0
    assert main(["render", str(config), "--depth", "4", "--svg", str(svg)]) == 0
    assert svg.read_text().count("<polyline") == 1


#: The two-map 0.5·x zipper moved off the origin by 1e-10, inside the vertex
#: tolerance that the lift accepts.
NEAR_ORIGIN_CONFIG = (
    '{"dimension": 1, "maps": [{"linear": [[0.5]], "translation": [5e-11]}, '
    '{"linear": [[0.5]], "translation": [0.50000000005]}], '
    '"vertices": [[1e-10], [0.5000000001], [1.0000000001]], "signature": [0, 0]}'
)


def test_verify_accepts_a_first_vertex_that_lift_accepts(tmp_path, capsys):
    config = tmp_path / "near.json"
    config.write_text(NEAR_ORIGIN_CONFIG)
    assert main(["lift", str(config), "--out", str(tmp_path / "lifted.json")]) == 0
    capsys.readouterr()
    assert main(["verify", str(config), "--suite", "all"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    reports = json.loads(captured.out)
    assert [report["check"] for report in reports] == [
        "parametrization-residual", "integral-residual", "quadrature-agreement",
        "derivative-check", "tangent-scan", "eventual-contraction",
    ]
    assert all(report["passed"] for report in reports)


@pytest.mark.parametrize("depth, message", [
    ("31", "depth 31 exceeds the cap 30"), ("-1", "depth must be nonnegative"),
])
def test_render_depth_outside_0_to_the_cap_writes_nothing(tmp_path, capsys, depth, message):
    argv = ["render", "--example1", "p=0.3", "--depth", depth,
            "--svg", str(tmp_path / "out.svg"), "--csv", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


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
    assert config.linears.tolist() == [[[0.5, 0.0], [0.0, 0.15]], [[0.5, 0.0], [0.15, 0.35]]]


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


@pytest.mark.parametrize("first, second", [("--svg", "--csv"), ("--csv", "--chaos")])
def test_render_refuses_two_outputs_on_one_file(tmp_path, capsys, first, second):
    outputs = {"--svg": "curve.svg", "--csv": "curve.csv", "--chaos": "cloud.csv",
               first: "same.out", second: str(tmp_path / "sub" / ".." / "same.out")}
    (tmp_path / "sub").mkdir()
    argv = ["render", "--example1", "p=0.3", "--depth", "4"]
    for flag, name in outputs.items():
        argv += [flag, str(tmp_path / name)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"{first} and {second}" in captured.err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["sub"]


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


ZERO_TANGENT_CONFIG = {  # f vanishes on [0, 1/3]
    "dimension": 1,
    "maps": [{"linear": [[0.0]], "translation": [0.0]},
             {"linear": [[0.5]], "translation": [0.0]},
             {"linear": [[0.5]], "translation": [0.5]}],
    "vertices": [[0.0], [0.0], [0.5], [1.0]],
    "signature": [0, 0, 0],
}


def test_verify_prints_strict_json_when_the_tangent_vanishes(tmp_path, capsys):
    config = tmp_path / "zt.json"
    config.write_text(json.dumps(ZERO_TANGENT_CONFIG))
    assert main(["verify", str(config), "--suite", "tangent"]) == 1
    captured = capsys.readouterr()

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    (report,) = json.loads(captured.out, parse_constant=refuse)
    assert report["check"] == "tangent-scan" and report["maxError"] is None
    assert not report["passed"]
    assert captured.err == ("tangent scan aborted: tangent magnitude <= 1e-12 "
                            "at t = 0.015625\n")


@pytest.mark.parametrize("suite, calls", [("quad", 0), ("contraction", 1), ("all", 1)])
def test_verify_validates_the_lift_only_for_the_contraction_check(monkeypatch, suite, calls):
    from zipperlift import cli

    lifts = []

    def counted(*args):
        lifts.append(args)
        return smooth_zipper(*args)

    smooth_zipper = cli.smooth_zipper
    monkeypatch.setattr(cli, "smooth_zipper", counted)
    main(["verify", "--example1", "p=0.3", "--suite", suite])
    assert len(lifts) == calls


@pytest.mark.parametrize("source", ["ex2-h0.5", "seed0-zipper2"])
def test_verify_descends_each_curve_once_per_oracle(tmp_path, monkeypatch, capsys, source):
    # only the quadrature oracle loops, one batch per grid parameter, which
    # bounds its memory; the other oracles evaluate each curve in one batch
    from zipperlift import parametrization, smoothing

    batches = []
    descend = parametrization._descend

    def recording(ts, *args):
        batches.append(len(ts))
        return descend(ts, *args)

    monkeypatch.setattr(parametrization, "_descend", recording)
    monkeypatch.setattr(smoothing, "_descend", recording)
    if source == "ex2-h0.5":
        argv, maps = ["--example2", "h=0.5"], 2
    else:
        config = tmp_path / "zipper2.json"
        config.write_text(workloads().build_workload("generated-zippers", 0).configs[config.name])
        argv, maps = [str(config)], 5
    main(["verify", *argv, "--suite", "all"])
    capsys.readouterr()
    # feq f and g, quad g and 11 f, deriv f and g, tangent f: 17 descents
    assert batches == [400 * (maps + 1)] * 2 + [11] + [5376] * 11 + [48, 48 * 6, 256 * 3]


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


@pytest.mark.parametrize("argv, message", [
    (["validate", "--example1", "q1=0.4,y1=0.3,y2=inf"], "height y2 must be finite, got inf"),
    (["inverse-design", "--q1", "0.5", "--x1", "0.5", "--g1", "1e-300", "--g2", "1e300"],
     "recovered heights y1 = 1e+300, y2 = inf are not finite"),
], ids=["example1-y2", "inverse-design"])
def test_non_finite_heights_exit_2_naming_them(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["validate", "--example1", "p"], "--example1: expected key=value, got 'p'"),
    (["validate", "missing.json"], "cannot read config 'missing.json': "),
], ids=["assignment", "unreadable-config"])
def test_unusable_system_sources_exit_2(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


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


def _loaded_modules(code):
    """The modules of multiprocessing, scipy, concurrent.futures and
    numpy.random that a fresh interpreter on the sources holds after running
    ``code``."""
    probe = code + (
        "\nimport json, sys; print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'scipy') "
        "or m.startswith(('concurrent.futures', 'numpy.random')))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_cli_import_loads_no_process_pool():
    # nor scipy, which the package does not use and which would double the
    # import time of every command
    assert _loaded_modules("import zipperlift, zipperlift.cli") == []


def test_cli_commands_load_no_numpy_random(tmp_path):
    # the seeded draws are numpy's PCG64 streams computed by the package:
    # importing numpy.random would cost each process about 5 MB
    config = tmp_path / "generated.json"
    generated = workloads().build_workload("generated-zippers", 0).configs.values()
    config.write_text(next(iter(generated)))
    commands = [
        ["verify", "--example2", "h=0.5", "--suite", "all"],
        ["render", str(config), "--lifted", "--depth", "4", "--svg", str(tmp_path / "a.svg"),
         "--chaos", str(tmp_path / "chaos.csv"), "--points", "1000"],
    ]
    code = "from zipperlift.cli import main\n" + "".join(f"main({c!r})\n" for c in commands)
    assert _loaded_modules(code) == []
    assert len((tmp_path / "chaos.csv").read_text().splitlines()) >= 1000


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


def _run_python(code, **env):
    """Run ``code`` in a fresh interpreter on the sources, with no BLAS thread
    variable set but those in ``env``; the last line of its stdout as JSON."""
    inherited = {key: value for key, value in os.environ.items() if key not in THREAD_VARIABLES}
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(inherited, PYTHONPATH=SRC, **env),
        capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_package_import_loads_no_numpy_and_keeps_the_environment():
    probe = (
        "import json, os, sys; before = dict(os.environ); import zipperlift; "
        "after_package = ['numpy' in sys.modules, dict(os.environ) == before]; "
        "import zipperlift.cli; "
        "print(json.dumps(after_package + ['numpy' in sys.modules, dict(os.environ) == before]))"
    )
    assert _run_python(probe) == [False, True, True, True]


def test_public_names_resolve_to_the_objects_their_submodules_define():
    probe = (
        "import importlib, json, zipperlift\n"
        "names = list(zipperlift.__all__)\n"
        "foreign = [name for name in names if getattr(importlib.import_module("
        "getattr(zipperlift, name).__module__), name) is not getattr(zipperlift, name)]\n"
        "try:\n"
        "    zipperlift.no_such_name\n"
        "    missing = 'resolved'\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps([len(names), foreign, set(names) <= set(dir(zipperlift)), missing]))"
    )
    assert _run_python(probe) == [
        56, [], True, "module 'zipperlift' has no attribute 'no_such_name'"]


#: Runs ``python -m zipperlift validate --example1 p=0.3`` through runpy and
#: records the BLAS thread variables at numpy's first import.
MODULE_ENTRY_PROBE = f"""
import json, os, runpy, sys
seen = []

class FirstNumpyImport:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append([os.environ.get(key) for key in {THREAD_VARIABLES!r}])
        return None

assert "numpy" not in sys.modules
sys.meta_path.insert(0, FirstNumpyImport())
sys.argv = ["zipperlift", "validate", "--example1", "p=0.3"]
try:
    runpy.run_module("zipperlift", run_name="__main__")
except SystemExit as exc:
    print(json.dumps([exc.code, seen]))
"""


@pytest.mark.parametrize("env, expected", [
    ({}, ["1", "1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1", "1"]),
], ids=["unset", "user-set"])
def test_module_entry_sets_blas_threads_before_numpy_loads(env, expected):
    assert _run_python(MODULE_ENTRY_PROBE, **env) == [0, [expected]]


def test_console_entry_freezes_the_collector_and_returns_the_exit_code():
    # the tangent scan of ex2 h=0.5 fails, its known verdict, so the code is 1
    probe = (
        "import gc, json; from zipperlift.__main__ import main; "
        "code = main(['verify', '--example2', 'h=0.5', '--suite', 'tangent']); "
        "print(json.dumps([code, gc.get_freeze_count() > 0]))"
    )
    assert _run_python(probe) == [1, True]


def test_package_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = []
    for path in sorted((Path(SRC) / "zipperlift").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}: {module}" for module in modules
                        if module.split(".")[0] not in allowed]
    assert outside == []


def test_declared_numpy_floor_has_vecdot():
    # geometry.row_norms calls np.vecdot, new in numpy 2.0; the
    # floor is read with a regex, as Python 3.10 has no tomllib
    text = (Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', text)
    assert floor is not None and (int(floor[1]), int(floor[2])) >= (2, 0)


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


def test_eventual_contraction_is_derived_by_validation():
    from zipperlift.zipper import validate_zipper

    config = parse_config(json.dumps(EVENTUAL_CONFIG))
    zipper = validate_zipper(config.linears, config.translations, config.vertices,
                             config.signature)
    assert zipper.contraction_mode == "eventual"
    assert max(zipper.linear_norms) > 3.0


def test_verify_reports_the_scan_validation_stored(tmp_path, monkeypatch):
    # validation scans the eventual source and its eventual lift once each;
    # the contraction check reports the lift's stored scan
    scans = count_word_scans(monkeypatch)
    config = tmp_path / "eventual.json"
    config.write_text(json.dumps(EVENTUAL_CONFIG))
    assert main(["verify", str(config), "--suite", "contraction"]) == 0
    assert len(scans) == 2


def test_verify_reports_a_per_map_certificate_without_scanning(monkeypatch, capsys):
    # ex2 h=0.5 and its lift contract per map: their certificates are read
    # off the norms, and the contraction check scans nothing either
    from zipperlift import verification

    scans = count_word_scans(monkeypatch)
    assert main(["verify", "--example2", "h=0.5", "--suite", "contraction"]) == 0
    [report] = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["samples"] == 2
    assert scans == []
    assert not hasattr(verification, "eventual_contraction_scan")


def count_word_scans(monkeypatch):
    """The argument tuples of every word scan run from now on through
    validation's name or the defining module's."""
    from zipperlift import geometry
    from zipperlift import zipper as zipper_module
    from zipperlift.geometry import eventual_contraction_scan

    scans = []

    def counted(*args):
        scans.append(args)
        return eventual_contraction_scan(*args)

    for module in (geometry, zipper_module):
        monkeypatch.setattr(module, "eventual_contraction_scan", counted)
    return scans


def test_contraction_check_equals_a_fresh_scan():
    from zipperlift.config_io import build_system
    from zipperlift.families import (
        Example1Config, Example2Config, build_example1, build_example2,
    )
    from zipperlift.geometry import eventual_contraction_scan
    from zipperlift.smoothing import build_lift, smooth_zipper
    from zipperlift.verification import eventual_contraction_check
    from zipperlift.zipper import EVENTUAL_WORD_LENGTH

    systems = (build_system(parse_config(json.dumps(EVENTUAL_CONFIG))),
               build_example1(Example1Config(p=0.3)),
               build_example2(Example2Config(h_param=0.5)))
    modes = []
    for zipper, line in systems:
        lifted = smooth_zipper(zipper, line, build_lift(zipper, line))
        modes.append(lifted.contraction_mode)
        report = eventual_contraction_check(lifted)
        scan = eventual_contraction_scan(lifted.linears, lifted.translations, lifted.vertices[0],
                                         EVENTUAL_WORD_LENGTH)
        assert scan.passed and report.passed
        fresh = [scan.values[-1][1]] + [v for pair in scan.values for v in pair]
        reported = [report.max_error] + [v for pair in report.details for v in pair]
        assert np.array(reported).tobytes() == np.array(fresh, dtype=float).tobytes()
    assert modes == ["eventual", "per-map", "per-map"]


@pytest.mark.parametrize("config", [EVENTUAL_CONFIG, VALID_CONFIG], ids=["eventual", "per-map"])
def test_inspect_zipper_holds_the_zipper_that_validation_returns(config):
    from zipperlift.zipper import inspect_zipper, validate_zipper

    parsed = parse_config(config if isinstance(config, str) else json.dumps(config))
    args = (parsed.linears, parsed.translations, parsed.vertices, parsed.signature)
    report, built = inspect_zipper(*args), validate_zipper(*args)
    assert report.valid and report.violations == ()
    held = report.zipper
    assert np.array(held.linear_norms).tobytes() == np.array(built.linear_norms).tobytes()
    assert held.word_scan == built.word_scan
    assert held.vertices.tobytes() == built.vertices.tobytes()
    assert not held.vertices.flags.writeable
    assert held.dimension == built.dimension == held.linears.shape[1]


def six_map_config():
    """A planar similarity zipper with six maps, two of them reversing."""
    vertices = np.array([[0.0, 0.0], [0.15, 0.1], [0.35, 0.15], [0.5, 0.12],
                         [0.65, 0.15], [0.85, 0.1], [1.0, 0.0]])
    signature = [0, 1, 0, 0, 1, 0]
    maps = []
    for k, bit in enumerate(signature):
        dx, dy = vertices[k + 1] - vertices[k]
        linear = (-1) ** bit * np.array([[dx, -dy], [dy, dx]])
        maps.append({"linear": linear.tolist(), "translation": vertices[k + bit].tolist()})
    return {"dimension": 2, "maps": maps, "vertices": vertices.tolist(),
            "signature": signature}


def test_six_map_zipper_lifts_renders_and_verifies(tmp_path, capsys):
    # the eventual-contraction scan stops at the first certifying word
    # length, so 6^8 longer words never count against the budget
    config = tmp_path / "six.json"
    config.write_text(json.dumps(six_map_config()))
    lifted = tmp_path / "six-lifted.json"
    assert main(["lift", str(config), "--out", str(lifted)]) == 0
    assert main(["validate", str(lifted)]) == 0
    svg = tmp_path / "six.svg"
    assert main(["render", str(config), "--lifted", "--project", "0,1", "--depth", "4",
                 "--svg", str(svg)]) == 0
    capsys.readouterr()
    main(["verify", str(config), "--suite", "all"])
    captured = capsys.readouterr()
    assert "error:" not in captured.err
    reports = {report["check"]: report for report in json.loads(captured.out)}
    assert reports["eventual-contraction"]["passed"]
    assert reports["eventual-contraction"]["samples"] == 6


def test_traced_benchmark_layers_are_cli_names():
    # perfbench/layers.py rebinds each CLI_LAYERS key on zipperlift.cli;
    # read the names from its source, without importing it
    import ast

    from zipperlift import cli

    layers = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    tree = ast.parse(layers.read_text())
    assigned = {
        node.targets[0].id: node.value for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    names = []
    for key, value in zip(assigned["CLI_LAYERS"].keys, assigned["CLI_LAYERS"].values):
        if key is None:  # **{check: ... for check in VERIFICATION_CHECKS}
            names += ast.literal_eval(assigned[value.generators[0].iter.id])
        else:
            names.append(ast.literal_eval(key))
    assert "build_lift" in names and "eventual_contraction_check" in names
    assert [name for name in names if not hasattr(cli, name)] == []


def test_benchmark_imports_resolve():
    # perfbench/ runs outside tier-1 testpaths; read its zipperlift imports
    # from source, without importing or writing anything there
    import importlib
    import inspect

    from zipperlift import refine

    bench = Path(__file__).resolve().parents[1] / "perfbench"
    imported = []
    for path in sorted(bench.glob("*.py")) + sorted(bench.glob("tests/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "zipperlift"):
                imported += [(node.module, alias.name) for alias in node.names]
    assert ("zipperlift", "refine") in imported and ("zipperlift.cli", "main") in imported
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
    # perfbench/checks.py asks refine for the mesh bound of a graph zipper
    assert "line" in inspect.signature(refine).parameters


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
