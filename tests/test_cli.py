import hashlib
import json
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
