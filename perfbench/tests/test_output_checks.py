import json

import numpy as np
import pytest
from zipperlift import Example1Config, build_example1
from zipperlift.cli import main

from checks import (
    SUITE_ORDER,
    digest_problems,
    exact_reference_problems,
    render_problems,
    svg_point_count,
    verify_problems,
)
from workloads import build_workload

DEPTH = 6


def reports(failing=()):
    return [
        {"check": name, "maxError": 1.0 if name in failing else 0.0, "samples": 4,
         "passed": name not in failing, "tolerance": 0.5, "details": []}
        for name in SUITE_ORDER
    ]


def test_verify_accepts_expected_verdicts():
    assert verify_problems(json.dumps(reports()), 0, True) == []
    assert verify_problems(json.dumps(reports({"tangent-scan"})), 1, False) == []
    assert verify_problems(json.dumps(reports({"tangent-scan"})), 1, None) == []


@pytest.mark.parametrize("text, code, tangent", [
    (json.dumps(reports()), 1, True),                          # exit code disagrees
    (json.dumps(reports({"tangent-scan"})), 0, None),          # exit code disagrees
    (json.dumps(reports({"tangent-scan"})), 1, True),          # criterion-9 verdict flipped
    (json.dumps(reports({"integral-residual"})), 1, None),     # an oracle failed
    (json.dumps(reports()[::-1]), 0, True),                    # wrong order
    (json.dumps(reports()[:5]), 0, True),                      # a report missing
    ("not json", 0, True),
])
def test_verify_flags_bad_output(text, code, tangent):
    assert verify_problems(text, code, tangent)


@pytest.fixture(scope="module")
def render_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("render")
    svg, csv = root / "out.svg", root / "out.csv"
    assert main(["render", "--example1", "p=0.3", "--depth", str(DEPTH),
                 "--svg", str(svg), "--csv", str(csv)]) == 0
    return root, svg, csv


def run_render_check(svg, csv):
    zipper, line = build_example1(Example1Config(p=0.3))
    return render_problems(str(csv), str(svg), None, zipper, line, False, DEPTH, 0,
                           np.random.default_rng(0))


def test_render_check_accepts_cli_output(render_files):
    _, svg, csv = render_files
    problems, written = run_render_check(svg, csv)
    assert problems == []
    assert written == 2 ** (DEPTH + 1) + 1
    assert svg_point_count(svg) == written


def test_render_check_flags_corrupt_rows(render_files, tmp_path):
    _, svg, csv = render_files
    lines = csv.read_text().splitlines()
    bad = tmp_path / "bad.csv"
    # drop one row: count, SVG agreement and (maybe) sampled rows break
    bad.write_text("\n".join(lines[:10] + lines[11:]) + "\n")
    assert run_render_check(svg, bad)[0]
    # move every point far from the curve
    shifted = [lines[0]] + [row.rsplit(",", 1)[0] + ",5" for row in lines[1:]]
    bad.write_text("\n".join(shifted) + "\n")
    assert any("misses its evaluation" in p for p in run_render_check(svg, bad)[0])
    # t column out of order
    swapped = lines[:2] + [lines[3], lines[2]] + lines[4:]
    bad.write_text("\n".join(swapped) + "\n")
    assert any("non-decreasing" in p for p in run_render_check(svg, bad)[0])


def test_render_check_flags_lossy_digits(render_files, tmp_path):
    _, svg, csv = render_files
    lines = csv.read_text().splitlines()
    lossy = [lines[0]] + [",".join(f"{float(v):.6g}" for v in row.split(","))
                          for row in lines[1:]]
    bad = tmp_path / "lossy.csv"
    bad.write_text("\n".join(lossy) + "\n")
    assert any("misses its evaluation" in p for p in run_render_check(svg, bad)[0])


def test_digests_are_checked_only_where_committed():
    command = build_workload("verify-presets", 0).commands[0]
    assert digest_problems("verify-presets", command, ["0" * 64])
    generated = build_workload("generated-zippers", 0).commands[0]
    assert digest_problems("generated-zippers", generated, ["0" * 64]) == []


def test_chaos_check_flags_stray_points(tmp_path):
    svg, csv, chaos = tmp_path / "o.svg", tmp_path / "o.csv", tmp_path / "c.csv"
    assert main(["render", "--example1", "p=0.3", "--depth", str(DEPTH), "--svg", str(svg),
                 "--csv", str(csv), "--chaos", str(chaos), "--points", "500"]) == 0
    zipper, line = build_example1(Example1Config(p=0.3))

    def check():
        return render_problems(str(csv), str(svg), str(chaos), zipper, line, False, DEPTH,
                               500, np.random.default_rng(0))[0]

    assert check() == []
    lines = chaos.read_text().splitlines()
    chaos.write_text("\n".join(lines[:-1] + ["0.5,3"]) + "\n")
    assert any("chaos point" in p for p in check())


def test_exact_reference_holds():
    problems, count = exact_reference_problems(np.random.default_rng(1))
    assert problems == []
    assert count > 30
