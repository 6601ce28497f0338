"""``tools/cli_snapshot.py --compare``: the numeric report of what moved
between two snapshot directories."""

import json
import math
import runpy
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_snapshot.py"

H = 0.1234567890123456
VERIFY = """[
  {{
    "check": "parametrization-residual",
    "maxError": 1.5e-10,
    "samples": 400,
    "passed": true,
    "tolerance": 2e-09,
    "details": [[0.25, {h!r}]]
  }},
  {{
    "check": "tangent-scan",
    "maxError": 0.5,
    "samples": 768,
    "passed": {passed},
    "tolerance": 0.5555555555555556,
    "details": []
  }}
]
"""


def record(argv, code, stdout, stderr=""):
    return f"$ zipperlift {argv}\nexit {code}\n--- stdout\n{stdout}--- stderr\n{stderr}"


def write_snapshot(root, h, passed, code, stderr, extra):
    system = root / "ex2-h0.5"
    system.mkdir(parents=True)
    (system / "zipper.json").write_text('{"dimension": 2}\n')
    (system / "03-verify.txt").write_text(
        record("verify --example2 h=0.5 --suite all", code, VERIFY.format(h=h, passed=passed),
               stderr))
    (system / "00-validate.txt").write_text(record("validate", 0, "valid zipper\n"))
    (system / "plain.csv").write_text(f"0,0\n{h!r},1\n1,{extra}\n")
    return root


def compare(tmp_path):
    old = write_snapshot(tmp_path / "old", H, "true", 0, "", "0")
    new = write_snapshot(tmp_path / "new", math.nextafter(H, 1.0), "false", 1,
                         "tangent scan slow\n", "2 # a note")
    (new / "ex2-h0.5" / "chaos.csv").write_text("0,0\n")
    result = subprocess.run([sys.executable, str(TOOL), "--compare", str(old), str(new)],
                            capture_output=True, text=True, timeout=60)
    return result.returncode, [json.loads(line) for line in result.stdout.splitlines()]


def test_compare_reports_each_changed_file(tmp_path):
    code, lines = compare(tmp_path)
    assert code == 1
    assert lines == [
        {"file": "ex2-h0.5/03-verify.txt", "exit": [0, 1],
         "stderr": ["", "tangent scan slow\n"],
         "flipped": [{"check": "tangent-scan", "old": True, "new": False}],
         "numbers": {"paired": 10, "moved": 1, "maxUlps": 1,
                     "maxRelative": (math.nextafter(H, 1.0) - H) / math.nextafter(H, 1.0)}},
        {"file": "ex2-h0.5/chaos.csv", "onlyIn": "new"},
        {"file": "ex2-h0.5/plain.csv",
         "numbers": {"paired": 4, "moved": 1, "maxUlps": 1,
                     "maxRelative": (math.nextafter(H, 1.0) - H) / math.nextafter(H, 1.0)},
         "text": [{"old": ["1,0\n"], "new": ["1,2 # a note\n"]}]},
    ]


def test_recorder_writes_what_compare_parses(tmp_path):
    # --compare reads each record through RECORD; run must write that format
    tool = runpy.run_path(str(TOOL))
    text = tool["run"](tmp_path, ["validate", "--example1", "p=0.3"])
    head, code, stdout, stderr = tool["RECORD"].match(text).groups()
    assert head == "$ zipperlift validate --example1 p=0.3\n"
    assert (code, stderr) == ("0", "")
    assert stdout == "valid zipper (per-map contraction; factors 0.3, 0.7)\n"


def test_identical_snapshots_compare_empty(tmp_path):
    old = write_snapshot(tmp_path / "old", H, "true", 0, "", "0")
    new = write_snapshot(tmp_path / "new", H, "true", 0, "", "0")
    assert runpy.run_path(str(TOOL))["compare"](old, new) == 0


def test_swapped_offenders_pair_by_location(tmp_path):
    # the two worst offenders swap rank as each error moves by 1 ulp
    worst = 1.5e-10
    below = math.nextafter(worst, 0.0)
    for root, details in ((tmp_path / "old", [[0.25, worst], [0.75, below]]),
                          (tmp_path / "new", [[0.75, worst], [0.25, below]])):
        report = {"check": "parametrization-residual", "maxError": worst, "samples": 400,
                  "passed": True, "tolerance": 2e-09, "details": details}
        (root / "ex1").mkdir(parents=True)
        (root / "ex1" / "03-verify.txt").write_text(
            record("verify --suite feq", 0, json.dumps([report], indent=2) + "\n"))
    result = subprocess.run([sys.executable, str(TOOL), "--compare", str(tmp_path / "old"),
                             str(tmp_path / "new")], capture_output=True, text=True, timeout=60)
    assert result.returncode == 1
    assert [json.loads(line) for line in result.stdout.splitlines()] == [
        {"file": "ex1/03-verify.txt",
         "offenders": [{"check": "parametrization-residual", "old": [0.25, 0.75],
                        "new": [0.75, 0.25]}],
         "numbers": {"paired": 7, "moved": 2, "maxUlps": 1,
                     "maxRelative": (worst - below) / worst}},
    ]
