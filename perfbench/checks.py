"""Output checks for benchmark runs.  Each returns a list of problems; empty
means the output is correct.  They run outside the timed window."""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

#: Report order of ``verify --suite all``.
SUITE_ORDER = (
    "parametrization-residual",
    "integral-residual",
    "quadrature-agreement",
    "derivative-check",
    "tangent-scan",
    "eventual-contraction",
)

#: Tangent-scan verdicts fixed by acceptance criterion 9: the scan passes on
#: ex1 p=0.3 and keeps failing on ex2 h=0.5.  Generated zippers have none.
TANGENT_VERDICTS = {("--example1", "p=0.3"): True, ("--example2", "h=0.5"): False}

#: Evaluation tolerance of the sampled row checks (the CLI default).
EVAL_TOL = 1e-9

#: Rows per CSV compared against ``eval_f``/``eval_g``.
SAMPLED_ROWS = 48

#: Slack for float rounding on top of certified bounds.  Polyline rows are
#: exact images f(t_k) up to rounding (worst seen: 5e-11), written as
#: shortest round-trip decimals.
ROUNDING_SLACK = 1e-10

#: sha256 of the stdout and each output file of every command of the
#: workloads whose inputs do not depend on the seed, copied from the
#: ``digests`` of a run record in ``.bench_work/records/``.
EXPECTED_DIGESTS = Path(__file__).resolve().parent / "expected_digests.json"


def text_digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digest_problems(workload, command, digests):
    """Digests that differ from the committed ones.  Workloads without
    committed digests (their inputs change with the seed) have none."""
    with open(EXPECTED_DIGESTS, "r", encoding="utf-8") as handle:
        expected = json.load(handle).get(workload)
    if expected is None:
        return []
    wanted = expected.get(command.name)
    if wanted is None:
        return [f"no committed digests for {command.name}"]
    files = ["stdout"] + list(command.outputs)
    return [f"{name} sha256 {got[:12]}..., committed {want[:12]}..."
            for name, got, want in zip(files, digests, wanted) if got != want]


def verify_problems(text, returncode, tangent_expected):
    """All six reports in suite order, every check but tangent-scan passing,
    the expected tangent verdict (``None``: informational), and exit code 0
    exactly when every check passes."""
    try:
        reports = json.loads(text)
        names = [report["check"] for report in reports]
        verdicts = {report["check"]: bool(report["passed"]) for report in reports}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"verify output is not a report list: {exc}"]
    problems = []
    if names != list(SUITE_ORDER):
        problems.append(f"reports {names} are not the suite {list(SUITE_ORDER)}")
    for report in reports:
        name = report["check"]
        if name == "tangent-scan":
            if tangent_expected is not None and verdicts[name] != tangent_expected:
                problems.append(f"tangent-scan passed={verdicts[name]}, expected {tangent_expected}")
        elif not verdicts[name]:
            problems.append(f"{name} failed: maxError {report['maxError']!r} "
                            f"> tolerance {report['tolerance']!r}")
    expected_code = 0 if all(verdicts.values()) else 1
    if returncode != expected_code:
        problems.append(f"exit code {returncode}, expected {expected_code}")
    return problems


def verify_sample_count(text):
    """Sample points the verify reports count, summed over the suite (0 when
    the output is not a report list)."""
    try:
        return sum(int(report["samples"]) for report in json.loads(text))
    except (ValueError, KeyError, TypeError):
        return 0


def read_csv(path):
    """(header, rows) of an exported CSV."""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        rows = np.loadtxt(handle, delimiter=",", ndmin=2)
    return header, rows


def svg_point_count(path):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    match = re.search(r'<polyline [^>]*points="([^"]*)"', text)
    if match is None:
        return 0
    return len(match.group(1).split(" "))


def render_problems(polyline_csv, svg_path, chaos_csv, zipper, line, lifted, depth,
                    chaos_points, rng):
    """Check one render's files against the library it came from.

    The polyline has m^(d+1)+1 rows with t non-decreasing from 0 to 1, the
    SVG draws the same number of points, a seeded sample of rows matches
    ``eval_f`` (or ``eval_g`` for lifted renders) within the returned error
    bound plus rounding slack, and every chaos point lies within the mesh
    bound of the polyline.  Returns (problems, rows written).
    """
    from scipy.spatial import cKDTree
    from zipperlift import build_lift, eval_f, eval_g, product_zipper, refine, smooth_zipper

    problems = []
    header, rows = read_csv(polyline_csv)
    expected_rows = zipper.map_count ** (depth + 1) + 1
    dim = zipper.dimension + 1
    if header != ["t"] + [f"x{j + 1}" for j in range(dim)]:
        problems.append(f"{polyline_csv}: header {header}")
        return problems, rows.shape[0]
    if rows.shape[0] != expected_rows:
        problems.append(f"{polyline_csv}: {rows.shape[0]} rows, expected {expected_rows}")
    ts = rows[:, 0]
    if ts[0] != 0.0 or ts[-1] != 1.0 or np.any(np.diff(ts) < 0.0):
        problems.append(f"{polyline_csv}: t column is not non-decreasing from 0 to 1")
    drawn = svg_point_count(svg_path)
    if drawn != rows.shape[0]:
        problems.append(f"{svg_path}: {drawn} points, CSV has {rows.shape[0]}")

    lift = build_lift(zipper, line)
    worst = 0.0
    for row in rows[rng.choice(rows.shape[0], size=SAMPLED_ROWS, replace=False)]:
        t = float(row[0])
        if lifted:
            result = eval_g(t, zipper, line, lift, tol=EVAL_TOL)
        else:
            result = eval_f(t, zipper, line, tol=EVAL_TOL)
        error = max(abs(row[1] - t), float(np.linalg.norm(row[2:] - result.value)))
        worst = max(worst, error - result.error_bound)
    if worst > ROUNDING_SLACK:
        problems.append(f"{polyline_csv}: a sampled row misses its evaluation by "
                        f"{worst:.3e} beyond the error bound")
    written = rows.shape[0]

    if chaos_csv is not None:
        target = smooth_zipper(zipper, line, lift) if lifted else product_zipper(zipper, line)
        mesh_bound = refine(target, depth, line=line).mesh_bound
        header, points = read_csv(chaos_csv)
        written += points.shape[0]
        if header != [f"x{j + 1}" for j in range(dim)] or points.shape != (chaos_points, dim):
            problems.append(f"{chaos_csv}: shape {points.shape}, header {header}")
        else:
            distance = float(cKDTree(rows[:, 1:]).query(points, k=1)[0].max())
            if distance > mesh_bound + ROUNDING_SLACK:
                problems.append(f"{chaos_csv}: a chaos point is {distance:.3e} from the "
                                f"polyline, mesh bound {mesh_bound:.3e}")
    return problems, written


def exact_reference_problems(rng, count=24):
    """Example 1 at p = 1/2 has f(t) = t and g(t) = t^2/2.  Compare in exact
    rational arithmetic, which shares no float code with the evaluators, at
    seeded dyadic parameters and at the floats next to each node."""
    from zipperlift import Example1Config, build_example1, build_lift, eval_f, eval_g

    zipper, line = build_example1(Example1Config(p=0.5))
    lift = build_lift(zipper, line)
    ts = [0.0, 0.5, 1.0]
    for node in (0.0, 0.5, 1.0):
        ts += [float(np.nextafter(node, -1.0)), float(np.nextafter(node, 2.0))]
    ts = [t for t in ts if 0.0 <= t <= 1.0]
    bits = rng.integers(1, 52, size=count)
    ts += [int(rng.integers(0, 2**int(b) + 1)) / 2.0**int(b) for b in bits]
    problems = []
    for t in ts:
        exact_t = Fraction(t)
        f = eval_f(t, zipper, line, tol=EVAL_TOL)
        if abs(Fraction(float(f.value[0])) - exact_t) > Fraction(f.error_bound):
            problems.append(f"f({t!r}) = {f.value[0]!r} misses t beyond {f.error_bound!r}")
        g = eval_g(t, zipper, line, lift, tol=EVAL_TOL)
        if abs(Fraction(float(g.value[0])) - exact_t**2 / 2) > Fraction(g.error_bound):
            problems.append(f"g({t!r}) = {g.value[0]!r} misses t^2/2 beyond {g.error_bound!r}")
    return problems, len(ts)
