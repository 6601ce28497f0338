"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here, not configured elsewhere.
"""

import json
import math
import subprocess
import sys

import numpy as np

from zipperlift.attractor import refine
from zipperlift.families import (
    Example1Config,
    Example2Config,
    build_example1,
    build_example2,
)
from zipperlift.parametrization import eval_f_many
from zipperlift.smoothing import (
    build_lift,
    eval_g,
    eval_g_many,
    inverse_design,
    smooth_zipper,
)
from zipperlift.verification import (
    TANGENT_F_TOL,
    TANGENT_T_MIN,
    derivative_check,
    eventual_contraction_check,
    integral_residual,
    parametrization_residual,
    tangent_scan,
)
from zipperlift.zipper import inspect_zipper, product_zipper
from oracles import graph_identity_check, hausdorff_residual, quadrature_g


def _verdict(name, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    print(line)
    assert passed, line


def test_criterion_01_parabola_exactness(interval_half):
    zipper, line, lift = interval_half
    ts = np.linspace(0.0, 1.0, 1024)
    worst = max(
        abs(eval_g(float(t), zipper, line, lift, tol=1e-10).value[0] - t * t / 2.0)
        for t in ts
    )
    _verdict("criterion 1 (parabola exactness)", worst <= 1e-9,
             f"max |g(t) - t^2/2| = {worst:.3e} over 1024 points (tol 1e-9)")


def test_criterion_02_total_integral_closed_forms():
    worst = 0.0
    for p in np.arange(0.1, 0.95, 0.1):
        zipper, line = build_example1(Example1Config(p=float(p)))
        worst = max(worst, abs(build_lift(zipper, line).h[0] - p))
    zipper, line = build_example1(Example1Config(q1=0.4, y1=0.3, y2=1.0))
    general_err = abs(build_lift(zipper, line).h[0] - 0.18 / 0.46)
    worst = max(worst, general_err)
    _verdict("criterion 2 (total-integral closed forms)", worst <= 1e-12,
             f"worst deviation {worst:.3e} over p grid + generalized family (tol 1e-12)")


def test_criterion_03_rotation_family_fixed_point():
    zipper, line = build_example2(Example2Config(h_param=0.5))
    half_err = np.linalg.norm(build_lift(zipper, line).h - [0.5, 0.5])
    formula_worst = 0.0
    quad_ok = True
    quad_detail = []
    for h in (0.1, 0.3, 0.5, 0.8):
        config = Example2Config(h_param=h)
        zipper, line = build_example2(config)
        total = build_lift(zipper, line).h
        scale = 1.0 - config.p * math.cos(config.alpha)
        expected = np.array([1.0 / (4.0 * scale), h / (2.0 * scale)])
        formula_worst = max(formula_worst, float(np.linalg.norm(total - expected)))
        errors = [
            float(np.linalg.norm(quadrature_g(1.0, zipper, line, panels) - total))
            for panels in (2**10, 2**12, 2**14, 2**16)
        ]
        quad_detail.append(f"h={h}: {errors[-1]:.2e}")
        quad_ok &= errors[-1] <= 2e-3
        for coarse, fine in zip(errors, errors[1:]):
            quad_ok &= fine <= max(1.05 * coarse, 1e-8)
    passed = half_err <= 1e-12 and formula_worst <= 1e-12 and quad_ok
    _verdict("criterion 3 (rotation-family fixed point)", passed,
             f"|g(1)-(.5,.5)| = {half_err:.2e}, worst formula dev {formula_worst:.2e}, "
             f"quadrature at 2^16: {', '.join(quad_detail)}")


def test_criterion_04_functional_equation_residuals(interval_03, rotation_half):
    worst = 0.0
    for zipper, line, lift in (interval_03, rotation_half):
        feq = parametrization_residual(zipper, line, samples=1000)
        geq = integral_residual(zipper, line, lift, samples=1000)
        worst = max(worst, feq.max_error, geq.max_error)
    _verdict("criterion 4 (functional-equation residuals)", worst <= 2e-9,
             f"worst residual {worst:.3e} over 1000 samples per example (tol 2e-9)")


def test_criterion_05_fundamental_theorem():
    results = []
    for build, configs in (
        (build_example1, [Example1Config(p=p) for p in (0.3, 0.5, 0.7)]),
        (build_example2, [Example2Config(h_param=h) for h in (0.3, 0.5)]),
    ):
        for config in configs:
            zipper, line = build(config)
            lift = build_lift(zipper, line)
            report = derivative_check(zipper, line, lift, sample_count=100)
            results.append(report)
    worst = max(report.max_error for report in results)
    passed = all(report.passed for report in results)
    _verdict("criterion 5 (fundamental theorem)", passed,
             f"worst central-difference error {worst:.3e} "
             f"(bound 10*delta^0.5 = 1e-3 at delta 1e-8)")


def test_criterion_06_lifted_zipperhood():
    failures = []
    configs = [("p", p, build_example1(Example1Config(p=p))) for p in (0.3, 0.5, 0.7)]
    configs += [
        ("h", h, build_example2(Example2Config(h_param=h))) for h in (0.1, 0.3, 0.5, 0.8)
    ]
    for kind, value, (zipper, line) in configs:
        lift = build_lift(zipper, line)
        lifted = smooth_zipper(zipper, line, lift)
        report = inspect_zipper(
            lifted.linears, lifted.translations, lifted.vertices, lifted.signature
        )
        if not report.valid:
            failures.append(f"{kind}={value}: vertex conditions")
        if not eventual_contraction_check(lifted).passed:
            failures.append(f"{kind}={value}: contraction")
        polyline = refine(lifted, 12, line=line)
        residual = hausdorff_residual(polyline, lifted)
        if residual > 2.0 * polyline.mesh_bound:
            failures.append(f"{kind}={value}: residual {residual:.2e}")
    _verdict("criterion 6 (lifted zipperhood)", not failures,
             f"7 lifted systems: vertex conditions at 1e-9, word-length-8 "
             f"contraction, depth-12 residual <= 2x mesh bound"
             + (f"; failures: {failures}" if failures else ""))


def test_criterion_07_graph_identity(interval_03, rotation_half):
    worst = 0.0
    for zipper, line, lift in (interval_03, rotation_half):
        product = product_zipper(zipper, line)
        sampled = refine(product, 12, line=line)
        f_report = graph_identity_check(
            sampled, lambda ts: eval_f_many(ts, zipper, line, tol=1e-9)[0],
            samples=1000, tol=1e-6,
        )
        lifted = smooth_zipper(zipper, line, lift)
        arc = refine(lifted, 12, line=line)
        g_report = graph_identity_check(
            arc, lambda ts: eval_g_many(ts, zipper, line, lift, tol=1e-9)[0],
            samples=1000, tol=1e-6,
        )
        worst = max(worst, f_report.max_error, g_report.max_error)
        if not (f_report.passed and g_report.passed):
            break
    _verdict("criterion 7 (graph identity)", worst <= 1e-6,
             f"worst re-evaluation gap {worst:.3e} at 1000 points per graph (tol 1e-6)")


def test_criterion_08_inverse_design_round_trip():
    worst = 0.0
    for p in np.arange(0.1, 0.95, 0.1):
        zipper, line = build_example1(Example1Config(p=float(p)))
        totals = build_lift(zipper, line).node_integrals
        y1, y2 = inverse_design(0.5, 0.5, 0.5, float(totals[1, 0]), float(totals[2, 0]))
        worst = max(worst, abs(y1 - p), abs(y2 - 1.0))
    _verdict("criterion 8 (inverse design round trip)", worst <= 1e-9,
             f"worst recovery error {worst:.3e} over p in 0.1..0.9 (tol 1e-9)")


def _max_direction_increment(values):
    units = values / np.linalg.norm(values, axis=1)[:, None]
    cosines = np.clip(np.einsum("pi,pi->p", units[:-1], units[1:]), -1.0, 1.0)
    return float(np.arccos(cosines).max())


def _certified_increment_bound(zipper, line, values, spacing, tol):
    # Largest angle between tangents sampled `spacing` apart that the
    # construction allows; see criterion 9 for the derivation.
    assert np.array_equal(line.nodes, [0.0, 0.5, 1.0])  # halving pieces
    assert np.linalg.norm(zipper.translations[0]) == 0.0  # S_1 fixes 0
    p = max(np.linalg.norm(linear, 2) for linear in zipper.linears)
    reach = max(np.linalg.norm(translation) for translation in zipper.translations)
    diameter = 2.0 * reach / (1.0 - p)
    level = math.floor(math.log2(1.0 / spacing))
    chord = 2.0 * p**level * diameter + 2.0 * tol
    smallest = float(np.linalg.norm(values, axis=1).min())
    return math.pi * chord / (smallest - tol)


def test_criterion_09_tangent_continuity():
    # The paper promises a smooth lift: the tangent field f is continuous
    # and nonvanishing away from 0.  It promises no rate, so the clause
    # checks the Hoelder bound the construction certifies, not a shrink per
    # sample doubling (a Hoelder bound caps increments; it does not make
    # them shrink by a fixed factor at every doubling).
    #
    # Samples on [1/64, 1] lie delta apart; with k = floor(log2(1/delta))
    # they fall in the same or adjacent level-k halving pieces, each the
    # image of the attractor under a word of k maps, so of diameter at most
    # p^k D.  Hence |f(s) - f(t)| <= 2 p^k D, plus the evaluation tol on
    # each sample.  S_1 fixes 0 and |b_2| = p, so the attractor lies in
    # B(0, p/(1-p)) and D <= 2p/(1-p).  For vectors a, b the angle between
    # them is at most pi |a - b| / max(|a|, |b|), and max(|a|, |b|) is at
    # least m - tol for m the smallest sampled |f|.
    #
    # At h = 0.8 (p = 0.943) that bound exceeds pi, so no feasible sample
    # count can show continuity there and the height is left out of the
    # rate clause; it keeps the nonvanishing check.  A pi jump (f flipped
    # past t = 1/2) must break the bound, so the clause can fail.
    count, tol, t_min = 16384, TANGENT_F_TOL, TANGENT_T_MIN
    ts = np.linspace(t_min, 1.0, 2 * count)
    spacing = (1.0 - t_min) / (2 * count - 1)
    rows = []
    passed = True
    for h in (0.1, 0.3, 0.5):
        zipper, line = build_example2(Example2Config(h_param=h))
        report = tangent_scan(zipper, line, count)
        values, _ = eval_f_many(ts, zipper, line, tol=tol)
        fine = report.details[1][1]
        bound = _certified_increment_bound(zipper, line, values, spacing, tol)
        passed &= fine == _max_direction_increment(values)  # same grid
        passed &= fine <= bound < math.pi
        rows.append(f"h={h}: {fine:.2e} <= {bound:.3f}")
        if h == 0.1:
            jumped = values.copy()
            jumped[ts > 0.5] *= -1.0
            jump = _max_direction_increment(jumped)
            jump_bound = _certified_increment_bound(zipper, line, jumped, spacing, tol)
            passed &= jump > jump_bound
    zipper, line = build_example2(Example2Config(h_param=0.8))
    tangent_scan(zipper, line, 256)  # ZeroTangent fails
    _verdict("criterion 9 (tangent continuity, certified Hoelder bound)", passed,
             f"fine increments [{', '.join(rows)}] rad; pi jump {jump:.2f} > "
             f"{jump_bound:.3f} rejected; no ZeroTangent at h=0.1..0.8")


def test_criterion_10_discrepancy_adjudication():
    config = Example2Config(h_param=1e-9)
    zipper, line = build_example2(config)
    lift = build_lift(zipper, line)
    # recursion-derived constant of the second branch (the part independent
    # of both the rescaled call and the chord term)
    derived = lift.node_integrals[1] - zipper.vertices[1] * float(line.nodes[1])
    # a plausible-looking alternative closed form for the same constant,
    # twice the rescaled total with no chord correction; in the vanishing
    # apex limit it gives +1/4 where the recursion forces -1/8
    p, alpha = config.p, config.alpha
    rotation = np.array([
        [math.cos(alpha), -math.sin(alpha)],
        [math.sin(alpha), math.cos(alpha)],
    ])
    scale = 1.0 - p * math.cos(alpha)
    alternative = (p / 2.0) * rotation @ np.array(
        [1.0 / (2.0 * scale), config.h_param / scale]
    )
    gap = abs(alternative[0] - derived[0])
    residual = integral_residual(zipper, line, lift, samples=500)
    passed = residual.max_error <= 2e-9 and gap > 0.3
    _verdict("criterion 10 (constant adjudication)", passed,
             f"derived constant {derived[0]:+.6f} vs alternative {alternative[0]:+.6f} "
             f"(gap {gap:.3f} > 0.3); recursion residual {residual.max_error:.2e} <= 2e-9")


def test_criterion_11_determinism(tmp_path):
    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "zipperlift", *args],
            capture_output=True, text=True, timeout=300,
        )

    payloads = []
    for attempt in ("one", "two"):
        svg = tmp_path / f"{attempt}.svg"
        csv = tmp_path / f"{attempt}.csv"
        render = run([
            "render", "--example2", "h=0.5", "--depth", "12",
            "--svg", str(svg), "--csv", str(csv), "--seed", "0",
        ])
        verify = run(["verify", "--example1", "p=0.3", "--seed", "0"])
        payloads.append(
            svg.read_bytes() + csv.read_bytes() + verify.stdout.encode()
        )
        assert render.returncode == 0, render.stderr
        assert verify.returncode == 0, verify.stdout + verify.stderr
        json.loads(verify.stdout)  # well-formed report
    _verdict("criterion 11 (byte determinism)", payloads[0] == payloads[1],
             "render + verify outputs byte-identical across two runs")
