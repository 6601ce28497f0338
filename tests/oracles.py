"""Reference routes that the tests compare the package against.

None of this is package code, and the package never imports it: the
Hausdorff invariance residual (the only user of scipy), the graph identity
re-evaluation, the midpoint rule of ``f`` one rung at a time, the scalar
interval address that the batched descent replaced, the one-matrix
power iteration and word-list scan that the stacked ones replaced, and
the four oracles that evaluated one batch per interval map, step size or
grid before each took one batch per curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from zipperlift import _pcg64
from zipperlift.errors import OutOfDomain, ZeroTangent
from zipperlift.geometry import (
    CONTRACTION_THRESHOLD,
    MAX_POWER_ITERATIONS,
    NORM_RELATIVE_ACCURACY,
    ContractionScan,
    row_norms,
)
from zipperlift.parametrization import _matvec, eval_f_many
from zipperlift.smoothing import eval_g_many
from zipperlift.verification import (
    DERIVATIVE_DELTAS,
    DERIVATIVE_EXPONENT,
    DERIVATIVE_F_TOL,
    DERIVATIVE_G_TOL,
    DERIVATIVE_NOISE_FLOOR,
    DERIVATIVE_SLACK,
    QUADRATURE_F_TOL,
    RESIDUAL_TOL,
    TANGENT_DOUBLING,
    TANGENT_F_TOL,
    TANGENT_T_MIN,
    VerificationReport,
    _inflate_on_growth,
    _worst_offenders,
)


def hausdorff_distance(a, b):
    """Symmetric Hausdorff distance between two finite point sets.

    Exact nearest neighbours from a k-d tree on each side.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    return max(
        float(cKDTree(b).query(a, k=1)[0].max()),
        float(cKDTree(a).query(b, k=1)[0].max()),
    )


def hausdorff_residual(polyline, zipper):
    """Invariance defect of a polyline under the zipper's map family.

    The symmetric Hausdorff distance between the polyline's point set and
    the union of its images under every map.  Zero exactly for invariant
    sets; for depth-d subdivision polylines it stays below twice the mesh
    bound.
    """
    points = polyline.points
    images = np.concatenate([points @ linear.T + translation
                             for linear, translation in zip(zipper.linears, zipper.translations)])
    return hausdorff_distance(points, images)


def graph_identity_check(polyline, evaluate, samples=1000, tol=1e-6):
    """Re-evaluate sampled graph points through a batched curve evaluator.

    ``polyline`` must be a graph, whose first coordinates are its
    parameters; ``evaluate`` maps an array of parameters to the (N, n)
    array of expected remaining coordinates, as
    ``lambda ts: eval_f_many(ts, zipper, line)[0]`` does.  Subsamples evenly
    when the polyline has more points than ``samples``.
    """
    if not polyline.graph:
        raise ValueError("polyline carries no parameters")
    count = polyline.points.shape[0]
    take = np.linspace(0, count - 1, min(int(samples), count)).astype(int)
    params = polyline.points[take, 0]
    expected = np.asarray(evaluate(params), dtype=float)
    errors = row_norms(polyline.points[take, 1:] - expected)
    max_error = float(errors.max())
    return VerificationReport(
        "graph-identity", max_error, take.size, tol,
        _worst_offenders(params, errors),
    )


def quadrature_g(t, zipper, line, panels):
    """Composite midpoint rule of the parametrization over [0, t] with
    ``panels`` panels, in one ``eval_f_many`` call."""
    width = t / panels
    values, _ = eval_f_many((np.arange(panels) + 0.5) * width, zipper, line, tol=QUADRATURE_F_TOL)
    return width * values.sum(axis=0)


def pull_back(line, index, t):
    """Preimage in [0, 1] of ``t`` under interval map ``index`` (1-based)."""
    k = index - 1
    if line.signature[k]:
        u = (line.nodes[k + 1] - t) / line.ratios[k]
    else:
        u = (t - line.nodes[k]) / line.ratios[k]
    return np.clip(u, 0.0, 1.0)


def interval_of(line, t):
    """1-based interval index containing ``t``.

    Intervals are closed on the left; node points belong to the interval
    starting there, and t = 1 belongs to interval m.
    """
    index = int(np.searchsorted(line.nodes, t, side="right")) - 1
    return min(max(index, 0), line.map_count - 1) + 1


@dataclass(frozen=True)
class Address:
    """Interval address of a parameter: digit choices, outermost first.

    ``digits`` are 1-based interval indices; ``orientation`` is the net
    orientation (+1 or -1) after signature flips along the digits; ``anchor``
    is the residual parameter in [0, 1] once the digits are stripped.
    Applying the digit interval maps to the anchor reproduces the parameter.
    """

    digits: tuple[int, ...]
    orientation: int
    anchor: float


def address_of(t, line, depth):
    """Greedy interval descent of ``t`` to exactly ``depth`` digits.

    At each level the digit is the unique interval containing the current
    parameter, with node points assigned to the interval starting there and
    t = 1 assigned to the last interval; the parameter is then pulled back
    through that interval map (reversing where the signature bit is set).
    """
    if not 0.0 <= t <= 1.0:
        raise OutOfDomain(f"parameter {t!r} outside [0, 1]")
    digits = []
    orientation = 1
    u = float(t)
    for _ in range(int(depth)):
        index = interval_of(line, u)
        digits.append(index)
        if line.signature[index - 1]:
            orientation = -orientation
        u = float(pull_back(line, index, u))
    return Address(tuple(digits), orientation, u)


def chaos_game_reference(zipper, count, seed, burn_in=64):
    """The chaos game as a plain loop: one map lookup, ``linear @ point +
    translation`` and one row copy per step, on the same seeded draws as
    :func:`zipperlift.attractor.chaos_game`."""
    choices = np.random.default_rng(seed).integers(0, zipper.map_count, size=burn_in + count)
    point = np.array(zipper.vertices[0], dtype=float)
    out = np.empty((count, zipper.dimension))
    for step, choice in enumerate(choices):
        point = zipper.linears[choice] @ point + zipper.translations[choice]
        if step >= burn_in:
            out[step - burn_in] = point
    return out


def _prescaled(norm, array):
    """``norm(array)`` on ``array`` scaled by the power of two that brings
    its largest entry into [0.5, 1), scaled back; inf past the float range."""
    if not array.any():
        return 0.0
    _, exponent = math.frexp(float(np.abs(array).max()))
    try:
        return math.ldexp(norm(np.ldexp(array, -exponent)), exponent)
    except OverflowError:
        return math.inf


def vector_norm(vector):
    """Prescaled ``np.linalg.norm`` of one vector."""
    return _prescaled(np.linalg.norm, np.asarray(vector, dtype=float))


def _power_iteration(m):
    gram = m.T @ m
    d = m.shape[0]
    starts = [np.ones(d)]
    if d > 1:
        alternating = np.ones(d)
        alternating[1::2] = -1.0
        starts.append(alternating)
    best = 0.0
    for start in starts:
        v = start / np.linalg.norm(start)
        estimate = 0.0
        for _ in range(MAX_POWER_ITERATIONS):
            w = gram @ v
            weight = float(np.linalg.norm(w))
            if weight == 0.0:
                break
            v = w / weight
            previous, estimate = estimate, math.sqrt(max(float(v @ gram @ v), 0.0))
            if abs(estimate - previous) <= 0.5 * NORM_RELATIVE_ACCURACY * max(estimate, 1e-300):
                break
        best = max(best, estimate)
    return best


def operator_norm(matrix):
    """Power-iteration spectral norm of one matrix, as
    :func:`zipperlift.geometry.operator_norms` takes it for each matrix of
    a stack: same starts, same stopping test, same prescaling."""
    return _prescaled(_power_iteration, np.asarray(matrix, dtype=float))


def contraction_scan_reference(linears, translations, base_point, max_word_length):
    """:func:`zipperlift.geometry.eventual_contraction_scan` one word at a
    time: each level a list of ``(linear, offset)`` pairs, one power
    iteration and one vector norm per word (no word budget)."""
    base_point = np.asarray(base_point, dtype=float)
    maps = list(zip(linears, translations))
    level = [(np.eye(base_point.size), np.zeros(base_point.size))]
    values = []
    farthest = 0.0
    for length in range(1, max_word_length + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            level = [(lin @ linear, lin @ translation + off)
                     for lin, off in level for linear, translation in maps]
        if not all(np.isfinite(lin).all() and np.isfinite(off).all() for lin, off in level):
            values.append((length, math.inf))
            break
        worst = max(operator_norm(lin) for lin, _ in level) ** (1.0 / length)
        values.append((length, worst))
        farthest = max(
            farthest,
            max(vector_norm(lin @ base_point + off - base_point) for lin, off in level),
        )
        if worst <= CONTRACTION_THRESHOLD:
            return ContractionScan(length, tuple(values), farthest / (1.0 - worst**length))
    return ContractionScan(None, tuple(values))


def parametrization_residual_reference(zipper, line, samples=1000, seed=0):
    """:func:`zipperlift.verification.parametrization_residual` with one
    ``eval_f_many`` call for the samples and one per interval map."""
    ts = _pcg64.integers(seed, 2**40, samples).astype(float) * 2.0**-40
    f_values, _ = eval_f_many(ts, zipper, line, tol=RESIDUAL_TOL)
    worst_errors = np.zeros(ts.size)
    for index in range(1, zipper.map_count + 1):
        images = line.translations[index - 1, 0] + line.linears[index - 1, 0, 0] * ts
        lhs, _ = eval_f_many(images, zipper, line, tol=RESIDUAL_TOL)
        rhs = f_values @ zipper.linears[index - 1].T + zipper.translations[index - 1]
        errors = row_norms(lhs - rhs, lambda rows: np.linalg.norm(rows, axis=1))
        np.maximum(worst_errors, errors, out=worst_errors)
    return VerificationReport(
        "parametrization-residual", float(worst_errors.max()), ts.size, 2.0 * RESIDUAL_TOL,
        _worst_offenders(ts, worst_errors),
    )


def integral_residual_reference(zipper, line, lift, samples=1000, seed=0):
    """:func:`zipperlift.verification.integral_residual` with one
    ``eval_g_many`` call for the samples and one per interval map."""
    ts = _pcg64.uniform(seed, 0.0, 1.0, samples)
    worst_errors = np.zeros(ts.size)
    g_values, _ = eval_g_many(ts, zipper, line, lift, tol=RESIDUAL_TOL)
    offsets, linear_parts, _ = lift.normal_form
    for index in range(1, zipper.map_count + 1):
        width = line.ratios[index - 1]
        images = line.translations[index - 1, 0] + line.linears[index - 1, 0, 0] * ts
        lhs, _ = eval_g_many(images, zipper, line, lift, tol=RESIDUAL_TOL)
        if zipper.signature[index - 1]:
            local_ts, local_g = 1.0 - ts, g_values - lift.h
        else:
            local_ts, local_g = ts, g_values
        rhs = (lift.node_integrals[index - 1] + offsets[index - 1] * width * local_ts[:, None]
               + width * _matvec(linear_parts[index - 1], local_g))
        np.maximum(worst_errors, row_norms(lhs - rhs), out=worst_errors)
    return VerificationReport(
        "integral-residual", float(worst_errors.max()), ts.size, 2.0 * RESIDUAL_TOL,
        _worst_offenders(ts, worst_errors),
    )


def derivative_check_reference(zipper, line, lift, sample_count=100, seed=0):
    """:func:`zipperlift.verification.derivative_check` with two
    ``eval_g_many`` calls, ``t + delta`` and ``t - delta``, per step."""
    deltas = DERIVATIVE_DELTAS
    ts = _pcg64.uniform(seed, deltas[0], 1.0 - deltas[0], sample_count)
    f_values, _ = eval_f_many(ts, zipper, line, tol=DERIVATIVE_F_TOL)
    bounds = np.array([10.0 * d**DERIVATIVE_EXPONENT for d in deltas])
    errors = np.zeros((ts.size, len(deltas)))
    for col, delta in enumerate(deltas):
        upper, _ = eval_g_many(ts + delta, zipper, line, lift, tol=DERIVATIVE_G_TOL)
        lower, _ = eval_g_many(ts - delta, zipper, line, lift, tol=DERIVATIVE_G_TOL)
        errors[:, col] = row_norms((upper - lower) / (2.0 * delta) - f_values)
    tolerance = float(bounds[-1])
    max_error = _inflate_on_growth(float(errors[:, -1].max()), tolerance, errors,
                                   DERIVATIVE_NOISE_FLOOR * bounds, DERIVATIVE_SLACK)
    return VerificationReport(
        "derivative-check", max_error, ts.size, tolerance,
        _worst_offenders(ts, errors[:, -1]),
    )


def tangent_scan_reference(zipper, line, sample_count):
    """:func:`zipperlift.verification.tangent_scan` with one ``eval_f_many``
    call per grid, the coarse grid first."""

    def max_increment(count):
        ts = np.linspace(TANGENT_T_MIN, 1.0, count)
        values, _ = eval_f_many(ts, zipper, line, tol=TANGENT_F_TOL)
        magnitudes = row_norms(values, lambda rows: np.linalg.norm(rows, axis=1))
        vanished = magnitudes <= 1e-12
        if vanished.any():
            where = float(ts[vanished][0])
            raise ZeroTangent(f"tangent magnitude <= 1e-12 at t = {where!r}")
        units = values / magnitudes[:, None]
        cosines = np.clip(np.einsum("pi,pi->p", units[:-1], units[1:]), -1.0, 1.0)
        return float(np.arccos(cosines).max())

    coarse = max_increment(sample_count)
    fine = max_increment(2 * sample_count)
    return VerificationReport(
        "tangent-scan", fine / coarse if coarse > 0.0 else 0.0, 3 * sample_count,
        1.0 / TANGENT_DOUBLING,
        ((float(sample_count), coarse), (float(2 * sample_count), fine)),
    )
