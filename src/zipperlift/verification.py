"""Independent numerical oracles for the smooth-lift construction.

Each check here adjudicates one claim through a route that does not share
code with the construction it tests: quadrature rebuilds the integral
curve from parametrization samples alone, central differences recover the
parametrization from the integral curve, the tangent scan probes the
regularity of the lifted arc, and the word-norm scan certifies that lifted
map families contract eventually.  Every check returns a
:class:`VerificationReport` whose ``passed`` flag is exactly
``max_error <= tolerance``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotNormalized, ZeroTangent
from .geometry import CONTRACTION_THRESHOLD, eventual_contraction_scan
from .parametrization import _matvec, eval_f_many
from .smoothing import eval_g_many
from .zipper import EVENTUAL_WORD_LENGTH, check_pairing, similarity_decomposition


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one numerical check.

    ``details`` lists the worst offending (location, error) pairs; for
    scans indexed by something other than a parameter (word length, sample
    count) the first entry of each pair is that index.  When a check folds
    a secondary condition (such as errors shrinking across a ladder) into
    its verdict, a violation inflates ``max_error`` past ``tolerance`` so
    that ``passed == (max_error <= tolerance)`` always holds.
    """

    check_name: str
    max_error: float
    samples: int
    passed: bool
    tolerance: float
    details: tuple[tuple[float, float], ...] = ()

    def as_dict(self):
        return {
            "check": self.check_name,
            "maxError": self.max_error,
            "samples": self.samples,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "details": [[a, b] for a, b in self.details],
        }


def _row_norms(rows):
    """Norm of each row, bit-identical to ``np.linalg.norm(row)``; the
    ``axis=1`` form sums in another order and is not."""
    return np.sqrt(np.vecdot(rows, rows))


def _worst_offenders(locations, errors, keep=5):
    order = np.argsort(errors)[::-1][:keep]
    return tuple((float(locations[j]), float(errors[j])) for j in order)


def quadrature_g(t, zipper, line, panels, f_tol=1e-10):
    """Composite midpoint quadrature of the parametrization over [0, t].

    The oracle route to the integral curve: it never touches the integral
    recursion, only parametrization values at panel midpoints.
    """
    panels = int(panels)
    if panels < 1:
        raise ValueError("need at least one panel")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"upper limit {t!r} outside [0, 1]")
    if t == 0.0:
        return np.zeros(zipper.dimension)
    width = t / panels
    midpoints = (np.arange(panels) + 0.5) * width
    values, _ = eval_f_many(midpoints, zipper, line, tol=f_tol)
    return width * values.sum(axis=0)


def parametrization_residual(zipper, line, samples=1000, tol=1e-9, seed=0):
    """Self-consistency of the parametrization under every interval map.

    Draws random parameters t and checks that following an interval map
    then evaluating equals evaluating then applying the matching spatial
    map, for every map.  Residuals stay below twice the evaluation
    tolerance when the evaluator is correct.

    Parameters are drawn on a fine dyadic grid (2^-40 granularity) so that
    halving-type interval images stay exactly representable: with full
    53-bit parameters the comparison would instead measure float rounding
    of the image parameter, amplified through the curve's continuity
    modulus to above the evaluation tolerance.
    """
    rng = np.random.default_rng(seed)
    ts = rng.integers(0, 2**40, int(samples)).astype(float) * 2.0**-40
    f_values, _ = eval_f_many(ts, zipper, line, tol=tol)
    worst_errors = np.zeros(ts.size)
    for index in range(1, zipper.map_count + 1):
        mapped_ts = line.forward(index, ts)
        lhs, _ = eval_f_many(mapped_ts, zipper, line, tol=tol)
        mp = zipper.maps[index - 1]
        rhs = f_values @ mp.linear.T + mp.translation
        errors = np.linalg.norm(lhs - rhs, axis=1)
        np.maximum(worst_errors, errors, out=worst_errors)
    max_error = float(worst_errors.max())
    tolerance = 2.0 * tol
    return VerificationReport(
        "parametrization-residual", max_error, ts.size, max_error <= tolerance,
        tolerance, _worst_offenders(ts, worst_errors),
    )


def integral_residual(zipper, line, lift, samples=1000, tol=1e-9, seed=0):
    """Self-consistency of the integral curve under every interval map.

    For each interval i and random t, the value at the image parameter must
    equal the node integral plus the chord term plus the rescaled value at
    t (minus the rescaled total on orientation-reversing intervals).
    """
    check_pairing(zipper, line)
    decomposition = similarity_decomposition(zipper)
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, 1.0, int(samples))
    worst_errors = np.zeros(ts.size)
    g_values, _ = eval_g_many(ts, zipper, line, lift, tol=tol)
    for index in range(1, zipper.map_count + 1):
        part = decomposition[index - 1]
        width = line.ratios[index - 1]
        g_node = lift.node_integrals[index - 1]
        lhs, _ = eval_g_many(line.forward(index, ts), zipper, line, lift, tol=tol)
        if zipper.signature[index - 1]:
            local_ts, local_g = 1.0 - ts, g_values - lift.h
        else:
            local_ts, local_g = ts, g_values
        rhs = (g_node + part.offset * width * local_ts[:, None]
               + width * _matvec(part.linear_part, local_g))
        np.maximum(worst_errors, _row_norms(lhs - rhs), out=worst_errors)
    max_error = float(worst_errors.max())
    tolerance = 2.0 * tol
    return VerificationReport(
        "integral-residual", max_error, ts.size, max_error <= tolerance,
        tolerance, _worst_offenders(ts, worst_errors),
    )


def quadrature_check(zipper, line, lift, panel_ladder=(256, 1024, 4096),
                     grid=11, coefficient=10.0, exponent=0.5, floor=1e-8,
                     g_tol=1e-10, f_tol=1e-10, slack=1.05):
    """Agreement between quadrature and the integral recursion.

    Compares the two routes at a uniform parameter grid for every panel
    count on the ladder.  Passes when the finest-ladder disagreement stays
    below ``max(1e-6, coefficient * panels**-exponent)`` and the observed
    disagreement (the worst over the grid, per rung) does not grow within
    ``slack`` as panels double, ignoring fluctuations below ``floor`` where
    both routes sit at evaluation noise.  Per-parameter errors fluctuate
    inside the convergence envelope, so only the rung maxima are compared.
    """
    ts = np.linspace(0.0, 1.0, int(grid))
    direct, _ = eval_g_many(ts, zipper, line, lift, tol=g_tol)
    errors = np.zeros((len(panel_ladder), ts.size))
    for row, panels in enumerate(panel_ladder):
        for col, t in enumerate(ts):
            oracle = quadrature_g(t, zipper, line, panels, f_tol=f_tol)
            errors[row, col] = np.linalg.norm(oracle - direct[col])
    tolerance = max(1e-6, coefficient * float(panel_ladder[-1]) ** (-exponent))
    max_error = float(errors[-1].max())
    clipped = np.maximum(errors.max(axis=1), floor)
    growth = clipped[1:] / clipped[:-1]
    worst_growth = float(growth.max()) if growth.size else 0.0
    if worst_growth > slack:
        max_error = max(max_error, tolerance * worst_growth / slack)
    return VerificationReport(
        "quadrature-agreement", max_error, errors.size,
        max_error <= tolerance, tolerance, _worst_offenders(ts, errors[-1]),
    )


def derivative_check(zipper, line, lift, sample_count=100,
                     deltas=(1e-4, 1e-6, 1e-8), holder_exponent=0.5, seed=0,
                     slack=1.5, noise_floor=1e-3, g_tol=1e-13, f_tol=1e-11):
    """Central differences of the integral curve against the parametrization.

    For random parameters t and each step delta, compares
    (g(t+delta) - g(t-delta)) / (2 delta) with f(t).  Passes when every
    sample's error at the smallest delta is below
    ``10 * delta**holder_exponent`` and errors do not grow (within
    ``slack``) as delta shrinks; errors below ``noise_floor`` times the
    per-delta bound count as converged, since truncation noise of order
    g_tol/delta dominates once the true difference error reaches zero.
    """
    deltas = tuple(float(d) for d in deltas)
    if any(d <= 0 for d in deltas) or any(
        deltas[j + 1] >= deltas[j] for j in range(len(deltas) - 1)
    ):
        raise ValueError("deltas must be positive and strictly decreasing")
    rng = np.random.default_rng(seed)
    margin = deltas[0]
    ts = rng.uniform(margin, 1.0 - margin, int(sample_count))
    f_values, _ = eval_f_many(ts, zipper, line, tol=f_tol)
    bounds = np.array([10.0 * d**holder_exponent for d in deltas])
    errors = np.zeros((ts.size, len(deltas)))
    for col, delta in enumerate(deltas):
        upper, _ = eval_g_many(ts + delta, zipper, line, lift, tol=g_tol)
        lower, _ = eval_g_many(ts - delta, zipper, line, lift, tol=g_tol)
        diff = (upper - lower) / (2.0 * delta)
        errors[:, col] = _row_norms(diff - f_values)
    tolerance = float(bounds[-1])
    max_error = float(errors[:, -1].max())
    clipped = np.maximum(errors, noise_floor * bounds[None, :])
    growth = clipped[:, 1:] / clipped[:, :-1]
    worst_growth = float(growth.max()) if growth.size else 0.0
    if worst_growth > slack:
        max_error = max(max_error, tolerance * worst_growth / slack)
    return VerificationReport(
        "derivative-check", max_error, ts.size, max_error <= tolerance,
        tolerance, _worst_offenders(ts, errors[:, -1]),
    )


def tangent_scan(zipper, line, lift, sample_count, t_min=1.0 / 64.0,
                 doubling_factor=1.8, f_tol=1e-9):
    """Regularity probe of the integral curve's tangent field away from 0.

    The tangent of the integral curve is the parametrization itself, so the
    scan samples unit parametrization directions on [t_min, 1] and measures
    the largest angle between consecutive samples.  It passes when that
    largest increment shrinks by at least ``doubling_factor`` under sample
    doubling.  Raises :class:`ZeroTangent` when a sampled tangent magnitude
    falls to 1e-12: the curve then fails the nonvanishing-derivative
    hypothesis away from the origin and no smoothness claim holds there.
    """
    if int(sample_count) < 16:
        raise ValueError("sample_count must be at least 16")
    if float(np.linalg.norm(zipper.vertices[0])) > 1e-12:
        raise NotNormalized("tangent scan requires the first vertex at the origin")

    def max_increment(count):
        ts = np.linspace(t_min, 1.0, count)
        values, _ = eval_f_many(ts, zipper, line, tol=f_tol)
        magnitudes = np.linalg.norm(values, axis=1)
        vanished = magnitudes <= 1e-12
        if vanished.any():
            where = ts[vanished][0]
            raise ZeroTangent(f"tangent magnitude <= 1e-12 at t = {where!r}")
        units = values / magnitudes[:, None]
        cosines = np.clip(np.einsum("pi,pi->p", units[:-1], units[1:]), -1.0, 1.0)
        return float(np.arccos(cosines).max())

    coarse = max_increment(int(sample_count))
    fine = max_increment(2 * int(sample_count))
    tolerance = 1.0 / doubling_factor
    max_error = fine / coarse if coarse > 0.0 else 0.0
    return VerificationReport(
        "tangent-scan", max_error, 3 * int(sample_count),
        max_error <= tolerance, tolerance,
        ((float(sample_count), coarse), (float(2 * sample_count), fine)),
    )


def eventual_contraction_check(zipper, max_word_length=EVENTUAL_WORD_LENGTH):
    """Certify that word products of the zipper's linear parts contract.

    Scans word lengths L = 1..max_word_length for the first L where every
    length-L product has operator norm^(1/L) below 1; reports the certified
    value.  Raises :class:`CombinatorialBudget` when the enumeration would
    exceed :data:`~zipperlift.geometry.WORD_BUDGET` words.
    """
    scan = eventual_contraction_scan(
        [mp.linear for mp in zipper.maps], int(max_word_length)
    )
    if scan.passed:
        max_error = scan.values[-1][1]
    else:
        max_error = min(value for _, value in scan.values)
    tested = sum(zipper.map_count**length for length, _ in scan.values)
    return VerificationReport(
        "eventual-contraction", max_error, tested, scan.passed, CONTRACTION_THRESHOLD,
        tuple((float(length), value) for length, value in scan.values),
    )


def graph_identity_check(polyline, evaluate, samples=1000, tol=1e-6):
    """Re-evaluate sampled graph points through a batched curve evaluator.

    ``polyline`` must carry parameters; ``evaluate`` maps an array of
    parameters to the (N, n) array of expected remaining coordinates, as
    ``lambda ts: eval_f_many(ts, zipper, line)[0]`` does.  Subsamples evenly
    when the polyline has more points than ``samples``.
    """
    if polyline.params is None:
        raise ValueError("polyline carries no parameters")
    count = polyline.points.shape[0]
    take = np.linspace(0, count - 1, min(int(samples), count)).astype(int)
    expected = np.asarray(evaluate(polyline.params[take]), dtype=float)
    errors = _row_norms(polyline.points[take, 1:] - expected)
    max_error = float(errors.max())
    return VerificationReport(
        "graph-identity", max_error, take.size, max_error <= tol, tol,
        _worst_offenders(polyline.params[take], errors),
    )

