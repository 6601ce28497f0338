"""Independent numerical oracles for the smooth-lift construction.

Each check here adjudicates one claim through a route that does not share
code with the construction it tests: quadrature rebuilds the integral
curve from parametrization samples alone, central differences recover the
parametrization from the integral curve, and the tangent scan probes the
regularity of the lifted arc.  The contraction report restates the
certificate that validation keeps on every zipper, so it always passes.
Every check returns a :class:`VerificationReport` whose verdict
``passed`` is ``max_error <= tolerance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroTangent
from .geometry import CONTRACTION_THRESHOLD, row_norms
from .parametrization import _matvec, eval_f_many
from .smoothing import eval_g_many

#: Evaluation tolerance of the functional-equation residuals.
RESIDUAL_TOL = 1e-9

#: Settings of :func:`quadrature_check`, named there.
QUADRATURE_PANELS = (256, 1024, 4096)
QUADRATURE_GRID = 11
QUADRATURE_COEFFICIENT = 10.0
QUADRATURE_EXPONENT = 0.5
QUADRATURE_FLOOR = 1e-8
QUADRATURE_SLACK = 1.05
QUADRATURE_G_TOL = QUADRATURE_F_TOL = 1e-10

#: Settings of :func:`derivative_check`, named there.
DERIVATIVE_DELTAS = (1e-4, 1e-6, 1e-8)
DERIVATIVE_EXPONENT = 0.5
DERIVATIVE_SLACK = 1.5
DERIVATIVE_NOISE_FLOOR = 1e-3
DERIVATIVE_G_TOL = 1e-13
DERIVATIVE_F_TOL = 1e-11

#: Shrink factor that :func:`tangent_scan` demands per sample doubling.
TANGENT_DOUBLING = 1.8
#: Left end of the parameter interval that :func:`tangent_scan` samples.
TANGENT_T_MIN = 1.0 / 64.0
#: Evaluation tolerance of the tangents that :func:`tangent_scan` samples.
TANGENT_F_TOL = 1e-9


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one numerical check.

    ``details`` lists the worst offending (location, error) pairs; for
    scans indexed by something other than a parameter (word length, sample
    count) the first entry of each pair is that index.  The verdict is
    ``passed``, that is ``max_error <= tolerance``: when a check folds a
    secondary condition (such as errors shrinking across a ladder) into its
    verdict, a violation inflates ``max_error`` past ``tolerance``.
    """

    check_name: str
    max_error: float
    samples: int
    tolerance: float
    details: tuple[tuple[float, float], ...] = ()

    @property
    def passed(self):
        return self.max_error <= self.tolerance

    def as_dict(self):
        """The report as strict JSON values: a non-finite number is None."""
        return {
            "check": self.check_name,
            "maxError": self.max_error if math.isfinite(self.max_error) else None,
            "samples": self.samples,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "details": [[v if math.isfinite(v) else None for v in pair] for pair in self.details],
        }


def _sample_count(name, count):
    """``count`` as an int, rejecting fewer than one sample by ``name``."""
    if int(count) < 1:
        raise ValueError(f"{name} must be at least 1, got {count}")
    return int(count)


def _inflate_on_growth(max_error, tolerance, errors, floor, slack):
    """``max_error``, inflated past ``tolerance`` when ``errors``, clipped
    below at ``floor``, grow by more than ``slack`` from one rung of the
    ladder (their last axis) to the next."""
    clipped = np.maximum(errors, floor)
    growth = clipped[..., 1:] / clipped[..., :-1]
    worst_growth = float(growth.max()) if growth.size else 0.0
    if worst_growth > slack:
        return max(max_error, tolerance * worst_growth / slack)
    return max_error


def _worst_offenders(locations, errors, keep=5):
    order = np.argsort(errors)[::-1][:keep]
    return tuple((float(locations[j]), float(errors[j])) for j in order)


def parametrization_residual(zipper, line, samples=1000, seed=0):
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
    from . import _pcg64  # at the first draw: see its docstring
    ts = _pcg64.integers(seed, 2**40, _sample_count("samples", samples)).astype(float) * 2.0**-40
    # each t's image under every interval map t -> translation + linear * t
    images = line.translations[:, :1] + line.linears[:, 0] * ts
    values, _ = eval_f_many(np.append(ts, images), zipper, line, tol=RESIDUAL_TOL)
    f_values, *mapped = np.split(values, zipper.map_count + 1)
    worst_errors = np.zeros(ts.size)
    for linear, translation, lhs in zip(zipper.linears, zipper.translations, mapped):
        errors = row_norms(lhs - (f_values @ linear.T + translation),
                           lambda rows: np.linalg.norm(rows, axis=1))
        np.maximum(worst_errors, errors, out=worst_errors)
    max_error = float(worst_errors.max())
    tolerance = 2.0 * RESIDUAL_TOL
    return VerificationReport(
        "parametrization-residual", max_error, ts.size, tolerance,
        _worst_offenders(ts, worst_errors),
    )


def integral_residual(zipper, line, lift, samples=1000, seed=0):
    """Self-consistency of the integral curve under every interval map.

    For each interval i and random t, the value at the image parameter must
    equal the node integral plus the chord term plus the rescaled value at
    t (minus the rescaled total on orientation-reversing intervals).
    """
    from . import _pcg64  # at the first draw: see its docstring
    ts = _pcg64.uniform(seed, 0.0, 1.0, _sample_count("samples", samples))
    images = line.translations[:, :1] + line.linears[:, 0] * ts
    values, _ = eval_g_many(np.append(ts, images), zipper, line, lift, tol=RESIDUAL_TOL)
    g_values, *mapped = np.split(values, zipper.map_count + 1)
    worst_errors = np.zeros(ts.size)
    offsets, linear_parts, _ = lift.normal_form
    for k, lhs in enumerate(mapped):
        width = line.ratios[k]
        if zipper.signature[k]:
            local_ts, local_g = 1.0 - ts, g_values - lift.h
        else:
            local_ts, local_g = ts, g_values
        rhs = (lift.node_integrals[k] + offsets[k] * width * local_ts[:, None]
               + width * _matvec(linear_parts[k], local_g))
        np.maximum(worst_errors, row_norms(lhs - rhs), out=worst_errors)
    max_error = float(worst_errors.max())
    tolerance = 2.0 * RESIDUAL_TOL
    return VerificationReport(
        "integral-residual", max_error, ts.size, tolerance,
        _worst_offenders(ts, worst_errors),
    )


def quadrature_check(zipper, line, lift):
    """Agreement between quadrature and the integral recursion.

    Compares the two routes at a uniform parameter grid for every panel
    count on the ladder.  The quadrature route is the composite midpoint
    rule over [0, t]: it never touches the integral recursion, only
    parametrization values at panel midpoints, every rung's midpoints for
    one grid parameter in one batch.  Passes when the finest-ladder
    disagreement stays below ``max(1e-6, coefficient * panels**-exponent)``
    and the observed disagreement (the worst over the grid, per rung) does
    not grow within the slack as panels double, ignoring fluctuations below
    the floor where both routes sit at evaluation noise.  Per-parameter
    errors fluctuate inside the convergence envelope, so only the rung
    maxima are compared.
    """
    ts = np.linspace(0.0, 1.0, QUADRATURE_GRID)
    direct, _ = eval_g_many(ts, zipper, line, lift, tol=QUADRATURE_G_TOL)
    oracles = np.empty((len(QUADRATURE_PANELS), ts.size, zipper.dimension))
    for col, t in enumerate(ts):
        widths = [t / panels for panels in QUADRATURE_PANELS]
        midpoints = [(np.arange(panels) + 0.5) * width
                     for panels, width in zip(QUADRATURE_PANELS, widths)]
        values, _ = eval_f_many(np.concatenate(midpoints), zipper, line, tol=QUADRATURE_F_TOL)
        rungs = np.split(values, np.cumsum(QUADRATURE_PANELS)[:-1])
        for row, (width, rung) in enumerate(zip(widths, rungs)):
            oracles[row, col] = width * rung.sum(axis=0)
    errors = np.array([row_norms(rung - direct) for rung in oracles])
    envelope = QUADRATURE_COEFFICIENT * QUADRATURE_PANELS[-1] ** -QUADRATURE_EXPONENT
    tolerance = max(1e-6, envelope)
    max_error = _inflate_on_growth(float(errors[-1].max()), tolerance, errors.max(axis=1),
                                   QUADRATURE_FLOOR, QUADRATURE_SLACK)
    return VerificationReport(
        "quadrature-agreement", max_error, errors.size, tolerance,
        _worst_offenders(ts, errors[-1]),
    )


def derivative_check(zipper, line, lift, sample_count=100, seed=0):
    """Central differences of the integral curve against the parametrization.

    For random parameters t and each step delta of the decreasing
    :data:`DERIVATIVE_DELTAS`, compares
    (g(t+delta) - g(t-delta)) / (2 delta) with f(t).  Passes when every
    sample's error at the smallest delta is below
    ``10 * delta**exponent`` and errors do not grow (within the slack) as
    delta shrinks; errors below the noise floor times the per-delta bound
    count as converged, since truncation noise of order g_tol/delta
    dominates once the true difference error reaches zero.
    """
    deltas = DERIVATIVE_DELTAS
    from . import _pcg64  # at the first draw: see its docstring
    ts = _pcg64.uniform(seed, deltas[0], 1.0 - deltas[0],
                        _sample_count("sample_count", sample_count))
    f_values, _ = eval_f_many(ts, zipper, line, tol=DERIVATIVE_F_TOL)
    bounds = np.array([10.0 * d**DERIVATIVE_EXPONENT for d in deltas])
    steps = np.array(deltas)[:, None]
    values, _ = eval_g_many(np.append(ts + steps, ts - steps), zipper, line, lift,
                            tol=DERIVATIVE_G_TOL)
    upper, lower = values.reshape(2, len(deltas), ts.size, -1)
    errors = np.column_stack([row_norms(diff - f_values)
                              for diff in (upper - lower) / (2.0 * steps[:, :, None])])
    tolerance = float(bounds[-1])
    max_error = _inflate_on_growth(float(errors[:, -1].max()), tolerance, errors,
                                   DERIVATIVE_NOISE_FLOOR * bounds, DERIVATIVE_SLACK)
    return VerificationReport(
        "derivative-check", max_error, ts.size, tolerance,
        _worst_offenders(ts, errors[:, -1]),
    )


def tangent_scan(zipper, line, sample_count):
    """Regularity probe of the integral curve's tangent field away from 0.

    The tangent of the integral curve is the parametrization itself, so the
    scan samples unit parametrization directions on [:data:`TANGENT_T_MIN`,
    1] and measures the largest angle between consecutive samples.  It
    passes when that largest increment shrinks by at least
    :data:`TANGENT_DOUBLING` under sample doubling.  Raises
    :class:`ZeroTangent` when a sampled tangent magnitude falls to 1e-12:
    the curve then fails the nonvanishing-derivative hypothesis away from
    the origin and no smoothness claim holds there.
    """
    if int(sample_count) < 16:
        raise ValueError("sample_count must be at least 16")
    counts = (int(sample_count), 2 * int(sample_count))
    ts = np.concatenate([np.linspace(TANGENT_T_MIN, 1.0, count) for count in counts])
    values, _ = eval_f_many(ts, zipper, line, tol=TANGENT_F_TOL)
    magnitudes = row_norms(values, lambda rows: np.linalg.norm(rows, axis=1))
    vanished = magnitudes <= 1e-12
    if vanished.any():
        where = float(ts[vanished][0])
        raise ZeroTangent(f"tangent magnitude <= 1e-12 at t = {where!r}")
    # the largest angle between consecutive samples, coarse grid then fine
    coarse, fine = (
        float(np.arccos(np.clip(np.einsum("pi,pi->p", units[:-1], units[1:]), -1.0, 1.0)).max())
        for units in np.split(values / magnitudes[:, None], counts[:1]))
    tolerance = 1.0 / TANGENT_DOUBLING
    max_error = fine / coarse if coarse > 0.0 else 0.0
    return VerificationReport(
        "tangent-scan", max_error, 3 * int(sample_count), tolerance,
        ((float(sample_count), coarse), (float(2 * sample_count), fine)),
    )


def eventual_contraction_check(zipper):
    """Report the word scan that validation certified the zipper's
    contraction with: the worst operator norm^(1/L) of the length-L
    products at each tested length L, up to the first within
    :data:`~zipperlift.geometry.CONTRACTION_THRESHOLD`, which is the
    report's ``max_error``.
    """
    scan = zipper.word_scan
    tested = sum(zipper.map_count**length for length, _ in scan.values)
    return VerificationReport(
        "eventual-contraction", scan.values[-1][1], tested, CONTRACTION_THRESHOLD,
        tuple((float(length), value) for length, value in scan.values),
    )
