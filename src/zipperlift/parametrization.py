"""Evaluate the linear parametrization of a zipper by a line zipper.

Given a spatial zipper S with vertices z_0..z_m and a line zipper T with
the same signature, there is a unique continuous f: [0, 1] -> attractor
with f(t_i) = z_i that intertwines the two families: composing f with an
interval map equals composing the matching spatial map with f.  Evaluation
descends through interval addresses: each digit picks the subinterval
containing t, pulls t back through that interval map, and applies the
matching spatial map on the way out.  The descent stops once the product
of contraction factors certifies the requested accuracy.

The same batched descent, with other steps, linear parts and gains,
evaluates the integral curve g (see :mod:`zipperlift.smoothing`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, OutOfDomain, ToleranceUnreachable
from .zipper import check_pairing

#: Hard cap on address digits before giving up on a tolerance.
MAX_DEPTH = 10_000


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


@dataclass(frozen=True, eq=False)
class ParamEvaluation:
    """A curve point with a certified error radius and the depth used."""

    value: np.ndarray
    error_bound: float
    depth: int


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
        index = line.interval_of(u)
        digits.append(index)
        if line.signature[index - 1]:
            orientation = -orientation
        u = float(line.inverse(index, u))
    return Address(tuple(digits), orientation, u)


def _matvec(linear, rows):
    """Row-wise ``linear @ row``, bit-identical to the scalar product (BLAS
    per row); ``einsum`` sums in another order and is not."""
    return (linear @ rows[:, :, None])[:, :, 0]


def _descend(ts, line, linears, local, gains, node_rows, tail_row, reach, tol,
             max_depth):
    """Certified interval descent of a batch of parameters, shared by f and g.

    Digit k of a point's residual parameter u adds ``linear @ local(k, u)``
    (one row per point) to its offset, right-multiplies ``linear`` by
    ``linears[k]`` and its radius factor by ``gains[k]``.  A point ends at
    ``linear @ node_rows[j] + offset`` with radius 0 when u hits node j, else
    at ``linear @ tail_row + offset`` once ``factor * reach <= tol``.  No
    point's result depends on the batch.  Returns ``(values, bounds, depths)``.
    A ``tol`` that is not finite and positive raises :class:`DegenerateInput`:
    no radius can reach it, so the descent would only stop on a node.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DegenerateInput(f"tolerance must be finite and positive, got {tol!r}")
    ts = np.asarray(ts, dtype=float).ravel()
    inside = (ts >= 0.0) & (ts <= 1.0)
    if not np.all(inside):
        raise OutOfDomain(f"parameter {float(ts[np.argmin(inside)])!r} outside [0, 1]")
    nodes = line.nodes
    # interval map k pulls u back to (u - t_k) / q_k, or where it reverses
    # to (u - t_{k+1}) / -q_k: the same float as (t_{k+1} - u) / q_k
    starts = np.where(line.signature, nodes[1:], nodes[:-1])
    scales = np.where(line.signature, -line.ratios, line.ratios)
    count, n = ts.size, tail_row.size
    values = np.empty((count, n))
    bounds = np.zeros(count)
    depths = np.zeros(count, dtype=int)
    # state of the points still descending; ``pending`` indexes the outputs
    pending = np.arange(count)
    u = ts.copy()
    linear = np.broadcast_to(np.eye(n), (count, n, n)).copy()
    offset = np.zeros((count, n))
    factor = np.ones(count)
    depth = 0
    while pending.size:
        # u <= 1 = t_m, so ``slot`` indexes a node; off the nodes, u lies
        # strictly inside interval ``slot - 1``
        slot = np.searchsorted(nodes, u)
        hit = nodes[slot] == u
        done = hit | (factor * reach <= tol)
        if done.any():
            out = pending[done]
            ends = np.where(hit[done, None], node_rows[slot[done]], tail_row)
            values[out] = _matvec(linear[done], ends) + offset[done]
            bounds[out] = np.where(hit[done], 0.0, factor[done] * reach)
            depths[out] = depth
            going = ~done
            pending, u, slot = pending[going], u[going], slot[going]
            linear, offset, factor = linear[going], offset[going], factor[going]
            if not pending.size:
                break
        if depth >= max_depth:
            raise ToleranceUnreachable(f"tolerance {tol:g} not reached within {max_depth} digits")
        digits = slot - 1
        offset += _matvec(linear, local(digits, u))
        linear = linear @ linears[digits]
        factor *= gains[digits]
        # u is off the nodes, so the quotient is positive; only rounding can
        # carry it past 1
        u = np.minimum((u - starts[digits]) / scales[digits], 1.0)
        depth += 1
    return values, bounds, depths


def _descend_f(ts, zipper, line, tol, max_depth):
    check_pairing(zipper, line)
    norms = np.array(zipper.linear_norms)
    if norms.max() >= 1.0:
        raise DegenerateInput(
            "parametrization evaluation needs every map to contract; "
            f"worst operator norm is {norms.max():.6g}"
        )
    linears = np.array([mp.linear for mp in zipper.maps])
    translations = np.array([mp.translation for mp in zipper.maps])
    return _descend(
        ts, line, linears, lambda digits, u: translations[digits], norms,
        zipper.vertices, zipper.vertices[0], zipper.diameter_bound, tol, max_depth,
    )


def eval_f_many(ts, zipper, line, tol=1e-9, max_depth=MAX_DEPTH):
    """Evaluate the parametrization at an array of parameters.

    Returns ``(values, bounds)`` with ``values`` of shape (N, n) and
    per-point certified error radii.  Bit-identical to :func:`eval_f` on
    each entry in every dimension, whatever the batch.
    """
    return _descend_f(ts, zipper, line, tol, max_depth)[:2]


def eval_f(t, zipper, line, tol=1e-9, max_depth=MAX_DEPTH):
    """Evaluate the parametrization at ``t`` with guaranteed accuracy ``tol``.

    An exact node hit gives the vertex image with bound 0; otherwise the
    value is the digit-map image of the first vertex and the bound, the
    contraction product times the reach bound, is at most ``tol``.
    """
    values, bounds, depths = _descend_f([t], zipper, line, tol, max_depth)
    value = values[0]
    value.setflags(write=False)
    return ParamEvaluation(value, float(bounds[0]), int(depths[0]))
