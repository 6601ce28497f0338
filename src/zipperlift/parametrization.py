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


@dataclass(frozen=True, eq=False)
class ParamEvaluation:
    """A curve point with a certified error radius and the depth used."""

    value: np.ndarray
    error_bound: float
    depth: int


def _matvec(linear, rows):
    """Row-wise ``linear @ row``, bit-identical to the scalar product (BLAS
    per row); ``einsum`` sums in another order and is not."""
    return (linear @ rows[:, :, None])[:, :, 0]


def _descend(ts, line, linears, local, gains, node_rows, reach, tol):
    """Certified interval descent of a batch of parameters, shared by f and g.

    Digit k of a point's residual parameter u adds ``linear @ local[k]`` to
    its offset (row i of ``local(digits, u)`` for point i when ``local`` is
    a function), right-multiplies ``linear`` by ``linears[k]`` and its radius
    factor by ``gains[k]``.  A point ends at ``linear @ node_rows[j] +
    offset`` with radius 0 when u hits node j, else at ``linear @
    node_rows[0] + offset`` once ``factor * reach <= tol``.  Returns
    ``(values, bounds, depths)``.  Each level stably sorts the pending points by digit, so
    digit k's products are one matrix product over its points' stacked rows:
    the batch is regrouped, no entry's n-term sum is, so the bits match a
    per-point product and no point's result depends on the batch.
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
    # interval map k, u -> start + scale * u, pulls u back to (u - start) / scale
    starts, scales = line.translations[:, 0], line.linears[:, 0, 0]
    m, count, n = linears.shape[0], ts.size, node_rows.shape[1]
    key_type, block_ends = np.min_scalar_type(m + 1), np.arange(1, m + 1)
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
    while True:
        # u <= 1 = t_m, so ``slot`` indexes a node; off the nodes, u lies
        # strictly inside interval ``slot - 1``
        slot = np.searchsorted(nodes, u)
        hit = nodes[slot] == u
        done = hit | (factor * reach <= tol)
        going = pending.size - np.count_nonzero(done)
        if going < pending.size:
            out = pending[done]
            ends = node_rows[np.where(hit[done], slot[done], 0)]
            values[out] = _matvec(linear[done], ends) + offset[done]
            bounds[out] = np.where(hit[done], 0.0, factor[done] * reach)
            depths[out] = depth
        if not going:
            break
        if depth >= MAX_DEPTH:
            raise ToleranceUnreachable(f"tolerance {tol:g} not reached within {MAX_DEPTH} digits")
        # stable sort by slot in a small int type, done points last, and drop those
        order = np.where(done, m + 1, slot).astype(key_type).argsort(kind="stable")[:going]
        digits = slot.take(order) - 1
        pending, u, offset, factor, previous = (
            a.take(order, axis=0) for a in (pending, u, offset, factor, linear))
        linear = linear[:going]
        shift = _matvec(previous, local(digits, u)) if callable(local) else np.empty((going, n))
        # the stacked rows of digit k's points end at row edges[k]; np.dot,
        # because matmul skips BLAS for these products when n = 1
        edges = (n * digits.searchsorted(block_ends)).tolist()
        rows, linear_rows = previous.reshape(-1, n), linear.reshape(-1, n)
        for k, (start, stop) in enumerate(zip([0] + edges, edges)):
            if start < stop:
                np.dot(rows[start:stop], linears[k], linear_rows[start:stop])
                if not callable(local):
                    np.dot(rows[start:stop], local[k], shift.ravel()[start:stop])
        offset += shift
        factor *= gains[digits]
        # u is off the nodes, so the quotient is positive; only rounding can
        # carry it past 1
        u = np.minimum((u - starts[digits]) / scales[digits], 1.0)
        depth += 1
    return values, bounds, depths


def _first_point(descent):
    """A descent's first point as a :class:`ParamEvaluation`, read-only."""
    values, bounds, depths = descent
    value = values[0]
    value.setflags(write=False)
    return ParamEvaluation(value, float(bounds[0]), int(depths[0]))


def _descend_f(ts, zipper, line, tol):
    check_pairing(zipper, line)
    norms = np.array(zipper.linear_norms)
    if norms.max() >= 1.0:
        raise DegenerateInput(
            "parametrization evaluation needs every map to contract; "
            f"worst operator norm is {norms.max():.6g}"
        )
    return _descend(ts, line, zipper.linears, zipper.translations, norms, zipper.vertices,
                    zipper.diameter_bound, tol)


def eval_f_many(ts, zipper, line, tol=1e-9):
    """Evaluate the parametrization at an array of parameters.

    Returns ``(values, bounds)`` with ``values`` of shape (N, n) and
    per-point certified error radii.  Bit-identical to :func:`eval_f` on
    each entry in every dimension, whatever the batch.
    """
    return _descend_f(ts, zipper, line, tol)[:2]


def eval_f(t, zipper, line, tol=1e-9):
    """Evaluate the parametrization at ``t`` with guaranteed accuracy ``tol``.

    An exact node hit gives the vertex image with bound 0; otherwise the
    value is the digit-map image of the first vertex and the bound, the
    contraction product times the reach bound, is at most ``tol``.
    """
    return _first_point(_descend_f([t], zipper, line, tol))
