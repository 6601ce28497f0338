"""Smooth lift of a zipper: the running integral of its parametrization.

For a zipper S with first vertex at the origin, parametrized by a line
zipper T, the running integral g(t) of the parametrization f is a
differentiable curve.  Everything needed to evaluate g comes from finitely
much data:

* the total integral h = g(1), the solution of a small fixed-point linear
  system assembled from the interval widths and the normal-form linear
  parts;
* the node integrals g(t_i), obtained by accumulating one closed-form
  increment per interval;
* a self-referential recursion expressing g on each subinterval through g
  on all of [0, 1], which both evaluates g to certified accuracy and
  packages the graph of g as the attractor of an explicit self-affine
  zipper on R^{n+1} (the "lifted" zipper).

This module computes all three, plus the inverse design problem for the
two-map increasing interval family: recovering curve heights from two
integral values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput
from .geometry import solve_linear
from .parametrization import _descend, _first_point
from .zipper import check_pairing, similarity_decomposition, validate_zipper


@dataclass(frozen=True, eq=False)
class SmoothLift:
    """Solved integral data for one (zipper, line zipper) pair.

    ``h`` is the total integral g(1); ``node_integrals`` stacks
    g(t_0)..g(t_m) row-wise (the first row is zero and the last equals
    ``h``); ``normal_form`` is the zipper's :func:`similarity_decomposition`
    ``(offsets, linear_parts, signs)``, which evaluating g and building the
    lifted maps read again.
    """

    h: np.ndarray
    node_integrals: np.ndarray
    normal_form: tuple[np.ndarray, np.ndarray, np.ndarray]


def build_lift(zipper, line):
    """Solve the integral data and assemble the :class:`SmoothLift`.

    With the normal form (offset_i, A_i, sign_i) and widths q_i: h solves
    ``(Id - sum sign_i q_i A_i) h = sum q_i offset_i`` (raising
    :class:`SingularSystem` when it cannot); the node integrals accumulate
    ``offset_i q_i + sign_i q_i A_i h`` from zero.  Requires the first vertex
    at the origin (:class:`NotNormalized` otherwise).
    """
    check_pairing(zipper, line)
    offsets, linear_parts, signs = normal_form = similarity_decomposition(zipper)
    scales = signs * line.ratios
    n = zipper.dimension
    matrix = np.eye(n)
    rhs = np.zeros(n)
    # one map at a time: a vectorized sum adds in another order and moves h
    for scale, width, part, offset in zip(scales, line.ratios, linear_parts, offsets):
        matrix -= scale * part
        rhs += width * offset
    h = solve_linear(matrix, rhs)

    products = np.array([part @ h for part in linear_parts])
    increments = offsets * line.ratios[:, None] + scales[:, None] * products
    g_nodes = np.zeros((zipper.map_count + 1, n))
    np.cumsum(increments, axis=0, out=g_nodes[1:])
    g_nodes.setflags(write=False)
    return SmoothLift(h, g_nodes, normal_form)


def smooth_zipper(zipper, line, lift):
    """The lifted maps as a validated zipper on R^{n+1}, whose attractor is
    the graph of g.

    Vertices are (t_i, g(t_i)) with the source signature.  With the normal
    form (offset_i, A_i, sign_i) and widths q_i, lifted map i scales by
    sign_i q_i times the block matrix ``[[1, 0], [offset_i, sign_i A_i]]``
    and translates by its entry vertex.  Lifted linear parts need not
    contract map by map; validation then accepts them when their word
    products do.
    """
    offsets, linear_parts, signs = lift.normal_form
    m, n = offsets.shape
    blocks = np.zeros((m, n + 1, n + 1))
    blocks[:, 0, 0] = 1.0
    blocks[:, 1:, 0] = offsets
    blocks[:, 1:, 1:] = signs[:, None, None] * linear_parts
    scales = signs * line.ratios
    vertices = np.column_stack([line.nodes, lift.node_integrals])
    entries = np.arange(m) + np.array(zipper.signature)
    lifted = scales[:, None, None] * blocks
    return validate_zipper(lifted, vertices[entries], vertices, zipper.signature)


def _descend_g(ts, zipper, line, lift, tol):
    check_pairing(zipper, line)
    gains = line.ratios * np.array(zipper.linear_norms)
    if gains.max() >= 1.0:
        raise DegenerateInput(
            "integral evaluation needs every rescaled map to contract; "
            f"worst gain q_i |A_i| is {gains.max():.6g}"
        )
    g_nodes, nodes, zero = lift.node_integrals, line.nodes, np.zeros(zipper.dimension)
    offsets, linear_parts, _ = lift.normal_form
    scaled = line.ratios[:, None, None] * linear_parts
    # orientation-reversing intervals subtract the rescaled total integral
    shifts = np.array([a @ lift.h if bit else zero for a, bit in zip(scaled, zipper.signature)])

    def local(digits, u):
        return g_nodes[digits] + offsets[digits] * (u - nodes[digits])[:, None] - shifts[digits]

    # |g| <= sup |f| <= the reach of the attractor around z_0 = 0
    return _descend(ts, line, scaled, local, gains, g_nodes, zipper.diameter_bound, tol)


def eval_g_many(ts, zipper, line, lift, tol=1e-9):
    """Evaluate the integral curve at an array of parameters.

    Returns ``(values, bounds)`` like :func:`eval_f_many`; bit-identical to
    :func:`eval_g` on each entry.
    """
    return _descend_g(ts, zipper, line, lift, tol)[:2]


def eval_g(t, zipper, line, lift, tol=1e-9):
    """Evaluate the integral curve at ``t`` with guaranteed accuracy ``tol``.

    Each digit contributes a closed-form affine part plus g on [0, 1]
    rescaled by q_i A_i, so the bound is the product of the q_i |A_i| times
    a bound on sup |g|.  Node hits end exactly at the solved node integrals.
    """
    return _first_point(_descend_g([t], zipper, line, lift, tol))


def inverse_design(q1, q2, x1, g1, g2):
    """Recover the two curve heights of the increasing two-map interval
    family from its integral data.

    Given interval widths (q1, q2) with split node x1 = q1, the integral
    value g1 at the split and the total integral g2, returns the heights
    (y1, y2) whose family reproduces exactly these integrals.  Defined only
    for the scalar two-map family with plain orientation.  Raises
    :class:`DegenerateInput` when g1 = 0, widths leave (0, 1), the widths
    do not sum to 1, the split node disagrees with q1, or the recovered
    heights are not finite.
    """
    q1, q2, x1 = float(q1), float(q2), float(x1)
    g1 = float(np.asarray(g1, dtype=float).reshape(()))
    g2 = float(np.asarray(g2, dtype=float).reshape(()))
    if not (0.0 < q1 < 1.0 and 0.0 < q2 < 1.0):
        raise DegenerateInput(f"interval widths must lie in (0, 1), got {q1}, {q2}")
    if abs(q1 + q2 - 1.0) > 1e-12:
        raise DegenerateInput(f"interval widths must sum to 1, got {q1 + q2}")
    if abs(q1 - x1) > 1e-12:
        raise DegenerateInput(f"split node {x1} must equal the first width {q1}")
    if g1 == 0.0:
        raise DegenerateInput("split integral g1 must be nonzero")
    y1 = (1.0 / q1 - 1.0 / q2) * g1 + (1.0 / q2 - 1.0) * g2
    y2 = (q1 * g2 / g1) * y1
    if not (math.isfinite(y1) and math.isfinite(y2)):
        raise DegenerateInput(f"recovered heights y1 = {y1}, y2 = {y2} are not finite")
    return y1, y2
