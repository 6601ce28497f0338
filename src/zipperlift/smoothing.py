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

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput
from .geometry import AffineMap, solve_linear
from .parametrization import MAX_DEPTH, ParamEvaluation, _descend
from .zipper import check_pairing, similarity_decomposition, validate_zipper


@dataclass(frozen=True, eq=False)
class SmoothLift:
    """Solved integral data for one (zipper, line zipper) pair.

    ``h`` is the total integral g(1); ``node_integrals`` stacks
    g(t_0)..g(t_m) row-wise (the first row is zero and the last equals
    ``h``); ``lifted_maps`` are the affine maps on R^{n+1} whose attractor
    is the graph of g; ``source_signature`` records the shared signature.
    """

    h: np.ndarray
    node_integrals: np.ndarray
    lifted_maps: tuple[AffineMap, ...]
    source_signature: tuple[int, ...]


def solve_h(zipper, line):
    """Total integral of the parametrization over [0, 1].

    Solves ``(Id - sum sign_i q_i A_i) h = sum q_i offset_i`` where q_i are
    the interval widths and (offset_i, A_i, sign_i) is the normal-form
    decomposition of each map.  Requires the first vertex at the origin
    (:class:`NotNormalized` otherwise) and propagates
    :class:`SingularSystem` when the system matrix is not invertible.
    """
    check_pairing(zipper, line)
    decomposition = similarity_decomposition(zipper)
    n = zipper.dimension
    matrix = np.eye(n)
    rhs = np.zeros(n)
    for part, width in zip(decomposition, line.ratios):
        matrix -= part.sign * width * part.linear_part
        rhs += width * part.offset
    return solve_linear(matrix, rhs)


def node_integrals(zipper, line, h):
    """Integral values at every node, as an (m+1, n) array.

    The increment over interval i is ``offset_i q_i + sign_i q_i A_i h``;
    accumulating from zero makes the first row exactly zero and the last
    row equal to ``h`` up to roundoff.
    """
    check_pairing(zipper, line)
    decomposition = similarity_decomposition(zipper)
    h = np.asarray(h, dtype=float)
    increments = [
        part.offset * width + part.sign * width * (part.linear_part @ h)
        for part, width in zip(decomposition, line.ratios)
    ]
    values = np.zeros((zipper.map_count + 1, zipper.dimension))
    np.cumsum(increments, axis=0, out=values[1:])
    values.setflags(write=False)
    return values


def _lifted_maps(zipper, line, g_nodes):
    """Affine maps on R^{n+1} whose attractor is the graph of g.

    Map i translates by the lifted entry vertex (t, g(t)) at t_{i-1} (or
    t_i when orientation-reversing) and scales by sign * q_i times a block
    matrix: first row (1, 0..0), first column the entry vertex of the
    spatial zipper, lower-right block sign * A_i.
    """
    decomposition = similarity_decomposition(zipper)
    n = zipper.dimension
    built = []
    for k, (part, width) in enumerate(zip(decomposition, line.ratios)):
        block = np.zeros((n + 1, n + 1))
        block[0, 0] = 1.0
        block[1:, 0] = part.offset
        block[1:, 1:] = part.sign * part.linear_part
        entry = k + zipper.signature[k]
        translation = np.concatenate([[line.nodes[entry]], g_nodes[entry]])
        built.append(AffineMap(part.sign * width * block, translation))
    return tuple(built)


def build_lift(zipper, line):
    """Solve the integral data and assemble the :class:`SmoothLift`."""
    h = solve_h(zipper, line)
    g_nodes = node_integrals(zipper, line, h)
    return SmoothLift(
        h=h,
        node_integrals=g_nodes,
        lifted_maps=_lifted_maps(zipper, line, g_nodes),
        source_signature=zipper.signature,
    )


def smooth_zipper(zipper, line, lift):
    """The lifted maps as a validated zipper on R^{n+1}.

    Vertices are (t_i, g(t_i)) with the source signature.  Validation runs
    in eventual-contraction mode: lifted linear parts need not contract map
    by map even though their word products do.
    """
    vertices = np.column_stack([line.nodes, lift.node_integrals])
    return validate_zipper(
        lift.lifted_maps, vertices, zipper.signature, contraction="eventual",
    )


def _descend_g(ts, zipper, line, lift, tol, max_depth):
    check_pairing(zipper, line)
    gains = line.ratios * np.array(zipper.linear_norms)
    if gains.max() >= 1.0:
        raise DegenerateInput(
            "integral evaluation needs every rescaled map to contract; "
            f"worst gain q_i |A_i| is {gains.max():.6g}"
        )
    decomposition = similarity_decomposition(zipper)
    g_nodes, nodes, zero = lift.node_integrals, line.nodes, np.zeros(zipper.dimension)
    scaled = np.array([q * part.linear_part for part, q in zip(decomposition, line.ratios)])
    offsets = np.array([part.offset for part in decomposition])
    # orientation-reversing intervals subtract the rescaled total integral
    shifts = np.array([a @ lift.h if bit else zero for a, bit in zip(scaled, zipper.signature)])

    def local(digits, u):
        return g_nodes[digits] + offsets[digits] * (u - nodes[digits])[:, None] - shifts[digits]

    # |g| <= sup |f| <= the reach of the attractor around z_0 = 0
    return _descend(
        ts, line, scaled, local, gains, g_nodes, zero, zipper.diameter_bound, tol, max_depth,
    )


def eval_g_many(ts, zipper, line, lift, tol=1e-9, max_depth=MAX_DEPTH):
    """Evaluate the integral curve at an array of parameters.

    Returns ``(values, bounds)`` like :func:`eval_f_many`; bit-identical to
    :func:`eval_g` on each entry.
    """
    return _descend_g(ts, zipper, line, lift, tol, max_depth)[:2]


def eval_g(t, zipper, line, lift, tol=1e-9, max_depth=MAX_DEPTH):
    """Evaluate the integral curve at ``t`` with guaranteed accuracy ``tol``.

    Each digit contributes a closed-form affine part plus g on [0, 1]
    rescaled by q_i A_i, so the bound is the product of the q_i |A_i| times
    a bound on sup |g|.  Node hits end exactly at the solved node integrals.
    """
    values, bounds, depths = _descend_g([t], zipper, line, lift, tol, max_depth)
    value = values[0]
    value.setflags(write=False)
    return ParamEvaluation(value, float(bounds[0]), int(depths[0]))


def inverse_design(q1, q2, x1, g1, g2):
    """Recover the two curve heights of the increasing two-map interval
    family from its integral data.

    Given interval widths (q1, q2) with split node x1 = q1, the integral
    value g1 at the split and the total integral g2, returns the heights
    (y1, y2) whose family reproduces exactly these integrals.  Defined only
    for the scalar two-map family with plain orientation.  Raises
    :class:`DegenerateInput` when g1 = 0, widths leave (0, 1), the widths
    do not sum to 1, or the split node disagrees with q1.
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
    return y1, y2
