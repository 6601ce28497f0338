"""Small dense linear algebra over R^d.

Vectors are one-dimensional float64 arrays, matrices are square float64
arrays, and an :class:`AffineMap` pairs a matrix with a translation.  The
ambient dimension in this package stays tiny (d <= ~8), so the routines
favour determinism over asymptotics: LAPACK LU for solves and power
iteration from fixed start vectors for spectral norms, both
bit-reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CombinatorialBudget, DimensionMismatch, SingularSystem

#: Matrices whose smallest singular value is below this are singular.
SINGULAR_VALUE_FLOOR = 1e-14

#: Target relative accuracy of the power-iteration spectral norm.
NORM_RELATIVE_ACCURACY = 1e-9

MAX_POWER_ITERATIONS = 10_000

#: Residual contract of :func:`solve_linear`, relative to 1 + |rhs|.
SOLVE_RESIDUAL_BOUND = 1e-12

#: A word scan certifies contraction once every normalized norm is below this.
CONTRACTION_THRESHOLD = 1.0 - 1e-9

#: Most word products a contraction scan may enumerate.
WORD_BUDGET = 10**6


def as_vector(values, dim=None):
    """Coerce ``values`` to a read-only float64 vector.

    Rejects empty input, non-finite entries and, when ``dim`` is given, any
    length other than ``dim``.
    """
    vec = np.array(values, dtype=float)
    if vec.ndim != 1 or vec.size == 0:
        raise DimensionMismatch(f"expected a nonempty vector, got shape {vec.shape}")
    if dim is not None and vec.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {vec.size}")
    if not np.all(np.isfinite(vec)):
        raise ValueError("vector entries must be finite")
    vec.setflags(write=False)
    return vec


def as_matrix(values, dim=None):
    """Coerce ``values`` to a read-only square float64 matrix."""
    mat = np.array(values, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    if dim is not None and mat.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {mat.shape[0]}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False)
class AffineMap:
    """The affine map ``x -> linear @ x + translation`` on R^d."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        linear = as_matrix(self.linear)
        translation = as_vector(self.translation, dim=linear.shape[0])
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "translation", translation)

    @property
    def dimension(self):
        return self.translation.size

    def __call__(self, point):
        return apply(self, point)


def identity_map(dim):
    """Identity affine map on R^dim."""
    return AffineMap(np.eye(dim), np.zeros(dim))


def apply(mapping, point):
    """Evaluate ``mapping`` at ``point``."""
    point = as_vector(point, dim=mapping.dimension)
    out = mapping.linear @ point + mapping.translation
    out.setflags(write=False)
    return out


def apply_many(mapping, points):
    """Evaluate ``mapping`` at every row of ``points`` (shape (N, d))."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != mapping.dimension:
        raise DimensionMismatch(
            f"expected points of shape (N, {mapping.dimension}), got {points.shape}"
        )
    images = points @ mapping.linear.T
    # column by column: a broadcast add would loop over rows of d entries
    for j, shift in enumerate(mapping.translation.tolist()):
        images[:, j] += shift
    return images


def compose(outer, inner):
    """The affine map sending ``x`` to ``outer(inner(x))``."""
    if outer.dimension != inner.dimension:
        raise DimensionMismatch(
            f"cannot compose maps of dimension {outer.dimension} and {inner.dimension}"
        )
    return AffineMap(
        outer.linear @ inner.linear,
        outer.linear @ inner.translation + outer.translation,
    )


def solve_linear(matrix, rhs):
    """Solve ``matrix @ x = rhs`` for small dense systems.

    LAPACK LU with partial pivoting (``np.linalg.solve``).  Raises
    :class:`SingularSystem` when the smallest singular value of ``matrix``,
    its 2-norm distance to a singular matrix, falls below
    :data:`SINGULAR_VALUE_FLOOR`, or when the multiply-back residual exceeds
    ``1e-12 * (1 + |rhs|)``.
    """
    matrix = as_matrix(matrix)
    rhs = as_vector(rhs, dim=matrix.shape[0])
    smallest = float(np.linalg.svd(matrix, compute_uv=False)[-1])
    if smallest < SINGULAR_VALUE_FLOOR:
        raise SingularSystem(
            f"smallest singular value {smallest:.3e} below {SINGULAR_VALUE_FLOOR:g}"
        )
    x = np.linalg.solve(matrix, rhs)
    budget = SOLVE_RESIDUAL_BOUND * (1.0 + float(np.linalg.norm(rhs)))
    residual = float(np.linalg.norm(rhs - matrix @ x))
    if residual > budget:
        raise SingularSystem(
            f"residual {residual:.3e} exceeds contract {budget:.3e}; "
            "system is numerically singular"
        )
    x.setflags(write=False)
    return x


def operator_norm(matrix):
    """Spectral norm (largest singular value) of ``matrix``.

    Power iteration on the Gram matrix ``M^T M`` from the all-ones start
    vector, with an alternating-sign companion start for d >= 2 guarding
    against a start orthogonal to the top singular subspace.  Deterministic,
    converging to relative accuracy ~1e-9 within 10^4 iterations for
    matrices with a reasonable spectral gap.  The zero matrix returns 0.
    """
    m = as_matrix(matrix)
    if not m.any():
        return 0.0
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


@dataclass(frozen=True)
class ContractionScan:
    """Outcome of a word-product contraction search.

    ``word_length`` is the first length L at which every length-L product
    of the scanned linear parts has operator norm^(1/L) below
    :data:`CONTRACTION_THRESHOLD`, or ``None`` when no tested length succeeds.  ``values`` lists the tested
    ``(L, worst norm^(1/L))`` pairs in order.
    """

    word_length: int | None
    values: tuple[tuple[int, float], ...]

    @property
    def passed(self):
        return self.word_length is not None


def eventual_contraction_scan(linears, max_word_length):
    """Search word lengths 1..max_word_length for a contraction certificate.

    For each length L the scan forms all m^L products of the given matrices
    and records the worst ``operator_norm(product) ** (1/L)``; it stops at
    the first L with every such value below :data:`CONTRACTION_THRESHOLD`.
    Raises :class:`CombinatorialBudget` when ``m ** max_word_length`` exceeds
    :data:`WORD_BUDGET`.
    """
    mats = [as_matrix(m) for m in linears]
    if not mats:
        raise ValueError("need at least one matrix")
    count = len(mats)
    if count**max_word_length > WORD_BUDGET:
        raise CombinatorialBudget(
            f"{count}^{max_word_length} words exceed the {WORD_BUDGET:g} budget"
        )
    dim = mats[0].shape[0]
    level = [np.eye(dim)]
    values = []
    for length in range(1, max_word_length + 1):
        level = [product @ mat for product in level for mat in mats]
        worst = max(operator_norm(product) for product in level) ** (1.0 / length)
        values.append((length, worst))
        if worst < CONTRACTION_THRESHOLD:
            return ContractionScan(length, tuple(values))
    return ContractionScan(None, tuple(values))


def word_reach_bound(maps, base_point, word_length):
    """Bound the attractor reach of an eventually contracting map family.

    Returns R with ``|x - base_point| <= R`` for every attractor point x,
    valid whenever all length-``word_length`` products of the linear parts
    contract.  Used as a fallback when single maps are not norm-contractive.
    """
    base_point = np.asarray(base_point, dtype=float)
    scan = eventual_contraction_scan([mp.linear for mp in maps], word_length)
    if not scan.passed:
        raise ValueError(
            f"no contraction certificate within word length {word_length}"
        )
    block = scan.word_length
    contraction = scan.values[block - 1][1] ** block
    reach = 0.0
    level = [(np.eye(base_point.size), np.zeros(base_point.size))]
    for _ in range(block):
        level = [
            (lin @ mp.linear, lin @ mp.translation + off)
            for lin, off in level
            for mp in maps
        ]
        reach = max(
            reach,
            max(float(np.linalg.norm(lin @ base_point + off - base_point)) for lin, off in level),
        )
    return reach / (1.0 - contraction)
