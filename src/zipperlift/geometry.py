"""Small dense linear algebra over R^d.

Vectors are one-dimensional float64 arrays and matrices are square float64
arrays.  A family of affine maps is two stacked arrays, linear parts
(m, d, d) and translations (m, d).  The ambient dimension in this package
stays tiny (d <= ~8), so the routines favour determinism over asymptotics:
LAPACK LU for solves and power iteration from fixed start vectors for
spectral norms, both bit-reproducible across runs.  Norms are taken on the
input scaled by an exact power of two, so they neither overflow nor
underflow anywhere in the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CombinatorialBudget, SingularSystem

#: Matrices whose smallest singular value is below this are singular.
SINGULAR_VALUE_FLOOR = 1e-14

#: Target relative accuracy of the power-iteration spectral norm.
NORM_RELATIVE_ACCURACY = 1e-9

MAX_POWER_ITERATIONS = 10_000

#: Residual contract of :func:`solve_linear`, relative to 1 + |rhs|.
SOLVE_RESIDUAL_BOUND = 1e-12

#: A word scan certifies contraction once every normalized norm is at most this.
CONTRACTION_THRESHOLD = 1.0 - 1e-9

#: Most word products a contraction scan may enumerate.
WORD_BUDGET = 10**6


def solve_linear(matrix, rhs):
    """Solve ``matrix @ x = rhs`` for small dense systems.

    LAPACK LU with partial pivoting (``np.linalg.solve``).  Raises
    :class:`SingularSystem` when the smallest singular value of ``matrix``,
    its 2-norm distance to a singular matrix, falls below
    :data:`SINGULAR_VALUE_FLOOR`, or when the multiply-back residual exceeds
    ``1e-12 * (1 + |rhs|)``, and :class:`ValueError` for non-finite
    entries, which an eventual-mode lift's system can reach by overflow.
    """
    matrix, rhs = np.asarray(matrix, dtype=float), np.asarray(rhs, dtype=float)
    if not np.isfinite(matrix).all():
        raise ValueError("matrix entries must be finite")
    if not np.isfinite(rhs).all():
        raise ValueError("vector entries must be finite")
    smallest = float(np.linalg.svd(matrix, compute_uv=False)[-1])
    if smallest < SINGULAR_VALUE_FLOOR:
        raise SingularSystem(
            f"smallest singular value {smallest:.3e} below {SINGULAR_VALUE_FLOOR:g}"
        )
    x = np.linalg.solve(matrix, rhs)
    budget = SOLVE_RESIDUAL_BOUND * (1.0 + vector_norm(rhs))
    residual = vector_norm(rhs - matrix @ x)
    if residual > budget:
        raise SingularSystem(
            f"residual {residual:.3e} exceeds contract {budget:.3e}; "
            "system is numerically singular"
        )
    x.setflags(write=False)
    return x


def _prescaled(norm, array):
    """``norm(array)``, taken on ``array`` scaled by the power of two that
    brings its largest entry into [0.5, 1) and scaled back.  Both scalings
    are exact, so the norm neither overflows nor underflows anywhere in the
    float range; one past the largest float reads inf.  A zero array gives
    0."""
    if not array.any():
        return 0.0
    _, exponent = math.frexp(float(np.abs(array).max()))
    try:
        return math.ldexp(norm(np.ldexp(array, -exponent)), exponent)
    except OverflowError:
        return math.inf


def vector_norm(vector):
    """Euclidean norm of ``vector``: the bits of ``np.linalg.norm`` wherever
    that neither overflows nor underflows, and finite past there."""
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
    """Spectral norm (largest singular value) of ``matrix``.

    Power iteration on the Gram matrix ``M^T M`` from the all-ones start
    vector, with an alternating-sign companion start for d >= 2 guarding
    against a start orthogonal to the top singular subspace.  Deterministic,
    converging to relative accuracy ~1e-9 within 10^4 iterations for
    matrices with a reasonable spectral gap.  The zero matrix returns 0.
    The iteration runs on the prescaled matrix, like :func:`vector_norm`,
    so a norm past the largest float reads inf.
    """
    return _prescaled(_power_iteration, np.asarray(matrix, dtype=float))


@dataclass(frozen=True)
class ContractionScan:
    """Outcome of a word-product contraction search.

    ``word_length`` is the first length L at which every length-L product
    of the scanned linear parts has operator norm^(1/L) at most
    :data:`CONTRACTION_THRESHOLD`, or ``None`` when no tested length
    succeeds.  ``values`` lists the tested ``(L, worst norm^(1/L))`` pairs
    in order.  ``reach`` bounds the distance of every attractor point from
    the base point, or is ``None`` unproven.
    """

    word_length: int | None
    values: tuple[tuple[int, float], ...]
    reach: float | None = None

    @property
    def passed(self):
        return self.word_length is not None


def eventual_contraction_scan(linears, translations, base_point, max_word_length):
    """Search word lengths 1..max_word_length for a contraction certificate.

    For each length L the scan forms all m^L affine words of the maps with
    stacked ``linears`` (m, d, d) and ``translations`` (m, d), and
    records the worst ``operator_norm(linear part) ** (1/L)``; it stops at
    the first L with every such value at most :data:`CONTRACTION_THRESHOLD`,
    or, certifying nothing, at the first L whose words are not all finite,
    recorded as inf.
    If no word up to that length moves ``base_point`` farther than D, the
    attractor lies within ``reach = D / (1 - worst**L)`` of it.  Raises
    :class:`CombinatorialBudget` before forming a length whose words would
    take the total formed past :data:`WORD_BUDGET`.
    """
    base_point = np.asarray(base_point, dtype=float)
    maps = list(zip(linears, translations))
    level = [(np.eye(base_point.size), np.zeros(base_point.size))]
    values = []
    formed = 0
    farthest = 0.0
    for length in range(1, max_word_length + 1):
        formed += len(maps) ** length
        if formed > WORD_BUDGET:
            raise CombinatorialBudget(
                f"{formed} words up to length {length} exceed the {WORD_BUDGET:g} budget"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            level = [
                (lin @ linear, lin @ translation + off)
                for lin, off in level
                for linear, translation in maps
            ]
        if not all(np.isfinite(lin).all() and np.isfinite(off).all() for lin, off in level):
            # products past the float range cannot certify, nor can longer words
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
