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
    size, residual = row_norms(np.stack([rhs, rhs - matrix @ x])).tolist()
    budget = SOLVE_RESIDUAL_BOUND * (1.0 + size)
    if residual > budget:
        raise SingularSystem(
            f"residual {residual:.3e} exceeds contract {budget:.3e}; "
            "system is numerically singular"
        )
    x.setflags(write=False)
    return x


def row_norms(rows, norm=lambda rows: np.sqrt(np.vecdot(rows, rows))):
    """``norm`` of each row of ``rows``, taken on the row scaled by the power
    of two that brings its largest entry into [0.5, 1) and scaled back.
    Both scalings are exact, so no norm overflows or underflows anywhere in
    the float range; one past the largest float reads inf.  The default
    gives each row the bits of ``np.linalg.norm(row)``;
    ``np.linalg.norm(rows, axis=1)`` sums in another order and is not."""
    _, exponents = np.frexp(np.abs(rows).max(axis=1))
    with np.errstate(over="ignore"):
        return np.ldexp(norm(np.ldexp(rows, -exponents[:, None])), exponents)


def operator_norms(stack):
    """Spectral norms (largest singular values) of a (k, d, d) stack of
    finite matrices, as an array of k floats.

    Power iteration on each Gram matrix ``M^T M`` from the all-ones start
    vector, with an alternating-sign companion start for d >= 2 guarding
    against a start orthogonal to the top singular subspace; the norm is
    the larger estimate.  Each iteration stops on its own test, so every
    matrix takes the steps it would take alone and its norm does not depend
    on the rest of the stack.  Deterministic, converging to relative
    accuracy ~1e-9 within 10^4 iterations for matrices with a reasonable
    spectral gap.  The zero matrix has norm 0.  The iteration runs on each
    matrix scaled like :func:`row_norms`, so a norm past the largest float
    reads inf.
    """
    stack = np.asarray(stack, dtype=float)
    count, d = len(stack), stack.shape[-1]
    _, exponents = np.frexp(np.abs(stack).max(axis=(1, 2)))
    scaled = np.ldexp(stack, -exponents[:, None, None])
    starts = np.full((min(d, 2), d), 1.0 / math.sqrt(d))
    starts[1:, 1::2] *= -1.0
    # problem p iterates start p % len(starts) on matrix p // len(starts)
    grams = np.repeat(scaled.transpose(0, 2, 1) @ scaled, len(starts), axis=0)
    v = np.tile(starts, (count, 1))
    estimates = np.zeros(len(v))
    active, current = np.arange(len(v)), estimates.copy()
    for _ in range(MAX_POWER_ITERATIONS):
        w = (grams @ v[:, :, None])[:, :, 0]
        weights = np.sqrt(np.vecdot(w, w))
        vanished = weights == 0.0
        v = w / np.where(vanished, 1.0, weights)[:, None]
        previous, squares = current, np.vecdot((v[:, None, :] @ grams)[:, 0, :], v)
        # a vanished iterate stops at its last estimate
        current = np.where(vanished, previous, np.sqrt(np.where(squares > 0.0, squares, 0.0)))
        done = np.abs(current - previous) <= 0.5 * NORM_RELATIVE_ACCURACY * np.maximum(
            current, 1e-300)
        if done.any():
            estimates[active[done]] = current[done]
            active, grams, v, current = (a[~done] for a in (active, grams, v, current))
            if not active.size:
                break
    estimates[active] = current
    with np.errstate(over="ignore"):
        return np.ldexp(estimates.reshape(count, len(starts)).max(axis=1), exponents)


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
    records the worst ``operator_norms(linear parts) ** (1/L)``; it stops at
    the first L with every such value at most :data:`CONTRACTION_THRESHOLD`,
    or, certifying nothing, at the first L whose words are not all finite,
    recorded as inf.
    If no word up to that length moves ``base_point`` farther than D, the
    attractor lies within ``reach = D / (1 - worst**L)`` of it.  Raises
    :class:`CombinatorialBudget` before forming a length whose words would
    take the total formed past :data:`WORD_BUDGET`.
    """
    base_point = np.asarray(base_point, dtype=float)
    d = base_point.size
    lins, offs = np.eye(d)[None], np.zeros((1, d))
    values = []
    formed = 0
    farthest = 0.0
    for length in range(1, max_word_length + 1):
        formed += len(linears) ** length
        if formed > WORD_BUDGET:
            raise CombinatorialBudget(
                f"{formed} words up to length {length} exceed the {WORD_BUDGET:g} budget"
            )
        # word w*m + k is word w followed by map k; one matvec per word, as
        # a single gemm would sum the offsets in another order
        with np.errstate(over="ignore", invalid="ignore"):
            offs = np.matmul(lins[:, None], translations[None, :, :, None])[..., 0] + offs[:, None]
            lins = np.matmul(lins[:, None], linears[None])
        lins, offs = lins.reshape(-1, d, d), offs.reshape(-1, d)
        if not (np.isfinite(lins).all() and np.isfinite(offs).all()):
            # products past the float range cannot certify, nor can longer words
            values.append((length, math.inf))
            break
        worst = 0.0
        for start in range(0, len(lins), 2**16):  # bounds the norms' temporaries
            chunk = slice(start, start + 2**16)
            worst = max(worst, float(operator_norms(lins[chunk]).max()))
            moved = lins[chunk] @ base_point + offs[chunk] - base_point
            farthest = max(farthest, float(row_norms(moved).max()))
        worst **= 1.0 / length
        values.append((length, worst))
        if worst <= CONTRACTION_THRESHOLD:
            return ContractionScan(length, tuple(values), farthest / (1.0 - worst**length))
    return ContractionScan(None, tuple(values))
