import math

import numpy as np
import pytest

from zipperlift.errors import CombinatorialBudget, DimensionMismatch, SingularSystem
from zipperlift.geometry import (
    AffineMap,
    apply,
    compose,
    eventual_contraction_scan,
    identity_map,
    operator_norm,
    solve_linear,
)


def interval_w1(p):
    # first lifted map of the interval family: (x, y) -> (x/2, p y / 2)
    return AffineMap([[0.5, 0.0], [0.0, p / 2.0]], [0.0, 0.0])


def test_apply_identity():
    point = apply(identity_map(2), [0.3, 0.7])
    assert np.array_equal(point, [0.3, 0.7])


def test_apply_interval_lift_map():
    # (1, 1) -> (1/2, 0.15) under (x/2, 0.15 y)
    out = apply(interval_w1(0.3), [1.0, 1.0])
    assert np.allclose(out, [0.5, 0.15], atol=1e-15)


def test_apply_rotation_family_map():
    # scale sqrt(h^2 + 1/4) and rotate arctan(2h); at h = 0.5 the unit
    # x-vector lands on the apex (0.5, 0.5)
    h = 0.5
    p = math.sqrt(h * h + 0.25)
    a = math.atan(2 * h)
    rot = [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
    out = apply(AffineMap(p * np.array(rot), [0.0, 0.0]), [1.0, 0.0])
    assert np.allclose(out, [0.5, 0.5], atol=1e-15)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply(identity_map(2), [1.0, 2.0, 3.0])


def test_compose_identity():
    mapping = interval_w1(0.3)
    back = compose(identity_map(2), mapping)
    assert np.array_equal(back.linear, mapping.linear)
    assert np.array_equal(back.translation, mapping.translation)


def test_compose_scalars():
    a = AffineMap([[0.3]], [0.0])
    b = AffineMap([[0.5]], [0.0])
    assert compose(a, b).linear[0, 0] == pytest.approx(0.15, abs=1e-16)


def test_compose_interval_lift_with_itself():
    # hand multiplication: linear part diag(0.25, 0.0225), no translation
    twice = compose(interval_w1(0.3), interval_w1(0.3))
    assert np.allclose(twice.linear, [[0.25, 0.0], [0.0, 0.0225]], atol=1e-16)
    assert np.array_equal(twice.translation, [0.0, 0.0])


def test_compose_matches_sequential_apply(rng):
    for _ in range(50):
        d = int(rng.integers(1, 5))
        a = AffineMap(rng.normal(size=(d, d)), rng.normal(size=d))
        b = AffineMap(rng.normal(size=(d, d)), rng.normal(size=d))
        x = rng.normal(size=d)
        lhs = apply(compose(a, b), x)
        rhs = apply(a, apply(b, x))
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(rhs))


def test_solve_linear_scalar():
    # the total-integral system of the interval family at p = 1/2 collapses
    # to (1 - 1/4 - 1/4) h = 1/4
    assert solve_linear([[0.5]], [0.25])[0] == pytest.approx(0.5, abs=1e-15)


def test_solve_linear_identity(rng):
    b = rng.normal(size=4)
    assert np.allclose(solve_linear(np.eye(4), b), b, atol=1e-15)


def test_solve_linear_singular():
    with pytest.raises(SingularSystem):
        solve_linear([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0])


HILBERT_8 = [[1.0 / (i + j + 1) for j in range(8)] for i in range(8)]


@pytest.mark.parametrize("matrix, rhs, verdict", [
    ([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0], "smallest singular value"),
    ([[1.0, 1.0], [1.0, 1.0 + 1e-15]], [1.0, 0.0], "smallest singular value"),
    ([[1e-16, 0.0], [0.0, 1.0]], [1.0, 1.0], "smallest singular value"),
    ([[1e-15]], [1.0], "smallest singular value"),
    ([[1.0, 1.0], [1.0, 1.0 + 1e-13]], [1.0, 0.0], None),
    ([[1.0, 1.0], [1.0, 1.0 + 1e-13]], [2.0, 2.0 + 1e-13], None),
    ([[1e-13]], [1.0], None),
    (HILBERT_8, [1.0] * 8, "residual"),
])
def test_solve_linear_verdicts(matrix, rhs, verdict):
    # singular within 1e-14 of the singular matrices, or missing the residual
    # contract, raises; the rest solve within the contract
    if verdict is not None:
        with pytest.raises(SingularSystem, match=verdict):
            solve_linear(matrix, rhs)
        return
    x = solve_linear(matrix, rhs)
    residual = np.linalg.norm(np.array(matrix) @ x - rhs)
    assert residual <= 1e-12 * (1 + np.linalg.norm(rhs))


def test_solve_linear_residual_contract(rng):
    solved = 0
    while solved < 100:
        d = int(rng.integers(1, 6))
        m = rng.normal(size=(d, d))
        if np.linalg.cond(m) >= 1e3:
            continue
        b = rng.normal(size=d)
        x = solve_linear(m, b)
        assert np.linalg.norm(m @ x - b) <= 1e-12 * (1 + np.linalg.norm(b))
        solved += 1


def test_operator_norm_identity():
    assert operator_norm(np.eye(2)) == pytest.approx(1.0, abs=1e-9)


def test_operator_norm_diagonal():
    assert operator_norm([[0.5, 0.0], [0.0, 0.15]]) == pytest.approx(0.5, abs=1e-9)


def test_operator_norm_zero():
    assert operator_norm(np.zeros((3, 3))) == 0.0


def test_operator_norm_closed_form():
    # second lifted map of the interval family at p = 0.3; the Gram matrix
    # eigenvalues are (0.395 +/- sqrt(0.033525)) / 2
    expected = math.sqrt((0.395 + math.sqrt(0.033525)) / 2.0)
    assert operator_norm([[0.5, 0.0], [0.15, 0.35]]) == pytest.approx(expected, abs=1e-9)


def test_operator_norm_dominates_random_directions(rng):
    for _ in range(20):
        d = int(rng.integers(1, 5))
        m = rng.normal(size=(d, d))
        norm = operator_norm(m)
        xs = rng.normal(size=(100, d))
        xs /= np.linalg.norm(xs, axis=1)[:, None]
        ratios = np.linalg.norm(xs @ m.T, axis=1)
        assert np.all(ratios <= norm + 1e-9 * max(norm, 1.0))
        # the top direction is achieved within 1e-6 (oracle: exact svd)
        assert norm == pytest.approx(np.linalg.svd(m, compute_uv=False)[0], abs=1e-6)


def test_eventual_contraction_scan_uniform():
    scan = eventual_contraction_scan([0.5 * np.eye(2), 0.5 * np.eye(2)], 4)
    assert scan.word_length == 1
    assert scan.values[0][1] == pytest.approx(0.5, abs=1e-9)


def test_eventual_contraction_scan_needs_words():
    # one direction expands, but every length-2 product contracts
    first = np.array([[0.0, 1.2], [0.0, 0.0]])
    second = np.array([[0.0, 0.0], [0.4, 0.0]])
    scan = eventual_contraction_scan([first, second], 4)
    assert scan.values[0][1] > 1.0
    assert scan.word_length == 2
    assert scan.values[1][1] == pytest.approx(math.sqrt(0.48), abs=1e-9)


def test_eventual_contraction_budget():
    mats = [np.eye(2)] * 10
    with pytest.raises(CombinatorialBudget):
        eventual_contraction_scan(mats, 7)


def test_word_reach_bound_contains_orbits(rng):
    # a family contracting only at word length 2: the certified reach must
    # dominate every random-iteration orbit started at the base point
    from zipperlift.geometry import word_reach_bound

    maps = [
        AffineMap([[0.0, 1.2], [0.0, 0.0]], [0.3, 0.1]),
        AffineMap([[0.0, 0.0], [0.4, 0.0]], [0.2, 0.5]),
    ]
    base = np.zeros(2)
    reach = word_reach_bound(maps, base, 4)
    assert np.isfinite(reach) and reach > 0
    for _ in range(200):
        point = base.copy()
        for choice in rng.integers(0, 2, size=40):
            mp = maps[choice]
            point = mp.linear @ point + mp.translation
        assert np.linalg.norm(point - base) <= reach


def test_word_reach_bound_needs_certificate():
    from zipperlift.geometry import word_reach_bound

    expanding = [AffineMap([[1.1, 0.0], [0.0, 1.1]], [0.0, 0.0])]
    with pytest.raises(ValueError):
        word_reach_bound(expanding, np.zeros(2), 3)
