import math

import numpy as np
import pytest

from zipperlift.config_io import build_system, parse_config
from zipperlift.errors import CombinatorialBudget, SingularSystem
from zipperlift.families import Example1Config, Example2Config, build_example1, build_example2
from zipperlift.geometry import (
    eventual_contraction_scan,
    operator_norms,
    row_norms,
    solve_linear,
)
from zipperlift.smoothing import build_lift, smooth_zipper
from conftest import workloads
from oracles import contraction_scan_reference
from oracles import operator_norm as reference_operator_norm
from oracles import vector_norm as reference_vector_norm


def operator_norm(matrix):
    """The norm of one matrix, as a stack of one."""
    return float(operator_norms([matrix])[0])


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


def test_solve_linear_near_the_float_range():
    # |rhs| squares past the float range; the residual contract still holds
    assert solve_linear([[0.5]], [1e200])[0] == 2e200


@pytest.mark.parametrize("matrix, rhs", [([[math.inf]], [1.0]), ([[1.0]], [math.nan])])
def test_solve_linear_rejects_non_finite_entries(matrix, rhs):
    # an eventual-mode lift's system can overflow to these
    with pytest.raises(ValueError, match="entries must be finite"):
        solve_linear(matrix, rhs)


def test_row_norms_are_numpys_where_nothing_overflows(rng):
    for _ in range(20_000):
        size = int(rng.integers(1, 9))
        vector = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-150, 150, size)
        assert row_norms(vector[None])[0] == np.linalg.norm(vector)
    assert row_norms(np.zeros((1, 3))).tolist() == [0.0]


def test_row_norms_across_the_float_range():
    rows = [[3 * 10.0**e, 4 * 10.0**e] for e in range(-300, 301, 20)]
    expected = [5 * 10.0**e for e in range(-300, 301, 20)]
    assert row_norms(np.array(rows)).tolist() == pytest.approx(expected, rel=1e-15)
    assert row_norms(np.full((1, 4), 1e308)).tolist() == [math.inf]


def test_operator_norm_identity():
    assert operator_norm(np.eye(2)) == pytest.approx(1.0, abs=1e-9)


def test_operator_norm_diagonal():
    assert operator_norm([[0.5, 0.0], [0.0, 0.15]]) == pytest.approx(0.5, abs=1e-9)


def test_operator_norm_zero():
    assert operator_norm(np.zeros((3, 3))) == 0.0


def test_operator_norm_survives_a_start_in_the_kernel():
    # the all-ones start maps to zero; the alternating start finds the norm
    matrix = np.array([[1.0, -1.0], [1.0, -1.0]])
    assert not (matrix @ np.ones(2)).any()
    assert operator_norm(matrix) == pytest.approx(2.0, rel=1e-12)


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


def test_operator_norm_across_the_float_range():
    # 1e78 * I overflowed and 1e-100 * I underflowed to a norm of 0
    worst = 0.0
    for e in range(-300, 301, 4):
        c = 10.0**e
        for matrix in (c * np.eye(2), np.array([[0.5, c], [0.0, c]])):
            reference = np.linalg.norm(matrix, 2)
            worst = max(worst, abs(operator_norm(matrix) - reference) / reference)
    assert worst <= 1e-12


def test_operator_norm_scales_by_powers_of_two_exactly(rng):
    for _ in range(50):
        d = int(rng.integers(1, 6))
        matrix = rng.normal(size=(d, d))
        norm = operator_norm(matrix)
        for k in (-1000, -200, -3, 5, 300, 1000):
            assert operator_norm(np.ldexp(matrix, k)) == math.ldexp(norm, k)


def test_operator_norm_past_the_float_range_is_inf():
    assert operator_norm(np.full((2, 2), 1e308)) == math.inf


def _bits(values):
    return [float(value).hex() for value in values]


def test_row_norms_are_the_one_vector_norm_bit_for_bit(rng):
    for n in (1, 2, 3, 4, 5, 8):
        rows = rng.normal(size=(300, n)) * 10.0 ** rng.choice([-200, 0, 200], size=(300, 1))
        expected = _bits(reference_vector_norm(row) for row in rows)
        assert _bits(row_norms(rows)) == expected


def _systems():
    """(zipper, line) of three preset forms and the seed-1 generated configs."""
    systems = [build_example1(Example1Config(p=0.3)),
               build_example2(Example2Config(h_param=0.5)),
               build_example2(Example2Config(h_param=0.8))]
    generated = workloads().build_workload("generated-zippers", 1).configs.values()
    return systems + [build_system(parse_config(text)) for text in generated]


def test_operator_norms_are_the_one_matrix_iteration_bit_for_bit(rng):
    # each matrix of a stack takes the steps and the stop it takes alone
    stacks = []
    for zipper, line in _systems():
        stacks += [zipper.linears, smooth_zipper(zipper, line, build_lift(zipper, line)).linears]
    # a start in the kernel, a slow stop, a shear and the zero matrix
    stacks.append(np.array([[[1.0, -1.0], [1.0, -1.0]], [[0.5, 1.0], [0.0, 1.0]],
                            [[0.6, 1.2], [0.0, 0.6]], np.zeros((2, 2))]))
    stacks += [rng.normal(size=(50, n, n)) for n in range(1, 5)]
    for stack in stacks:
        assert _bits(operator_norms(stack)) == _bits(map(reference_operator_norm, stack))


def _rotations(scale, count):
    angles = 2.0 * np.pi * np.arange(1, count + 1) / (count + 1)
    return scale * np.stack([np.cos(angles), -np.sin(angles), np.sin(angles),
                             np.cos(angles)], axis=1).reshape(count, 2, 2)


def _scan_family(name):
    """(linears, translations, base point) of a family the scan certifies."""
    if name == "shear-and-rotations":  # certifies at L = 6, 19,530 words
        linears = np.concatenate([[[[0.5, 2.0], [0.0, 0.5]]], _rotations(0.3, 4)])
        translations = np.column_stack([0.1 * np.arange(5), 0.05 * (np.arange(5) % 2)])
        return linears, translations, np.zeros(2)
    zipper, line = build_example2(Example2Config(h_param=0.5))
    lifted = smooth_zipper(zipper, line, build_lift(zipper, line))  # certifies at L = 1
    return lifted.linears, lifted.translations, lifted.vertices[0]


@pytest.mark.parametrize("name", ["shear-and-rotations", "ex2-h0.5-lifted"])
def test_stacked_scan_is_the_word_list_scan(name):
    family = _scan_family(name)
    scan = eventual_contraction_scan(*family, 8)
    assert scan == contraction_scan_reference(*family, 8)
    assert scan.word_length == (6 if name == "shear-and-rotations" else 1)


def test_stacked_scan_is_the_word_list_scan_on_random_families(rng):
    # one map stretched past norm 1 makes the scan walk words; a single gemm
    # for the word offsets would move some of these reaches in their last bits
    for _ in range(100):
        m, d = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        linears = rng.normal(size=(m, d, d))
        linears *= 0.9 / np.linalg.norm(linears, 2, axis=(1, 2))[:, None, None]
        linears[0] *= 1.3
        family = linears, rng.normal(size=(m, d)), rng.normal(size=d)
        assert eventual_contraction_scan(*family, 4) == contraction_scan_reference(*family, 4)


def _linear_maps(mats):
    """Stacks of the linear maps ``mats``: linear parts and zero translations."""
    return np.array(mats), np.zeros((len(mats), len(mats[0])))


def test_eventual_contraction_scan_uniform():
    scan = eventual_contraction_scan(*_linear_maps([0.5 * np.eye(2)] * 2), np.zeros(2), 4)
    assert scan.word_length == 1
    assert scan.values[0][1] == pytest.approx(0.5, abs=1e-9)


def test_eventual_contraction_scan_needs_words():
    # one direction expands, but every length-2 product contracts
    first = np.array([[0.0, 1.2], [0.0, 0.0]])
    second = np.array([[0.0, 0.0], [0.4, 0.0]])
    scan = eventual_contraction_scan(*_linear_maps([first, second]), np.zeros(2), 4)
    assert scan.values[0][1] > 1.0
    assert scan.word_length == 2
    assert scan.values[1][1] == pytest.approx(math.sqrt(0.48), abs=1e-9)


def test_eventual_contraction_budget():
    # 1001 words of length 1 fit the budget; the 1001^2 of length 2 do not
    maps = _linear_maps([np.eye(1)] * 1001)
    with pytest.raises(CombinatorialBudget):
        eventual_contraction_scan(*maps, np.zeros(1), 2)
    # 6^8 words exceed the budget, but a certificate at length 1 forms 6
    scan = eventual_contraction_scan(*_linear_maps([0.5 * np.eye(2)] * 6), np.zeros(2), 8)
    assert scan.word_length == 1 and len(scan.values) == 1


def test_word_reach_bound_contains_orbits(rng):
    # a family contracting only at word length 2: the certified reach must
    # dominate every random-iteration orbit started at the base point
    linears = np.array([[[0.0, 1.2], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.0]]])
    translations = np.array([[0.3, 0.1], [0.2, 0.5]])
    base = np.zeros(2)
    reach = eventual_contraction_scan(linears, translations, base, 4).reach
    assert np.isfinite(reach) and reach > 0
    for _ in range(200):
        point = base.copy()
        for choice in rng.integers(0, 2, size=40):
            point = linears[choice] @ point + translations[choice]
        assert np.linalg.norm(point - base) <= reach


def test_word_reach_bound_needs_certificate():
    scan = eventual_contraction_scan(*_linear_maps([1.1 * np.eye(2)]), np.zeros(2), 3)
    assert not scan.passed and scan.reach is None


def test_scan_reach_stays_finite_for_offsets_past_the_square_root_of_the_float_range():
    # the length-2 word offset (1e200, 1) contracts, and its norm squares past 1e308
    linears = np.array([[[0.0, 1e200], [0.0, 0.0]], [[0.0, 0.0], [1e-201, 0.0]]])
    scan = eventual_contraction_scan(linears, np.array([[0.0, 1.0], [0.0, 1.0]]), np.zeros(2), 4)
    assert scan.word_length == 2
    assert math.isfinite(scan.reach) and scan.reach >= 1e200


def test_scan_stops_at_words_past_the_float_range():
    # the length-4 words of 1e80 entries overflow: recorded as inf, no certificate
    maps = _linear_maps([np.array([[0.5, 1e80], [0.0, 1e80]]), 0.5 * np.eye(2)])
    scan = eventual_contraction_scan(*maps, np.zeros(2), 8)
    assert not scan.passed and scan.reach is None
    assert [length for length, _ in scan.values] == [1, 2, 3, 4]
    assert scan.values[-1][1] == math.inf
    assert all(math.isfinite(value) and value > 1.0 for _, value in scan.values[:-1])
