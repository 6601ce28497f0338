import numpy as np
import pytest

from zipperlift.errors import (
    CountMismatch,
    InvalidNodes,
    NotNormalized,
    SignatureMismatch,
    ZipperViolation,
)
from zipperlift.geometry import AffineMap, apply, operator_norm
from zipperlift.families import Example1Config, Example2Config, build_example1, build_example2
from zipperlift.smoothing import build_lift, smooth_zipper
from zipperlift.zipper import (
    VERTEX_TOLERANCE,
    inspect_zipper,
    line_zipper,
    normalize_zipper,
    product_zipper,
    similarity_decomposition,
    validate_zipper,
)


def interval_maps(p):
    return (AffineMap([[p]], [0.0]), AffineMap([[1.0 - p]], [p]))


def test_validate_interval_family():
    zipper = validate_zipper(interval_maps(0.3), [[0.0], [0.3], [1.0]], (0, 0))
    assert zipper.map_count == 2
    assert zipper.linear_norms == (pytest.approx(0.3), pytest.approx(0.7))


def test_linear_norms_are_the_operator_norms_of_the_maps():
    # validation computes the norms once and the zipper keeps them
    for zipper, line in (build_example1(Example1Config(p=0.3)),
                         build_example2(Example2Config(h_param=0.5))):
        lifted = smooth_zipper(zipper, line, build_lift(zipper, line))
        for target in (zipper, product_zipper(zipper, line), lifted):
            assert target.linear_norms == tuple(operator_norm(mp.linear) for mp in target.maps)


def test_validate_rejects_wrong_middle_vertex():
    with pytest.raises(ZipperViolation) as excinfo:
        validate_zipper(interval_maps(0.3), [[0.0], [0.5], [1.0]], (0, 0))
    report = excinfo.value.report
    assert not report.valid
    # the first map sends the last vertex to 0.3, not the claimed 0.5
    assert any(v.map_index == 1 and v.condition == "end-vertex" for v in report.violations)
    assert any(abs(v.deviation - 0.2) < 1e-12 for v in report.violations)


def test_validate_reports_non_finite_vertices():
    # NaN compares false, so the vertex axioms alone would let this through
    report = inspect_zipper(interval_maps(0.5), [[0.0], [np.nan], [1.0]], (0, 0))
    assert not report.valid
    assert [(v.condition, v.deviation) for v in report.violations] == [("finite-vertex", np.inf)]
    assert "vertex 1 is [nan]" in report.summary()
    with pytest.raises(ZipperViolation) as excinfo:
        validate_zipper(interval_maps(0.5), [[0.0], [0.5], [np.inf]], (0, 0))
    assert [v.condition for v in excinfo.value.report.violations] == ["finite-vertex"]


def test_validate_rotation_family():
    zipper, _ = build_example2(Example2Config(h_param=0.5))
    assert np.allclose(apply(zipper.maps[0], [1.0, 0.0]), [0.5, 0.5], atol=1e-15)
    assert np.allclose(apply(zipper.maps[1], [1.0, 0.0]) + 0.0, [1.0, 0.0], atol=1e-15)


def test_validation_tolerance_is_sharp(rng):
    zipper, _ = build_example1(Example1Config(p=0.3))
    for factor, expected_valid in ((0.9, True), (1.1, False)):
        vertices = np.array(zipper.vertices)
        # interior vertex: the deviation is exact up to one rounding of 0.3
        vertices[1, 0] += factor * VERTEX_TOLERANCE
        report = inspect_zipper(zipper.maps, vertices, zipper.signature)
        assert report.valid == expected_valid


def test_line_zipper_plain():
    line = line_zipper((0.0, 0.5, 1.0), (0, 0))
    assert line.forward(1, 1.0) == pytest.approx(0.5)
    assert line.forward(2, 0.0) == pytest.approx(0.5)
    assert line.forward(2, 1.0) == pytest.approx(1.0)


def test_line_zipper_reversed_branch():
    line = line_zipper((0.0, 0.5, 1.0), (1, 0))
    # first map runs backwards: 0 -> 0.5, 1 -> 0
    assert line.forward(1, 0.0) == pytest.approx(0.5)
    assert line.forward(1, 1.0) == pytest.approx(0.0)
    assert line.inverse(1, 0.25) == pytest.approx(0.5)


def test_line_zipper_rejects_bad_nodes():
    with pytest.raises(InvalidNodes):
        line_zipper((0.0, 0.7, 0.5, 1.0), (0, 0, 0))
    with pytest.raises(InvalidNodes):
        line_zipper((0.1, 0.5, 1.0), (0, 0))


def test_line_zipper_single_interval_is_not_contracting():
    # nodes (0, 1) induce the identity map, which fails the axioms
    with pytest.raises(ZipperViolation):
        line_zipper((0.0, 1.0), (0,))


def test_normalize_already_normalized():
    zipper, _ = build_example1(Example1Config(p=0.3))
    normalized, shift = normalize_zipper(zipper)
    assert normalized is zipper
    assert np.array_equal(shift, [0.0])


def test_normalize_shifted_interval_family():
    zipper, _ = build_example1(Example1Config(p=0.3))
    shifted_maps = tuple(
        AffineMap(mp.linear, mp.translation + 2.0 - mp.linear @ np.array([2.0]))
        for mp in zipper.maps
    )
    shifted = validate_zipper(shifted_maps, zipper.vertices + 2.0, zipper.signature)
    normalized, shift = normalize_zipper(shifted)
    assert np.allclose(normalized.vertices.ravel(), [0.0, 0.3, 1.0], atol=1e-12)
    assert np.allclose(shift, [-2.0])
    # vertices of the old attractor are recovered by undoing the shift
    assert np.allclose(normalized.vertices - shift, shifted.vertices, atol=1e-12)


def test_normalize_shifted_rotation_family():
    zipper, _ = build_example2(Example2Config(h_param=0.5))
    offset = np.array([1.0, 1.0])
    moved_maps = tuple(
        AffineMap(mp.linear, mp.translation + offset - mp.linear @ offset)
        for mp in zipper.maps
    )
    moved = validate_zipper(moved_maps, zipper.vertices + offset, zipper.signature)
    normalized, shift = normalize_zipper(moved)
    assert np.allclose(shift, [-1.0, -1.0])
    assert np.allclose(normalized.vertices, zipper.vertices, atol=1e-12)
    # idempotent
    again, zero_shift = normalize_zipper(normalized)
    assert again is normalized
    assert np.array_equal(zero_shift, [0.0, 0.0])


def test_product_zipper_interval_family():
    zipper, line = build_example1(Example1Config(p=0.3))
    product = product_zipper(zipper, line)
    assert product.dimension == 2
    assert np.allclose(apply(product.maps[0], [1.0, 1.0]), [0.5, 0.3], atol=1e-15)
    assert np.allclose(apply(product.maps[1], [0.0, 0.0]), [0.5, 0.3], atol=1e-15)
    assert np.allclose(product.vertices, [[0.0, 0.0], [0.5, 0.3], [1.0, 1.0]], atol=1e-15)


def test_product_zipper_rotation_family():
    zipper, line = build_example2(Example2Config(h_param=0.5))
    product = product_zipper(zipper, line)
    assert product.dimension == 3
    corners = np.array(
        [[t, x, y] for t in (0, 1) for x in (0, 1) for y in (0, 1)], dtype=float
    )
    for k, (mp, t_box) in enumerate(zip(product.maps, ((0.0, 0.5), (0.5, 1.0)))):
        # the parameter coordinate of the unit cube lands in the half boxes
        images = corners @ mp.linear.T + mp.translation
        assert images[:, 0].min() >= t_box[0] - 1e-12
        assert images[:, 0].max() <= t_box[1] + 1e-12
        # the spatial block is the rotation-scaling of ratio sqrt(1/2)
        assert np.allclose(mp.linear[1:, 1:], zipper.maps[k].linear, atol=1e-15)
        assert np.allclose(mp.linear[0, 1:], 0.0) and np.allclose(mp.linear[1:, 0], 0.0)


def test_product_zipper_degenerate_half_is_diagonal():
    zipper, line = build_example1(Example1Config(p=0.5))
    product = product_zipper(zipper, line)
    for mp in product.maps:
        # both maps are similarities of ratio 1/2; the diagonal is invariant
        diag = np.array([0.7, 0.7])
        image = mp.linear @ diag + mp.translation
        assert image[0] == pytest.approx(image[1], abs=1e-15)


def test_product_zipper_mismatches():
    zipper, line = build_example1(Example1Config(p=0.3))
    other = line_zipper((0.0, 0.25, 0.5, 1.0), (0, 0, 0))
    with pytest.raises(CountMismatch):
        product_zipper(zipper, other)
    reversed_line = line_zipper((0.0, 0.5, 1.0), (1, 0))
    with pytest.raises(SignatureMismatch):
        product_zipper(zipper, reversed_line)


def test_product_zipper_passes_validation_randomized(rng):
    for _ in range(20):
        p = float(rng.uniform(0.05, 0.95))
        split = float(rng.uniform(0.2, 0.8))
        zipper, _ = build_example1(Example1Config(p=p))
        line = line_zipper((0.0, split, 1.0), (0, 0))
        product = product_zipper(zipper, line)  # validates internally
        report = inspect_zipper(product.maps, product.vertices, product.signature)
        assert report.valid


def test_similarity_decomposition_interval():
    zipper, _ = build_example1(Example1Config(p=0.3))
    parts = similarity_decomposition(zipper)
    assert parts[0].sign == 1 and parts[1].sign == 1
    assert parts[0].linear_part[0, 0] == pytest.approx(0.3)
    assert parts[1].linear_part[0, 0] == pytest.approx(0.7)
    assert np.array_equal(parts[0].offset, [0.0])
    assert np.array_equal(parts[1].offset, [0.3])


def test_similarity_decomposition_requires_origin():
    zipper, _ = build_example1(Example1Config(p=0.3))
    moved_maps = tuple(
        AffineMap(mp.linear, mp.translation + 1.0 - mp.linear @ np.array([1.0]))
        for mp in zipper.maps
    )
    moved = validate_zipper(moved_maps, zipper.vertices + 1.0, zipper.signature)
    with pytest.raises(NotNormalized):
        similarity_decomposition(moved)


def test_signature_reversal_decomposition():
    # one-map reversed zipper on [0, 1]: S(x) = 1 - 0.6x has sign -1
    # plus a second plain map to keep every factor below 1
    maps = (AffineMap([[-0.6]], [0.6]), AffineMap([[0.4]], [0.6]))
    zipper = validate_zipper(maps, [[0.0], [0.6], [1.0]], (1, 0))
    parts = similarity_decomposition(zipper)
    assert parts[0].sign == -1
    assert parts[0].linear_part[0, 0] == pytest.approx(0.6)
    assert np.array_equal(parts[0].offset, [0.6])
