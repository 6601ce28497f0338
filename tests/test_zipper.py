import numpy as np
import pytest

import zipperlift
from zipperlift.attractor import refine
from zipperlift.config_io import build_system, config_from_system, config_to_json, parse_config
from zipperlift.errors import (
    CountMismatch,
    DegenerateInput,
    DimensionMismatch,
    InvalidNodes,
    NotNormalized,
    SignatureMismatch,
    ZipperViolation,
)
from zipperlift.families import Example1Config, Example2Config, build_example1, build_example2
from zipperlift.smoothing import build_lift, smooth_zipper
from zipperlift.zipper import (
    VERTEX_TOLERANCE,
    Zipper,
    check_graph,
    inspect_zipper,
    line_zipper,
    product_zipper,
    similarity_decomposition,
    validate_zipper,
)
from conftest import workloads
from oracles import operator_norm, pull_back


def interval_maps(p):
    """Linear parts and translations of x -> p x and x -> (1 - p) x + p."""
    return [[[p]], [[1.0 - p]]], [[0.0], [p]]


def test_validate_interval_family():
    zipper = validate_zipper(*interval_maps(0.3), [[0.0], [0.3], [1.0]], (0, 0))
    assert zipper.map_count == 2
    assert zipper.linear_norms == (pytest.approx(0.3), pytest.approx(0.7))


def test_linear_norms_are_the_operator_norms_of_the_maps():
    # validation computes the norms once, on the stack, with the bits of the
    # one-matrix power iteration, and the zipper keeps them
    for zipper, line in (build_example1(Example1Config(p=0.3)),
                         build_example2(Example2Config(h_param=0.5))):
        lifted = smooth_zipper(zipper, line, build_lift(zipper, line))
        for target in (zipper, product_zipper(zipper, line), lifted):
            assert target.linear_norms == tuple(map(operator_norm, target.linears))


def test_validate_rejects_wrong_middle_vertex():
    with pytest.raises(ZipperViolation) as excinfo:
        validate_zipper(*interval_maps(0.3), [[0.0], [0.5], [1.0]], (0, 0))
    report = excinfo.value.report
    assert not report.valid
    # the first map sends the last vertex to 0.3, not the claimed 0.5
    assert any(v.map_index == 1 and v.condition == "end-vertex" for v in report.violations)
    assert any(abs(v.deviation - 0.2) < 1e-12 for v in report.violations)


def test_validate_reports_non_finite_vertices():
    # NaN compares false, so the vertex axioms alone would let this through
    report = inspect_zipper(*interval_maps(0.5), [[0.0], [np.nan], [1.0]], (0, 0))
    assert not report.valid
    assert [(v.condition, v.deviation) for v in report.violations] == [("finite-vertex", np.inf)]
    assert "vertex 1 is [nan]" in report.summary()
    with pytest.raises(ZipperViolation) as excinfo:
        validate_zipper(*interval_maps(0.5), [[0.0], [0.5], [np.inf]], (0, 0))
    assert [v.condition for v in excinfo.value.report.violations] == ["finite-vertex"]


def test_validate_rotation_family():
    zipper, _ = build_example2(Example2Config(h_param=0.5))
    images = zipper.linears @ [1.0, 0.0] + zipper.translations
    assert np.allclose(images[0], [0.5, 0.5], atol=1e-15)
    assert np.allclose(images[1] + 0.0, [1.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("linears, translations, error", [
    ([], [], ValueError),
    ([[[0.5]], [[0.5, 0.0]]], [[0.0], [0.5]], DimensionMismatch),
    ([[[0.5, 0.0]], [[0.5, 0.0]]], [[0.0], [0.5]], DimensionMismatch),
    ([[[0.5]], [[0.5]]], [[0.0], [0.5], [1.0]], DimensionMismatch),
    ([[[0.5]], [[0.5]]], [[0.0, 0.0], [0.5, 0.0]], DimensionMismatch),
    ([[[0.5]], [[np.inf]]], [[0.0], [0.5]], ValueError),
    ([[[0.5]], [[0.5]]], [[0.0], [np.nan]], ValueError),
], ids=["empty", "ragged", "non-square", "more-translations", "wider-translations",
        "infinite-linear", "nan-translation"])
def test_inspect_zipper_rejects_bad_stacks_with_typed_errors(linears, translations, error):
    vertices = [[0.0], [0.5], [1.0]]
    with pytest.raises(error):
        inspect_zipper(linears, translations, vertices, (0, 0))


@pytest.mark.parametrize("vertices, signature, error, match", [
    ([0.0, 0.5, 1.0], (0, 0), DimensionMismatch, r"3 vertices of dimension 1, got .* \(3,\)"),
    ([[0.0], [1.0]], (0, 0), DimensionMismatch, "expected 3 vertices"),
    ([[0.0], [0.5], [1.0]], (0, 2), ValueError, "must be 0 or 1"),
    ([[0.0], [0.5], [1.0]], (0,), ValueError, "signature of length 2"),
], ids=["one-dimensional-vertices", "vertex-count", "signature-bit", "signature-length"])
def test_inspect_zipper_rejects_bad_vertices_and_signatures(vertices, signature, error, match):
    # vertices are rows, even on the line: a flat list of numbers is refused
    with pytest.raises(error, match=match):
        inspect_zipper(*interval_maps(0.5), vertices, signature)


def test_validated_stacks_are_read_only_copies():
    linears, translations = np.array([[[0.5]], [[0.5]]]), np.array([[0.0], [0.5]])
    vertices = np.array([[0.0], [0.5], [1.0]])
    zipper = validate_zipper(linears, translations, vertices, (0, 0))
    linears[0, 0, 0], translations[1, 0], vertices[1, 0] = 0.25, 0.25, 0.25
    assert zipper.linears.tolist() == [[[0.5]], [[0.5]]]
    assert zipper.translations.tolist() == [[0.0], [0.5]]
    assert zipper.vertices.tolist() == [[0.0], [0.5], [1.0]]
    for array in (zipper.linears, zipper.translations, zipper.vertices):
        assert not array.flags.writeable


def test_validation_tolerance_is_sharp(rng):
    zipper, _ = build_example1(Example1Config(p=0.3))
    for factor, expected_valid in ((0.9, True), (1.1, False)):
        vertices = np.array(zipper.vertices)
        # interior vertex: the deviation is exact up to one rounding of 0.3
        vertices[1, 0] += factor * VERTEX_TOLERANCE
        report = inspect_zipper(zipper.linears, zipper.translations, vertices, zipper.signature)
        assert report.valid == expected_valid


def test_line_zipper_plain():
    line = line_zipper((0.0, 0.5, 1.0), (0, 0))
    # t -> 0.5 t and t -> 0.5 + 0.5 t
    assert line.linears.tolist() == [[[0.5]], [[0.5]]]
    assert line.translations.tolist() == [[0.0], [0.5]]


def test_line_zipper_reversed_branch():
    line = line_zipper((0.0, 0.5, 1.0), (1, 0))
    # first map runs backwards, t -> 0.5 - 0.5 t: 0 -> 0.5, 1 -> 0
    assert line.linears.tolist() == [[[-0.5]], [[0.5]]]
    assert line.translations.tolist() == [[0.5], [0.5]]
    assert pull_back(line, 1, 0.25) == pytest.approx(0.5)


def test_line_zipper_rejects_bad_nodes():
    with pytest.raises(InvalidNodes):
        line_zipper((0.0, 0.7, 0.5, 1.0), (0, 0, 0))
    with pytest.raises(InvalidNodes):
        line_zipper((0.1, 0.5, 1.0), (0, 0))
    for nodes in ((1.0,), ((0.0, 0.5, 1.0),)):
        with pytest.raises(InvalidNodes, match="at least two nodes"):
            line_zipper(nodes, (0, 0))


def test_line_zipper_single_interval_is_not_contracting():
    # nodes (0, 1) induce the identity map, which fails the axioms
    with pytest.raises(ZipperViolation):
        line_zipper((0.0, 1.0), (0,))


def test_a_norm_just_below_one_needs_the_word_scan():
    # a = 1 - 5e-10 lies above the scan's threshold 1 - 1e-9, so a per-map
    # certificate cannot be read off the norms, and every word a^L keeps
    # its normalized norm a: no length certifies
    a = 1.0 - 5e-10
    report = inspect_zipper([[[a]], [[1.0 - a]]], [[0.0], [a]], [[0.0], [a], [1.0]], (0, 0))
    assert not report.valid
    assert [violation.condition for violation in report.violations] == ["contraction"]
    assert report.violations[0].deviation == pytest.approx(a, abs=1e-15)


def _line_cases():
    """(line zipper, the nodes it was built from) over the presets, the
    seed-0 generated configs and a non-dyadic line with reversed bits."""
    cases = [
        (build_example1(Example1Config(p=0.3))[1], [0.0, 0.5, 1.0]),
        (build_example1(Example1Config(q1=0.4, y1=0.3, y2=1.0))[1], [0.0, 0.4, 1.0]),
        (build_example2(Example2Config(h_param=0.5))[1], [0.0, 0.5, 1.0]),
    ]
    for text in workloads().build_workload("generated-zippers", 0).configs.values():
        config = parse_config(text)
        cases.append((build_system(config)[1], config.line_nodes))
    handmade = [0.0, 0.1, 0.35, 0.4, 1.0]
    cases.append((line_zipper(handmade, (1, 0, 1, 1)), handmade))
    return cases


def test_line_zipper_is_a_zipper_with_the_interval_formulas():
    assert not hasattr(zipperlift, "LineZipper")
    reversed_lines = 0
    for line, source in _line_cases():
        assert isinstance(line, Zipper) and line.dimension == 1
        nodes = np.array(source, dtype=float)
        ratios = np.diff(nodes)
        assert line.nodes.tobytes() == nodes.tobytes()
        assert line.ratios.tobytes() == ratios.tobytes()
        assert not line.nodes.flags.writeable and not line.ratios.flags.writeable
        reversed_lines += any(line.signature)
        for k, bit in enumerate(line.signature):
            # the formulas of the interval maps, bit for bit
            linear, entry = (-ratios[k], nodes[k + 1]) if bit else (ratios[k], nodes[k])
            assert line.linears[k].tobytes() == np.array([[linear]]).tobytes()
            assert line.translations[k].tobytes() == np.array([entry]).tobytes()
    assert reversed_lines == 4


def test_product_zipper_interval_family():
    zipper, line = build_example1(Example1Config(p=0.3))
    product = product_zipper(zipper, line)
    assert product.dimension == 2
    assert np.allclose(product.linears[0] @ [1.0, 1.0] + product.translations[0], [0.5, 0.3],
                       atol=1e-15)
    assert np.allclose(product.translations[1], [0.5, 0.3], atol=1e-15)
    assert np.allclose(product.vertices, [[0.0, 0.0], [0.5, 0.3], [1.0, 1.0]], atol=1e-15)


def test_product_zipper_rotation_family():
    zipper, line = build_example2(Example2Config(h_param=0.5))
    product = product_zipper(zipper, line)
    assert product.dimension == 3
    corners = np.array(
        [[t, x, y] for t in (0, 1) for x in (0, 1) for y in (0, 1)], dtype=float
    )
    for k, t_box in enumerate(((0.0, 0.5), (0.5, 1.0))):
        linear = product.linears[k]
        # the parameter coordinate of the unit cube lands in the half boxes
        images = corners @ linear.T + product.translations[k]
        assert images[:, 0].min() >= t_box[0] - 1e-12
        assert images[:, 0].max() <= t_box[1] + 1e-12
        # the spatial block is the rotation-scaling of ratio sqrt(1/2)
        assert np.allclose(linear[1:, 1:], zipper.linears[k], atol=1e-15)
        assert np.allclose(linear[0, 1:], 0.0) and np.allclose(linear[1:, 0], 0.0)


def test_product_zipper_degenerate_half_is_diagonal():
    zipper, line = build_example1(Example1Config(p=0.5))
    product = product_zipper(zipper, line)
    for linear, translation in zip(product.linears, product.translations):
        # both maps are similarities of ratio 1/2; the diagonal is invariant
        diag = np.array([0.7, 0.7])
        image = linear @ diag + translation
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
        stacks = (product.linears, product.translations)
        report = inspect_zipper(*stacks, product.vertices, product.signature)
        assert report.valid


def test_similarity_decomposition_interval():
    zipper, _ = build_example1(Example1Config(p=0.3))
    offsets, linear_parts, signs = similarity_decomposition(zipper)
    assert signs.tolist() == [1, 1]
    assert linear_parts[0, 0, 0] == pytest.approx(0.3)
    assert linear_parts[1, 0, 0] == pytest.approx(0.7)
    assert np.array_equal(offsets, [[0.0], [0.3]])
    for array in (offsets, linear_parts, signs):
        assert not array.flags.writeable


def test_similarity_decomposition_requires_origin():
    zipper, _ = build_example1(Example1Config(p=0.3))
    moved_translations = zipper.translations + 1.0 - zipper.linears @ np.array([1.0])
    moved = validate_zipper(zipper.linears, moved_translations, zipper.vertices + 1.0,
                            zipper.signature)
    with pytest.raises(NotNormalized):
        similarity_decomposition(moved)


def test_similarity_decomposition_rejects_a_linear_part_off_its_chord():
    # map 1 misses each vertex by 0.9e-9, within the vertex tolerance, but
    # its linear part misses the chord 0.5 by their sum
    zipper = validate_zipper([[[0.5 - 1.8e-9]], [[0.5]]], [[0.9e-9], [0.5]],
                             [[0.0], [0.5], [1.0]], (0, 0))
    with pytest.raises(ZipperViolation, match="map 1: decomposed linear part misses"):
        similarity_decomposition(zipper)


def test_signature_reversal_decomposition():
    # one-map reversed zipper on [0, 1]: S(x) = 1 - 0.6x has sign -1
    # plus a second plain map to keep every factor below 1
    zipper = validate_zipper([[[-0.6]], [[0.4]]], [[0.6], [0.6]], [[0.0], [0.6], [1.0]], (1, 0))
    offsets, linear_parts, signs = similarity_decomposition(zipper)
    assert signs[0] == -1
    assert linear_parts[0, 0, 0] == pytest.approx(0.6)
    assert np.array_equal(offsets[0], [0.6])


def test_check_graph_accepts_products_and_lifts_only():
    # t is the first coordinate of a graph zipper, so refine reads it there
    for zipper, line in (build_example1(Example1Config(p=0.3)),
                         build_example2(Example2Config(h_param=0.5))):
        lifted = smooth_zipper(zipper, line, build_lift(zipper, line))
        check_graph(product_zipper(zipper, line), line)
        check_graph(lifted, line)
        check_graph(*build_system(parse_config(config_to_json(config_from_system(lifted, line)))))
        check_graph(line, line)
    # the base zipper of example 2 is a curve in the plane, not a graph over t
    with pytest.raises(DegenerateInput):
        check_graph(zipper, line)
    with pytest.raises(DegenerateInput):
        refine(zipper, 2, line=line)
