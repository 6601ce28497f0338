import numpy as np
import pytest
from scipy.spatial import cKDTree

from zipperlift.attractor import Polyline, Segments, chaos_game, refine
from zipperlift.config_io import build_system, parse_config
from zipperlift.errors import DepthCap
from zipperlift.families import Example1Config, Example2Config, build_example1, build_example2
from zipperlift.smoothing import build_lift, smooth_zipper
from zipperlift.zipper import line_zipper, product_zipper, validate_zipper
from conftest import workloads
from oracles import chaos_game_reference, hausdorff_distance, hausdorff_residual


@pytest.fixture(scope="module")
def graph_zipper():
    zipper, line = build_example1(Example1Config(p=0.3))
    return product_zipper(zipper, line), line


def test_refine_depth_zero_is_vertices(graph_zipper):
    product, line = graph_zipper
    polyline = refine(product, 0, line=line)
    assert np.array_equal(polyline.points, product.vertices)
    assert np.array_equal(polyline.points[:, 0], line.nodes)


def test_refine_depth_one_contains_endpoint_images(graph_zipper):
    # the images of the two endpoints under each map are the vertices; they
    # appear at their parameters in the depth-1 polyline
    product, line = graph_zipper
    polyline = refine(product, 1, line=line)
    for t, point in ((0.0, (0.0, 0.0)), (0.5, (0.5, 0.3)), (1.0, (1.0, 1.0))):
        where = np.flatnonzero(polyline.points[:, 0] == t)
        assert where.size == 1
        assert np.allclose(polyline.points[where[0]], point, atol=1e-15)


def test_refine_orientation_keeps_params_monotone():
    line = line_zipper((0.0, 0.5, 1.0), (1, 0))
    polyline = refine(line, 1, line=line)  # a line zipper is a graph over itself
    assert np.all(np.diff(polyline.points[:, 0]) >= 0)
    for t in (0.0, 0.5, 1.0):
        assert t in polyline.points[:, 0]


def test_refine_point_count_and_params_interleave(graph_zipper):
    product, line = graph_zipper
    for depth in (1, 2, 5):
        polyline = refine(product, depth, line=line)
        assert polyline.points.shape[0] == 2 ** (depth + 1) + 1
        # graph property: sorting by parameter never reorders points
        assert np.all(np.diff(polyline.points[:, 0]) >= 0)


def test_refine_mesh_bound_shrinks_geometrically(graph_zipper):
    product, line = graph_zipper
    bounds = [refine(product, depth).mesh_bound for depth in range(6)]
    contraction = max(product.linear_norms)
    for coarse, fine in zip(bounds, bounds[1:]):
        assert fine <= coarse
        assert fine == pytest.approx(coarse * contraction, rel=1e-12)


def test_refine_depth_cap(graph_zipper):
    product, _ = graph_zipper
    with pytest.raises(DepthCap):
        refine(product, 31)


def test_hausdorff_distance_simple():
    a = [[0.0, 0.0], [1.0, 0.0]]
    b = [[0.0, 1.0], [1.0, 0.0]]
    assert hausdorff_distance(a, b) == pytest.approx(1.0)


def test_hausdorff_residual_decreases_with_depth(graph_zipper):
    product, line = graph_zipper
    residuals = [hausdorff_residual(refine(product, d, line=line), product) for d in (0, 1)]
    assert residuals[0] > 0.0
    assert residuals[1] < residuals[0]


def test_hausdorff_residual_within_mesh_bound(graph_zipper):
    product, line = graph_zipper
    for depth in (4, 8, 12):
        polyline = refine(product, depth, line=line)
        assert hausdorff_residual(polyline, product) <= 2.0 * polyline.mesh_bound


def test_hausdorff_residual_fixed_point():
    # a one-map system whose attractor is a single point
    zipper = validate_zipper([0.5 * np.eye(2)], [[0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], (0,))
    polyline = Polyline(points=np.zeros((2, 2)), mesh_bound=0.0)
    assert hausdorff_residual(polyline, zipper) == 0.0


def test_chaos_game_deterministic(graph_zipper):
    product, _ = graph_zipper
    first = chaos_game(product, 500, seed=42)
    second = chaos_game(product, 500, seed=42)
    assert np.array_equal(first, second)
    other = chaos_game(product, 500, seed=43)
    assert not np.array_equal(first, other)


def _chaos_targets():
    """A preset product zipper and the lifts of the seed-1 generated zippers."""
    zipper, line = build_example2(Example2Config(h_param=0.5))
    yield product_zipper(zipper, line)
    for text in workloads().build_workload("generated-zippers", 1).configs.values():
        zipper, line = build_system(parse_config(text))
        yield smooth_zipper(zipper, line, build_lift(zipper, line))


def test_chaos_game_matches_the_plain_loop_bit_for_bit():
    for target in _chaos_targets():
        points = chaos_game(target, 10_000, seed=5)
        expected = chaos_game_reference(target, 10_000, seed=5)
        assert points.shape == expected.shape
        assert np.array_equal(points.view(np.int64), expected.view(np.int64))


def test_chaos_game_stays_near_attractor(graph_zipper):
    product, line = graph_zipper
    polyline = refine(product, 12, line=line)
    points = chaos_game(product, 10_000, seed=7)
    # one-sided containment: every random point is near the subdivision
    distances = cKDTree(polyline.points).query(points, k=1)[0]
    assert distances.max() <= 2.0 * polyline.mesh_bound


def test_chaos_game_single_point_degenerate():
    # all maps constant with the same value: one-point attractor
    fixed = np.array([0.25, 0.75])
    zipper = validate_zipper(np.zeros((2, 2, 2)), [fixed, fixed], [fixed, fixed, fixed], (0, 0))
    points = chaos_game(zipper, 100, seed=0)
    assert np.allclose(points, fixed, atol=0.0)


def test_chaos_game_single_sample(graph_zipper):
    product, line = graph_zipper
    polyline = refine(product, 12, line=line)
    point = chaos_game(product, 1, seed=123)
    distances = np.linalg.norm(polyline.points - point[0], axis=1)
    assert distances.min() <= 2.0 * polyline.mesh_bound


def test_refine_junction_agreement_is_checked(graph_zipper):
    # refine on a structurally broken zipper (built unvalidated) must fail
    from zipperlift.zipper import Zipper
    from zipperlift.errors import ZipperViolation
    from zipperlift.geometry import ContractionScan

    broken = Zipper(
        linears=np.array([[[0.5, 0.0], [0.0, 0.3]], [[0.5, 0.0], [0.0, 0.7]]]),
        translations=np.array([[0.0, 0.0], [0.5, 0.4]]),  # junction off by 0.1
        vertices=np.array([[0.0, 0.0], [0.5, 0.3], [1.0, 1.1]]),
        signature=(0, 0),
        linear_norms=(0.5, 0.7),
        word_scan=ContractionScan(1, ((1, 0.7),)),
    )
    with pytest.raises(ZipperViolation):
        refine(broken, 2)


def test_polyline_keeps_read_only_arrays_and_copies_writeable_ones(graph_zipper):
    product, line = graph_zipper
    refined = refine(product, 6, line=line)
    rewrapped = Polyline(points=refined.points, mesh_bound=0.0, graph=True)
    assert np.shares_memory(rewrapped.points, refined.points)

    points = np.array(refined.points)
    polyline = Polyline(points=points, mesh_bound=0.0, graph=True)
    assert not np.shares_memory(polyline.points, points)
    points[0, 0] = 99.0
    assert polyline.points[0, 0] == refined.points[0, 0]
    assert not polyline.points.flags.writeable


@pytest.mark.parametrize("points, graph, match", [
    (np.zeros((1, 2)), False, "at least two points"),
    (np.zeros(3), False, "at least two points"),
    ([[0.5, 0.0], [0.25, 1.0]], True, "first coordinates must be non-decreasing"),
], ids=["one-point", "flat", "graph-out-of-order"])
def test_polyline_rejects_bad_points(points, graph, match):
    with pytest.raises(ValueError, match=match):
        Polyline(points=points, mesh_bound=0.0, graph=graph)


def test_segments_reject_indices_outside_the_count(graph_zipper):
    product, line = graph_zipper
    segments = Segments(product, refine(product, 11, line=line), 13)
    assert segments.count == 4
    for i in (-1, 4):
        with pytest.raises(IndexError, match=f"segment {i} outside 0..3"):
            segments(i)


def test_chaos_game_needs_a_point(graph_zipper):
    product, _ = graph_zipper
    with pytest.raises(ValueError, match="count must be at least 1"):
        chaos_game(product, 0, seed=0)


def test_chaos_game_returns_count_read_only_rows(graph_zipper):
    product, _ = graph_zipper
    points = chaos_game(product, 10, seed=3)
    assert points.shape == (10, 2) and not points.flags.writeable
