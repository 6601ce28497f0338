"""Full pipeline over a zipper with an orientation-reversing map.

No preset family uses a set signature bit, so this module drives every
stage (parametrization, integral recursion, lift, rendering, oracles)
through a two-map zipper whose first piece is traversed backwards:
S1(x) = 0.6 - 0.6x, S2(x) = 0.6 + 0.4x with vertices (0, 0.6, 1) and
signature (1, 0).  The quadrature oracle adjudicates the integral branch.
"""

import numpy as np
import pytest

from zipperlift.attractor import hausdorff_residual, refine
from zipperlift.geometry import AffineMap
from zipperlift.parametrization import eval_f, eval_f_many
from zipperlift.smoothing import (
    build_lift,
    eval_g,
    eval_g_many,
    node_integrals,
    smooth_zipper,
    solve_h,
)
from zipperlift.verification import (
    derivative_check,
    eventual_contraction_check,
    graph_identity_check,
    integral_residual,
    parametrization_residual,
    quadrature_g,
)
from zipperlift.zipper import line_zipper, product_zipper, validate_zipper


@pytest.fixture(scope="module")
def reversed_system():
    maps = (AffineMap([[-0.6]], [0.6]), AffineMap([[0.4]], [0.6]))
    zipper = validate_zipper(maps, [[0.0], [0.6], [1.0]], (1, 0))
    line = line_zipper((0.0, 0.5, 1.0), (1, 0))
    return zipper, line


def test_parametrization_hand_value(reversed_system):
    zipper, line = reversed_system
    # t = 1/4 pulls back through the reversed first interval to the split
    # node, so f(1/4) = S1(f(1/2)) = S1(0.6) = 0.24
    result = eval_f(0.25, zipper, line)
    assert result.value[0] == pytest.approx(0.24, abs=1e-15)
    assert result.error_bound == 0.0


def test_parametrization_residual_reversed(reversed_system):
    zipper, line = reversed_system
    report = parametrization_residual(zipper, line, samples=500)
    assert report.passed, report


def test_total_integral_against_quadrature(reversed_system):
    zipper, line = reversed_system
    total = solve_h(zipper, line)
    oracle = quadrature_g(1.0, zipper, line, 2**13)
    assert np.linalg.norm(total - oracle) <= 1e-4
    values = node_integrals(zipper, line, total)
    assert values[0, 0] == 0.0
    assert values[-1, 0] == pytest.approx(total[0], abs=1e-14)
    # the split-node integral against the oracle too
    mid = quadrature_g(0.5, zipper, line, 2**13)
    assert abs(values[1, 0] - mid[0]) <= 1e-4


def test_eval_g_against_quadrature_grid(reversed_system):
    zipper, line = reversed_system
    lift = build_lift(zipper, line)
    for t in np.linspace(0.0, 1.0, 9):
        direct = eval_g(float(t), zipper, line, lift, tol=1e-10).value
        oracle = quadrature_g(float(t), zipper, line, 2**13)
        assert np.linalg.norm(direct - oracle) <= 1e-4, t


def test_integral_residual_reversed(reversed_system):
    zipper, line = reversed_system
    lift = build_lift(zipper, line)
    report = integral_residual(zipper, line, lift, samples=300)
    assert report.passed, report


def test_derivative_check_reversed(reversed_system):
    zipper, line = reversed_system
    lift = build_lift(zipper, line)
    report = derivative_check(zipper, line, lift, sample_count=40)
    assert report.passed, report


def test_lifted_zipper_reversed(reversed_system):
    zipper, line = reversed_system
    lift = build_lift(zipper, line)
    lifted = smooth_zipper(zipper, line, lift)
    assert lifted.signature == (1, 0)
    assert eventual_contraction_check(lifted).passed
    polyline = refine(lifted, 10, line=line)
    assert np.all(np.diff(polyline.params) >= 0)
    assert hausdorff_residual(polyline, lifted) <= 2.0 * polyline.mesh_bound
    identity = graph_identity_check(
        polyline, lambda ts: eval_g_many(ts, zipper, line, lift, tol=1e-9)[0],
        samples=400, tol=1e-6,
    )
    assert identity.passed, identity


def test_product_zipper_reversed(reversed_system):
    zipper, line = reversed_system
    product = product_zipper(zipper, line)
    polyline = refine(product, 10, line=line)
    assert np.all(np.diff(polyline.params) >= 0)
    identity = graph_identity_check(
        polyline, lambda ts: eval_f_many(ts, zipper, line, tol=1e-9)[0],
        samples=400, tol=1e-6,
    )
    assert identity.passed, identity


def test_batch_matches_scalar_reversed(reversed_system, rng):
    zipper, line = reversed_system
    ts = rng.uniform(0, 1, 100)
    values, bounds = eval_f_many(ts, zipper, line, tol=1e-9)
    for t, value, bound in zip(ts, values, bounds):
        scalar = eval_f(float(t), zipper, line, tol=1e-9)
        assert value[0] == scalar.value[0] and bound == scalar.error_bound
