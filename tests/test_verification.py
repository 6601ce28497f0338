import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zipperlift import verification
from zipperlift.config_io import build_system, parse_config
from zipperlift.errors import CombinatorialBudget, ZeroTangent
from zipperlift.families import (
    Example1Config,
    Example2Config,
    build_example1,
    build_example2,
)
from zipperlift.geometry import CONTRACTION_THRESHOLD, eventual_contraction_scan, operator_norms
from zipperlift.smoothing import build_lift, eval_g_many, smooth_zipper
from zipperlift.verification import (
    derivative_check,
    eventual_contraction_check,
    integral_residual,
    parametrization_residual,
    quadrature_check,
    tangent_scan,
)
from zipperlift.zipper import (
    EVENTUAL_WORD_LENGTH,
    inspect_zipper,
    line_zipper,
    product_zipper,
    validate_zipper,
)
from conftest import workloads
from oracles import (
    derivative_check_reference,
    integral_residual_reference,
    parametrization_residual_reference,
    quadrature_g,
    tangent_scan_reference,
)


def test_report_dict_is_strict_json():
    report = verification.VerificationReport(
        "overflowing", float("inf"), 2, 1e-9, ((0.25, float("inf")), (float("nan"), 1.0)))
    text = json.dumps(report.as_dict(), allow_nan=False)
    assert json.loads(text)["details"] == [[0.25, None], [None, 1.0]]
    assert json.loads(text)["maxError"] is None


def test_quadrature_parabola():
    zipper, line = build_example1(Example1Config(p=0.5))
    value = quadrature_g(1.0, zipper, line, 2**14)
    assert value[0] == pytest.approx(0.5, abs=1e-6)


def test_quadrature_empty_integral(interval_03):
    zipper, line, _ = interval_03
    assert np.array_equal(quadrature_g(0.0, zipper, line, 16), [0.0])


def test_quadrature_converges_to_total(interval_03):
    zipper, line, lift = interval_03
    total = lift.h
    errors = []
    for panels in (2**10, 2**12, 2**14):
        errors.append(float(np.linalg.norm(quadrature_g(1.0, zipper, line, panels) - total)))
    assert errors[-1] <= 2e-3
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= max(coarse, 1e-8)


def test_quadrature_check_reports(interval_03):
    zipper, line, lift = interval_03
    report = quadrature_check(zipper, line, lift)
    assert report.passed
    assert report.max_error <= report.tolerance


def test_residual_suites_pass(interval_03, rotation_half):
    for zipper, line, lift in (interval_03, rotation_half):
        feq = parametrization_residual(zipper, line, samples=1000)
        assert feq.passed, feq
        geq = integral_residual(zipper, line, lift, samples=300)
        assert geq.passed, geq


def test_derivative_check_parabola(interval_half, monkeypatch):
    zipper, line, lift = interval_half
    monkeypatch.setattr(verification, "DERIVATIVE_DELTAS", (1e-4,))
    report = derivative_check(zipper, line, lift, sample_count=50)
    # central differences of t^2/2 are exact; errors sit at truncation noise
    assert report.passed
    assert report.max_error <= 1e-8


def test_derivative_check_interval_and_rotation():
    for build, configs in (
        (build_example1, [Example1Config(p=p) for p in (0.3, 0.5, 0.7)]),
        (build_example2, [Example2Config(h_param=h) for h in (0.3, 0.5)]),
    ):
        for config in configs:
            zipper, line = build(config)
            lift = build_lift(zipper, line)
            report = derivative_check(zipper, line, lift, sample_count=60)
            assert report.passed, (config, report)


def test_derivative_check_single_point_bound(interval_03):
    # one application of the halving branch: f(0.25) = 0.09; the central
    # difference at delta 1e-6 must sit within the continuity-modulus bound
    zipper, line, lift = interval_03
    from zipperlift.smoothing import eval_g

    delta = 1e-6
    upper = eval_g(0.25 + delta, zipper, line, lift, tol=1e-13).value
    lower = eval_g(0.25 - delta, zipper, line, lift, tol=1e-13).value
    diff = (upper - lower) / (2 * delta)
    assert abs(diff[0] - 0.09) <= 10.0 * delta**0.5


def test_tangent_scan_interval_graph(interval_03):
    # the graph curve (t, g(t)) has tangent direction (1, f(t)): never zero
    zipper, line, _ = interval_03
    product = product_zipper(zipper, line)
    report = tangent_scan(product, line, 64)
    assert report.max_error <= 1.0  # increments do not grow under doubling


def test_tangent_scan_zero_tangent_path():
    # a curve that revisits the origin at t = 1/2 (vertex chain loops back)
    vertices = np.array(
        [[0.0, 0.0], [0.7, 0.4], [0.0, 0.0], [0.5, 0.33], [1.0, 0.0]]
    )
    linears = []
    for k in range(4):
        dx, dy = vertices[k + 1] - vertices[k]
        linears.append([[dx, -dy], [dy, dx]])
    zipper = validate_zipper(linears, vertices[:4], vertices, (0, 0, 0, 0))
    line = line_zipper((0.0, 0.25, 0.5, 0.75, 1.0), (0, 0, 0, 0))
    with pytest.raises(ZeroTangent) as batched:
        tangent_scan(zipper, line, 64)
    with pytest.raises(ZeroTangent) as looped:
        tangent_scan_reference(zipper, line, 64)
    assert str(batched.value) == str(looped.value)


def test_tangent_scan_rotation_family_no_zero_tangent():
    # the nonvanishing hypothesis holds on [1/64, 1] for the whole grid;
    # the doubling-rate clause is a separate (stricter) question
    for h in (0.1, 0.3, 0.5, 0.8):
        zipper, line = build_example2(Example2Config(h_param=h))
        report = tangent_scan(zipper, line, 256)
        assert len(report.details) == 2  # both scans completed, no ZeroTangent


def test_tangent_scan_needs_sixteen_samples(interval_03):
    zipper, line, _ = interval_03
    with pytest.raises(ValueError, match="sample_count must be at least 16"):
        tangent_scan(zipper, line, 15)


def test_eventual_contraction_lifted_interval(interval_03):
    zipper, line, lift = interval_03
    lifted = smooth_zipper(zipper, line, lift)
    report = eventual_contraction_check(lifted)
    assert report.passed
    # certified at word length 1 with the two norms about 0.5 and 0.538
    assert report.details[0][0] == 1.0
    assert report.max_error == pytest.approx(0.5376329, abs=1e-6)


def test_eventual_contraction_grid():
    for p in np.arange(0.1, 0.95, 0.1):
        zipper, line = build_example1(Example1Config(p=float(p)))
        lifted = smooth_zipper(zipper, line, build_lift(zipper, line))
        assert eventual_contraction_check(lifted).passed
    for h in (0.1, 0.3, 0.5, 0.8):
        zipper, line = build_example2(Example2Config(h_param=h))
        lifted = smooth_zipper(zipper, line, build_lift(zipper, line))
        assert eventual_contraction_check(lifted).passed


def test_eventual_contraction_uniform_half():
    zipper = validate_zipper([[[0.5]], [[0.5]]], [[0.0], [0.5]], [[0.0], [0.5], [1.0]], (0, 0))
    report = eventual_contraction_check(zipper)
    assert report.passed
    assert report.max_error == pytest.approx(0.5, abs=1e-9)


def test_eventual_contraction_budget():
    zipper = validate_zipper([[[0.5]], [[0.5]]], [[0.0], [0.5]], [[0.0], [0.5], [1.0]], (0, 0))
    # certified at length 1, so the 2^21 longer words are never formed
    stacks = (zipper.linears, zipper.translations)
    assert eventual_contraction_scan(*stacks, zipper.vertices[0], 21).passed
    # identities never certify, so validation scans them; length 2 would
    # form 1001^2 more words
    with pytest.raises(CombinatorialBudget):
        validate_zipper(np.ones((1001, 1, 1)), np.zeros((1001, 1)), np.zeros((1002, 1)),
                        (0,) * 1001)


def test_eventual_contraction_certifies_at_the_threshold():
    # a normalized norm equal to the threshold certifies, per map, with the
    # values the scan records at length 1; the check's verdict is
    # max_error <= tolerance like every other report's
    at = (np.full((1, 1, 1), CONTRACTION_THRESHOLD), np.zeros((1, 1)))
    scan = eventual_contraction_scan(*at, np.zeros(1), 1)
    assert scan.word_length == 1 and scan.values == ((1, CONTRACTION_THRESHOLD),)
    zipper = validate_zipper(*at, np.zeros((2, 1)), (0,))
    assert zipper.contraction_mode == "per-map"
    assert (zipper.word_scan.word_length, zipper.word_scan.values) == (1, scan.values)
    report = eventual_contraction_check(zipper)
    assert report.passed and report.max_error == report.tolerance


def test_quadrature_vs_recursion_grid(interval_03, rotation_half):
    # the two routes agree on the decimal grid at every ladder rung
    for zipper, line, lift in (interval_03, rotation_half):
        report = quadrature_check(zipper, line, lift)
        assert report.passed, report


@pytest.fixture(scope="module")
def quadrature_systems(interval_03, rotation_half):
    """(zipper, line, lift) by name: both presets, the interval family over
    non-uniform nodes, and the first seed-0 generated config with a
    reversed signature bit."""
    systems = {"ex1-p0.3": interval_03, "ex2-h0.5": rotation_half}
    zipper, line = build_example1(Example1Config(q1=0.4, y1=0.3, y2=1.0))
    systems["ex1-q1"] = (zipper, line, build_lift(zipper, line))
    for text in workloads().build_workload("generated-zippers", 0).configs.values():
        zipper, line = build_system(parse_config(text))
        if any(zipper.signature):
            systems["generated-reversed"] = (zipper, line, build_lift(zipper, line))
            break
    return systems


def _rung_differences(zipper, line, lift):
    """Oracle minus recursion at each (rung, grid parameter), one midpoint
    rule call per pair: the (rungs, grid, n) array quadrature_check compares."""
    ts = np.linspace(0.0, 1.0, verification.QUADRATURE_GRID)
    direct, _ = eval_g_many(ts, zipper, line, lift, tol=verification.QUADRATURE_G_TOL)
    return ts, np.array([np.array([quadrature_g(t, zipper, line, panels) for t in ts]) - direct
                         for panels in verification.QUADRATURE_PANELS])


@pytest.mark.parametrize("name", ["ex1-p0.3", "ex1-q1", "ex2-h0.5", "generated-reversed"])
def test_quadrature_check_matches_the_rung_by_rung_oracle_bitwise(
        name, quadrature_systems, monkeypatch):
    zipper, line, lift = quadrature_systems[name]
    ts, differences = _rung_differences(zipper, line, lift)
    errors = np.array([verification.row_norms(rung) for rung in differences])
    tolerance = max(1e-6, verification.QUADRATURE_COEFFICIENT
                    * verification.QUADRATURE_PANELS[-1] ** -verification.QUADRATURE_EXPONENT)
    max_error = verification._inflate_on_growth(
        float(errors[-1].max()), tolerance, errors.max(axis=1),
        verification.QUADRATURE_FLOOR, verification.QUADRATURE_SLACK)
    expected = verification.VerificationReport(
        "quadrature-agreement", max_error, errors.size, tolerance,
        verification._worst_offenders(ts, errors[-1]))
    # every rung's differences, not only the ones the report keeps, and
    # the batch sizes, which set the check's peak memory
    compared, batches = [], []
    row_norms, f_many = verification.row_norms, verification.eval_f_many

    def recording_row_norms(rows, *args):
        compared.append(rows)
        return row_norms(rows, *args)

    def recording_f_many(ts, *args, **kwargs):
        batches.append(ts.size)
        return f_many(ts, *args, **kwargs)

    monkeypatch.setattr(verification, "row_norms", recording_row_norms)
    monkeypatch.setattr(verification, "eval_f_many", recording_f_many)
    report = quadrature_check(zipper, line, lift)
    assert np.array_equal(np.concatenate(compared), differences.reshape(-1, zipper.dimension))
    assert report.as_dict() == expected.as_dict()
    assert batches == [sum(verification.QUADRATURE_PANELS)] * verification.QUADRATURE_GRID


def test_growth_past_the_slack_inflates_the_error():
    # the second ladder doubles once: worst growth 2
    ladders = np.array([[1e-3, 5e-4, 2.5e-4], [1e-3, 2e-3, 1e-3]])
    assert verification._inflate_on_growth(0.1, 1.0, ladders, 1e-8, 1.6) == 2.0 / 1.6
    assert verification._inflate_on_growth(0.1, 1.0, ladders, 1e-8, 2.0) == 0.1
    # a larger error than the inflated one stands
    assert verification._inflate_on_growth(5.0, 1.0, ladders, 1e-8, 1.6) == 5.0


def test_growth_under_the_floor_does_not_inflate():
    # a thousandfold growth below a scalar floor, then growth below per-rung floors
    assert verification._inflate_on_growth(0.1, 1.0, np.array([1e-12, 1e-9]), 1e-8, 1.05) == 0.1
    floors = np.array([1e-4, 1e-5, 1e-6])
    under = np.array([[1e-9, 1e-7, 1e-6]])
    assert verification._inflate_on_growth(0.1, 1.0, under, floors, 1.5) == 0.1


@pytest.mark.parametrize("check, slack_name", [
    (quadrature_check, "QUADRATURE_SLACK"),
    (lambda zipper, line, lift: derivative_check(zipper, line, lift, sample_count=40),
     "DERIVATIVE_SLACK"),
], ids=["quadrature", "derivative"])
def test_checks_fail_when_errors_grow_past_the_slack(check, slack_name, interval_03,
                                                      monkeypatch):
    # the clipped ladders the check hands to the growth clause
    ladders = []
    inflate = verification._inflate_on_growth

    def recording_inflate(max_error, tolerance, errors, floor, slack):
        ladders.append(np.maximum(errors, floor))
        return inflate(max_error, tolerance, errors, floor, slack)

    with monkeypatch.context() as patch:
        patch.setattr(verification, "_inflate_on_growth", recording_inflate)
        report = check(*interval_03)
    assert report.passed
    growth = max(float((ladder[..., 1:] / ladder[..., :-1]).max()) for ladder in ladders)
    monkeypatch.setattr(verification, slack_name, growth)
    assert check(*interval_03).as_dict() == report.as_dict()
    monkeypatch.setattr(verification, slack_name, growth / 2.0)
    grown = check(*interval_03)
    assert not grown.passed
    assert grown.max_error == 2.0 * grown.tolerance


def test_eventual_contraction_failing_report():
    # no word length up to EVENTUAL_WORD_LENGTH = 8 certifies, and the
    # normalized norms dip at L = 6 and rise again, so the smallest is
    # neither the first nor the last; validation reports that smallest, and
    # a zipper that fails it never reaches the contraction check
    linears = np.array([[[0.0, 1.1], [-0.9, 1.1]], [[-0.5, -0.2], [0.8, -0.2]]])
    family = (linears, np.zeros((2, 2)), np.zeros((3, 2)), (0, 0))
    scan = eventual_contraction_scan(*family[:2], np.zeros(2), EVENTUAL_WORD_LENGTH)
    assert not scan.passed and EVENTUAL_WORD_LENGTH == 8
    lengths, values = zip(*scan.values)
    assert lengths == tuple(range(1, 9))
    assert min(values) == values[5] < values[-1]
    assert max(operator_norms(linears)) > CONTRACTION_THRESHOLD
    report = inspect_zipper(*family)
    assert not report.valid
    [violation] = report.violations
    assert (violation.map_index, violation.condition) == (0, "contraction")
    assert violation.deviation == values[5]


def assert_oracles_match_their_references(zipper, line, lift):
    """Each oracle that evaluates one batch per curve reports exactly what
    its loop of one batch per interval map, step or grid reported, at the
    sample counts ``verify`` runs by default."""
    assert parametrization_residual(zipper, line, 400) == \
        parametrization_residual_reference(zipper, line, 400)
    assert integral_residual(zipper, line, lift, 400) == \
        integral_residual_reference(zipper, line, lift, 400)
    assert derivative_check(zipper, line, lift, 48) == \
        derivative_check_reference(zipper, line, lift, 48)
    assert tangent_scan(zipper, line, 256) == tangent_scan_reference(zipper, line, 256)


#: The generated-zippers configs at seeds 0-2 by name: m = 3..5 maps on R^2
#: and R^3, each with a reversed bit.
GENERATED_CONFIGS = {
    f"seed{seed}-{name}": text for seed in range(3)
    for name, text in workloads().build_workload("generated-zippers", seed).configs.items()
}


@pytest.mark.parametrize("name", ["ex1-p0.3", "ex2-h0.5", "reversed", *GENERATED_CONFIGS])
def test_batched_oracles_equal_their_looped_references(name, interval_03, rotation_half,
                                                       reversed_system):
    if name == "ex1-p0.3":
        system = interval_03
    elif name == "ex2-h0.5":
        system = rotation_half
    else:
        zipper, line = (reversed_system if name == "reversed"
                        else build_system(parse_config(GENERATED_CONFIGS[name])))
        system = zipper, line, build_lift(zipper, line)
    assert_oracles_match_their_references(*system)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), map_count=st.integers(2, 5), dimension=st.integers(2, 3))
def test_batched_oracles_equal_their_references_on_random_zippers(seed, map_count, dimension):
    config = workloads().random_zipper_config(np.random.default_rng(seed), map_count, dimension)
    zipper, line = build_system(parse_config(json.dumps(config)))
    assert_oracles_match_their_references(zipper, line, build_lift(zipper, line))
