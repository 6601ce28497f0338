import math

import numpy as np
import pytest

from zipperlift.errors import OutOfDomain, SignatureMismatch, ToleranceUnreachable
from zipperlift import parametrization
from zipperlift.families import Example1Config, build_example1
from zipperlift.parametrization import eval_f, eval_f_many
from zipperlift.zipper import line_zipper
from conftest import uniform_dyadic
from oracles import Address, address_of


def test_address_two_digits():
    line = line_zipper((0.0, 0.5, 1.0), (0, 0))
    address = address_of(0.25, line, 2)
    # 0.25 doubles to 0.5, which belongs to the second interval and pulls
    # back to exactly 0
    assert address == Address((1, 2), 1, 0.0)


def test_address_node_takes_left_closed_interval():
    line = line_zipper((0.0, 0.5, 1.0), (0, 0))
    assert address_of(0.5, line, 1) == Address((2,), 1, 0.0)


def test_address_reversed_interval_flips_orientation():
    line = line_zipper((0.0, 0.5, 1.0), (1, 0))
    assert address_of(0.25, line, 1) == Address((1,), -1, 0.5)


def test_address_endpoint_one_goes_to_last_interval():
    line = line_zipper((0.0, 0.5, 1.0), (0, 0))
    assert address_of(1.0, line, 1) == Address((2,), 1, 1.0)


def test_address_out_of_domain():
    line = line_zipper((0.0, 0.5, 1.0), (0, 0))
    with pytest.raises(OutOfDomain):
        address_of(1.5, line, 1)


def test_address_reproduces_parameter(rng):
    line = line_zipper((0.0, 0.3, 0.8, 1.0), (0, 1, 0))
    for _ in range(200):
        t = float(rng.uniform(0, 1))
        address = address_of(t, line, 6)
        value = address.anchor
        flips = 1
        for digit in reversed(address.digits):
            value = float(line.translations[digit - 1, 0] + line.linears[digit - 1, 0, 0] * value)
            if line.signature[digit - 1]:
                flips = -flips
        assert abs(value - t) <= 1e-12
        assert flips == address.orientation


def test_eval_f_hits_nodes_exactly(interval_03):
    zipper, line, _ = interval_03
    for t, expected in ((0.0, 0.0), (0.5, 0.3), (1.0, 1.0)):
        result = eval_f(t, zipper, line)
        assert result.value[0] == pytest.approx(expected, abs=1e-15)
        assert result.error_bound == 0.0


def test_eval_f_identity_family(interval_half):
    zipper, line, _ = interval_half
    for t in (0.1, 0.25, 0.7):
        assert eval_f(t, zipper, line, tol=1e-12).value[0] == pytest.approx(t, abs=1e-11)


def test_eval_f_one_level_recursion(interval_03):
    zipper, line, _ = interval_03
    # one application of each branch: f(t/2) = p f(t), f(t/2 + 1/2) = (1-p) f(t) + p
    assert eval_f(0.25, zipper, line).value[0] == pytest.approx(0.09, abs=1e-12)
    assert eval_f(0.75, zipper, line).value[0] == pytest.approx(0.51, abs=1e-12)


def test_eval_f_certified_bound(interval_03, rng):
    zipper, line, _ = interval_03
    for _ in range(100):
        t = float(rng.uniform(0, 1))
        coarse = eval_f(t, zipper, line, tol=1e-6)
        fine = eval_f(t, zipper, line, tol=1e-13)
        assert coarse.error_bound <= 1e-6
        assert abs(coarse.value[0] - fine.value[0]) <= coarse.error_bound + 1e-12


def test_eval_f_bound_monotone_in_depth(interval_03):
    zipper, line, _ = interval_03
    t = 1.0 / 3.0  # infinite binary expansion: never terminates exactly
    bounds = [eval_f(t, zipper, line, tol=tol).error_bound for tol in (1e-3, 1e-6, 1e-9, 1e-12)]
    assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))
    assert all(b <= tol for b, tol in zip(bounds, (1e-3, 1e-6, 1e-9, 1e-12)))


def test_eval_f_tolerance_unreachable(interval_03, monkeypatch):
    zipper, line, _ = interval_03
    monkeypatch.setattr(parametrization, "MAX_DEPTH", 3)
    with pytest.raises(ToleranceUnreachable):
        eval_f(1.0 / 3.0, zipper, line, tol=1e-9)


def test_eval_f_requires_matching_signature(interval_03):
    zipper, _, _ = interval_03
    reversed_line = line_zipper((0.0, 0.5, 1.0), (1, 0))
    with pytest.raises(SignatureMismatch):
        eval_f(0.5, zipper, reversed_line)


def test_eval_f_many_matches_scalar(interval_03, rng):
    zipper, line, _ = interval_03
    ts = rng.uniform(0, 1, 200)
    values, bounds = eval_f_many(ts, zipper, line, tol=1e-9)
    for t, value, bound in zip(ts, values, bounds):
        scalar = eval_f(float(t), zipper, line, tol=1e-9)
        assert value[0] == scalar.value[0]
        assert bound == scalar.error_bound


def test_functional_equation_residual(interval_03, rng):
    zipper, line, _ = interval_03
    tol = 1e-9
    ts = uniform_dyadic(rng, 1000)
    f_ts, _ = eval_f_many(ts, zipper, line, tol=tol)
    for index in (1, 2):
        images = line.translations[index - 1, 0] + line.linears[index - 1, 0, 0] * ts
        lhs, _ = eval_f_many(images, zipper, line, tol=tol)
        rhs = f_ts @ zipper.linears[index - 1].T + zipper.translations[index - 1]
        assert np.linalg.norm(lhs - rhs, axis=1).max() <= 2 * tol


def test_node_consistency_both_addresses(interval_03):
    zipper, line, _ = interval_03
    tol = 1e-9
    for i, t in enumerate(line.nodes):
        canonical = eval_f(float(t), zipper, line, tol=tol)
        assert np.linalg.norm(canonical.value - zipper.vertices[i]) <= tol
        if 0 < i:
            # the same node reached as the right endpoint of interval i: map i
            # sends 1 there, or 0 when it reverses
            end = zipper.vertices[0] if line.signature[i - 1] else eval_f(1.0, zipper, line).value
            left_limit = zipper.linears[i - 1] @ end + zipper.translations[i - 1]
            assert np.linalg.norm(left_limit - canonical.value) <= 2 * tol


def test_continuity_modulus_interval_family():
    # the curve obeys |f(t) - f(s)| <= C |t - s|^theta with theta set by the
    # contraction ratios; fit C as the worst observed ratio (times 1.01) and
    # require it to stay below a generous a-priori cap, so a modulus blowup
    # (wrong exponent, discontinuity) would be caught
    p = 0.3
    zipper, line = build_example1(Example1Config(p=p))
    theta = min(math.log(p) / math.log(0.5), math.log(1 - p) / math.log(0.5))

    batch = np.random.default_rng(1)
    a = batch.uniform(0, 1, 10_000)
    b = batch.uniform(0, 1, 10_000)
    keep = np.abs(a - b) > 1e-12
    a, b = a[keep], b[keep]
    fa, _ = eval_f_many(a, zipper, line, tol=1e-12)
    fb, _ = eval_f_many(b, zipper, line, tol=1e-12)
    ratios = np.abs(fa[:, 0] - fb[:, 0]) / np.abs(a - b) ** theta
    fitted = ratios.max() * 1.01
    assert np.all(ratios <= fitted)
    assert fitted < 5.0
