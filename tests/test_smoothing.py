from fractions import Fraction

import numpy as np
import pytest

from zipperlift import smoothing
from zipperlift.config_io import build_system, parse_config
from zipperlift.errors import DegenerateInput, NotNormalized, ZipperViolation
from zipperlift.families import (
    Example1Config,
    Example2Config,
    build_example1,
    build_example2,
)
from zipperlift.geometry import solve_linear
from zipperlift.parametrization import eval_f_many
from zipperlift.smoothing import (
    build_lift,
    eval_g,
    eval_g_many,
    inverse_design,
    smooth_zipper,
)
from zipperlift.verification import integral_residual
from zipperlift.zipper import (
    line_zipper,
    product_zipper,
    similarity_decomposition,
    validate_zipper,
)
from conftest import workloads
from oracles import quadrature_g


def test_solve_h_interval_family_closed_form():
    # equal halves force the total integral to equal the split height
    for p in np.arange(0.1, 0.95, 0.1):
        zipper, line = build_example1(Example1Config(p=float(p)))
        assert build_lift(zipper, line).h[0] == pytest.approx(p, abs=1e-12)


def test_solve_h_parabola():
    zipper, line = build_example1(Example1Config(p=0.5))
    assert build_lift(zipper, line).h[0] == pytest.approx(0.5, abs=1e-15)


def test_solve_h_rotation_family():
    cfg = Example2Config(h_param=0.5)
    zipper, line = build_example2(cfg)
    total = build_lift(zipper, line).h
    assert np.allclose(total, [0.5, 0.5], atol=1e-12)
    # cross-check against the independent quadrature route
    oracle = quadrature_g(1.0, zipper, line, 2**12)
    assert np.linalg.norm(oracle - total) <= 1e-6


def test_solve_h_quadrature_cross_check_interval():
    zipper, line = build_example1(Example1Config(p=0.3))
    total = build_lift(zipper, line).h
    oracle = quadrature_g(1.0, zipper, line, 2**12)
    assert np.linalg.norm(oracle - total) <= 1e-6


def test_solve_h_requires_origin():
    zipper, line = build_example1(Example1Config(p=0.3))
    moved_translations = zipper.translations + 1.0 - zipper.linears @ np.array([1.0])
    moved = validate_zipper(zipper.linears, moved_translations, zipper.vertices + 1.0,
                            zipper.signature)
    with pytest.raises(NotNormalized):
        build_lift(moved, line).h


def test_node_integrals_interval_family():
    zipper, line = build_example1(Example1Config(p=0.3))
    values = build_lift(zipper, line).node_integrals
    assert values[0, 0] == 0.0
    assert values[1, 0] == pytest.approx(0.045, abs=1e-15)
    assert values[2, 0] == pytest.approx(0.3, abs=1e-12)


def test_node_integrals_parabola():
    zipper, line = build_example1(Example1Config(p=0.5))
    values = build_lift(zipper, line).node_integrals
    assert values[1, 0] == pytest.approx(0.125, abs=1e-15)


def test_node_integrals_telescope(rng):
    for _ in range(10):
        p = float(rng.uniform(0.05, 0.95))
        zipper, line = build_example1(Example1Config(p=p))
        lift = build_lift(zipper, line)
        h, values = lift.h, lift.node_integrals
        assert np.linalg.norm(values[-1] - h) <= 1e-12 * (1 + np.linalg.norm(h))
        increments = np.diff(values, axis=0).sum(axis=0)
        assert np.linalg.norm(increments - h) <= 1e-12 * (1 + np.linalg.norm(h))


def test_eval_g_parabola(interval_half):
    zipper, line, lift = interval_half
    for t in (0.25, 0.3, 0.9):
        value = eval_g(t, zipper, line, lift, tol=1e-12).value[0]
        assert value == pytest.approx(t * t / 2.0, abs=1e-11)


@pytest.mark.parametrize("tol", [1e-9, 1e-11, 1e-13])
def test_parabola_radii_cover_the_exact_values(interval_half, rng, tol):
    # f(t) = t and g(t) = t^2/2, compared in exact rationals, which share no
    # float code with the descent; radii at 1e-15 and below count no rounding
    zipper, line, lift = interval_half
    nodes = [0.0, 0.5, 1.0]
    near = [np.nextafter(node, toward) for node in nodes for toward in (-1.0, 2.0)]
    bits = rng.integers(30, 53, 200)
    deep = [int(rng.integers(0, 2**int(b) + 1)) / 2.0**int(b) for b in bits]
    ts = np.array(nodes + [t for t in near if 0.0 <= t <= 1.0] + deep)
    f_values, f_bounds = eval_f_many(ts, zipper, line, tol=tol)
    g_values, g_bounds = eval_g_many(ts, zipper, line, lift, tol=tol)
    for t, f, f_bound, g, g_bound in zip(ts.tolist(), f_values[:, 0].tolist(), f_bounds.tolist(),
                                         g_values[:, 0].tolist(), g_bounds.tolist()):
        assert abs(Fraction(f) - Fraction(t)) <= Fraction(f_bound), t
        assert abs(Fraction(g) - Fraction(t) ** 2 / 2) <= Fraction(g_bound), t


def test_eval_g_one_level(interval_03):
    zipper, line, lift = interval_03
    assert eval_g(0.25, zipper, line, lift).value[0] == pytest.approx(0.00675, abs=1e-12)


def test_eval_g_endpoints(interval_03, rotation_half):
    for zipper, line, lift in (interval_03, rotation_half):
        start = eval_g(0.0, zipper, line, lift)
        end = eval_g(1.0, zipper, line, lift)
        assert np.array_equal(start.value, np.zeros(zipper.dimension))
        assert np.array_equal(end.value, lift.h)
        assert start.error_bound == 0.0 and end.error_bound == 0.0


def test_eval_g_certified_bound(interval_03, rng):
    zipper, line, lift = interval_03
    for _ in range(100):
        t = float(rng.uniform(0, 1))
        coarse = eval_g(t, zipper, line, lift, tol=1e-6)
        fine = eval_g(t, zipper, line, lift, tol=1e-13)
        assert coarse.error_bound <= 1e-6
        assert np.linalg.norm(coarse.value - fine.value) <= coarse.error_bound + 1e-12


def test_smooth_zipper_interval_symbolic():
    # lifted maps of the interval family: (x/2, p y/2) and
    # (x/2 + 1/2, p x/2 + (1-p) y/2 + p^2/2)
    for p in (0.3, 0.5):
        zipper, line = build_example1(Example1Config(p=p))
        lift = build_lift(zipper, line)
        lifted = smooth_zipper(zipper, line, lift)
        first, second = lifted.linears
        assert np.allclose(first, [[0.5, 0.0], [0.0, p / 2.0]], atol=1e-15)
        assert np.allclose(lifted.translations[0], [0.0, 0.0], atol=1e-15)
        assert np.allclose(second, [[0.5, 0.0], [p / 2.0, (1 - p) / 2.0]], atol=1e-15)
        assert np.allclose(lifted.translations[1], [0.5, p * p / 2.0], atol=1e-15)


def test_smooth_zipper_parabola_invariance():
    # the graph of t^2/2 satisfies both lifted map identities
    zipper, line = build_example1(Example1Config(p=0.5))
    lifted = smooth_zipper(zipper, line, build_lift(zipper, line))
    ts = np.linspace(0.0, 1.0, 101)
    graph = np.column_stack([ts, ts * ts / 2.0])
    for linear, translation in zip(lifted.linears, lifted.translations):
        images = graph @ linear.T + translation
        assert np.allclose(images[:, 1], images[:, 0] ** 2 / 2.0, atol=1e-15)


def test_smooth_zipper_vertex_conditions(interval_03):
    zipper, line, lift = interval_03
    lifted = smooth_zipper(zipper, line, lift)
    def w(k, point):
        return lifted.linears[k - 1] @ point + lifted.translations[k - 1]

    assert np.allclose(w(1, [0.0, 0.0]), [0.0, 0.0], atol=1e-15)
    assert np.allclose(w(1, [1.0, 0.3]), [0.5, 0.045], atol=1e-12)
    assert np.allclose(w(2, [0.0, 0.0]), [0.5, 0.045], atol=1e-12)
    assert np.allclose(w(2, [1.0, 0.3]), [1.0, 0.3], atol=1e-12)


@pytest.mark.parametrize("system", ["ex1-p0.3", "ex2-h0.5", "seed0-zipper0"])
def test_smooth_zipper_catches_a_total_integral_off_by_1e_7(system, monkeypatch):
    # the lifted end-vertex axiom is the check that sees a wrong h: the node
    # integrals rebuilt from h * (1 + 1e-7) no longer end at h
    if system == "ex1-p0.3":
        zipper, line = build_example1(Example1Config(p=0.3))
    elif system == "ex2-h0.5":
        zipper, line = build_example2(Example2Config(h_param=0.5))
    else:
        text = workloads().build_workload("generated-zippers", 0).configs["zipper0.json"]
        zipper, line = build_system(parse_config(text))
    monkeypatch.setattr(smoothing, "solve_linear",
                        lambda matrix, rhs: solve_linear(matrix, rhs) * (1.0 + 1e-7))
    with pytest.raises(ZipperViolation) as caught:
        smooth_zipper(zipper, line, build_lift(zipper, line))
    assert "end-vertex" in {violation.condition for violation in caught.value.report.violations}


def test_inverse_design_recovers_interval_family():
    # forward data of p = 0.3: split integral 0.045, total 0.3
    y1, y2 = inverse_design(0.5, 0.5, 0.5, 0.045, 0.3)
    assert y1 == pytest.approx(0.3, abs=1e-12)
    assert y2 == pytest.approx(1.0, abs=1e-12)


def test_inverse_design_parabola():
    y1, y2 = inverse_design(0.5, 0.5, 0.5, 0.125, 0.5)
    assert y1 == pytest.approx(0.5, abs=1e-15)
    assert y2 == pytest.approx(1.0, abs=1e-15)


def test_inverse_design_degenerate():
    with pytest.raises(DegenerateInput):
        inverse_design(0.5, 0.5, 0.5, 0.0, 0.3)


def test_inverse_design_rejects_a_split_node_off_the_first_width():
    with pytest.raises(DegenerateInput, match="split node 0.5 must equal the first width 0.4"):
        inverse_design(0.4, 0.6, 0.5, 0.045, 0.3)
    with pytest.raises(DegenerateInput):
        inverse_design(1.5, -0.5, 1.5, 0.1, 0.3)
    with pytest.raises(DegenerateInput):
        inverse_design(0.4, 0.5, 0.4, 0.1, 0.3)
    with pytest.raises(DegenerateInput, match="not finite"):
        inverse_design(0.5, 0.5, 0.5, 1e-300, 1e300)


def test_inverse_design_round_trip(rng):
    for _ in range(10):
        q1 = float(rng.uniform(0.2, 0.8))
        y1 = float(rng.uniform(0.1, 0.9))
        y2 = float(rng.uniform(y1 + 0.05, 2.0))
        zipper, line = build_example1(Example1Config(q1=q1, y1=y1, y2=y2))
        values = build_lift(zipper, line).node_integrals
        g1, g2 = float(values[1, 0]), float(values[2, 0])
        back1, back2 = inverse_design(q1, 1.0 - q1, q1, g1, g2)
        assert back1 == pytest.approx(y1, abs=1e-9)
        assert back2 == pytest.approx(y2, abs=1e-9)


def test_presets_products_and_lifts_contract_per_map():
    systems = [build_example1(Example1Config(p=0.3)), build_example2(Example2Config(h_param=0.5))]
    for zipper, line in systems:
        lifted = smooth_zipper(zipper, line, build_lift(zipper, line))
        for system in (zipper, product_zipper(zipper, line), lifted):
            assert system.contraction_mode == "per-map"


def test_lift_decomposes_the_normal_form_once(monkeypatch, rotation_half):
    calls = []
    decompose = smoothing.similarity_decomposition

    def counted(zipper):
        calls.append(zipper)
        return decompose(zipper)

    monkeypatch.setattr(smoothing, "similarity_decomposition", counted)
    zipper, line, _ = rotation_half
    lift = build_lift(zipper, line)
    assert len(calls) == 1
    eval_g_many([0.1, 0.7], zipper, line, lift)
    integral_residual(zipper, line, lift, samples=8)
    assert len(calls) == 1


def _map_by_map_lift(zipper, line):
    """The normal form and the lift built one map at a time, as per-map
    lists: ``(offsets, linear_parts, signs, h, node_integrals, lifted)``."""
    n = zipper.dimension
    offsets, parts, signs = [], [], []
    for k, bit in enumerate(zipper.signature):
        signs.append(-1 if bit else 1)
        parts.append(signs[-1] * zipper.linears[k])
        offsets.append(zipper.vertices[k + bit])
    matrix, rhs = np.eye(n), np.zeros(n)
    for offset, part, sign, width in zip(offsets, parts, signs, line.ratios):
        matrix -= sign * width * part
        rhs += width * offset
    h = solve_linear(matrix, rhs)
    node_integrals, lifted = [np.zeros(n)], []
    for offset, part, sign, width in zip(offsets, parts, signs, line.ratios):
        node_integrals.append(node_integrals[-1] + (offset * width + sign * width * (part @ h)))
    for k, (offset, part, sign, width) in enumerate(zip(offsets, parts, signs, line.ratios)):
        block = np.zeros((n + 1, n + 1))
        block[0, 0] = 1.0
        block[1:, 0] = offset
        block[1:, 1:] = sign * part
        entry = k + zipper.signature[k]
        translation = np.concatenate([[line.nodes[entry]], node_integrals[entry]])
        lifted.append((sign * width * block, translation))
    return offsets, parts, signs, h, node_integrals, lifted


def _normal_form_systems():
    """(zipper, line) over both presets, the general example-1 form, the
    seed-0 generated configs and a one-dimensional reversed-bit zipper."""
    systems = [
        build_example1(Example1Config(p=0.3)),
        build_example1(Example1Config(q1=0.4, y1=0.3, y2=1.0)),
        build_example2(Example2Config(h_param=0.5)),
    ]
    systems += [build_system(parse_config(text))
                for text in workloads().build_workload("generated-zippers", 0).configs.values()]
    reversed_zipper = validate_zipper([[[-0.6]], [[0.4]]], [[0.6], [0.6]], [[0.0], [0.6], [1.0]],
                                      (1, 0))
    systems.append((reversed_zipper,
                    line_zipper([0.0, 0.45, 1.0], (1, 0))))
    return systems


def test_normal_form_arrays_and_lift_match_a_map_by_map_loop():
    systems = _normal_form_systems()
    assert any(any(zipper.signature) for zipper, _ in systems)
    for zipper, line in systems:
        offsets, parts, signs, h, node_integrals, lifted = _map_by_map_lift(zipper, line)
        arrays = similarity_decomposition(zipper)
        m, n = zipper.map_count, zipper.dimension
        for array, shape, reference in zip(arrays, ((m, n), (m, n, n), (m,)),
                                           (offsets, parts, signs)):
            assert array.shape == shape and not array.flags.writeable
            assert array.tobytes() == np.array(reference, dtype=float).tobytes()
        lift = build_lift(zipper, line)
        assert lift.h.tobytes() == h.tobytes()
        assert lift.node_integrals.tobytes() == np.array(node_integrals).tobytes()
        stacks = smooth_zipper(zipper, line, lift)
        assert stacks.linears.shape == (m, n + 1, n + 1)
        assert stacks.translations.shape == (m, n + 1)
        for k, (linear, translation) in enumerate(lifted):
            assert stacks.linears[k].tobytes() == linear.tobytes()
            assert stacks.translations[k].tobytes() == translation.tobytes()


def test_product_zipper_stacks_match_a_map_by_map_loop():
    # the lifted stacks are pinned the same way in the normal-form test above
    for zipper, line in _normal_form_systems():
        product = product_zipper(zipper, line)
        m, n = zipper.map_count, zipper.dimension
        assert product.linears.shape == (m, n + 1, n + 1)
        assert product.translations.shape == (m, n + 1)
        for k, bit in enumerate(zipper.signature):
            # t -> t_k + q_k t, or t_{k+1} - q_k t where the map reverses
            width = line.nodes[k + 1] - line.nodes[k]
            linear = np.zeros((n + 1, n + 1))
            linear[0, 0] = -width if bit else width
            linear[1:, 1:] = zipper.linears[k]
            start = line.nodes[k + bit]
            translation = np.concatenate([[start], zipper.translations[k]])
            assert product.linears[k].tobytes() == linear.tobytes()
            assert product.translations[k].tobytes() == translation.tobytes()
