import numpy as np
import pytest

from zipperlift.errors import InvalidConfig
from zipperlift.families import (
    Example1Config,
    Example2Config,
    build_example1,
    build_example2,
)
from zipperlift.parametrization import eval_f
from zipperlift.smoothing import build_lift, eval_g, inverse_design, smooth_zipper
from zipperlift.verification import (
    eventual_contraction_check,
    integral_residual,
    parametrization_residual,
)
from zipperlift.zipper import inspect_zipper


def test_rotation_family_keeps_the_half_identity():
    # p cos(alpha) = 1/2 within 4 ulps of 1/2 over the whole range of h
    hs = np.linspace(0.0, np.sqrt(3.0) / 2.0, 20_001)[1:-1]
    deviations = [abs(config.p * np.cos(config.alpha) - 0.5)
                  for config in map(Example2Config, hs.tolist())]
    assert max(deviations) <= 4 * np.spacing(0.5)


def test_interval_family_basic():
    zipper, line = build_example1(Example1Config(p=0.3))
    assert eval_f(0.5, zipper, line).value[0] == pytest.approx(0.3, abs=1e-15)


def test_interval_family_half_is_identity():
    zipper, line = build_example1(Example1Config(p=0.5))
    for t in (0.2, 0.55, 0.9):
        assert eval_f(t, zipper, line, tol=1e-12).value[0] == pytest.approx(t, abs=1e-11)


def test_interval_family_generalized_total():
    zipper, line = build_example1(Example1Config(q1=0.4, y1=0.3, y2=1.0))
    # chord fractions 0.3 and 0.7 against widths 0.4 and 0.6
    assert build_lift(zipper, line).h[0] == pytest.approx(0.18 / 0.46, abs=1e-12)


@pytest.mark.parametrize("p", [0.05, 0.1, 0.3, 0.5, 0.7, 0.95])
def test_interval_family_plain_form_is_the_general_form(p):
    # p x and (1 - p) x + p are the chord ratios p/1 and (1 - p)/1, bit for bit
    plain, plain_line = build_example1(Example1Config(p=p))
    general, general_line = build_example1(Example1Config(q1=0.5, y1=p, y2=1.0))
    assert plain.linears.shape == general.linears.shape == (2, 1, 1)
    assert plain.linears.tobytes() == general.linears.tobytes()
    assert plain.translations.tobytes() == general.translations.tobytes()
    assert plain.vertices.tobytes() == general.vertices.tobytes()
    assert plain_line.nodes.tobytes() == general_line.nodes.tobytes()
    assert tuple(plain.linears[:, 0, 0]) == (p, 1.0 - p)


def test_interval_family_invalid_configs():
    with pytest.raises(InvalidConfig):
        Example1Config(p=1.5)
    with pytest.raises(InvalidConfig):
        Example1Config(p=0.3, y1=0.2, y2=1.0)
    with pytest.raises(InvalidConfig):
        Example1Config(q1=0.4, y1=0.9, y2=0.5)
    with pytest.raises(InvalidConfig, match="y2 must be finite"):
        Example1Config(q1=0.4, y1=0.3, y2=float("inf"))
    with pytest.raises(InvalidConfig):
        Example1Config()


@pytest.mark.parametrize("params, match", [
    ({"y1": 0.3, "y2": 1.0}, "needs the split node"),
    ({"q1": 0.4, "x1": 0.5, "y1": 0.3, "y2": 1.0}, "x1 = 0.5 disagrees with q1 = 0.4"),
    ({"x1": 1.2, "y1": 0.3, "y2": 1.0}, "split node must lie in"),
    ({"q1": 0.4, "y1": 0.3}, "needs both heights"),
], ids=["no-split-node", "split-nodes-disagree", "split-node-outside", "one-height"])
def test_interval_family_generalized_form_rejects_each_gap(params, match):
    with pytest.raises(InvalidConfig, match=match):
        Example1Config(**params)


def test_rotation_family_vertices():
    zipper, line = build_example2(Example2Config(h_param=0.5))
    assert np.allclose(zipper.vertices, [[0, 0], [0.5, 0.5], [1, 0]], atol=1e-15)


def test_rotation_family_height_range():
    with pytest.raises(InvalidConfig):
        Example2Config(h_param=np.sqrt(3) / 2)
    with pytest.raises(InvalidConfig):
        Example2Config(h_param=0.0)


def test_rotation_family_degenerate_height_matches_parabola():
    config = Example2Config(h_param=1e-9)
    zipper, line = build_example2(config)
    lift = build_lift(zipper, line)
    for t in np.linspace(0.0, 1.0, 11):
        value = eval_g(float(t), zipper, line, lift, tol=1e-10).value
        assert np.linalg.norm(value - [t * t / 2.0, 0.0]) <= 1e-6


def test_every_preset_passes_all_machinery():
    systems = [build_example1(Example1Config(p=p)) for p in (0.2, 0.5, 0.8)]
    systems += [build_example2(Example2Config(h_param=h)) for h in (0.1, 0.5)]
    systems.append(build_example1(Example1Config(q1=0.4, y1=0.3, y2=1.0)))
    for zipper, line in systems:
        stacks = (zipper.linears, zipper.translations)
        assert inspect_zipper(*stacks, zipper.vertices, zipper.signature).valid
        lift = build_lift(zipper, line)
        assert np.linalg.norm(lift.node_integrals[-1] - lift.h) <= 1e-12 * (
            1 + np.linalg.norm(lift.h)
        )
        lifted = smooth_zipper(zipper, line, lift)
        assert eventual_contraction_check(lifted).passed
        assert parametrization_residual(zipper, line, samples=200).passed
        assert integral_residual(zipper, line, lift, samples=100).passed


def test_inverse_design_round_trips_preset_grid():
    for p in np.arange(0.1, 0.95, 0.1):
        zipper, line = build_example1(Example1Config(p=float(p)))
        values = build_lift(zipper, line).node_integrals
        y1, y2 = inverse_design(0.5, 0.5, 0.5, float(values[1, 0]), float(values[2, 0]))
        assert y1 == pytest.approx(p, abs=1e-9)
        assert y2 == pytest.approx(1.0, abs=1e-9)
