"""The batched interval descent behind ``eval_f_many`` and ``eval_g_many``.

The lifted zipper gives g by a route that shares no step with the descent:
a parameter's interval address, applied as lifted maps to the node point
it ends on, lands on (t, g(t)).  The remaining tests pin the descent's
contract: typed rejection of parameters outside [0, 1] (NaN included),
certified radii right next to the nodes, and results that do not depend on
the batch a point is evaluated in.  The scalar loop the descent replaced
stays here as its bitwise reference.
"""

import re

import numpy as np
import pytest

from zipperlift.config_io import build_system, parse_config
from zipperlift.errors import OutOfDomain
from zipperlift.parametrization import eval_f, eval_f_many
from zipperlift.smoothing import build_lift, eval_g, eval_g_many, smooth_zipper
from zipperlift.zipper import line_zipper, similarity_decomposition, validate_zipper
from conftest import workloads
from oracles import address_of, interval_of, pull_back

PRESETS = ("interval_03", "rotation_half")
#: The generated-zippers configs at seed 0: m = 3..5 maps on R^2 and R^3,
#: each with a reversed bit, over nodes on a 1/64 grid.
GENERATED = ("generated-0", "generated-1", "generated-2")


@pytest.fixture(scope="module")
def spatial_3d():
    """Three maps on R^3 in normal form, the middle one reversing, over
    uneven line nodes: (zipper, line, lift)."""
    vertices = np.array([
        [0.0, 0.0, 0.0], [0.35, 0.3, 0.1], [0.6, -0.15, 0.25], [1.0, 0.0, 0.0],
    ])
    signature = (0, 1, 0)
    blocks = ([[0.1, 0.2], [0.25, 0.0], [0.0, 0.3]],
              [[-0.2, 0.1], [0.0, 0.25], [0.3, -0.1]],
              [[0.15, 0.0], [0.2, -0.2], [0.1, 0.25]])
    linears, translations = [], []
    for k, bit in enumerate(signature):
        entry, exit_ = vertices[k + bit], vertices[k + 1 - bit]
        # the last vertex is e_1, so the first column sends it onto the chord
        linears.append(np.column_stack([exit_ - entry, blocks[k]]))
        translations.append(entry)
    zipper = validate_zipper(linears, translations, vertices, signature)
    line = line_zipper((0.0, 0.3, 0.55, 1.0), signature)
    return zipper, line, build_lift(zipper, line)


@pytest.fixture(scope="module")
def generated():
    systems = []
    for text in workloads().build_workload("generated-zippers", 0).configs.values():
        zipper, line = build_system(parse_config(text))
        systems.append((zipper, line, build_lift(zipper, line)))
    return systems


def _system(name, request):
    """The (zipper, line, lift) fixture ``name``; ``generated-k`` is the k-th
    generated config."""
    if name.startswith("generated-"):
        return request.getfixturevalue("generated")[int(name.rpartition("-")[2])]
    return request.getfixturevalue(name)


def _evaluators(system, tol=1e-9):
    zipper, line, lift = system
    return (
        lambda ts: eval_f_many(ts, zipper, line, tol=tol),
        lambda ts: eval_g_many(ts, zipper, line, lift, tol=tol),
    )


def _scalar_descent(t, line, step, node_rows, tail, reach, tol=1e-9):
    """One point the way ``eval_f`` and ``eval_g`` evaluated it before the
    batched descent: ``step(k, u)`` gives digit k's translation, linear part
    and gain, ``tail(linear, offset)`` the value once the radius certifies."""
    n = node_rows.shape[1]
    linear, offset, factor, u = np.eye(n), np.zeros(n), 1.0, float(t)
    while True:
        index = int(np.searchsorted(line.nodes, u))
        if index < line.nodes.size and line.nodes[index] == u:
            return linear @ node_rows[index] + offset, 0.0
        if factor * reach <= tol:
            return tail(linear, offset), factor * reach
        k = interval_of(line, u) - 1
        translation, matrix, gain = step(k, u)
        offset = linear @ translation + offset
        linear = linear @ matrix
        factor *= gain
        u = float(pull_back(line, k + 1, u))


def _assert_matches_scalar_loop(system, ts):
    """``eval_f_many`` and ``eval_g_many`` over ``ts`` give the scalar loop's
    bits, point by point."""
    zipper, line, lift = system
    offsets, linear_parts, _ = similarity_decomposition(zipper)
    norms = zipper.linear_norms

    def f_step(k, u):
        return zipper.translations[k], zipper.linears[k], norms[k]

    def g_step(k, u):
        scaled = line.ratios[k] * linear_parts[k]
        local = lift.node_integrals[k] + offsets[k] * (u - line.nodes[k])
        if zipper.signature[k]:
            local = local - scaled @ lift.h
        return local, scaled, line.ratios[k] * norms[k]

    f_values, f_bounds = eval_f_many(ts, zipper, line)
    g_values, g_bounds = eval_g_many(ts, zipper, line, lift)
    reach = zipper.diameter_bound
    for j, t in enumerate(ts):
        value, bound = _scalar_descent(
            t, line, f_step, zipper.vertices,
            lambda linear, offset: linear @ zipper.vertices[0] + offset, reach)
        assert value.tobytes() == f_values[j].tobytes() and bound == f_bounds[j]
        value, bound = _scalar_descent(
            t, line, g_step, lift.node_integrals, lambda linear, offset: offset, reach)
        assert value.tobytes() == g_values[j].tobytes() and bound == g_bounds[j]


@pytest.mark.parametrize("name", PRESETS + ("spatial_3d",) + GENERATED)
def test_batched_descent_matches_scalar_loop_bitwise(name, request):
    ts = np.random.default_rng(11).uniform(0.0, 1.0, 200)
    _assert_matches_scalar_loop(_system(name, request), ts)


@pytest.mark.parametrize("name", ("spatial_3d",) + GENERATED)
def test_descent_with_empty_digit_blocks_matches_scalar_loop(name, request):
    system = _system(name, request)
    nodes = system[1].nodes
    # every first digit is 0 or m - 1, so the middle digits' blocks are empty
    # at the first level
    rng = np.random.default_rng(5)
    ts = np.concatenate([rng.uniform(0.0, nodes[1], 60), rng.uniform(nodes[-2], 1.0, 60)])
    _assert_matches_scalar_loop(system, ts)


@pytest.mark.parametrize("name", ("rotation_half",) + GENERATED)
def test_points_on_nodes_end_within_one_level(name, request):
    system = _system(name, request)
    zipper, line, lift = system
    # the nodes end at depth 0; on these dyadic nodes their images under
    # each interval map pull back exactly and end at depth 1
    images = np.unique(line.translations[:, :1] + line.linears[:, 0] * line.nodes)
    images = images[~np.isin(images, line.nodes)]
    for ts, depth in ((line.nodes, 0), (images, 1)):
        _assert_matches_scalar_loop(system, ts)
        assert [eval_f(t, zipper, line).depth for t in ts] == [depth] * ts.size
        assert not eval_f_many(ts, zipper, line)[1].any()
        assert not eval_g_many(ts, zipper, line, lift)[1].any()
    assert eval_f_many(line.nodes, zipper, line)[0].tobytes() == zipper.vertices.tobytes()
    g_nodes = eval_g_many(line.nodes, zipper, line, lift)[0]
    assert g_nodes.tobytes() == lift.node_integrals.tobytes()


@pytest.mark.parametrize("bad", [np.nan, -0.1, np.nextafter(1.0, 2.0)],
                         ids=["nan", "below-zero", "one-plus-ulp"])
def test_parameters_outside_domain_raise(interval_03, bad):
    zipper, line, lift = interval_03
    message = re.escape(f"parameter {float(bad)!r} outside [0, 1]")
    for evaluate in _evaluators(interval_03):
        with pytest.raises(OutOfDomain, match=message):
            evaluate([0.25, bad, 0.5])
    with pytest.raises(OutOfDomain, match=message):
        eval_f(bad, zipper, line)
    with pytest.raises(OutOfDomain, match=message):
        eval_g(bad, zipper, line, lift)


@pytest.mark.parametrize("preset", PRESETS)
def test_g_agrees_with_lifted_zipper_words(preset, request):
    zipper, line, lift = request.getfixturevalue(preset)
    rng = np.random.default_rng(2015)
    ts = rng.integers(0, 2**20 + 1, 200) * 2.0**-20
    values, bounds = eval_g_many(ts, zipper, line, lift)
    lifted = smooth_zipper(zipper, line, lift)
    for t, value, bound in zip(ts, values, bounds):
        # twenty bits of halving digits always end on a node
        address = address_of(t, line, 25)
        (j,) = np.flatnonzero(line.nodes == address.anchor)
        point = np.concatenate([[line.nodes[j]], lift.node_integrals[j]])
        for digit in reversed(address.digits):
            point = lifted.linears[digit - 1] @ point + lifted.translations[digit - 1]
        assert point[0] == t
        assert np.linalg.norm(point[1:] - value) <= bound + 1e-14


@pytest.mark.parametrize("name", PRESETS + ("spatial_3d",))
def test_radius_certified_next_to_nodes_and_ends(name, request):
    system = request.getfixturevalue(name)
    nodes = system[1].nodes
    ts = np.concatenate([
        nodes, np.nextafter(nodes, -1.0), np.nextafter(nodes, 2.0),
        [5e-324, 1e-16, 1e-15, 1.0 - 1e-15, np.nextafter(1.0, 0.0)],
    ])
    ts = ts[(ts >= 0.0) & (ts <= 1.0)]
    for tol in (1e-9, 1e-13):
        for evaluate in _evaluators(system, tol):
            values, bounds = evaluate(ts)
            assert np.isfinite(values).all()
            assert np.all(bounds <= tol)


@pytest.mark.parametrize("name", PRESETS + ("spatial_3d",))
def test_batch_of_one_matches_batch_of_thousand(name, request):
    ts = np.random.default_rng(7).uniform(0.0, 1.0, 1000)
    for evaluate in _evaluators(request.getfixturevalue(name)):
        values, bounds = evaluate(ts)
        for t, value, bound in zip(ts, values, bounds):
            one_value, one_bound = evaluate([t])
            assert one_value[0].tobytes() == value.tobytes()
            assert one_bound[0] == bound


@pytest.mark.parametrize("name", ("interval_03", "spatial_3d") + GENERATED)
def test_shuffled_batch_returns_the_same_bits_in_input_order(name, request):
    system = _system(name, request)
    rng = np.random.default_rng(17)
    ts = np.concatenate([rng.uniform(0.0, 1.0, 500), system[1].nodes])
    shuffle = rng.permutation(ts.size)
    for evaluate in _evaluators(system):
        values, bounds = evaluate(ts)
        shuffled_values, shuffled_bounds = evaluate(ts[shuffle])
        assert shuffled_values.tobytes() == values[shuffle].tobytes()
        assert shuffled_bounds.tobytes() == bounds[shuffle].tobytes()
