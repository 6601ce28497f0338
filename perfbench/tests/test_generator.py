import json

import numpy as np
import pytest
from zipperlift import build_lift, parse_config, smooth_zipper, similarity_decomposition
from zipperlift.cli import build_parser
from zipperlift.config_io import build_system

from workloads import (
    GENERATED_SHAPES,
    NODE_GRID,
    WORKLOADS,
    build_workload,
    random_zipper_config,
    render_depth,
)

SEEDS = range(12)


def generated_configs(seed):
    workload = build_workload("generated-zippers", seed)
    return [text for name, text in workload.configs.items()]


def test_same_seed_same_inputs():
    for name in WORKLOADS:
        a, b = build_workload(name, 5), build_workload(name, 5)
        assert [c.argv() for c in a.commands] == [c.argv() for c in b.commands]
        assert a.configs == b.configs
    assert generated_configs(5) != generated_configs(6)


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_zippers_are_valid_by_construction(seed):
    for text, (m, n) in zip(generated_configs(seed), GENERATED_SHAPES):
        config = parse_config(text)
        zipper, line = build_system(config)
        assert (zipper.map_count, zipper.dimension) == (m, n)
        # every map contracts on its own, so no eventual-mode fallback
        assert zipper.contraction_mode == "per-map"
        assert max(zipper.linear_norms) < 1.0
        assert any(zipper.signature)
        widths = np.diff(line.nodes)
        assert len(set(widths.tolist())) > 1
        assert np.array_equal(widths * NODE_GRID, np.round(widths * NODE_GRID))
        assert np.array_equal(zipper.vertices[0], np.zeros(n))
        similarity_decomposition(zipper)
        smooth_zipper(zipper, line, build_lift(zipper, line))


def test_norms_follow_width_powers():
    rng = np.random.default_rng(0)
    config = random_zipper_config(rng, 4, 3)
    widths = np.diff(config["lineNodes"])
    for mp, width in zip(config["maps"], widths):
        norm = np.linalg.norm(np.array(mp["linear"]), 2)
        assert width**0.8 - 1e-9 <= norm <= width**0.7 + 1e-9


def test_render_depth_keeps_polylines_near_target():
    for m in (3, 4, 5):
        assert 5e4 <= m ** (render_depth(m) + 1) + 1 <= 2e5


def test_commands_parse_with_the_cli():
    parser = build_parser()
    for name in WORKLOADS:
        for command in build_workload(name, 3).commands:
            args = parser.parse_args(command.argv())
            assert args.command == command.kind


def test_configs_are_strict_json():
    for text in generated_configs(0):
        assert set(json.loads(text)) == {"dimension", "maps", "vertices", "signature",
                                         "lineNodes"}
