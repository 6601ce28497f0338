"""The segment source against ``refine``, its bit-for-bit reference.

``Segments`` computes the depth-d subdivision polyline as the images
``S_W(P_k)`` of a small polyline under the words W of length d - k.
Concatenated, its segments must reproduce ``refine`` exactly: every point,
every parameter, and which copy of each junction row is kept.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from zipperlift.attractor import SEGMENT_ROWS, Segments, refine, segment_level
from zipperlift.cli import main
from zipperlift.config_io import build_system, parse_config
from zipperlift.errors import ZipperViolation
from zipperlift.families import Example1Config, Example2Config, build_example1, build_example2
from zipperlift.geometry import AffineMap
from zipperlift.smoothing import build_lift, smooth_zipper
from zipperlift.zipper import line_zipper, product_zipper, validate_zipper

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _random_zipper_config():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.random_zipper_config


def _reversed_system():
    # the first piece is traversed backwards
    maps = (AffineMap([[-0.6]], [0.6]), AffineMap([[0.4]], [0.6]))
    zipper = validate_zipper(maps, [[0.0], [0.6], [1.0]], (1, 0))
    return zipper, line_zipper((0.0, 0.5, 1.0), (1, 0))


def _systems():
    systems = {
        "example1": build_example1(Example1Config(p=0.3)),
        "example2": build_example2(Example2Config(h_param=0.5)),
        "reversed": _reversed_system(),
    }
    random_zipper_config = _random_zipper_config()
    rng = np.random.default_rng(2015)
    for m in (2, 3, 4, 5):
        config = random_zipper_config(rng, m, 2 + m % 2)
        systems[f"generated-m{m}"] = build_system(parse_config(json.dumps(config)))
    return systems


SYSTEMS = _systems()


def _target(name, kind):
    zipper, line = SYSTEMS[name]
    if kind == "product":
        return product_zipper(zipper, line), line
    return smooth_zipper(zipper, line, build_lift(zipper, line)), line


def _bits(array):
    return np.ascontiguousarray(array).view(np.int64)


@pytest.mark.parametrize("kind", ["product", "lifted"])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_segments_concatenate_to_refine_bitwise(name, kind):
    target, line = _target(name, kind)
    m = target.map_count
    level = segment_level(target, 30)
    # the last depth cuts the polyline into 16 to 27 segments
    for depth in (0, 1, level, level + 1, level + {2: 4, 3: 3}.get(m, 2)):
        segments = Segments(target, refine(target, segment_level(target, depth), line=line),
                            depth, line=line)
        assert segments.count == m ** (depth - segment_level(target, depth))
        parts = [segments(i) for i in range(segments.count)]
        assert max(len(points) for points, _ in parts) <= SEGMENT_ROWS
        reference = refine(target, depth, line=line)
        points = np.concatenate([points for points, _ in parts])
        params = np.concatenate([params for _, params in parts])
        assert np.array_equal(_bits(points), _bits(reference.points)), depth
        assert np.array_equal(_bits(params), _bits(reference.params)), depth


def test_segment_level_is_the_deepest_level_that_fits():
    product, _ = _target("example1", "product")
    assert [segment_level(product, depth) for depth in (0, 5, 11, 12, 18)] == [0, 5, 11, 11, 11]
    for name in ("generated-m3", "generated-m4", "generated-m5"):
        target, _ = _target(name, "lifted")
        m, level = target.map_count, segment_level(target, 30)
        assert m ** (level + 1) + 1 <= SEGMENT_ROWS < m ** (level + 2) + 1


def test_segments_need_the_base_level_polyline():
    product, line = _target("example1", "product")
    with pytest.raises(ValueError, match="level-11"):
        Segments(product, refine(product, 10, line=line), 14, line=line)
    with pytest.raises(ValueError, match="params"):
        Segments(product, refine(product, 11), 14, line=line)


#: A one-dimensional zipper whose vertex deviations, 0.99e-9 at S1(z_0) and
#: 0.3e-9 at S1(z_2), both pass validation.  S1's fixed point drifts away
#: from z_0, so the junction gap grows with the level: about 0.98e-9 at
#: level 12 and 1.01e-9 at level 13, above the segment source's base level
#: 11.
_A, _B, _D = 0.9, 0.99e-9, 0.3e-9
DRIFTING_CONFIG = {
    "dimension": 1,
    "maps": [
        {"linear": [[_A]], "translation": [_B]},
        {"linear": [[1.0 - (_A + _B + _D)]], "translation": [_A + _B + _D]},
    ],
    "vertices": [[0.0], [_A + _B + _D], [1.0]],
    "signature": [0, 0],
}


def test_junction_violation_above_the_base_level_raises_like_refine():
    zipper, line = build_system(parse_config(json.dumps(DRIFTING_CONFIG)))
    for target in (zipper, product_zipper(zipper, line)):
        with_line = None if target is zipper else line
        level = segment_level(target, 14)
        assert level == 11
        base = refine(target, level, line=with_line)  # levels 1..11 pass
        refine(target, 12, line=with_line)
        with pytest.raises(ZipperViolation) as expected:
            refine(target, 14, line=with_line)
        assert "junction between pieces 1 and 2" in str(expected.value)
        with pytest.raises(ZipperViolation) as raised:
            Segments(target, base, 14, line=with_line)
        assert str(raised.value) == str(expected.value)


def test_render_writes_no_file_on_a_junction_violation(tmp_path, capsys):
    config = tmp_path / "drifting.json"
    config.write_text(json.dumps(DRIFTING_CONFIG))
    svg, csv = tmp_path / "curve.svg", tmp_path / "curve.csv"
    assert main(["render", str(config), "--depth", "12", "--svg", str(svg)]) == 0
    svg.unlink()
    capsys.readouterr()
    argv = ["render", str(config), "--depth", "14", "--svg", str(svg), "--csv", str(csv)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid zipper: junction between pieces 1 and 2 differs by 1.01")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["drifting.json"]
