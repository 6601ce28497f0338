import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from zipperlift import config_io
from zipperlift.attractor import Polyline, Segments, refine, segment_level
from zipperlift.cli import main
from zipperlift.config_io import (
    RenderSpec,
    build_system,
    config_from_system,
    config_to_json,
    export_csv,
    export_svg,
    format_number,
    parse_config,
)
from zipperlift.errors import DimensionMismatch, DimensionUnsupported, ParseError, ShapeError
from zipperlift.families import Example1Config, build_example1
from zipperlift.smoothing import build_lift, smooth_zipper
from zipperlift.zipper import product_zipper
from conftest import workloads

INTERVAL_CONFIG = """
{
  "dimension": 1,
  "maps": [
    {"linear": [[0.3]], "translation": [0]},
    {"linear": [[0.7]], "translation": [0.3]}
  ],
  "vertices": [[0], [0.3], [1]],
  "signature": [0, 0]
}
"""


def test_parse_interval_config():
    config = parse_config(INTERVAL_CONFIG)
    assert config.dimension == 1
    assert config.signature == (0, 0)
    zipper, line = build_system(config)
    assert zipper.map_count == 2
    assert np.array_equal(line.nodes, [0.0, 0.5, 1.0])  # uniform default


def test_generated_zippers_and_their_lifts_contract_per_map():
    # the benchmark's seeded generator, run from its source file
    for seed in range(12):
        for text in workloads().build_workload("generated-zippers", seed).configs.values():
            zipper, line = build_system(parse_config(text))
            lifted = smooth_zipper(zipper, line, build_lift(zipper, line))
            loaded, _ = build_system(parse_config(config_to_json(config_from_system(lifted, line))))
            modes = {zipper.contraction_mode, lifted.contraction_mode, loaded.contraction_mode}
            assert modes == {"per-map"}


def test_parse_rejects_unknown_key():
    bad = INTERVAL_CONFIG.replace('"signature"', '"colour": [1], "signature"')
    with pytest.raises(ParseError) as excinfo:
        parse_config(bad)
    assert "colour" in str(excinfo.value)


def test_parse_rejects_deeply_nested_json():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_config("[" * 100_000 + "]" * 100_000)


def test_parse_rejects_bad_json_with_position():
    with pytest.raises(ParseError) as excinfo:
        parse_config('{"dimension": 1,,}')
    assert excinfo.value.line == 1
    assert excinfo.value.column is not None


def test_parse_rejects_signature_shape():
    bad = INTERVAL_CONFIG.replace("[0, 0]", "[0]")
    with pytest.raises(ShapeError) as excinfo:
        parse_config(bad)
    assert excinfo.value.field == "signature"


def test_parse_rejects_bad_matrix_shape():
    bad = INTERVAL_CONFIG.replace("[[0.3]]", "[[0.3, 0.1]]")
    with pytest.raises(ShapeError) as excinfo:
        parse_config(bad)
    assert "linear" in excinfo.value.field


def _interval_with(**fields):
    """The interval config's JSON text with top-level fields replaced, or
    dropped where the value is None."""
    raw = {**json.loads(INTERVAL_CONFIG), **fields}
    return json.dumps({key: value for key, value in raw.items() if value is not None})


@pytest.mark.parametrize("text, field", [
    ("[]", "<root>"),
    (_interval_with(signature=None), "signature"),
    (_interval_with(dimension=0), "dimension"),
    (_interval_with(dimension=True), "dimension"),
    (_interval_with(maps=[]), "maps"),
    (_interval_with(maps=[[[0.3]], [[0.7]]]), "maps[0]"),
    (_interval_with(maps=[{"linear": [[0.3]]}]), "maps[0]"),
    (_interval_with(maps=[{"linear": 0.3, "translation": [0]}]), "maps[0].linear"),
    (_interval_with(maps=[{"linear": [[0.3]], "translation": 0}]), "maps[0].translation"),
    (_interval_with(maps=[{"linear": [[0.3]], "translation": ["0"]}]), "maps[0].translation"),
    (_interval_with(maps=[{"linear": [[True]], "translation": [0]}]), "maps[0].linear"),
    (_interval_with(vertices=[[0], [1]]), "vertices"),
    (_interval_with(signature=[0, 2]), "signature"),
    (_interval_with(signature=[0, True]), "signature"),
], ids=["root-array", "missing-signature", "dimension-zero", "dimension-bool", "no-maps",
        "map-not-object", "map-without-translation", "linear-not-rows", "translation-not-array",
        "translation-string", "linear-bool", "vertex-rows", "signature-two", "signature-bool"])
def test_parse_rejects_each_bad_shape_naming_its_field(text, field):
    with pytest.raises(ShapeError) as excinfo:
        parse_config(text)
    assert excinfo.value.field == field


def test_parse_rejects_unknown_map_key():
    text = _interval_with(maps=[{"linear": [[0.3]], "translation": [0], "colour": 1}])
    with pytest.raises(ParseError, match="unknown key 'colour' in maps\\[0\\]"):
        parse_config(text)


def test_config_round_trip():
    zipper, line = build_example1(Example1Config(p=0.3))
    config = config_from_system(zipper, line)
    text = config_to_json(config)
    # serialization is canonical: a second pass is byte-identical
    assert config_to_json(parse_config(text)) == text


def test_format_number():
    assert format_number(0.0) == "0"
    assert format_number(1.0) == "1"
    assert format_number(0.5) == "0.5"
    assert format_number(0.1 + 0.2) == "0.30000000000000004"
    assert float(format_number(1e-7)) == 1e-7


def _neighbours(values, reach=1):
    """``values`` and the doubles up to ``reach`` ulps on either side."""
    bits = np.asarray(values, dtype=float).view(np.int64)
    return (bits[:, None] + np.arange(-reach, reach + 1)).view(float).ravel()


def _formatter_cases(rng):
    """About 1.07 M doubles where shortest-decimal formatting goes wrong first."""
    def signs(count):
        return rng.choice([-1.0, 1.0], count)

    # random bit patterns: every exponent, NaN and infinity included
    parts = [np.copysign(rng.integers(0, 2**63, 40_000).view(float), signs(40_000))]
    # short decimals of 0 to 17 places: the digits stop early
    scaled = rng.uniform(-1.0, 1.0, 290_000) * 10.0 ** rng.integers(-5, 16, 290_000)
    parts += [_neighbours(np.round(scaled[k::18], k)) for k in range(18)]
    # dyadic rationals: their decimals end in 5, so digits tie
    parts.append(signs(150_000) * rng.integers(1, 2**20, 150_000)
                 / 2.0 ** rng.integers(1, 33, 150_000))
    # powers of two, whose rounding interval is lopsided, and their neighbours
    parts.append(_neighbours(np.ldexp(1.0, np.arange(-1073, 1024))))
    parts.append(_neighbours(10.0 ** np.arange(-30, 31), 3))
    # both ends of the range formatted in bulk, and where integers stop
    parts.append(_neighbours([1e-4, -1e-4, 1e15, -1e15, 1e16, -1e16], 40))
    parts.append([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                  math.nan, math.inf, -math.inf])
    return np.concatenate(parts)


def test_block_text_matches_format_number_on_a_million_values():
    values = _formatter_cases(np.random.default_rng(15))
    assert values.size >= 1_000_000
    got = b"\n".join(config_io._block_text([values[i : i + 4096]], "\n")
                     for i in range(0, values.size, 4096)).decode().split("\n")
    expected = [format_number(v) for v in values.tolist()]
    if got != expected:
        assert len(got) == len(expected)
        wrong = [(v, g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
        assert wrong[:5] == []


@pytest.mark.parametrize("value, text", [
    (12345 / 2**19, "0.023546218872070312"),  # ...0703125: the tie goes to even
    (0.3, "0.3"),
    (1e-4, "0.0001"),
    (-(0.1 + 0.2), "-0.30000000000000004"),  # 17 digits
    (2.0**-14, "6.103515625e-05"),
])
def test_block_text_named_cases(value, text):
    assert format_number(value) == text
    column = np.array([value, 1.5])
    assert config_io._block_text([column, column], " ") == f"{text},{text} 1.5,1.5".encode()


def _integral_columns(rng):
    """Integral columns, one of them mixed with fractions, and one of zeros."""
    integral = np.concatenate([
        np.arange(-1000.0, 1001.0),
        rng.integers(-(2**53), 2**53, 5000).astype(float),
        10.0 ** np.arange(16), -(10.0 ** np.arange(16)), 10.0 ** np.arange(16) - 1.0,
        np.ldexp(1.0, np.arange(54)), [9999999999999998.0, -9999999999999998.0, 1e16, -1e16],
    ])
    rng.shuffle(integral)
    mixed = integral.copy()
    mixed[::3] = rng.normal(size=mixed[::3].size) * 10.0 ** rng.integers(-3, 12, mixed[::3].size)
    mixed[1::7] = -0.0
    return integral, mixed, np.resize([0.0, -0.0, -0.0], 4096)


def test_block_text_formats_integral_columns_like_format_number():
    for column in _integral_columns(np.random.default_rng(28)):
        for i in range(0, column.size, 4096):
            block = column[i : i + 4096]
            text = config_io._block_text([block, -block], "\n").decode()
            expected = [f"{format_number(v)},{format_number(-v)}" for v in block.tolist()]
            assert text.split("\n") == expected


def test_export_csv_graph_rows(tmp_path):
    zipper, line = build_example1(Example1Config(p=0.3))
    product = product_zipper(zipper, line)
    polyline = refine(product, 0, line=line)  # the vertex polyline
    path = tmp_path / "graph.csv"
    export_csv(polyline, path)
    assert path.read_text() == "t,x1,x2\n0,0,0\n0.5,0.5,0.3\n1,1,1\n"


def test_export_csv_without_params(tmp_path):
    polyline = Polyline(points=np.array([[0.0, 1.0], [0.5, 0.25]]), mesh_bound=0.0)
    path = tmp_path / "plain.csv"
    export_csv(polyline, path)
    assert path.read_text() == "x1,x2\n0,1\n0.5,0.25\n"


def test_export_csv_unwritable_path(tmp_path):
    polyline = Polyline(points=np.zeros((2, 1)), mesh_bound=0.0)
    with pytest.raises(IOError):
        export_csv(polyline, tmp_path / "missing" / "file.csv")


def test_export_csv_deterministic(tmp_path):
    zipper, line = build_example1(Example1Config(p=0.3))
    product = product_zipper(zipper, line)
    polyline = refine(product, 6, line=line)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(polyline, first)
    export_csv(polyline, second)
    assert first.read_bytes() == second.read_bytes()


def test_export_svg_structure(tmp_path):
    zipper, line = build_example1(Example1Config(p=0.3))
    product = product_zipper(zipper, line)
    polyline = refine(product, 8, line=line)
    path = tmp_path / "curve.svg"
    export_svg(polyline, RenderSpec(), path)
    text = path.read_text()
    assert text.count("<polyline") == 1
    assert 'viewBox="0 0 800 600"' in text
    assert text.startswith('<?xml version="1.0"')
    # y axis is flipped: the attractor rises with t, so the svg y falls
    points = text.split('points="')[1].split('"')[0].split()
    first_y = float(points[0].split(",")[1])
    last_y = float(points[-1].split(",")[1])
    assert last_y < first_y


def test_export_svg_projection_of_three_axes(tmp_path):
    polyline = Polyline(points=np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]]), mesh_bound=0.0)
    export_svg(polyline, RenderSpec(projection=(0, 2)), tmp_path / "proj.svg")
    export_svg(polyline, RenderSpec(), tmp_path / "default.svg")  # first two axes


def test_export_svg_rejects_one_dimensional(tmp_path):
    polyline = Polyline(points=np.zeros((2, 1)), mesh_bound=0.0)
    with pytest.raises(DimensionUnsupported):
        export_svg(polyline, RenderSpec(), tmp_path / "bad.svg")


@pytest.mark.parametrize("shape", [(0, 2), (2, 0), (3,), (2, 2, 2)])
@pytest.mark.parametrize("kind", ["csv", "svg"])
def test_exports_reject_arrays_without_rows_and_columns(tmp_path, kind, shape):
    path = tmp_path / f"bad.{kind}"
    with pytest.raises(DimensionMismatch, match=f"got shape {re.escape(str(shape))}"):
        if kind == "csv":
            export_csv(np.zeros(shape), path)
        else:
            export_svg(np.zeros(shape), RenderSpec(), path)
    assert not path.exists()


def test_render_spec_validation():
    with pytest.raises(ValueError):
        RenderSpec(width=0)


@pytest.mark.parametrize("width", [math.nan, math.inf, -2.0])
def test_render_spec_rejects_bad_stroke_width(width):
    with pytest.raises(ValueError, match="stroke width"):
        RenderSpec(stroke_width=width)
    RenderSpec(stroke_width=0.0)  # a zero width is valid SVG


#: Values where the integer rule, the ``repr`` fallback and signed zero meet.
ADVERSARIAL = [
    0.0, -0.0, 1.0, -1.0, 1e15, 9999999999999998.0, 1e16, -1e16,
    5e-324, 1e-5, 0.1 + 0.2, math.nan, math.inf, -math.inf,
]


def _reference_csv(names, table):
    rows = [",".join(names)]
    rows += [",".join(format_number(v) for v in row) for row in table]
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("rows", [1, 4095, 4096, 4097, 8193])
def test_export_csv_matches_format_number(tmp_path, rows):
    rng = np.random.default_rng(rows)
    values = np.resize(ADVERSARIAL, rows)
    x2 = rng.permutation(values)
    # equal to its left neighbour in the first block only
    x3 = x2.copy()
    x3[4096:] = rng.normal(size=max(rows - 4096, 0))
    table = np.column_stack([values, x2, x3, rng.normal(size=rows) * 1e3])
    path = tmp_path / "rows.csv"
    export_csv(table, path)
    assert path.read_text() == _reference_csv(["x1", "x2", "x3", "x4"], table)


@pytest.mark.parametrize("rows", [2, 4097])
def test_export_csv_params_column_matches_format_number(tmp_path, rows):
    params = np.sort(np.resize(ADVERSARIAL[:11], rows))  # the finite values
    points = np.column_stack([params, np.resize(ADVERSARIAL, rows)])
    polyline = Polyline(points=points, mesh_bound=0.0, graph=True)
    path = tmp_path / "graph.csv"
    export_csv(polyline, path)
    expected = _reference_csv(["t", "x1", "x2"], np.column_stack([params, points]))
    assert path.read_text() == expected


def _reference_svg_points(xs, ys, spec):
    bounds, spans = [], []
    for coords in (xs, ys):
        low, high = float(coords.min()), float(coords.max())
        pad = 0.05 * (high - low)
        bounds.append(low - pad)
        spans.append(high - low + 2.0 * pad)
    px = (xs - bounds[0]) / spans[0] * spec.width
    py = spec.height - (ys - bounds[1]) / spans[1] * spec.height
    return " ".join(f"{format_number(x)},{format_number(y)}" for x, y in zip(px, py))


def test_export_svg_projection_matches_format_number(tmp_path):
    rng = np.random.default_rng(3)
    points = rng.normal(size=(4097, 3))
    points[::7, 2] = 0.25  # repeated and integral canvas coordinates
    spec = RenderSpec(projection=(0, 2))
    path = tmp_path / "proj.svg"
    export_svg(Polyline(points=points, mesh_bound=0.0), spec, path)
    expected = _reference_svg_points(points[:, 0], points[:, 2], spec)
    text = path.read_text()
    assert text.split('points="')[1].split('"')[0] == expected
    assert text.endswith('"/>\n</svg>\n')


def test_export_streams_in_bounded_memory(tmp_path):
    _assert_exports_stream(tmp_path)


@pytest.mark.parametrize("workers", [16, 32])
def test_export_memory_does_not_grow_with_the_cpu_count(tmp_path, monkeypatch, workers):
    # 17 blocks at depth 16, so 16 and 17 children: the parent must still
    # hold one block's text at a time, not one per child
    monkeypatch.setattr(config_io, "_usable_cpus", lambda: workers)
    _assert_exports_stream(tmp_path)


def _assert_exports_stream(tmp_path):
    zipper, line = build_example1(Example1Config(p=0.3))
    polyline = refine(product_zipper(zipper, line), 16, line=line)
    exports = {
        "curve.csv": lambda path: export_csv(polyline, path),
        "curve.svg": lambda path: export_svg(polyline, RenderSpec(), path),
    }
    for name, export in exports.items():
        path = tmp_path / name
        tracemalloc.start()
        try:
            export(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4, name


@pytest.fixture(params=[1, 2, 3])
def forks(request, monkeypatch):
    """Force the writer's worker count; returns a list that records each fork."""
    monkeypatch.setattr(config_io, "_usable_cpus", lambda: request.param)
    made = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return request.param, made


@pytest.mark.parametrize("rows", [1, 4095, 4096, 4097, 8193, 3 * 4096 + 1])
def test_forked_export_matches_format_number(tmp_path, forks, rows):
    workers, made = forks
    blocks = -(-rows // 4096)
    rng = np.random.default_rng(rows)
    table = np.column_stack([np.resize(ADVERSARIAL, rows), rng.normal(size=(rows, 2)) * 1e3])

    export_csv(table, tmp_path / "bare.csv")
    assert (tmp_path / "bare.csv").read_text() == _reference_csv(["x1", "x2", "x3"], table)

    table = table[np.arange(max(rows, 2)) % rows]  # a polyline has two points or more
    params = np.linspace(0.0, 1.0, len(table))
    graph = np.column_stack([params, table[:, 1:]])  # x1 repeats the t column
    export_csv(Polyline(points=graph, mesh_bound=0.0, graph=True), tmp_path / "graph.csv")
    expected = _reference_csv(["t", "x1", "x2", "x3"], np.column_stack([params, graph]))
    assert (tmp_path / "graph.csv").read_text() == expected

    points = rng.normal(size=(len(table), 3))
    points[::7, 2] = 0.25
    spec = RenderSpec(projection=(0, 2))
    export_svg(Polyline(points=points, mesh_bound=0.0), spec, tmp_path / "proj.svg")
    text = (tmp_path / "proj.svg").read_text()
    assert text.split('points="')[1].split('"')[0] == _reference_svg_points(
        points[:, 0], points[:, 2], spec)

    # below two workers the blocks are formatted in-process
    forked = min(workers, blocks)
    assert len(made) == (3 * forked if forked >= 2 else 0)


def test_forked_export_failure_raises_and_reaps(tmp_path, forks, monkeypatch):
    workers, _ = forks
    block_text = config_io._block_text

    def failing(columns, row_sep):
        if columns[0][0] == 2 * 4096:  # the third block
            raise RuntimeError("formatting failed")
        return block_text(columns, row_sep)

    monkeypatch.setattr(config_io, "_block_text", failing)
    table = np.arange(5 * 4096, dtype=float)[:, None]
    with pytest.raises(RuntimeError if workers == 1 else ChildProcessError):
        export_csv(table, tmp_path / "rows.csv")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child is left, not even a zombie


@pytest.mark.parametrize("workers", [2, 3])
def test_dead_worker_raises_child_process_error_and_reaps(tmp_path, kill_worker, workers):
    kill_worker(workers, lambda columns: columns[0][0] == 2 * 4096)  # the third block
    table = np.arange(5 * 4096, dtype=float)[:, None]
    with pytest.raises(ChildProcessError, match="row-formatting child stopped"):
        export_csv(table, tmp_path / "rows.csv")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _render_segments(depth):
    """The segment source of ``render --example1 p=0.3 --depth depth``."""
    zipper, line = build_example1(Example1Config(p=0.3))
    target = product_zipper(zipper, line)
    return Segments(target, refine(target, segment_level(target, depth), line=line), depth)


@pytest.mark.parametrize("depth", [10, 14])
def test_render_computes_each_segment_at_most_twice(tmp_path, monkeypatch, depth):
    monkeypatch.setattr(config_io, "_usable_cpus", lambda: 1)
    calls, sources = [], set()
    segment = Segments.__call__

    def counting(self, i):
        calls.append(i)
        sources.add(self)
        return segment(self, i)

    monkeypatch.setattr(Segments, "__call__", counting)
    argv = ["render", "--example1", "p=0.3", "--depth", str(depth),
            "--svg", str(tmp_path / "curve.svg"), "--csv", str(tmp_path / "curve.csv")]
    assert main(argv) == 0
    (source,) = sources
    assert source.count == 2 ** (depth - segment_level(source.zipper, depth))
    # one pass for the CSV, which records the bounding box, and one for the SVG
    assert sorted(calls) == sorted(2 * list(range(source.count)))


def test_render_exports_write_the_same_bytes_at_any_worker_count(tmp_path, monkeypatch):
    spec = RenderSpec(width=640, height=480)
    monkeypatch.setattr(config_io, "_usable_cpus", lambda: 1)
    export_svg(_render_segments(14), spec, tmp_path / "alone.svg")  # its own box pass
    expected = (tmp_path / "alone.svg").read_bytes()
    fork = os.fork
    for workers in (1, 2, 3):
        made = []

        def counting_fork():
            pid = fork()
            made.append(pid)
            return pid

        monkeypatch.setattr(config_io, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(os, "fork", counting_fork)
        segments = _render_segments(14)  # 8 segments
        export_csv(segments, tmp_path / f"{workers}.csv")
        assert segments.bounds is not None
        export_svg(segments, spec, tmp_path / f"{workers}.svg")
        assert (tmp_path / f"{workers}.svg").read_bytes() == expected
        assert (tmp_path / f"{workers}.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()
        assert len(made) == (2 * workers if workers >= 2 else 0)  # one round per file


def test_render_export_failure_raises_and_reaps(tmp_path, forks, monkeypatch):
    workers, _ = forks
    block_text = config_io._block_text

    def failing(columns, row_sep):
        if columns[0][0] > 0.5:  # a block of the second half
            raise RuntimeError("formatting failed")
        return block_text(columns, row_sep)

    monkeypatch.setattr(config_io, "_block_text", failing)
    segments = _render_segments(14)
    with pytest.raises(RuntimeError if workers == 1 else ChildProcessError):
        export_csv(segments, tmp_path / "curve.csv")
    assert segments.bounds is None  # a failed export records nothing
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child is left, not even a zombie


def _row_blocks(rows):
    """``(block, count)``: the 4096-row blocks of a 2-D array, ``block(i)``
    giving block i as a list of columns."""
    return (lambda i: list(rows[4096 * i : 4096 * (i + 1)].T)), -(-len(rows) // 4096)


def test_interrupted_export_reaps_its_children(monkeypatch):
    monkeypatch.setattr(config_io, "_usable_cpus", lambda: 2)

    class Interrupted:
        """A file whose third write is interrupted."""

        writes = 0

        def write(self, data):
            self.writes += 1
            if self.writes == 3:
                raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        config_io._write_rows(Interrupted(), *_row_blocks(np.zeros((5 * 4096, 1))), "\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_each_block_reaches_the_parent_before_the_next_is_formatted(monkeypatch):
    monkeypatch.setattr(config_io, "_usable_cpus", lambda: 2)
    block_text = config_io._block_text

    def stalling(columns, row_sep):
        if columns[0][0] >= 2 * 4096:  # each child stalls on its second block
            time.sleep(30.0)
        return block_text(columns, row_sep)

    class TwoBlocks:
        """A file that stops the export once it has the first two blocks."""

        writes = 0

        def write(self, data):
            self.writes += 1
            if self.writes == 3:
                raise KeyboardInterrupt

    monkeypatch.setattr(config_io, "_block_text", stalling)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        config_io._write_rows(TwoBlocks(), *_row_blocks(np.arange(5.0 * 4096)[:, None]), "\n")
    # a block's last record left in a child's write buffer would wait 30 s
    assert time.monotonic() - start < 15.0


def test_slow_writes_keep_blocks_in_flight_bounded(monkeypatch):
    monkeypatch.setattr(config_io, "_usable_cpus", lambda: 2)
    rows = np.random.default_rng(0).normal(size=(24 * 4096, 4))

    class SlowFile:
        """A file whose first write of rows takes a second, time enough for
        the children to format all the rest if nothing stalled them."""

        slow = True

        def write(self, data):
            if self.slow and len(data) > 1:
                self.slow = False
                time.sleep(1.0)

    tracemalloc.start()
    try:
        config_io._write_rows(SlowFile(), *_row_blocks(rows), "\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a full pipe stalls its child, so the parent holds about one block's
    # text at a time; unbounded, all 24 would pile up
    block = _row_blocks(rows)[0](0)
    assert peak < 3 * len(config_io._block_text(block, "\n"))


#: Exports with two children that format slowly, writes their pids to the
#: file named by argv[1] once both exist, and then kills its own process.
KILLED_EXPORTER = """
import os, signal, sys, threading, time
import numpy as np
from zipperlift import config_io

block_text, fork, pids = config_io._block_text, os.fork, []

def recording_fork():
    pid = fork()
    if pid:
        pids.append(pid)
    return pid

def kill_self():
    while len(pids) < 2:
        time.sleep(0.01)
    with open(sys.argv[1], "w") as out:
        out.write(" ".join(map(str, pids)))
    os.kill(os.getpid(), signal.SIGKILL)

os.fork = recording_fork
config_io._usable_cpus = lambda: 2
config_io._block_text = lambda columns, row_sep: (time.sleep(0.2), block_text(columns, row_sep))[1]
threading.Thread(target=kill_self, daemon=True).start()
config_io.export_csv(np.zeros((40 * 4096, 1)), os.devnull)
"""


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_children_end_when_the_exporting_process_is_killed(tmp_path):
    src = str(Path(config_io.__file__).resolve().parents[1])
    pid_file = tmp_path / "children.txt"
    code = subprocess.run(
        [sys.executable, "-c", KILLED_EXPORTER, str(pid_file)],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, timeout=60,
    ).returncode
    assert code == -signal.SIGKILL
    pids = [int(pid) for pid in pid_file.read_text().split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 10.0
    try:
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, pids))  # each died writing to its closed pipe
    finally:
        for pid in filter(_alive, pids):
            os.kill(pid, signal.SIGKILL)
