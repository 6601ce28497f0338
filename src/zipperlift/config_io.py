"""Config parsing and result serialization: JSON in, CSV/SVG out.

One strict JSON schema carries zipper systems in and out of the package:

    {
      "dimension": n,
      "maps": [{"linear": n x n rows, "translation": n numbers}, ...],
      "vertices": m+1 rows of n numbers,
      "signature": m zeros/ones,
      "lineNodes": m+1 numbers (optional; defaults to uniform)
    }

Unknown keys are rejected with a :class:`ParseError` naming the key, and
wrong shapes or non-finite numbers (``NaN``, ``Infinity``, ``1e400``) with
a :class:`ShapeError` naming the field, so a config that loads is a config
that means what it says.  Lifted systems serialize to the same schema,
which is what lets the lift output feed back into every other command.
All emitters write deterministic bytes.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .attractor import DEPTH_CAP, Segments
from .errors import DimensionUnsupported, ParseError, ShapeError, ZipperViolation
from .geometry import AffineMap
from .zipper import line_zipper, validate_zipper

#: Top-level schema: required keys and the one optional key.
_REQUIRED_KEYS = ("dimension", "maps", "vertices", "signature")
_OPTIONAL_KEYS = ("lineNodes",)


@dataclass(frozen=True, eq=False)
class ZipperConfig:
    """Parsed zipper description, shape-checked but not yet validated."""

    dimension: int
    maps: tuple[AffineMap, ...]
    vertices: np.ndarray
    signature: tuple[int, ...]
    line_nodes: np.ndarray | None = None


def _number(value, field):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ShapeError(field, f"field {field!r} must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ShapeError(field, f"field {field!r} must hold finite numbers")
    return value


def _number_list(value, field, length=None):
    if not isinstance(value, list):
        raise ShapeError(field, f"field {field!r} must be an array of numbers")
    if length is not None and len(value) != length:
        raise ShapeError(field, f"field {field!r} must have length {length}")
    return [_number(v, field) for v in value]


def _matrix(value, field, dim):
    if not isinstance(value, list) or len(value) != dim:
        raise ShapeError(field, f"field {field!r} must be {dim} rows of {dim} numbers")
    return [_number_list(row, field, dim) for row in value]


def parse_config(text):
    """Parse strict JSON config text into a :class:`ZipperConfig`.

    Raises :class:`ParseError` (with line and column) for malformed JSON or
    unknown keys, and :class:`ShapeError` naming the offending field for
    shape or type problems and for non-finite numbers.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(raw, dict):
        raise ShapeError("<root>", "config must be a JSON object")
    allowed = set(_REQUIRED_KEYS) | set(_OPTIONAL_KEYS)
    for key in raw:
        if key not in allowed:
            raise ParseError(f"unknown key {key!r}")
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ShapeError(key, f"missing required field {key!r}")

    dimension = raw["dimension"]
    if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 1:
        raise ShapeError("dimension", "field 'dimension' must be a positive integer")

    raw_maps = raw["maps"]
    if not isinstance(raw_maps, list) or not raw_maps:
        raise ShapeError("maps", "field 'maps' must be a nonempty array")
    maps = []
    for k, entry in enumerate(raw_maps):
        field = f"maps[{k}]"
        if not isinstance(entry, dict):
            raise ShapeError(field, f"field {field!r} must be an object")
        for key in entry:
            if key not in ("linear", "translation"):
                raise ParseError(f"unknown key {key!r} in {field}")
        if "linear" not in entry or "translation" not in entry:
            raise ShapeError(field, f"field {field!r} needs 'linear' and 'translation'")
        linear = _matrix(entry["linear"], f"{field}.linear", dimension)
        translation = _number_list(entry["translation"], f"{field}.translation", dimension)
        maps.append(AffineMap(linear, translation))
    count = len(maps)

    raw_vertices = raw["vertices"]
    if not isinstance(raw_vertices, list) or len(raw_vertices) != count + 1:
        raise ShapeError("vertices", f"field 'vertices' must have {count + 1} rows")
    vertices = np.array(
        [_number_list(row, f"vertices[{k}]", dimension) for k, row in enumerate(raw_vertices)]
    )

    raw_signature = raw["signature"]
    if not isinstance(raw_signature, list) or len(raw_signature) != count:
        raise ShapeError("signature", f"field 'signature' must have length {count}")
    signature = []
    for bit in raw_signature:
        if isinstance(bit, bool) or not isinstance(bit, int) or bit not in (0, 1):
            raise ShapeError("signature", "field 'signature' entries must be 0 or 1")
        signature.append(bit)

    line_nodes = None
    if "lineNodes" in raw:
        line_nodes = np.array(_number_list(raw["lineNodes"], "lineNodes", count + 1))
        line_nodes.setflags(write=False)

    vertices.setflags(write=False)
    return ZipperConfig(
        dimension=dimension,
        maps=tuple(maps),
        vertices=vertices,
        signature=tuple(signature),
        line_nodes=line_nodes,
    )


def config_to_json(config):
    """Serialize a config to canonical JSON text (round-trips exactly)."""
    payload = {
        "dimension": config.dimension,
        "maps": [
            {
                "linear": [[float(v) for v in row] for row in mp.linear],
                "translation": [float(v) for v in mp.translation],
            }
            for mp in config.maps
        ],
        "vertices": [[float(v) for v in row] for row in config.vertices],
        "signature": list(config.signature),
    }
    if config.line_nodes is not None:
        payload["lineNodes"] = [float(v) for v in config.line_nodes]
    return json.dumps(payload, indent=2) + "\n"


def config_from_system(zipper, line=None):
    """Describe a validated zipper (and optionally its line nodes) as a config."""
    return ZipperConfig(
        dimension=zipper.dimension,
        maps=zipper.maps,
        vertices=zipper.vertices,
        signature=zipper.signature,
        line_nodes=None if line is None else line.nodes,
    )


def build_system(config):
    """Validate a parsed config into a (Zipper, LineZipper) pair.

    Tries per-map contraction first and falls back to the eventual mode,
    so lifted systems load through the same path; the chosen mode is
    recorded on the returned zipper.  Line nodes default to a uniform split.
    """
    try:
        zipper = validate_zipper(config.maps, config.vertices, config.signature)
    except ZipperViolation as exc:
        report = exc.report
        if report is None or any(
            v.condition != "contraction" for v in report.violations
        ):
            raise
        zipper = validate_zipper(
            config.maps, config.vertices, config.signature, contraction="eventual",
        )
    count = len(config.maps)
    nodes = (
        np.linspace(0.0, 1.0, count + 1)
        if config.line_nodes is None
        else config.line_nodes
    )
    return zipper, line_zipper(nodes, config.signature)


def format_number(value):
    """Shortest decimal that round-trips to the same float.

    Integral values below 1e16 in magnitude, ``-0.0`` included, print as
    integers; everything else prints as ``repr``.  The CSV/SVG row writer
    applies exactly this rule to whole columns at once.
    """
    value = float(value)
    if value == 0.0:
        return "0"
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


#: Rows formatted and written per block.  It bounds the text and the string
#: objects alive at once, independent of the polyline's length.
_BLOCK_ROWS = 4096


def _column_text(values):
    """:func:`format_number` of every entry of a 1-D float array."""
    floats = values.tolist()
    text = list(map(repr, floats))
    integral = (values == np.trunc(values)) & (np.abs(values) < 1e16)
    for k in np.flatnonzero(integral).tolist():
        text[k] = str(int(floats[k]))
    return text


def _block_text(columns, row_sep):
    """One block of rows: entries joined by commas, rows by ``row_sep``.

    A column bitwise equal to its left neighbour reuses the neighbour's
    strings instead of formatting them again.
    """
    texts = []
    for j, column in enumerate(columns):
        if j and np.array_equal(column.view(np.int64), columns[j - 1].view(np.int64)):
            texts.append(texts[-1])
        else:
            texts.append(_column_text(column))
    width = 2 * len(texts)
    parts = [","] * (width * len(texts[0]))
    for j, text in enumerate(texts):
        parts[2 * j :: width] = text
    parts[width - 1 :: width] = [row_sep] * len(texts[0])
    parts[-1] = ""
    return "".join(parts)


def _usable_cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _read_record(reader):
    """One length-prefixed record from a formatting child's pipe."""
    head = reader.read(8)
    if len(head) == 8:
        size = int.from_bytes(head, "little")
        text = reader.read(size)
        if len(text) == size:
            return text
    raise ChildProcessError("a row-formatting child stopped before its last block")


def _format_share(block, indices, row_sep, out_fd, readers):
    """Forked child: send the text of each block ``block(i)``, ``i`` in
    ``indices``, to ``out_fd``, then exit.

    Each block goes out as an 8-byte little-endian length and its UTF-8
    text.  The child first closes its copies of the read ends, so that its
    writes fail, and it exits, once the parent is gone.  It never returns
    into its parent's stack: it leaves by ``os._exit`` whatever happens,
    after printing any error to stderr.
    """
    try:
        for reader in readers:
            reader.close()
        with open(out_fd, "wb") as out:
            for i in indices:
                text = _block_text(block(i), row_sep).encode()
                out.write(len(text).to_bytes(8, "little"))
                out.write(text)
    except BaseException:
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
        os._exit(1)
    os._exit(0)


@contextmanager
def _block_texts(block, count, row_sep):
    """Yield an iterator over the UTF-8 text of blocks ``block(0)`` to
    ``block(count - 1)``.

    With ``k = min(usable CPUs, count) >= 2`` and ``os.fork`` available,
    forked child ``j`` computes and formats blocks ``i = j (mod k)`` only,
    and writes them to its own pipe, which the iterator reads round-robin
    in block order.  A full pipe stalls its child, so
    memory stays bounded.  Otherwise the blocks are formatted in-process.
    The bytes are the same either way.  Every child is reaped on exit; one
    that failed, or stopped early, raises :class:`ChildProcessError`.
    """
    workers = min(_usable_cpus(), count) if hasattr(os, "fork") else 1
    if workers < 2:
        yield (_block_text(block(i), row_sep).encode() for i in range(count))
        return
    pids, readers = [], []
    try:
        for share in range(workers):
            read_end, write_end = os.pipe()
            readers.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _format_share(block, range(share, count, workers), row_sep,
                                  write_end, readers)
            finally:
                os.close(write_end)
            pids.append(pid)
        yield (_read_record(readers[i % workers]) for i in range(count))
    except BaseException:
        # Children still formatting are stopped, not left to find their pipe
        # closed.  signal is imported here, not at module level, because
        # every CLI command imports this module and only this path needs it.
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for reader in readers:
            reader.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(codes):
        raise ChildProcessError(f"row-formatting children exited with status {codes}")


def _write_rows(handle, block, count, row_sep):
    """Write float rows to a binary file as UTF-8 text, block by block.

    ``block(i)`` gives block ``i`` of ``count`` as a list of equal-length
    1-D float columns.  Rows are separated by ``row_sep``, with none after
    the last row.  Only a few blocks' strings are alive at a time.
    """
    lead, sep = b"", row_sep.encode()
    with _block_texts(block, count, row_sep) as texts:
        for text in texts:
            handle.write(lead)
            handle.write(text)
            lead = sep


def _row_blocks(data):
    """``(block, count)``: the rows of ``data`` as ``count`` blocks, where
    ``block(i)`` gives block i's points and params (None without a ``t``
    column).

    ``data`` is a segment source (:class:`~zipperlift.attractor.Segments`),
    whose blocks are its segments, or a polyline or an ``(N, d)`` array of
    points, cut into ``_BLOCK_ROWS``-row blocks.
    """
    if isinstance(data, Segments):
        return data, data.count
    if isinstance(data, np.ndarray):
        points, params = np.asarray(data, dtype=float), None
    else:
        points, params = data.points, data.params

    def block(i):
        rows = slice(i * _BLOCK_ROWS, (i + 1) * _BLOCK_ROWS)
        return points[rows], None if params is None else params[rows]

    return block, -(-points.shape[0] // _BLOCK_ROWS)


def export_csv(data, path):
    """Write a polyline, a segment source or an ``(N, d)`` array of points
    as CSV.

    The header is ``t,x1,...,xd``; the ``t`` column is present exactly when
    ``data`` carries parameters.  Numbers use shortest round-trip decimals
    (:func:`format_number`) and rows end with a bare newline, so identical
    input gives identical bytes.  Rows are written in blocks, so memory
    stays bounded whatever the row count, and the blocks are computed and
    formatted on every CPU the process may use.
    """
    rows, count = _row_blocks(data)
    points, params = rows(0)
    names = [f"x{j + 1}" for j in range(points.shape[1])]
    if params is not None:
        names.insert(0, "t")

    def block(i):
        points, params = rows(i)
        columns = [points[:, j] for j in range(points.shape[1])]
        return columns if params is None else [params] + columns

    with open(path, "wb") as handle:
        handle.write((",".join(names) + "\n").encode())
        _write_rows(handle, block, count, "\n")
        handle.write(b"\n")


@dataclass(frozen=True)
class RenderSpec:
    """How to draw a polyline: subdivision depth, canvas, projection."""

    depth: int = 12
    width: int = 800
    height: int = 600
    stroke_width: float = 1.0
    projection: tuple[int, int] | None = None

    def __post_init__(self):
        if self.depth > DEPTH_CAP or self.depth < 0:
            raise ValueError(f"depth must lie in 0..{DEPTH_CAP}, got {self.depth}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("canvas dimensions must be positive")
        if not (math.isfinite(self.stroke_width) and self.stroke_width >= 0.0):
            raise ValueError(f"stroke width must be finite and >= 0, got {self.stroke_width}")


def _projected_axes(dim, projection):
    if projection is not None:
        if len(projection) != 2 or any(not 0 <= a < dim for a in projection):
            raise DimensionUnsupported(
                f"projection {projection} does not select two axes of R^{dim}"
            )
        return tuple(projection)
    if dim in (2, 3):
        return (0, 1)
    raise DimensionUnsupported(
        f"cannot draw {dim}-dimensional data without a two-axis projection"
    )


def export_svg(data, spec, path):
    """Write a polyline or a segment source as a single-element SVG document.

    The drawing fits the data bounding box with a 5% margin and flips the
    vertical axis into mathematical orientation.  Output bytes are
    deterministic for identical input, and the points are written in blocks
    like CSV rows.
    """
    rows, count = _row_blocks(data)
    axes = _projected_axes(rows(0)[0].shape[1], spec.projection)
    low, high = np.full(2, np.inf), np.full(2, -np.inf)
    for i in range(count):
        coords = rows(i)[0][:, axes]
        low = np.minimum(low, coords.min(axis=0))
        high = np.maximum(high, coords.max(axis=0))
    spans = []
    bounds = []
    for low_j, high_j in zip(low.tolist(), high.tolist()):
        span = high_j - low_j
        pad = 0.05 * span if span > 0.0 else 0.5
        bounds.append((low_j - pad, high_j + pad))
        spans.append(span + 2.0 * pad)

    def block(i):
        points = rows(i)[0]
        return [
            (points[:, axes[0]] - bounds[0][0]) / spans[0] * spec.width,
            spec.height - (points[:, axes[1]] - bounds[1][0]) / spans[1] * spec.height,
        ]

    with open(path, "wb") as handle:
        handle.write((
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
            f'height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}">\n'
            f'  <polyline fill="none" stroke="black" '
            f'stroke-width="{format_number(spec.stroke_width)}" points="'
        ).encode())
        _write_rows(handle, block, count, " ")
        handle.write(b'"/>\n</svg>\n')
