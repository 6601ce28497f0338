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

import functools
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .attractor import SEGMENT_ROWS, Polyline, Segments
from .errors import DimensionMismatch, DimensionUnsupported, ParseError, ShapeError
from .zipper import line_zipper, validate_zipper

#: Top-level schema: required keys and the one optional key.
_REQUIRED_KEYS = ("dimension", "maps", "vertices", "signature")
_OPTIONAL_KEYS = ("lineNodes",)


@dataclass(frozen=True, eq=False)
class ZipperConfig:
    """Parsed zipper description, shape-checked but not yet validated."""

    dimension: int
    linears: np.ndarray  # (m, n, n)
    translations: np.ndarray  # (m, n)
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


def _unique_keys(pairs):
    """A JSON object as a dict, raising :class:`ParseError` on a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def parse_config(text):
    """Parse strict JSON config text into a :class:`ZipperConfig`.

    Raises :class:`ParseError` (with line and column) for malformed JSON,
    and for JSON nested past the recursion limit or unknown or repeated
    keys, and :class:`ShapeError` naming the offending field for shape or
    type problems and for non-finite numbers.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
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
    linears, translations = [], []
    for k, entry in enumerate(raw_maps):
        field = f"maps[{k}]"
        if not isinstance(entry, dict):
            raise ShapeError(field, f"field {field!r} must be an object")
        for key in entry:
            if key not in ("linear", "translation"):
                raise ParseError(f"unknown key {key!r} in {field}")
        if "linear" not in entry or "translation" not in entry:
            raise ShapeError(field, f"field {field!r} needs 'linear' and 'translation'")
        linears.append(_matrix(entry["linear"], f"{field}.linear", dimension))
        translations.append(
            _number_list(entry["translation"], f"{field}.translation", dimension)
        )
    count = len(linears)

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

    linears, translations = np.array(linears), np.array(translations)
    for array in (linears, translations, vertices):
        array.setflags(write=False)
    return ZipperConfig(
        dimension=dimension,
        linears=linears,
        translations=translations,
        vertices=vertices,
        signature=tuple(signature),
        line_nodes=line_nodes,
    )


def config_to_json(config):
    """Serialize a config to canonical JSON text (round-trips exactly)."""
    payload = {
        "dimension": config.dimension,
        "maps": [{"linear": linear.tolist(), "translation": translation.tolist()}
                 for linear, translation in zip(config.linears, config.translations)],
        "vertices": [[float(v) for v in row] for row in config.vertices],
        "signature": list(config.signature),
    }
    if config.line_nodes is not None:
        payload["lineNodes"] = [float(v) for v in config.line_nodes]
    return json.dumps(payload, indent=2) + "\n"


def config_from_system(zipper, line):
    """Describe a validated zipper and its line nodes as a config."""
    return ZipperConfig(
        dimension=zipper.dimension,
        linears=zipper.linears,
        translations=zipper.translations,
        vertices=zipper.vertices,
        signature=zipper.signature,
        line_nodes=line.nodes,
    )


def build_system(config):
    """Validate a parsed config into a (zipper, line zipper) pair.

    Validation derives the contraction mode, so lifted systems load through
    the same path.  Line nodes default to a uniform split.
    """
    zipper = validate_zipper(config.linears, config.translations, config.vertices,
                             config.signature)
    count = len(config.linears)
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


#: Rows formatted and written per block.  It bounds the text and the arrays
#: alive at once, independent of the polyline's length.  A segment, less
#: the junction row it shares with its neighbour, fills at most one block.
_BLOCK_ROWS = SEGMENT_ROWS - 1

#: An entry's text is right-aligned in a frame of this many bytes; the first
#: 4 bytes are never text, room for the separator before it.
_FRAME = 28
#: ``_DIGITS[v]``: ``v`` in 0..9999 as one word of 4 ASCII digits.
_DIGITS = (np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
           % 10 + 48).astype(np.uint8).view(np.uint32).ravel()
_POW5 = np.array([5.0**k for k in range(23)])  # exact doubles
#: ``_MODULI[places + 1]``: the part of the digits after the point; -1
#: places, an integral entry, keeps every digit before it.
_MODULI = np.array([10**18] + [10 ** min(k, 18) for k in range(21)])
#: An entry's decimal places run from -1, none, to 20.
_PLACES = 22


def _two_product(a, b):
    """``(p, e)`` with ``p = fl(a*b)`` and ``a*b == p + e`` exactly (Dekker)."""
    halves = []
    for x in (a, b):  # Veltkamp's split into 26-bit halves
        high = x * 134217729.0
        high -= high - x
        halves += [high, x - high]
    a1, a2, b1, b2 = halves
    product = a * b
    return product, (((a1 * b1 - product) + a1 * b2) + a2 * b1) + a2 * b2


def _shortest_digits(ax, s):
    """``(digits, places, exact)``: where ``exact`` and ``ax`` is not a
    power of two, ``digits / 10^places`` is the shortest decimal that reads
    back as ``ax``, nearest to it, ties to an even last digit as in
    CPython's dtoa (Steele & White 1990).

    ``ax`` holds positive doubles, and ``exact`` says where ``ax 10^s``
    lies in [1e17, 1e18).  Every step is exact: with ``ax = M 2^E``, the
    interval ``ax ± ulp/2`` scaled by ``10^s`` is 11 to 222 wide, and its
    ends come from the product ``M 5^s``.
    """
    significand, shift = np.frexp(ax)
    shift += s - 53
    five = _POW5[s]
    product, frac = _two_product(significand * 2.0**53, five)
    # ax 10^s == (product + frac) 2^shift == whole + frac, frac in [0, 1)
    frac = np.ldexp(frac, shift)
    whole = np.floor(frac)
    frac -= whole
    whole = whole.astype(np.int64) + np.ldexp(product, shift).astype(np.int64)
    # the half-width is half + half_frac; an odd M leaves the interval open
    half = np.ldexp(five, shift - 1)
    half_frac = half - np.floor(half)
    half = half.astype(np.int64)
    odd = (ax.view(np.int64) & 1).astype(bool)
    low = whole - half + ((frac > half_frac) | (odd & (frac == half_frac)))
    top = frac + half_frac
    high = whole + half + (top >= 1.0) - (odd & ((top == 0.0) | (top == 1.0)))
    # [low, high] holds a multiple of 10, maybe one of 100, and at most one
    # of 1000.  The shortest digits drop k = 1 or 2 of whole's 18: the
    # multiple of 10^k nearest ax 10^s (ties to even) kept in the interval ...
    tens = whole // 10
    hundreds = high // 100 * 100 >= low
    digits = np.where(hundreds, tens // 10, tens)
    step = np.where(hundreds, 100, 10)
    above = (2 * (whole - digits * step) - step).astype(float) + 2.0 * frac
    digits += (above > 0.0) | ((above == 0.0) & (digits & 1).astype(bool))
    scaled = digits * step
    digits += (scaled < low).view(np.int8) - (scaled > high).view(np.int8)
    places = s - 1 - hundreds
    # ... or at that multiple of 1000, stripped of its trailing zeros
    thousands = high // 1000
    rows = np.flatnonzero(thousands * 1000 >= low)
    if rows.size:
        tail, places_tail = thousands[rows], s[rows] - 3
        for k in (8, 4, 2, 1):
            cut = tail // 10**k
            drop = cut * 10**k == tail
            tail = np.where(drop, cut, tail)
            places_tail -= k * drop
        digits[rows], places[rows] = tail, places_tail
    return digits, places, (whole >= 10**17) & (whole < 10**18)


def _column_frames(values):
    """:func:`format_number` of a 1-D float array as ``(frames, marks,
    start)``, for :func:`_block_text`.

    Row ``i`` of the ``(N, _FRAME / 4)`` uint32 array ``frames`` holds entry
    ``i``'s text in ASCII from byte ``start[i]`` on, '0' bytes before it,
    and '0' where its point or sign go.  ``marks[i]`` indexes the table
    that puts them in.  Integral entries below 1e16 and non-integral ones
    with ``1e-4 <= |x| < 1e15`` (``repr``'s fixed notation) are formatted at
    once.  The rest and non-integral powers of two, whose rounding interval
    is lopsided, go one by one: about 0.1% of the presets' entries.
    """
    absv = np.abs(values)
    ax = np.where(absv < 1e16, absv, 1e-300)  # NaN and the too-large go slow
    integral = ax == np.trunc(ax)
    power_of_two = ax.view(np.int64) << 12 == 0  # no fraction bits
    fast = integral | (ax >= 1e-4) & (ax < 1e15) & ~power_of_two
    ax = np.where(fast & (ax != 0.0), ax, 1.0)  # a harmless stand-in for the rest
    s = 17 - np.floor(np.log10(ax)).astype(np.int64)
    digits, places, exact = _shortest_digits(ax, s)
    fast &= exact
    digits[integral] = absv[integral]
    places[integral] = -1
    negative = np.signbit(values) & (absv != 0.0)
    start = _FRAME - 2 - places - np.maximum(17 - s, 0) - negative
    # a 0 put in `places` digits from the right becomes the point: "0.ddd" below 1
    digits = 10 * digits - 9 * (digits % _MODULI[places + 1])
    frames = np.full((len(values), _FRAME // 4), _DIGITS[0])
    high = digits // 10**8  # a scalar // is numpy's fast one
    low = digits - high * 10**8
    top = high // 10**8
    frames[:, 2] = _DIGITS.take(top)
    for w, part in ((3, high - top * 10**8), (5, low)):
        quotient = part // 10000
        frames[:, w] = _DIGITS.take(quotient)
        frames[:, w + 1] = _DIGITS.take(part - quotient * 10000)
    marks = start + (_FRAME + 1) * (places + 1 + _PLACES * negative)
    rows = np.flatnonzero(~fast)
    if rows.size:
        texts = [format_number(value).encode() for value in values[rows].tolist()]
        start[rows] = marks[rows] = [_FRAME - len(text) for text in texts]
        frames[rows] = np.frombuffer(b"".join(t.rjust(_FRAME, b"0") for t in texts),
                                     np.uint32).reshape(-1, _FRAME // 4)
    return frames, marks, start


@functools.cache
def _mark_table(sep):
    """Row ``m`` XORed onto a frame with marks ``m`` turns the '0' bytes
    before its text into NULs, the one just before into ``sep``, and puts
    in its sign and point."""
    negative, places, start, byte = np.ogrid[:2, -1:_PLACES - 1, :_FRAME + 1, :_FRAME]
    zero = ord("0")
    table = ((byte < start - 1) * zero + (byte == start - 1) * (zero ^ ord(sep))
             + (negative & (byte == start)) * (zero ^ ord("-"))
             + ((places >= 0) & (byte == _FRAME - 1 - places)) * (zero ^ ord(".")))
    table = table.astype(np.uint8).reshape(-1, _FRAME).view(np.uint32)
    table.setflags(write=False)
    return table


def _block_text(columns, row_sep):
    """One block of rows as ASCII bytes: entries joined by commas, rows by
    ``row_sep``, a single character.

    A column that is its left neighbour (``is``) reuses the neighbour's
    frames instead of formatting them again.  Each column takes the bytes
    its widest entry and separator need; the NULs left are deleted.
    """
    parts = []
    for j, column in enumerate(columns):
        if j and column is columns[j - 1]:
            parts.append(parts[-1])
        else:
            parts.append(_column_frames(column))
    widths = [_FRAME + 1 - int(start.min()) for _, _, start in parts]
    text = bytearray(len(columns[0]) * sum(widths))
    rows = np.frombuffer(text, np.uint8).reshape(len(columns[0]), -1)
    offset = 0
    for j, ((frames, marks, _), width) in enumerate(zip(parts, widths)):
        frames = frames ^ _mark_table("," if j else row_sep).take(marks, axis=0)
        kind = f"V{width}"  # whole entries at a time, not byte by byte
        rows[:, offset:offset + width].view(kind)[...] = (
            frames.view(np.uint8)[:, _FRAME - width:].view(kind))
        offset += width
    start = parts[0][2]
    rows[0, start[0] - start.min()] = 0  # nothing before the first row
    return text.translate(None, b"\0")


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


def _format_share(texts, indices, out_fd, readers):
    """Forked child: send the pair of texts ``texts(i)`` of each block
    ``i`` in ``indices`` to ``out_fd``, then exit.

    Each text goes out as an 8-byte little-endian length and its bytes.
    The child first closes its copies of the read ends, so that its
    writes fail, and it exits, once the parent is gone.  It never returns
    into its parent's stack: it leaves by ``os._exit`` whatever happens,
    after printing any error to stderr.
    """
    try:
        # Freeing one 8 MB array raises glibc's mmap and trim thresholds to 8
        # and 16 MB.  Then the blocks' buffers of a few hundred kB stay in
        # the heap rather than go back to the system and fault in again for
        # every block: a tenth of the page faults of a child without it.
        np.empty(1 << 20)
        for reader in readers:
            reader.close()
        with open(out_fd, "wb") as out:
            for i in indices:
                for text in texts(i):
                    out.write(len(text).to_bytes(8, "little"))
                    out.write(text)
                out.flush()  # the parent waits for each whole block
    except BaseException:
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
        os._exit(1)
    os._exit(0)


@contextmanager
def _block_texts(texts, count):
    """Yield an iterator over the pairs of byte strings ``texts(0)`` to
    ``texts(count - 1)``.

    With ``k = min(usable CPUs, count) >= 2`` and ``os.fork`` available,
    forked child ``j`` computes and formats blocks ``i = j (mod k)`` only,
    and writes them to its own pipe, which the iterator reads round-robin
    in block order.  A full pipe stalls its child, so memory stays bounded.
    Otherwise the blocks are formatted in-process.  The bytes are the same
    either way.  Every child is reaped on exit; one that failed, or
    stopped early, raises :class:`ChildProcessError`.
    """
    workers = min(_usable_cpus(), count) if hasattr(os, "fork") else 1
    if workers < 2:
        yield (texts(i) for i in range(count))
        return
    pids, readers = [], []
    try:
        for share in range(workers):
            read_end, write_end = os.pipe()
            readers.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _format_share(texts, range(share, count, workers), write_end, readers)
            finally:
                os.close(write_end)
            pids.append(pid)
        yield ((_read_record(readers[i % workers]), _read_record(readers[i % workers]))
               for i in range(count))
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
    """Write float rows to a binary file as UTF-8 text, block by block, and
    return the least and the greatest entry of each column.

    ``block(i)`` gives block ``i`` of ``count`` as a list of equal-length
    1-D float columns.  Rows are separated by ``row_sep``, with none after
    the last row.  Only a few blocks' strings are alive at a time.
    """
    def texts(i):
        columns = block(i)
        extents = [[column.min() for column in columns], [column.max() for column in columns]]
        return _block_text(columns, row_sep), np.array(extents).tobytes()

    sep, low, high = row_sep.encode(), np.inf, -np.inf
    with _block_texts(texts, count) as records:
        for i, (text, extents) in enumerate(records):
            if i:
                handle.write(sep)
            handle.write(text)
            extents = np.frombuffer(extents).reshape(2, -1)
            low, high = np.minimum(low, extents[0]), np.maximum(high, extents[1])
    return low, high


def _row_blocks(data):
    """``(block, count, dimension, graph)``: the rows of ``data`` in
    ``dimension`` coordinates as ``count`` blocks, where ``block(i)`` gives
    block i's points, whose first coordinate is the parameter ``t`` when
    ``graph``.  ``data`` is a segment source, whose blocks are its
    segments, or a polyline or an ``(N, d)`` array of points, cut into
    ``_BLOCK_ROWS``-row blocks; an array without rows or columns raises
    :class:`DimensionMismatch`.
    """
    if isinstance(data, Segments):
        return data, data.count, data.base.points.shape[1], data.base.graph
    points, graph = (data.points, data.graph) if isinstance(data, Polyline) else (data, False)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or 0 in points.shape:
        raise DimensionMismatch(f"expected an (N, d) array of points, got shape {points.shape}")

    def block(i):
        return points[i * _BLOCK_ROWS:(i + 1) * _BLOCK_ROWS]

    return block, -(-points.shape[0] // _BLOCK_ROWS), points.shape[1], graph


def export_csv(data, path):
    """Write a polyline, a segment source or an ``(N, d)`` array of points
    as CSV.

    The header is ``t,x1,...,xd``; the ``t`` column, a copy of ``x1``, is
    present exactly when ``data`` is a graph.  Numbers use shortest
    round-trip decimals (:func:`format_number`) and rows end with a bare
    newline, so identical input gives identical bytes.  Rows are written
    in blocks, so memory stays bounded whatever the row count, and the
    blocks are computed and formatted on every CPU the process may use.  A segment source keeps
    the bounding box of its points (:attr:`Segments.bounds`), so that an
    SVG export after this one computes each segment once, not twice.
    """
    rows, count, dimension, graph = _row_blocks(data)
    names = [f"x{j + 1}" for j in range(dimension)]
    if graph:
        names.insert(0, "t")

    def block(i):
        points = rows(i)
        columns = [points[:, j] for j in range(dimension)]
        return columns[:1] + columns if graph else columns

    with open(path, "wb") as handle:
        handle.write((",".join(names) + "\n").encode())
        low, high = _write_rows(handle, block, count, "\n")
        handle.write(b"\n")
    if isinstance(data, Segments):  # the point columns, after any t column
        data.bounds = low[int(graph):], high[int(graph):]


@dataclass(frozen=True)
class RenderSpec:
    """How to draw a polyline: canvas, stroke and projection."""

    width: int = 800
    height: int = 600
    stroke_width: float = 1.0
    projection: tuple[int, int] | None = None

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("canvas dimensions must be positive")
        if not (math.isfinite(self.stroke_width) and self.stroke_width >= 0.0):
            raise ValueError(f"stroke width must be finite and >= 0, got {self.stroke_width}")

    def axes(self, dimension):
        """The two axes of R^dimension drawn: the projection's, or (0, 1) in
        R^2 and R^3.  Raises :class:`DimensionUnsupported` otherwise."""
        projection = self.projection
        if projection is not None:
            if (len(projection) != 2 or projection[0] == projection[1]
                    or any(not 0 <= a < dimension for a in projection)):
                raise DimensionUnsupported(
                    f"projection {projection} does not select two axes of R^{dimension}"
                )
            return tuple(projection)
        if dimension in (2, 3):
            return (0, 1)
        raise DimensionUnsupported(
            f"cannot draw {dimension}-dimensional data without a two-axis projection"
        )


def export_svg(data, spec, path):
    """Write a polyline or a segment source as a single-element SVG document.

    The drawing fits the data bounding box with a 5% margin and flips the
    vertical axis into mathematical orientation.  Output bytes are
    deterministic for identical input, and the points are written in blocks
    like CSV rows.  A segment source's bounding box comes from an earlier
    CSV export when there was one, and from a pass over its segments
    otherwise.
    """
    rows, count, dimension, _ = _row_blocks(data)
    axes = spec.axes(dimension)
    if isinstance(data, Segments) and data.bounds is not None:
        low, high = (bound[list(axes)] for bound in data.bounds)
    else:
        low, high = np.full(2, np.inf), np.full(2, -np.inf)
        for i in range(count):
            coords = rows(i)[:, axes]
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
        points = rows(i)
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
