"""Attractor geometry: deterministic subdivision and random iteration.

The attractor of a zipper is the unique compact set carried onto itself by
the union of its maps.  Two complementary generators live here: ``refine``
iterates the map family on the vertex polyline, respecting traversal order
and orientation so the output is again an ordered polyline; ``chaos_game``
scatters points by random iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DepthCap, ZipperViolation
from .zipper import check_graph

#: Subdivision depth cap; doubling the point count per level makes larger
#: depths impractical long before they are useful.
DEPTH_CAP = 30

#: Junction points produced by adjacent maps must agree this closely.
JUNCTION_TOLERANCE = 1e-9

#: Chaos-game steps discarded before the first returned point.
BURN_IN = 64


@dataclass(frozen=True, eq=False)
class Polyline:
    """An ordered attractor sample.

    ``mesh_bound`` certifies that every true attractor point lies within
    this distance of some polyline point.  A ``graph`` polyline samples a
    graph over [0, 1], whose parameter is the first coordinate.
    """

    points: np.ndarray  # (N, d), read-only
    mesh_bound: float
    graph: bool = False

    def __post_init__(self):
        # a float array that no one can write: a copy unless it already is one
        points = np.asarray(self.points, dtype=float)
        if points.flags.writeable:
            points = points.copy()
            points.setflags(write=False)
        if points.ndim != 2 or points.shape[0] < 2:
            raise ValueError(f"polyline needs at least two points, got {points.shape}")
        if self.graph and np.any(np.diff(points[:, 0]) < 0.0):
            raise ValueError("a graph polyline's first coordinates must be non-decreasing")
        object.__setattr__(self, "points", points)


def _check_depth(depth):
    depth = int(depth)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > DEPTH_CAP:
        raise DepthCap(f"depth {depth} exceeds the cap {DEPTH_CAP}")
    return depth


def _image(zipper, k, points):
    """Image of the rows of ``points`` under map ``k`` (0-based)."""
    images = points @ zipper.linears[k].T
    # column by column: a broadcast add would loop over rows of d entries
    for j, shift in enumerate(zipper.translations[k].tolist()):
        images[:, j] += shift
    return images


def _images(zipper, points):
    """Images of ``points`` under each map in order, reversed where the
    signature bit is set, after asserting that consecutive images meet to
    ``JUNCTION_TOLERANCE``."""
    images = [
        _image(zipper, k, points)[:: -1 if bit else 1]
        for k, bit in enumerate(zipper.signature)
    ]
    for k in range(1, len(images)):
        gap = float(np.linalg.norm(images[k][0] - images[k - 1][-1]))
        if gap > JUNCTION_TOLERANCE:
            raise ZipperViolation(message=(
                f"junction between pieces {k} and {k + 1} differs by {gap:.3e}"
            ))
    return images


def refine(zipper, depth, line=None):
    """Subdivision polyline of the attractor at the given depth.

    Depth 0 is the vertex polyline.  Each further level concatenates the
    images of the previous polyline under the maps in order, traversing an
    image in reverse where the signature bit is set, and merges the shared
    junction point between consecutive images (asserting the two sides
    agree to 1e-9, which is the vertex axiom made into a runtime check).

    When ``line`` is given, ``zipper`` must be a graph over it
    (:func:`~zipperlift.zipper.check_graph`), such as a product or lifted
    zipper, and the polyline is a ``graph`` one.
    """
    depth = _check_depth(depth)
    if line is not None:
        check_graph(zipper, line)
    points = np.array(zipper.vertices, dtype=float)

    for _ in range(depth):
        blocks = _images(zipper, points)
        points = np.concatenate([blocks[0]] + [block[1:] for block in blocks[1:]])

    contraction = max(zipper.linear_norms)
    mesh_bound = zipper.diameter_bound * contraction**depth
    # the array is this function's own, so Polyline need not copy it
    points.setflags(write=False)
    return Polyline(points, mesh_bound, graph=line is not None)


#: A segment source starts from the deepest level whose polyline, of
#: m^(k+1) + 1 rows, has at most this many rows, so that every segment is
#: about one 4096-row export block, the size ``config_io`` derives from it.
SEGMENT_ROWS = 4097


def segment_level(zipper, depth):
    """Level ``k`` of the polyline ``P_k`` that a depth-``depth``
    :class:`Segments` is built from: the deepest level up to ``depth``
    whose m^(k+1) + 1 rows fit in ``SEGMENT_ROWS``, and 0 at least."""
    level, m = 0, zipper.map_count
    while level < depth and m ** (level + 2) + 1 <= SEGMENT_ROWS:
        level += 1
    return level


class Segments:
    """The depth-``depth`` subdivision polyline as segments computed on demand.

    The attractor is the union of its images, so the depth-d polyline is
    the concatenation, over the words W of length d - k in traversal order,
    of ``S_W(P_k)``, where ``base`` is ``P_k = refine(zipper, k, line)`` at
    ``k = segment_level(zipper, depth)``.  Calling the source with an index
    ``i`` in ``range(count)`` returns segment i's points.  Concatenated,
    the segments equal ``refine(zipper, depth, line)`` bit for bit on one
    BLAS kernel, and no more than one segment is computed at a time.
    Construction runs ``refine``'s junction check for levels k + 1..d on
    the tracked end points of each level, so a violation raises the same
    :class:`ZipperViolation` before any segment exists.

    ``bounds`` is the componentwise least and greatest point, as a pair of
    arrays, once an export that computed every segment has recorded it,
    and None before.
    """

    def __init__(self, zipper, base, depth):
        depth = _check_depth(depth)
        level = segment_level(zipper, depth)
        m = zipper.map_count
        if base.points.shape[0] != m ** (level + 1) + 1:
            raise ValueError(f"base must be the level-{level} refine polyline")
        self.zipper, self.base, self.bounds = zipper, base, None
        self.length = depth - level
        self.count = m**self.length
        ends = base.points[[0, -1]]
        for _ in range(self.length):
            images = _images(zipper, ends)
            ends = np.array([images[0][0], images[-1][-1]])

    def _word(self, i):
        """Segment i's letters (0-based map indices, outermost first) and
        the signature parity of each prefix of them, the empty one first.

        The digits of i in base m pick the letters, read backwards below an
        odd prefix, where the traversal runs through the images in reverse.
        """
        m, signature = self.zipper.map_count, self.zipper.signature
        letters, parities = [], [0]
        for place in range(self.length - 1, -1, -1):
            digit = i // m**place % m
            letter = m - 1 - digit if parities[-1] else digit
            letters.append(letter)
            parities.append(parities[-1] ^ signature[letter])
        return letters, parities

    def _prefix_parity(self, parities, i):
        """Parity of the common prefix of the words of segments i - 1 and i."""
        m, place = self.zipper.map_count, 0
        while i % m**(place + 1) == 0:
            place += 1
        return parities[self.length - place - 1]

    def __call__(self, i):
        if not 0 <= i < self.count:
            raise IndexError(f"segment {i} outside 0..{self.count - 1}")
        letters, parities = self._word(i)
        points = self.base.points
        for letter in reversed(letters):
            points = _image(self.zipper, letter, points)
        # Neighbouring segments share a junction row, of which refine keeps
        # the copy that comes first under the words' common prefix: this
        # segment's first row goes after an even prefix, the earlier
        # segment's last row after an odd one.
        start = 1 if i > 0 and not self._prefix_parity(parities, i) else 0
        stop = -1 if i + 1 < self.count and self._prefix_parity(parities, i + 1) else None
        order = -1 if parities[-1] else 1
        return points[::order][start:stop]


def chaos_game(zipper, count, seed):
    """Random-iteration attractor sample: ``count`` points, reproducible.

    Starts at the first vertex (a true attractor point), applies uniformly
    chosen maps, and discards a fixed burn-in prefix.  The maps are drawn
    from numpy's ``default_rng(seed)`` PCG64 stream, which ``_pcg64``
    computes in integer arithmetic without importing ``numpy.random`` (5.3 MB
    and about 8 ms per process), so identical non-negative integer seeds
    give bit-identical output on every platform.  Any other seed raises:
    ``TypeError`` if it is not an int, ``ValueError`` if it is negative.
    Every returned point lies on the attractor up to accumulated
    floating-point roundoff; the burn-in is kept for the conventional
    contract, not asserted per point.
    """
    count = int(count)
    if count < 1:
        raise ValueError("count must be at least 1")
    from . import _pcg64  # at the first draw: see its docstring
    choices = _pcg64.integers(seed, zipper.map_count, BURN_IN + count).tolist()
    dots, translations = [linear.dot for linear in zipper.linears], list(zipper.translations)
    point = zipper.vertices[0]
    out = np.empty((BURN_IN + count, zipper.dimension))
    # `linear @ point + translation` (dot: matmul's gemv, less overhead) into
    # the step's own row, which the next step reads: no lookups or copies
    for row, choice in zip(out, choices):
        dots[choice](point, row)
        row += translations[choice]
        point = row
    out.setflags(write=False)
    return out[BURN_IN:]
