"""Attractor geometry: deterministic subdivision and random iteration.

The attractor of a zipper is the unique compact set carried onto itself by
the union of its maps.  Two complementary generators live here: ``refine``
iterates the map family on the vertex polyline, respecting traversal order
and orientation so the output is again an ordered polyline; ``chaos_game``
scatters points by random iteration.  ``hausdorff_residual`` measures how
far a finite polyline is from being invariant, which is the quantity the
subdivision bounds control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DepthCap, ZipperViolation
from .geometry import apply_many

#: Subdivision depth cap; doubling the point count per level makes larger
#: depths impractical long before they are useful.
DEPTH_CAP = 30

#: Junction points produced by adjacent maps must agree this closely.
JUNCTION_TOLERANCE = 1e-9

#: Chaos-game steps discarded before the first returned point.
BURN_IN = 64


@dataclass(frozen=True, eq=False)
class Polyline:
    """An ordered attractor sample with an optional parameter column.

    ``mesh_bound`` certifies that every true attractor point lies within
    this distance of some polyline point.
    """

    points: np.ndarray  # (N, d), read-only
    params: np.ndarray | None
    mesh_bound: float

    def __post_init__(self):
        points = _read_only(self.points)
        if points.ndim != 2 or points.shape[0] < 2:
            raise ValueError(f"polyline needs at least two points, got {points.shape}")
        object.__setattr__(self, "points", points)
        if self.params is not None:
            params = _read_only(self.params)
            if params.shape != (points.shape[0],):
                raise ValueError("params must match the number of points")
            if np.any(np.diff(params) < 0.0):
                raise ValueError("params must be non-decreasing")
            object.__setattr__(self, "params", params)


def _read_only(values):
    """Float array that no one can write: a copy unless it already is one."""
    array = np.asarray(values, dtype=float)
    if array.flags.writeable:
        array = array.copy()
        array.setflags(write=False)
    return array


def _check_depth(depth):
    depth = int(depth)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > DEPTH_CAP:
        raise DepthCap(f"depth {depth} exceeds the cap {DEPTH_CAP}")
    return depth


def _images(zipper, points):
    """Images of ``points`` under each map in order, reversed where the
    signature bit is set, after asserting that consecutive images meet to
    ``JUNCTION_TOLERANCE``."""
    images = [
        apply_many(mp, points)[:: -1 if bit else 1]
        for mp, bit in zip(zipper.maps, zipper.signature)
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

    When ``line`` is given, matching per-point parameter values are tracked
    through the same words, so graph-type attractors come back with their
    parameters attached.
    """
    depth = _check_depth(depth)
    points = np.array(zipper.vertices, dtype=float)
    params = None if line is None else np.array(line.nodes, dtype=float)

    for _ in range(depth):
        blocks = _images(zipper, points)
        points = np.concatenate([blocks[0]] + [block[1:] for block in blocks[1:]])
        if params is not None:
            param_blocks = [
                line.forward(k + 1, params)[:: -1 if bit else 1]
                for k, bit in enumerate(zipper.signature)
            ]
            params = np.concatenate(
                [param_blocks[0]] + [block[1:] for block in param_blocks[1:]]
            )

    contraction = max(zipper.linear_norms)
    mesh_bound = zipper.diameter_bound * contraction**depth
    # the arrays are this function's own, so Polyline need not copy them
    points.setflags(write=False)
    if params is not None:
        params.setflags(write=False)
    return Polyline(points=points, params=params, mesh_bound=mesh_bound)


#: A segment source starts from the deepest level whose polyline, of
#: m^(k+1) + 1 rows, has at most this many rows, so that every segment is
#: about one 4096-row export block.
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
    ``i`` in ``range(count)`` returns segment i's ``(points, params)``;
    ``params`` is None when ``base`` carries none.  Concatenated, the
    segments equal ``refine(zipper, depth, line)`` bit for bit, and no more
    than one segment is computed at a time.  Construction runs ``refine``'s
    junction check for levels k + 1..d on the tracked end points of each
    level, so a violation raises the same :class:`ZipperViolation` before
    any segment exists.
    """

    def __init__(self, zipper, base, depth, line=None):
        depth = _check_depth(depth)
        level = segment_level(zipper, depth)
        m = zipper.map_count
        if base.points.shape[0] != m ** (level + 1) + 1:
            raise ValueError(f"base must be the level-{level} refine polyline")
        if (line is None) != (base.params is None):
            raise ValueError("base carries params exactly when a line is given")
        self.zipper, self.base, self.line = zipper, base, line
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
        points, params = self.base.points, self.base.params
        for letter in reversed(letters):
            points = apply_many(self.zipper.maps[letter], points)
            if params is not None:
                params = self.line.forward(letter + 1, params)
        # Neighbouring segments share a junction row, of which refine keeps
        # the copy that comes first under the words' common prefix: this
        # segment's first row goes after an even prefix, the earlier
        # segment's last row after an odd one.
        start = 1 if i > 0 and not self._prefix_parity(parities, i) else 0
        stop = -1 if i + 1 < self.count and self._prefix_parity(parities, i + 1) else None
        order = -1 if parities[-1] else 1
        points = points[::order][start:stop]
        if params is not None:
            params = params[::order][start:stop]
        return points, params


def chaos_game(zipper, count, seed):
    """Random-iteration attractor sample: ``count`` points, reproducible.

    Starts at the first vertex (a true attractor point), applies uniformly
    chosen maps, and discards a fixed burn-in prefix.  The generator is
    seeded and named (numpy PCG64), so identical seeds give bit-identical
    output on every platform.  Every returned point lies on the attractor
    up to accumulated floating-point roundoff; the burn-in is kept for the
    conventional contract, not asserted per point.
    """
    count = int(count)
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    choices = rng.integers(0, zipper.map_count, size=BURN_IN + count)
    point = np.array(zipper.vertices[0], dtype=float)
    out = np.empty((count, zipper.dimension))
    for step, choice in enumerate(choices):
        mp = zipper.maps[choice]
        point = mp.linear @ point + mp.translation
        if step >= BURN_IN:
            out[step - BURN_IN] = point
    out.setflags(write=False)
    return out


def hausdorff_distance(a, b):
    """Symmetric Hausdorff distance between two finite point sets.

    Exact nearest neighbours from a k-d tree on each side.
    """
    # scipy.spatial is imported here, not at module level, because every
    # CLI command imports this module and only the residual checks need it.
    from scipy.spatial import cKDTree

    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    return max(
        float(cKDTree(b).query(a, k=1)[0].max()),
        float(cKDTree(a).query(b, k=1)[0].max()),
    )


def hausdorff_residual(polyline, zipper):
    """Invariance defect of a polyline under the zipper's map family.

    The symmetric Hausdorff distance between the polyline's point set and
    the union of its images under every map.  Zero exactly for invariant
    sets; for depth-d subdivision polylines it stays below twice the mesh
    bound.
    """
    points = polyline.points
    images = np.concatenate([apply_many(mp, points) for mp in zipper.maps])
    return hausdorff_distance(points, images)
