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


def refine(zipper, depth, line=None, depth_cap=DEPTH_CAP):
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
    depth = int(depth)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > depth_cap:
        raise DepthCap(f"depth {depth} exceeds the cap {depth_cap}")
    points = np.array(zipper.vertices, dtype=float)
    params = None if line is None else np.array(line.nodes, dtype=float)

    for _ in range(depth):
        blocks = []
        param_blocks = []
        for k, mp in enumerate(zipper.maps):
            image = apply_many(mp, points)
            if zipper.signature[k]:
                image = image[::-1]
            blocks.append(image)
            if params is not None:
                image_params = line.forward(k + 1, params)
                if zipper.signature[k]:
                    image_params = image_params[::-1]
                param_blocks.append(image_params)
        merged = [blocks[0]]
        for k in range(1, len(blocks)):
            gap = float(np.linalg.norm(blocks[k][0] - blocks[k - 1][-1]))
            if gap > JUNCTION_TOLERANCE:
                raise ZipperViolation(message=(
                    f"junction between pieces {k} and {k + 1} differs by {gap:.3e}"
                ))
            merged.append(blocks[k][1:])
        points = np.concatenate(merged)
        if params is not None:
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


def chaos_game(zipper, count, seed, burn_in=64):
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
    choices = rng.integers(0, zipper.map_count, size=burn_in + count)
    point = np.array(zipper.vertices[0], dtype=float)
    out = np.empty((count, zipper.dimension))
    for step, choice in enumerate(choices):
        mp = zipper.maps[choice]
        point = mp.linear @ point + mp.translation
        if step >= burn_in:
            out[step - burn_in] = point
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
