"""Zipper systems: ordered contraction families with chained vertices.

A zipper is a family S_1..S_m of affine contractions of R^n together with
vertices z_0..z_m and a signature of orientation bits.  Map number i sends
the endpoint pair (z_0, z_m) onto (z_{i-1}, z_i), swapping the two when its
signature bit is 1.  The attractor of such a family is a curve joining z_0
to z_m; the i-th map carries the whole curve onto its i-th piece.

A line zipper is the special case living on [0, 1] with vertices
0 = t_0 < ... < t_m = 1; its maps are the affine surjections of [0, 1]
onto the subintervals, orientation-reversing exactly where the signature
says so.  Pairing a spatial zipper with a line zipper of the same
signature yields the linear parametrization machinery in
:mod:`zipperlift.parametrization`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CountMismatch,
    DimensionMismatch,
    InvalidNodes,
    NotNormalized,
    SignatureMismatch,
    ZipperViolation,
)
from .geometry import (
    AffineMap,
    apply,
    eventual_contraction_scan,
    operator_norm,
    word_reach_bound,
)

#: Tolerance of the vertex conditions.
VERTEX_TOLERANCE = 1e-9

#: Per-map contraction requires operator norm below 1 minus this margin.
CONTRACTION_MARGIN = 1e-12

#: Longest word an eventual-contraction certificate may need.
EVENTUAL_WORD_LENGTH = 8


def as_signature(bits, count=None):
    """Validate a sequence of orientation bits, returning a tuple of ints."""
    signature = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in signature):
        raise ValueError(f"signature entries must be 0 or 1, got {bits!r}")
    if count is not None and len(signature) != count:
        raise ValueError(f"expected signature of length {count}, got {len(signature)}")
    return signature


@dataclass(frozen=True)
class ConditionViolation:
    """One failed zipper axiom: which map, which condition, how far off."""

    map_index: int  # 1-based; 0 when no single map is at fault
    condition: str  # "start-vertex" | "end-vertex" | "contraction" | "finite-vertex"
    deviation: float
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    """Everything a failed (or passed) zipper validation observed."""

    valid: bool
    violations: tuple[ConditionViolation, ...]
    contraction_factors: tuple[float, ...]
    contraction_mode: str

    def summary(self):
        if self.valid:
            factors = ", ".join(f"{f:.6g}" for f in self.contraction_factors)
            return f"valid zipper ({self.contraction_mode} contraction; factors {factors})"
        lines = [f"{len(self.violations)} zipper axiom violation(s):"]
        for v in self.violations:
            lines.append(
                f"  map {v.map_index}, {v.condition}: deviation {v.deviation:.3e} ({v.detail})"
            )
        return "\n".join(lines)


@dataclass(frozen=True, eq=False)
class Zipper:
    """A validated zipper.  Construct through :func:`validate_zipper`.

    Immutable after construction; every operation on it is a pure function,
    so instances are safe to share across threads.
    """

    maps: tuple[AffineMap, ...]
    vertices: np.ndarray  # (m+1, n), read-only
    signature: tuple[int, ...]
    dimension: int
    linear_norms: tuple[float, ...]  # operator norms of the linear parts
    contraction_mode: str = "per-map"

    @property
    def map_count(self):
        return len(self.maps)

    @cached_property
    def diameter_bound(self):
        """Certified reach: every attractor point is within this distance of z_0.

        Coarse geometric-series bound, computable without the attractor.  The
        distance between any two attractor points is at most twice this value.
        """
        z0 = self.vertices[0]
        reach = max(float(np.linalg.norm(apply(mp, z0) - z0)) for mp in self.maps)
        reach = max(reach, float(np.linalg.norm(self.vertices[-1] - z0)))
        lmax = max(self.linear_norms)
        if lmax < 1.0:
            return reach / (1.0 - lmax)
        return word_reach_bound(self.maps, z0, EVENTUAL_WORD_LENGTH)


@dataclass(frozen=True, eq=False)
class LineZipper:
    """A zipper on [0, 1]: nodes t_0..t_m with orientation signature.

    ``ratios[i]`` is the width t_{i+1} - t_i of interval i (0-based); the
    induced maps send [0, 1] onto the intervals, reversed where the
    signature bit is set.
    """

    nodes: np.ndarray  # (m+1,), read-only
    signature: tuple[int, ...]
    ratios: np.ndarray  # (m,), read-only

    @property
    def map_count(self):
        return len(self.signature)

    @cached_property
    def maps(self):
        """The induced interval maps as 1-D affine maps."""
        built = []
        for k, bit in enumerate(self.signature):
            if bit:
                built.append(AffineMap([[-self.ratios[k]]], [self.nodes[k + 1]]))
            else:
                built.append(AffineMap([[self.ratios[k]]], [self.nodes[k]]))
        return tuple(built)

    def forward(self, index, t):
        """Image of ``t`` under interval map ``index`` (1-based).  Vectorized."""
        k = index - 1
        if self.signature[k]:
            return self.nodes[k + 1] - self.ratios[k] * t
        return self.nodes[k] + self.ratios[k] * t

    def inverse(self, index, t):
        """Preimage in [0, 1] of ``t`` under interval map ``index`` (1-based)."""
        k = index - 1
        if self.signature[k]:
            u = (self.nodes[k + 1] - t) / self.ratios[k]
        else:
            u = (t - self.nodes[k]) / self.ratios[k]
        return np.clip(u, 0.0, 1.0)

    def interval_of(self, t):
        """1-based interval index containing ``t``.

        Intervals are closed on the left; node points belong to the interval
        starting there, and t = 1 belongs to interval m.
        """
        index = int(np.searchsorted(self.nodes, t, side="right")) - 1
        return min(max(index, 0), self.map_count - 1) + 1

    def as_zipper(self):
        """The same object as a validated 1-D :class:`Zipper`."""
        return validate_zipper(self.maps, self.nodes[:, None], self.signature)


@dataclass(frozen=True, eq=False)
class SimilarityDecomposition:
    """Normal form of one zipper map around the origin.

    For a zipper with z_0 = 0, map i is ``z -> offset + sign * A z`` with
    ``offset`` the entry vertex z_{i-1} (or z_i when orientation-reversing),
    ``sign`` = +/-1 per the signature bit, and A sending the last vertex b
    to the chord z_i - z_{i-1}.
    """

    offset: np.ndarray
    linear_part: np.ndarray
    sign: int


def inspect_zipper(maps, vertices, signature, contraction="per-map"):
    """Check the zipper axioms, returning a full :class:`ValidationReport`.

    Vertex conditions hold to :data:`VERTEX_TOLERANCE`.  ``contraction``
    selects the requirement: ``"per-map"`` demands every linear part have
    operator norm < 1, ``"eventual"`` accepts families whose length-L word
    products contract for some L <= :data:`EVENTUAL_WORD_LENGTH`.
    """
    maps = tuple(maps)
    if not maps:
        raise ValueError("a zipper needs at least one map")
    dimension = maps[0].dimension
    for mp in maps:
        if mp.dimension != dimension:
            raise DimensionMismatch("all maps must share one ambient dimension")
    vertices = np.array(vertices, dtype=float)
    if vertices.ndim == 1:
        vertices = vertices[:, None]
    if vertices.shape != (len(maps) + 1, dimension):
        raise DimensionMismatch(
            f"expected {len(maps) + 1} vertices of dimension {dimension}, "
            f"got array of shape {vertices.shape}"
        )
    signature = as_signature(signature, count=len(maps))

    violations = []
    for k in np.flatnonzero(~np.isfinite(vertices).all(axis=1)).tolist():
        violations.append(ConditionViolation(
            0, "finite-vertex", math.inf,
            f"vertex {k} is {vertices[k].tolist()}, not a finite point",
        ))
    factors = tuple(operator_norm(mp.linear) for mp in maps)
    # the vertex axioms only mean something at finite vertices
    for k, mp in enumerate(maps if not violations else ()):
        bit = signature[k]
        expected_start = vertices[k + bit]
        expected_end = vertices[k + 1 - bit]
        observed_start = apply(mp, vertices[0])
        observed_end = apply(mp, vertices[-1])
        dev_start = float(np.linalg.norm(observed_start - expected_start))
        dev_end = float(np.linalg.norm(observed_end - expected_end))
        if dev_start > VERTEX_TOLERANCE:
            violations.append(ConditionViolation(
                k + 1, "start-vertex", dev_start,
                f"maps first vertex to {observed_start.tolist()}, "
                f"expected {expected_start.tolist()}",
            ))
        if dev_end > VERTEX_TOLERANCE:
            violations.append(ConditionViolation(
                k + 1, "end-vertex", dev_end,
                f"maps last vertex to {observed_end.tolist()}, "
                f"expected {expected_end.tolist()}",
            ))

    if contraction == "per-map":
        for k, factor in enumerate(factors):
            if not factor < 1.0 - CONTRACTION_MARGIN:
                violations.append(ConditionViolation(
                    k + 1, "contraction", factor,
                    f"operator norm {factor:.12g} is not below 1",
                ))
    elif contraction == "eventual":
        scan = eventual_contraction_scan([mp.linear for mp in maps], EVENTUAL_WORD_LENGTH)
        if not scan.passed:
            worst = min(value for _, value in scan.values)
            violations.append(ConditionViolation(
                0, "contraction", worst,
                f"no word length up to {EVENTUAL_WORD_LENGTH} certifies contraction "
                f"(best normalized norm {worst:.12g})",
            ))
    else:
        raise ValueError(f"unknown contraction mode {contraction!r}")

    return ValidationReport(
        valid=not violations,
        violations=tuple(violations),
        contraction_factors=factors,
        contraction_mode=contraction,
    )


def validate_zipper(maps, vertices, signature, contraction="per-map"):
    """Validate and build a :class:`Zipper`, raising :class:`ZipperViolation`.

    The raised error carries the report listing every violated condition.
    """
    report = inspect_zipper(maps, vertices, signature, contraction)
    if not report.valid:
        raise ZipperViolation(report)
    maps = tuple(maps)
    vertices = np.array(vertices, dtype=float)
    if vertices.ndim == 1:
        vertices = vertices[:, None]
    vertices.setflags(write=False)
    return Zipper(
        maps=maps,
        vertices=vertices,
        signature=as_signature(signature, count=len(maps)),
        dimension=maps[0].dimension,
        linear_norms=report.contraction_factors,
        contraction_mode=contraction,
    )


def line_zipper(nodes, signature):
    """Build a :class:`LineZipper` from nodes 0 = t_0 < ... < t_m = 1.

    Raises :class:`InvalidNodes` for non-monotone nodes or wrong endpoints,
    and :class:`ZipperViolation` when the induced maps fail the axioms (a
    single full-width interval, for instance, induces the identity, which
    is not a contraction).
    """
    nodes = np.array(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise InvalidNodes(f"expected at least two nodes, got shape {nodes.shape}")
    if nodes[0] != 0.0 or nodes[-1] != 1.0:
        raise InvalidNodes(f"endpoints must be exactly 0 and 1, got {nodes[0]}..{nodes[-1]}")
    if not np.all(np.diff(nodes) > 0.0):
        raise InvalidNodes("nodes must be strictly increasing")
    ratios = np.diff(nodes)
    if abs(float(ratios.sum()) - 1.0) > 1e-12:
        raise InvalidNodes("interval widths must sum to 1")
    signature = as_signature(signature, count=nodes.size - 1)
    nodes.setflags(write=False)
    ratios.setflags(write=False)
    line = LineZipper(nodes=nodes, signature=signature, ratios=ratios)
    report = inspect_zipper(line.maps, nodes[:, None], signature)
    if not report.valid:
        raise ZipperViolation(report)
    return line


def normalize_zipper(zipper):
    """Conjugate ``zipper`` by a translation so its first vertex is the origin.

    Returns ``(normalized, shift)`` where ``shift = -z_0``; each new vertex is
    ``old + shift``, so subtracting ``shift`` from points of the normalized
    attractor reproduces the original one.  Idempotent.
    """
    shift = -zipper.vertices[0]
    if not shift.any():
        shift = np.zeros(zipper.dimension)
        shift.setflags(write=False)
        return zipper, shift
    moved_maps = tuple(
        AffineMap(mp.linear, mp.translation + shift - mp.linear @ shift)
        for mp in zipper.maps
    )
    moved_vertices = zipper.vertices + shift
    shift.setflags(write=False)
    normalized = validate_zipper(
        moved_maps, moved_vertices, zipper.signature, contraction=zipper.contraction_mode,
    )
    return normalized, shift


def check_pairing(zipper, line):
    """Require matching map counts and signatures between a zipper and a line."""
    if zipper.map_count != line.map_count:
        raise CountMismatch(
            f"zipper has {zipper.map_count} maps, line zipper has {line.map_count}"
        )
    if zipper.signature != line.signature:
        raise SignatureMismatch(
            f"signatures differ: {zipper.signature} vs {line.signature}"
        )


def product_zipper(zipper, line):
    """Pair each spatial map with its interval map on (t, x) coordinates.

    The result acts on R^{n+1} with vertices (t_i, z_i) and the shared
    signature; its attractor is the graph of the linear parametrization of
    ``zipper`` by ``line``.
    """
    check_pairing(zipper, line)
    n = zipper.dimension
    built = []
    for interval_map, spatial_map in zip(line.maps, zipper.maps):
        linear = np.zeros((n + 1, n + 1))
        linear[0, 0] = interval_map.linear[0, 0]
        linear[1:, 1:] = spatial_map.linear
        translation = np.concatenate([interval_map.translation, spatial_map.translation])
        built.append(AffineMap(linear, translation))
    vertices = np.column_stack([line.nodes, zipper.vertices])
    return validate_zipper(built, vertices, zipper.signature,
                           contraction=zipper.contraction_mode)


def similarity_decomposition(zipper):
    """Normal-form decomposition of every map of a zipper with z_0 = 0.

    Raises :class:`NotNormalized` when the first vertex is not the origin
    and :class:`ZipperViolation` if the decomposed linear parts fail to send
    the last vertex onto the vertex chords.
    """
    if float(np.linalg.norm(zipper.vertices[0])) > VERTEX_TOLERANCE:
        raise NotNormalized(
            f"first vertex {zipper.vertices[0].tolist()} is not the origin; "
            "call normalize_zipper first"
        )
    b = zipper.vertices[-1]
    decomposed = []
    for k, mp in enumerate(zipper.maps):
        sign = -1 if zipper.signature[k] else 1
        linear_part = sign * mp.linear
        offset = zipper.vertices[k + zipper.signature[k]]
        chord = zipper.vertices[k + 1] - zipper.vertices[k]
        deviation = float(np.linalg.norm(linear_part @ b - chord))
        if deviation > VERTEX_TOLERANCE:
            raise ZipperViolation(message=(
                f"map {k + 1}: decomposed linear part misses the vertex chord "
                f"by {deviation:.3e}"
            ))
        linear_part = np.array(linear_part)
        linear_part.setflags(write=False)
        decomposed.append(SimilarityDecomposition(
            offset=offset, linear_part=linear_part, sign=sign,
        ))
    return tuple(decomposed)
