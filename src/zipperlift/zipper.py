"""Zipper systems: ordered contraction families with chained vertices.

A zipper is a family S_1..S_m of affine contractions of R^n together with
vertices z_0..z_m and a signature of orientation bits.  The family is held
as two stacked arrays: linear parts (m, n, n) and translations (m, n).  Map
number i sends the endpoint pair (z_0, z_m) onto (z_{i-1}, z_i), swapping
the two when its signature bit is 1.  The attractor of such a family is a
curve joining z_0 to z_m; the i-th map carries the whole curve onto its
i-th piece.

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
    DegenerateInput,
    DimensionMismatch,
    InvalidNodes,
    NotNormalized,
    SignatureMismatch,
    ZipperViolation,
)
from .geometry import (
    CONTRACTION_THRESHOLD,
    ContractionScan,
    eventual_contraction_scan,
    operator_norms,
    row_norms,
)

#: Tolerance of the vertex conditions.
VERTEX_TOLERANCE = 1e-9

#: Longest word an eventual-contraction certificate may need.
EVENTUAL_WORD_LENGTH = 8


def as_signature(bits, count):
    """Validate ``count`` orientation bits, returning a tuple of ints."""
    signature = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in signature):
        raise ValueError(f"signature entries must be 0 or 1, got {bits!r}")
    if len(signature) != count:
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
    """What a zipper validation observed: the violations, or the zipper."""

    violations: tuple[ConditionViolation, ...]
    zipper: Zipper | None = None  # built exactly when no axiom fails

    @property
    def valid(self):
        return self.zipper is not None

    def summary(self):
        if self.valid:
            mode, norms = self.zipper.contraction_mode, self.zipper.linear_norms
            factors = ", ".join(f"{f:.6g}" for f in norms)
            return f"valid zipper ({mode} contraction; factors {factors})"
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

    linears: np.ndarray  # (m, n, n), read-only
    translations: np.ndarray  # (m, n), read-only
    vertices: np.ndarray  # (m+1, n), read-only
    signature: tuple[int, ...]
    linear_norms: tuple[float, ...]  # operator norms of the linear parts
    word_scan: ContractionScan  # the passed contraction certificate

    @property
    def dimension(self):
        return self.translations.shape[1]

    @property
    def contraction_mode(self):
        return "per-map" if self.word_scan.word_length == 1 else "eventual"

    @property
    def map_count(self):
        return len(self.linears)

    @cached_property
    def diameter_bound(self):
        """Certified reach: every attractor point is within this distance of z_0.

        Coarse geometric-series bound, computable without the attractor.  The
        distance between any two attractor points is at most twice this value.
        """
        z0 = self.vertices[0]
        ends = np.concatenate([self.linears @ z0 + self.translations, self.vertices[-1:]])
        reach = float(row_norms(ends - z0).max())
        lmax = max(self.linear_norms)
        if lmax < 1.0:
            return reach / (1.0 - lmax)
        return self.word_scan.reach

    @property
    def nodes(self):
        """First coordinates of the vertices: the nodes t_0..t_m of a line
        zipper, and of any graph zipper over it."""
        return self.vertices[:, 0]

    @cached_property
    def ratios(self):
        """The widths ``np.diff(nodes)``, read-only."""
        ratios = np.diff(self.nodes)
        ratios.setflags(write=False)
        return ratios


def inspect_zipper(linears, translations, vertices, signature):
    """Check the zipper axioms, returning a full :class:`ValidationReport`.

    Map i is ``x -> linears[i] @ x + translations[i]``.  The report holds
    the :class:`Zipper` built from read-only copies of the checked values
    exactly when every axiom holds.  Raises :class:`ValueError` for no
    map or non-finite map entries and :class:`DimensionMismatch` for
    ragged, non-square or mismatched shapes.

    Vertex conditions hold to :data:`VERTEX_TOLERANCE`.  The zipper keeps
    the word scan that certifies its contraction: the length-1 scan read off
    the norms when each is at most ``CONTRACTION_THRESHOLD`` (mode
    ``"per-map"``), else the scan of words up to length
    :data:`EVENTUAL_WORD_LENGTH` (``"eventual"``).
    """
    if len(linears) == 0:
        raise ValueError("a zipper needs at least one map")
    try:
        linears = np.array(linears, dtype=float)
        translations = np.array(translations, dtype=float)
    except ValueError as exc:
        raise DimensionMismatch(f"maps do not stack into arrays: {exc}") from None
    count, dimension = len(linears), linears.shape[-1]
    shapes = (linears.shape, translations.shape)
    if shapes != ((count, dimension, dimension), (count, dimension)) or dimension == 0:
        raise DimensionMismatch(f"expected stacks of shapes (m, n, n) and (m, n), got {shapes}")
    if not (np.isfinite(linears).all() and np.isfinite(translations).all()):
        raise ValueError("linear parts and translations must be finite")
    vertices = np.array(vertices, dtype=float)
    if vertices.shape != (count + 1, dimension):
        raise DimensionMismatch(
            f"expected {count + 1} vertices of dimension {dimension}, "
            f"got array of shape {vertices.shape}"
        )
    signature = as_signature(signature, count=count)

    violations = []
    for k in np.flatnonzero(~np.isfinite(vertices).all(axis=1)).tolist():
        violations.append(ConditionViolation(
            0, "finite-vertex", math.inf,
            f"vertex {k} is {vertices[k].tolist()}, not a finite point",
        ))
    factors = tuple(operator_norms(linears).tolist())
    # the vertex axioms only mean something at finite vertices; map k sends
    # the first and the last vertex to vertices k + bit and k + 1 - bit
    axioms = () if violations else (
        ("start-vertex", "first", vertices[0], np.arange(count) + signature),
        ("end-vertex", "last", vertices[-1], np.arange(1, count + 1) - signature),
    )
    for condition, end, source, targets in axioms:
        observed = linears @ source + translations
        deviations = row_norms(observed - vertices[targets])
        violations += [ConditionViolation(
            k + 1, condition, float(deviations[k]),
            f"maps {end} vertex to {observed[k].tolist()}, "
            f"expected {vertices[targets[k]].tolist()}",
        ) for k in np.flatnonzero(deviations > VERTEX_TOLERANCE).tolist()]
    violations.sort(key=lambda violation: violation.map_index)  # stable: map by map

    if max(factors) <= CONTRACTION_THRESHOLD:  # what the scan records at length 1
        scan = ContractionScan(1, ((1, max(factors)),))
    else:
        scan = eventual_contraction_scan(linears, translations, vertices[0], EVENTUAL_WORD_LENGTH)
        if not scan.passed:
            worst = min(value for _, value in scan.values)
            violations.append(ConditionViolation(
                0, "contraction", worst,
                f"no word length up to {EVENTUAL_WORD_LENGTH} certifies contraction "
                f"(best normalized norm {worst:.12g})",
            ))

    if violations:
        return ValidationReport(tuple(violations))
    for array in (linears, translations, vertices):
        array.setflags(write=False)
    return ValidationReport((), Zipper(linears, translations, vertices, signature, factors, scan))


def validate_zipper(linears, translations, vertices, signature):
    """Validate and build a :class:`Zipper`, raising :class:`ZipperViolation`.

    The raised error carries the report listing every violated condition.
    """
    report = inspect_zipper(linears, translations, vertices, signature)
    if report.zipper is None:
        raise ZipperViolation(report)
    return report.zipper


def line_zipper(nodes, signature):
    """Build the line zipper on nodes 0 = t_0 < ... < t_m = 1: the 1-D
    :class:`Zipper` whose map k sends [0, 1] onto [t_{k-1}, t_k], reversed
    where its signature bit is set.

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
    ratios = np.diff(nodes)
    if not np.all(ratios > 0.0):
        raise InvalidNodes("nodes must be strictly increasing")
    if abs(float(ratios.sum()) - 1.0) > 1e-12:
        raise InvalidNodes("interval widths must sum to 1")
    signature = as_signature(signature, count=nodes.size - 1)
    # t -> t_k + q_k t, or t_{k+1} - q_k t where the map reverses
    reverses = np.array(signature) == 1
    linears = np.where(reverses, -ratios, ratios)[:, None, None]
    translations = np.where(reverses, nodes[1:], nodes[:-1])[:, None]
    return validate_zipper(linears, translations, nodes[:, None], signature)


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


def check_graph(zipper, line):
    """Require ``zipper`` to act on its first coordinate exactly as ``line``
    acts on t, from vertices whose first coordinates are the nodes, so that
    its attractor is a graph over [0, 1] with t as its first coordinate:
    product and lifted zippers are.  Raises :class:`DegenerateInput` if not.
    """
    check_pairing(zipper, line)
    graph = (
        np.array_equal(zipper.vertices[:, 0], line.nodes)
        and np.array_equal(zipper.linears[:, 0, 0], line.linears[:, 0, 0])
        and not zipper.linears[:, 0, 1:].any()
        and np.array_equal(zipper.translations[:, 0], line.translations[:, 0])
    )
    if not graph:
        raise DegenerateInput("the zipper is not a graph over the line zipper's parameter")


def product_zipper(zipper, line):
    """Pair each spatial map with its interval map on (t, x) coordinates.

    The result acts on R^{n+1} with vertices (t_i, z_i) and the shared
    signature; its attractor is the graph of the linear parametrization of
    ``zipper`` by ``line``.
    """
    check_pairing(zipper, line)
    n = zipper.dimension
    linears = np.zeros((zipper.map_count, n + 1, n + 1))
    linears[:, 0, 0] = line.linears[:, 0, 0]
    linears[:, 1:, 1:] = zipper.linears
    translations = np.column_stack([line.translations, zipper.translations])
    vertices = np.column_stack([line.nodes, zipper.vertices])
    return validate_zipper(linears, translations, vertices, zipper.signature)


def similarity_decomposition(zipper):
    """Normal form of every map of a zipper with z_0 = 0, as read-only
    arrays ``(offsets, linear_parts, signs)`` of shapes (m, n), (m, n, n)
    and (m,).

    Map i is ``z -> offsets[i] + signs[i] * linear_parts[i] @ z``: the
    offset is its entry vertex z_{i-1} (z_i when orientation-reversing), the
    sign is -1 exactly where the signature bit is set, and the linear part
    sends the last vertex b to the chord z_i - z_{i-1}.

    Raises :class:`NotNormalized` when the first vertex is not the origin
    and :class:`ZipperViolation` if a linear part misses its chord.
    """
    vertices, bits = zipper.vertices, np.array(zipper.signature)
    if row_norms(vertices[:1])[0] > VERTEX_TOLERANCE:
        raise NotNormalized(f"vertices[0] must be the origin, got {vertices[0].tolist()}")
    signs = np.where(bits == 1, -1.0, 1.0)
    linear_parts = signs[:, None, None] * zipper.linears
    offsets = vertices[np.arange(bits.size) + bits]
    deviations = row_norms(linear_parts @ vertices[-1] - np.diff(vertices, axis=0))
    k = int(np.argmax(deviations > VERTEX_TOLERANCE))  # the first that misses, if any
    if deviations[k] > VERTEX_TOLERANCE:
        raise ZipperViolation(message=(
            f"map {k + 1}: decomposed linear part misses the vertex chord "
            f"by {deviations[k]:.3e}"
        ))
    for array in (offsets, linear_parts, signs):
        array.setflags(write=False)
    return offsets, linear_parts, signs
