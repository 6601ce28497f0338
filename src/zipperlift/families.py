"""Parameterized builders for the two preset zipper families.

Family one lives on the line: two increasing similarities split [0, 1] at
an adjustable height p (or, in generalized form, at node x1 with heights
y1 < y2), parametrized by halving (or by the matching node split).  Family
two lives in the plane: two rotation-scalings pinned so the unit segment
maps onto the two slanted sides of an isoceles triangle of apex height h.
Both come back as a (zipper, line zipper) pair ready for parametrization,
lifting and verification, and both serve as the preset fixtures of the
command-line interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .geometry import AffineMap
from .zipper import line_zipper, validate_zipper


@dataclass(frozen=True)
class Example1Config:
    """Interval family parameters.

    Plain form: the single split height ``p`` in (0, 1), with nodes at
    (0, 1/2, 1) and heights (0, p, 1).  Generalized form: widths ``q1`` in
    (0, 1) (``x1`` may name the same split node), heights ``0 < y1 < y2``.
    Exactly one form must be given.
    """

    p: float | None = None
    q1: float | None = None
    x1: float | None = None
    y1: float | None = None
    y2: float | None = None

    def __post_init__(self):
        plain = self.p is not None
        general = any(v is not None for v in (self.q1, self.x1, self.y1, self.y2))
        if plain and general:
            raise InvalidConfig("give either p or the generalized parameters, not both")
        if plain:
            if not 0.0 < self.p < 1.0:
                raise InvalidConfig(f"p must lie in (0, 1), got {self.p}")
            return
        if not general:
            raise InvalidConfig("missing parameters: need p, or q1/x1 with y1, y2")
        q1 = self.q1 if self.q1 is not None else self.x1
        if q1 is None:
            raise InvalidConfig("generalized form needs the split node q1 (or x1)")
        if self.x1 is not None and self.q1 is not None and abs(self.x1 - self.q1) > 1e-12:
            raise InvalidConfig(f"x1 = {self.x1} disagrees with q1 = {self.q1}")
        if not 0.0 < q1 < 1.0:
            raise InvalidConfig(f"split node must lie in (0, 1), got {q1}")
        if self.y1 is None or self.y2 is None:
            raise InvalidConfig("generalized form needs both heights y1 and y2")
        if not 0.0 < self.y1 < self.y2:
            raise InvalidConfig(f"need 0 < y1 < y2, got y1 = {self.y1}, y2 = {self.y2}")
        object.__setattr__(self, "q1", float(q1))
        object.__setattr__(self, "x1", float(q1))


def build_example1(config):
    """Build the interval family as a (1-D zipper, line zipper) pair.

    Heights (0, y1, y2) over nodes (0, x1, 1); the two chord ratios y1/y2
    and (y2-y1)/y2 are the linear parts.  The plain form is the case
    x1 = 1/2, y1 = p, y2 = 1: maps x -> p x and x -> (1-p) x + p.
    """
    if config.p is None:
        x1, y1, y2 = config.x1, float(config.y1), float(config.y2)
    else:
        x1, y1, y2 = 0.5, float(config.p), 1.0
    maps = (
        AffineMap([[y1 / y2]], [0.0]),
        AffineMap([[(y2 - y1) / y2]], [y1]),
    )
    zipper = validate_zipper(maps, np.array([[0.0], [y1], [y2]]), (0, 0))
    line = line_zipper((0.0, x1, 1.0), (0, 0))
    return zipper, line


@dataclass(frozen=True)
class Example2Config:
    """Planar rotation family parameters.

    ``h_param`` is the apex height in (0, sqrt(3)/2); the derived scale is
    p = sqrt(h^2 + 1/4) and the rotation angle alpha = arctan(2h).  The
    identity p cos(alpha) = 1/2 holds exactly and is asserted numerically.
    """

    h_param: float

    def __post_init__(self):
        if not 0.0 < self.h_param < math.sqrt(3.0) / 2.0:
            raise InvalidConfig(
                f"apex height must lie in (0, sqrt(3)/2), got {self.h_param}"
            )
        if abs(self.p * math.cos(self.alpha) - 0.5) > 1e-12:
            raise InvalidConfig("derived scale and angle lost the half identity")

    @property
    def p(self):
        return math.sqrt(self.h_param**2 + 0.25)

    @property
    def alpha(self):
        return math.atan(2.0 * self.h_param)


def build_example2(config):
    """Build the rotation family as a (2-D zipper, line zipper) pair.

    The first map is the rotation-scaling p R(+alpha); the second is
    p R(-alpha) translated to the apex (1/2, h).  Vertices are
    ((0,0), (1/2, h), (1,0)) over halving nodes.
    """
    h = float(config.h_param)
    p, alpha = config.p, config.alpha
    cos_a, sin_a = math.cos(alpha), math.sin(alpha)
    rot_plus = np.array([[cos_a, -sin_a], [sin_a, cos_a]])
    rot_minus = np.array([[cos_a, sin_a], [-sin_a, cos_a]])
    maps = (
        AffineMap(p * rot_plus, [0.0, 0.0]),
        AffineMap(p * rot_minus, [0.5, h]),
    )
    vertices = np.array([[0.0, 0.0], [0.5, h], [1.0, 0.0]])
    zipper = validate_zipper(maps, vertices, (0, 0))
    line = line_zipper((0.0, 0.5, 1.0), (0, 0))
    return zipper, line
