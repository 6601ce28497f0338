"""Design an interval-family curve from two integral values.

The forward direction computes the split integral g1 = g(x1) and the
total g2 = g(1) from the curve heights (y1, y2).  The inverse problem
recovers the heights from the integrals, in closed form, for the
increasing two-map family.  Round-tripping through the forward solver
confirms the recovery.
"""

import numpy as np

from zipperlift import (
    Example1Config,
    build_example1,
    build_lift,
    inverse_design,
)

# forward: p = 0.3 gives split integral 0.045 and total 0.3
zipper, line = build_example1(Example1Config(p=0.3))
totals = build_lift(zipper, line).node_integrals
g1, g2 = float(totals[1, 0]), float(totals[2, 0])
print(f"forward data at p = 0.3: g1 = {g1}, g2 = {g2}")

# inverse: the heights come back
y1, y2 = inverse_design(0.5, 0.5, 0.5, g1, g2)
print(f"recovered heights: y1 = {y1}, y2 = {y2}")

# an asymmetric design: hit g(0.4) = 0.1 and g(1) = 0.55
q1, g1_target, g2_target = 0.4, 0.1, 0.55
y1, y2 = inverse_design(q1, 1 - q1, q1, g1_target, g2_target)
print(f"\nasymmetric target (split {q1}, integrals {g1_target}, {g2_target}):")
print(f"  heights y1 = {y1:.6f}, y2 = {y2:.6f}")

designed, designed_line = build_example1(Example1Config(q1=q1, y1=y1, y2=y2))
check = build_lift(designed, designed_line).node_integrals
print(f"  round trip: g({q1}) = {check[1, 0]:.12f}, g(1) = {check[2, 0]:.12f}")
assert np.allclose([check[1, 0], check[2, 0]], [g1_target, g2_target], atol=1e-9)
print("  round trip matches the targets to 1e-9")
