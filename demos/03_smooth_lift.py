"""Integrate a zipper curve and lift the zipper one dimension up.

The running integral g of the parametrization is differentiable, and its
graph is again a self-affine attractor: the lifted maps act on (t, y)
with a block structure mixing the parameter into the integral coordinate.
Three finite computations unlock everything: the total integral (a small
linear solve), the node integrals (one closed-form increment per
interval), and the certified recursion for g at arbitrary parameters.
"""

import numpy as np

from zipperlift import (
    Example1Config,
    Example2Config,
    build_example1,
    build_example2,
    build_lift,
    eval_g,
    smooth_zipper,
)

zipper, line = build_example1(Example1Config(p=0.3))
print("interval family, p = 0.3")
lift = build_lift(zipper, line)
print("  total integral g(1):", lift.h)
print("  node integrals:", lift.node_integrals.ravel())

lifted = smooth_zipper(zipper, line, lift)
print("  lifted maps (linear part | translation):")
for linear, translation in zip(lifted.linears, lifted.translations):
    print("   ", linear.tolist(), "|", translation.tolist())
print("  (at p = 0.3 these are (x/2, 0.15 y) and (x/2 + 1/2, 0.15 x + 0.35 y + 0.045))")

print("\n  g(0.25) =", eval_g(0.25, zipper, line, lift).value[0], " (= 0.15 * g(0.5))")
result = eval_g(1 / 3, zipper, line, lift, tol=1e-12)
print(f"  g(1/3) = {result.value[0]:.15f}  (radius {result.error_bound:.1e})")

# p = 1/2 collapses to the parabola: g(t) = t^2 / 2
half, half_line = build_example1(Example1Config(p=0.5))
half_lift = build_lift(half, half_line)
checks = [
    abs(eval_g(t, half, half_line, half_lift, tol=1e-12).value[0] - t * t / 2)
    for t in np.linspace(0, 1, 11)
]
print(f"\nparabola case p = 1/2: worst |g(t) - t^2/2| = {max(checks):.2e}")

# the rotation family integrates to a planar arc with g(1) = (1/2, h)
config = Example2Config(h_param=0.5)
rotation, rline = build_example2(config)
rlift = build_lift(rotation, rline)
print("\nrotation family, apex 0.5")
print("  g(1) =", rlift.h, " g(1/2) =", np.round(rlift.node_integrals[1], 12))
arc = smooth_zipper(rotation, rline, rlift)
print("  lifted vertices (t, g(t)):\n", np.round(arc.vertices, 12))
