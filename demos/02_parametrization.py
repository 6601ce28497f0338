"""Evaluate the linear parametrization of a zipper curve.

The parametrization f sends [0, 1] onto the attractor with f(t_i) = z_i,
intertwining the interval maps with the spatial maps.  Evaluation walks
interval addresses; every returned point carries a certified error radius.
"""

import numpy as np

from zipperlift import (
    Example1Config,
    Example2Config,
    build_example1,
    build_example2,
    eval_f,
    eval_f_many,
)

zipper, line = build_example1(Example1Config(p=0.3))

# node values are exact, generic values certified
print("f at the nodes:", [eval_f(t, zipper, line).value[0] for t in (0.0, 0.5, 1.0)])
result = eval_f(1 / 3, zipper, line, tol=1e-9)
print(f"f(1/3) = {result.value[0]:.12f}  (radius {result.error_bound:.2e}, depth {result.depth})")

# one recursion level by hand: f(t/2) = p f(t) and f(t/2 + 1/2) = (1-p) f(t) + p
print("f(0.25) =", eval_f(0.25, zipper, line).value[0], " (p * f(0.5) = 0.09)")
print("f(0.75) =", eval_f(0.75, zipper, line).value[0], " ((1-p) f(0.5) + p = 0.51)")

# the functional equation holds to twice the evaluation tolerance
rng = np.random.default_rng(0)
ts = rng.integers(0, 2**40, 500).astype(float) * 2.0**-40
f_ts, _ = eval_f_many(ts, zipper, line, tol=1e-9)
worst = 0.0
for index in (1, 2):
    images = line.translations[index - 1, 0] + line.linears[index - 1, 0, 0] * ts
    lhs, _ = eval_f_many(images, zipper, line, tol=1e-9)
    rhs = f_ts @ zipper.linears[index - 1].T + zipper.translations[index - 1]
    worst = max(worst, float(np.abs(lhs - rhs).max()))
print(f"\nworst functional-equation residual over 500 samples: {worst:.2e}")

# the rotation family traces a genuinely planar curve
rotation, rline = build_example2(Example2Config(h_param=0.5))
for t in (0.25, 0.5, 0.75):
    print(f"planar f({t}) =", np.round(eval_f(t, rotation, rline).value, 6))
