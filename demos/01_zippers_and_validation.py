"""Build the two preset zipper families and poke at the validator.

A zipper is an ordered family of affine contractions with a chain of
vertices: map i carries the endpoint pair onto (vertex i-1, vertex i),
swapped where the orientation signature says so.  The validator checks
exactly those conditions plus contraction, and reports every violation
with the map index and the observed deviation.
"""

from zipperlift import (
    Example1Config,
    Example2Config,
    build_example1,
    build_example2,
    inspect_zipper,
    validate_zipper,
)

# the interval family: two increasing similarities splitting [0, 1] at p
zipper, line = build_example1(Example1Config(p=0.3))
print("interval family, p = 0.3")
print("  vertices:", zipper.vertices.ravel())
print("  contraction factors:", zipper.linear_norms)
print("  report:", inspect_zipper(zipper.linears, zipper.translations, zipper.vertices,
                                zipper.signature).summary())

# the rotation family: two rotation-scalings meeting at an apex
rotation, _ = build_example2(Example2Config(h_param=0.5))
print("\nrotation family, apex height 0.5")
print("  vertices:\n", rotation.vertices)
print("  factors:", tuple(round(f, 6) for f in rotation.linear_norms))

# break a vertex on purpose: the report names the failing condition
print("\nperturbing the middle vertex by 0.2 ...")
try:
    validate_zipper(zipper.linears, zipper.translations, [[0.0], [0.5], [1.0]], (0, 0))
except Exception as exc:
    print(" ", exc)
