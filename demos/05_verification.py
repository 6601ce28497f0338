"""Run every independent numerical check against both preset families.

Each check takes a route that shares no code with what it tests:
quadrature rebuilds the integral from parametrization samples, central
differences recover the parametrization from the integral, the tangent
scan probes the regularity of the arc, and the word-norm scan certifies
eventual contraction of the lifted maps.
"""

from zipperlift import (
    Example1Config,
    Example2Config,
    build_example1,
    build_example2,
    build_lift,
    derivative_check,
    eventual_contraction_check,
    integral_residual,
    parametrization_residual,
    quadrature_check,
    smooth_zipper,
    tangent_scan,
)


def show(report):
    flag = "ok " if report.passed else "FAIL"
    print(f"  [{flag}] {report.check_name:26s} max error {report.max_error:.3e} "
          f"(tolerance {report.tolerance:.3e}, {report.samples} samples)")


for label, (zipper, line) in (
    ("interval family p=0.3", build_example1(Example1Config(p=0.3))),
    ("rotation family h=0.5", build_example2(Example2Config(h_param=0.5))),
):
    print(label)
    lift = build_lift(zipper, line)
    lifted = smooth_zipper(zipper, line, lift)
    show(parametrization_residual(zipper, line, samples=1000))
    show(integral_residual(zipper, line, lift, samples=300))
    show(quadrature_check(zipper, line, lift))
    show(derivative_check(zipper, line, lift, sample_count=60))
    show(eventual_contraction_check(lifted))
    # the tangent scan demands a 1.8x shrink of the largest direction
    # increment per sample doubling; rougher families shrink like
    # 2^theta < 1.8, so expect honest failures at larger apex heights
    show(tangent_scan(zipper, line, 256))
    print()
