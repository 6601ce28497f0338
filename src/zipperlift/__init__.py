"""Smooth self-affine curves from self-similar zippers.

A zipper is an ordered family of affine contractions whose attractor is a
curve threaded through prescribed vertices.  This package evaluates the
linear parametrization of such a curve, integrates it in closed recursive
form, and lifts the zipper one dimension up so the graph of the integral,
a differentiable curve, is itself a self-affine attractor.  Subdivision
and chaos-game renderers, certified error bounds and a set of independent
numerical cross-checks round out the toolkit.

The namespace is lazy (PEP 562): ``import zipperlift`` loads no submodule
and so no numpy, and each public name imports its submodule on first use.
This lets ``python -m zipperlift`` choose numpy's BLAS threading before
numpy loads (see ``__main__``), while a library import leaves the
environment and the BLAS threading as the caller set them.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Submodule of each public name.
_EXPORTS = {
    name: module
    for module, names in {
        "attractor": ("Polyline", "chaos_game", "refine"),
        "config_io": (
            "RenderSpec", "ZipperConfig", "build_system", "config_from_system",
            "config_to_json", "export_csv", "export_svg", "parse_config",
        ),
        "errors": (
            "CombinatorialBudget", "CountMismatch", "DegenerateInput", "DepthCap",
            "DimensionMismatch", "DimensionUnsupported", "InvalidConfig", "InvalidNodes",
            "NotNormalized", "OutOfDomain", "ParseError", "ShapeError", "SignatureMismatch",
            "SingularSystem", "ToleranceUnreachable", "ZeroTangent", "ZipperLiftError",
            "ZipperViolation",
        ),
        "families": ("Example1Config", "Example2Config", "build_example1", "build_example2"),
        "parametrization": ("ParamEvaluation", "eval_f", "eval_f_many"),
        "smoothing": (
            "SmoothLift", "build_lift", "eval_g", "eval_g_many", "inverse_design",
            "smooth_zipper",
        ),
        "verification": (
            "VerificationReport", "derivative_check", "eventual_contraction_check",
            "integral_residual", "parametrization_residual", "quadrature_check", "tangent_scan",
        ),
        "zipper": (
            "ValidationReport", "Zipper", "inspect_zipper", "line_zipper", "product_zipper",
            "similarity_decomposition", "validate_zipper",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """Import the submodule that defines ``name`` and cache the name here."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
