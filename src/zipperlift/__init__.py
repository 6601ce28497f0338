"""Smooth self-affine curves from self-similar zippers.

A zipper is an ordered family of affine contractions whose attractor is a
curve threaded through prescribed vertices.  This package evaluates the
linear parametrization of such a curve, integrates it in closed recursive
form, and lifts the zipper one dimension up so the graph of the integral,
a differentiable curve, is itself a self-affine attractor.  Subdivision
and chaos-game renderers, certified error bounds and a set of independent
numerical cross-checks round out the toolkit.
"""

from .attractor import Polyline, chaos_game, refine
from .config_io import (
    RenderSpec,
    ZipperConfig,
    build_system,
    config_from_system,
    config_to_json,
    export_csv,
    export_svg,
    parse_config,
)
from .errors import (
    CombinatorialBudget,
    CountMismatch,
    DegenerateInput,
    DepthCap,
    DimensionMismatch,
    DimensionUnsupported,
    InvalidConfig,
    InvalidNodes,
    NotNormalized,
    OutOfDomain,
    ParseError,
    ShapeError,
    SignatureMismatch,
    SingularSystem,
    ToleranceUnreachable,
    ZeroTangent,
    ZipperLiftError,
    ZipperViolation,
)
from .families import Example1Config, Example2Config, build_example1, build_example2
from .geometry import (
    as_matrix,
    as_vector,
    operator_norm,
    solve_linear,
)
from .parametrization import ParamEvaluation, eval_f, eval_f_many
from .smoothing import (
    SmoothLift,
    build_lift,
    eval_g,
    eval_g_many,
    inverse_design,
    smooth_zipper,
)
from .verification import (
    VerificationReport,
    derivative_check,
    eventual_contraction_check,
    integral_residual,
    parametrization_residual,
    quadrature_check,
    quadrature_g,
    tangent_scan,
)
from .zipper import (
    ValidationReport,
    Zipper,
    inspect_zipper,
    line_zipper,
    product_zipper,
    similarity_decomposition,
    validate_zipper,
)

__version__ = "0.1.0"
