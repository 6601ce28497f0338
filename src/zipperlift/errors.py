"""Exception types shared across the package."""


class ZipperLiftError(Exception):
    """Base class for every error raised by this library."""


class DimensionMismatch(ZipperLiftError):
    """Operands live in different ambient dimensions."""


class SingularSystem(ZipperLiftError):
    """A linear system is singular or misses its residual contract."""


class ZipperViolation(ZipperLiftError):
    """A map family does not satisfy the zipper vertex or contraction axioms.

    Carries the full validation report (when one exists) as ``report``.
    """

    def __init__(self, report=None, message=None):
        self.report = report
        if message is None and report is not None:
            message = report.summary()
        super().__init__(message or "zipper axioms violated")


class InvalidNodes(ZipperLiftError):
    """Subdivision nodes are not strictly increasing from 0 to 1."""


class SignatureMismatch(ZipperLiftError):
    """Two paired zippers carry different orientation signatures."""


class CountMismatch(ZipperLiftError):
    """Two paired zippers have different numbers of maps."""


class OutOfDomain(ZipperLiftError):
    """A curve parameter fell outside the unit interval."""


class ToleranceUnreachable(ZipperLiftError):
    """The recursion depth cap was hit before the requested tolerance."""


class DepthCap(ZipperLiftError):
    """A subdivision depth exceeded the configured cap."""


class NotNormalized(ZipperLiftError):
    """An operation requires the first vertex to sit at the origin."""


class DegenerateInput(ZipperLiftError):
    """Input values make the requested construction ill defined."""


class ZeroTangent(ZipperLiftError):
    """The tangent field vanishes at a sampled interior parameter."""


class CombinatorialBudget(ZipperLiftError):
    """A word enumeration would exceed the configured budget."""


class InvalidConfig(ZipperLiftError):
    """A preset family configuration violates its parameter ranges."""


class ParseError(ZipperLiftError):
    """Config text is not valid JSON or contains unknown keys."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ShapeError(ZipperLiftError):
    """A config field has the wrong shape or type."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(message)


class DimensionUnsupported(ZipperLiftError):
    """A renderer cannot draw data of this dimension."""
