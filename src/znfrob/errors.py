"""Exception hierarchy for the graded kernel and the straightening solver.

Every error carries a ``kind`` string (its class name) that the CLI copies
into the report's ``error_kind`` field.
"""


class ZnError(Exception):
    """Base class for all kernel errors."""

    @property
    def kind(self) -> str:
        return type(self).__name__


class DimensionError(ZnError):
    """Degree vectors of different lengths were combined."""


class ChartError(ZnError):
    """Operands living on different charts were combined."""


class UnknownCoordinateError(ZnError):
    """A coordinate name is not declared on the chart."""


class HomogeneityError(ZnError):
    """A value that must be homogeneous of a fixed degree is not."""


class CenteringError(ZnError):
    """A substitution image does not vanish at the base point."""


class OddIntegrationError(ZnError):
    """Antiderivative requested along an odd coordinate."""


class NotInvertibleModJ(ZnError):
    """Matrix is singular at the base point, hence not invertible."""


class DependentAtPoint(ZnError):
    """Tangent vectors at the base point are linearly dependent."""


class JacobianSingular(ZnError):
    """A coordinate change has a singular Jacobian at the base point."""


class DegenerateAtPoint(ZnError):
    """A vector field vanishes at the base point and cannot be straightened."""


class NonzeroDegree(ZnError):
    """A degree-zero field was required but the input has nonzero degree."""


class ZeroDegree(ZnError):
    """A nonzero-degree field was required but the input has degree zero."""


class OddSquareNonzero(ZnError):
    """An odd field with nonvanishing self-bracket cannot be straightened."""


class NotCommuting(ZnError):
    """A family that must supercommute has a nonzero pairwise bracket."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class NotInvolutive(ZnError):
    """Distribution is not closed under the graded bracket."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InternalInconsistency(ZnError):
    """A property guaranteed by construction failed; indicates a bug."""


class OutputTooLarge(ZnError):
    """An exact answer holds a number with more digits than Python prints."""


class ExpressionSyntaxError(ZnError):
    """Malformed expression text; carries the 0-based offset and line/column."""

    def __init__(self, message, offset, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.offset = offset
        self.line = line
        self.column = column


class ProblemFormatError(ZnError):
    """A problem file violates the input schema."""
