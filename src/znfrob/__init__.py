"""Exact symbolic kernel for charts graded by (Z_2)^n.

Truncated series arithmetic with the Koszul sign rule, graded vector
fields and their bracket, invertible coordinate changes, distributions,
and a solver that straightens an involutive distribution onto coordinate
derivations and returns a verifiable certificate.
"""

from .distribution import (
    Distribution,
    InvolutivityResult,
    MembershipResult,
    Rank,
    is_involutive,
    membership,
    normalize_generators,
    rank_of,
)
from .errors import (
    CenteringError,
    ChartError,
    DegenerateAtPoint,
    DependentAtPoint,
    DimensionError,
    ExpressionSyntaxError,
    HomogeneityError,
    InternalInconsistency,
    JacobianSingular,
    NonzeroDegree,
    NotCommuting,
    NotInvertibleModJ,
    NotInvolutive,
    OddIntegrationError,
    OddSquareNonzero,
    OutputTooLarge,
    ProblemFormatError,
    UnknownCoordinateError,
    ZeroDegree,
    ZnError,
)
from .fields import (
    CoordinateChange,
    VectorField,
    bracket,
    compose_changes,
    invert_change,
    pushforward,
    substitute,
)
from .frobenius import (
    AdaptedReport,
    FrobeniusCertificate,
    adapted_coordinates,
    commuting_triangular,
    straighten_deg0,
    straighten_nonzero,
    verify_adapted,
)
from .grading import DegreeVector, parity, scalar_product
from .io_cli import ProblemSpec, load_problem, parse_expression, run
from .linalg import (
    GradedMatrix,
    TangentVector,
    complete_basis,
    invert_mod_J,
    rational_inverse,
)
from .series import (
    ChartSpec,
    GradedSeries,
    Monomial,
    antiderivative,
    certified_part,
    collect_truncation_drops,
    compose,
    derive,
    is_boundary_monomial,
    multiply,
    reduce_mod_j,
    reduce_series,
)

__all__ = [name for name in dir() if not name.startswith("_")]
