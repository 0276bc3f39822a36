"""Matrices over the chart ring and exact linear algebra at the base point.

There are two eliminations.  Over Q, the reduced echelon form kept by
``RowSpan``: basis completion and the rational inverse (a reduction of
``[A | I]``) run through it.  Over the chart ring, `_pivot_reduce`: the
Gauss-Jordan reduction of ``[A | I]``, which picks its own pivots, puts a
distribution's generators in pivot form and inverts a graded matrix
(invertible exactly when its value at the origin is).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import (
    ChartError,
    DependentAtPoint,
    DimensionError,
    HomogeneityError,
    NotInvertibleModJ,
)
from .grading import DegreeVector
from .series import (ChartSpec, Coefficient, GradedSeries, _accumulate,
                     _canonical, _reciprocal, _sharing_loss)


# ---------------------------------------------------------------------------
# exact rational elimination helpers
# ---------------------------------------------------------------------------

class RowSpan:
    """Incremental row space over Q, kept in reduced echelon form.

    Entries stay ``int`` until a pivot other than 1 divides a row, and an
    integral quotient is turned back into an ``int``."""

    def __init__(self):
        self.rows: list[list[Coefficient]] = []
        self.pivots: list[int] = []

    def residual(self, vec: Sequence[Coefficient]) -> list[Coefficient]:
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                factor = v[p]
                v = [x - factor * y for x, y in zip(v, row)]
        return v

    def try_add(self, vec: Sequence[Coefficient]) -> bool:
        """Add the vector if independent; returns False when it is in the span."""
        v = self.residual(vec)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        if v[p] != 1:
            inv = Fraction(1) / v[p]
            v = [_canonical(x * inv) for x in v]
        for row in self.rows:
            if row[p]:
                factor = row[p]
                row[:] = [x - factor * y for x, y in zip(row, v)]
        self.rows.append(v)
        self.pivots.append(p)
        return True


def rational_inverse(rows: Sequence[Sequence[Coefficient]]
                     ) -> Optional[list[list[Coefficient]]]:
    """Inverse over Q; None when singular.

    ``[A | I]`` is reduced in a ``RowSpan``, whose rows are always
    independent: A is singular exactly when a pivot lands in the right
    half, and otherwise the right halves, sorted by pivot, are the inverse,
    with its integral entries as ``int``.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("inverse needs a square matrix")
    span = RowSpan()
    for i, row in enumerate(rows):
        span.try_add([*row, *(int(i == j) for j in range(n))])
    if any(p >= n for p in span.pivots):
        return None
    return [[_canonical(x) for x in row[n:]]
            for _, row in sorted(zip(span.pivots, span.rows))]


# ---------------------------------------------------------------------------
# tangent vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangentVector:
    """Value of a homogeneous field at the origin: one rational per
    coordinate of matching degree."""

    degree: DegreeVector
    components: tuple[tuple[str, Fraction], ...]

    @classmethod
    def make(cls, degree: DegreeVector,
             components: Mapping[str, Fraction]) -> "TangentVector":
        items = tuple(sorted(
            (name, _canonical(Fraction(c))) for name, c in components.items() if c
        ))
        return cls(degree, items)

    @property
    def is_zero(self) -> bool:
        return not self.components

    def as_row(self, chart: ChartSpec) -> list[Coefficient]:
        row = [0] * len(chart.names)
        for name, c in self.components:
            row[chart.index(name)] = c
        return row

    def validate_on(self, chart: ChartSpec) -> None:
        for name, c in self.components:
            if chart.degree_of(name) != self.degree:
                raise HomogeneityError(
                    f"tangent component on {name!r} does not match degree "
                    f"{self.degree}")


# ---------------------------------------------------------------------------
# graded matrices
# ---------------------------------------------------------------------------

class GradedMatrix:
    """Rectangular matrix of series over the chart ring.

    ``row_degrees``/``col_degrees`` carry the graded bookkeeping; a matrix
    representing a degree-preserving module morphism has entry (i, j)
    homogeneous of degree ``row_degrees[i] + col_degrees[j]`` (checkable
    via ``validate_graded``), but general ring matrices may mix degrees
    freely.
    """

    __slots__ = ("chart", "row_degrees", "col_degrees", "entries")

    def __init__(self, chart: ChartSpec,
                 row_degrees: Sequence[DegreeVector],
                 col_degrees: Sequence[DegreeVector],
                 entries: Sequence[Sequence[GradedSeries]]):
        self.chart = chart
        self.row_degrees = tuple(row_degrees)
        self.col_degrees = tuple(col_degrees)
        if len(entries) != len(self.row_degrees):
            raise DimensionError("row count mismatch")
        rows = []
        for i, row in enumerate(entries):
            if len(row) != len(self.col_degrees):
                raise DimensionError("column count mismatch")
            for entry in row:
                if entry.chart != chart:
                    raise ChartError("matrix entry on a different chart")
            rows.append(tuple(row))
        self.entries = tuple(rows)

    def validate_graded(self) -> None:
        for i, row in enumerate(self.entries):
            for j, entry in enumerate(row):
                want = self.row_degrees[i] + self.col_degrees[j]
                if not entry.is_homogeneous_of(want):
                    raise HomogeneityError(
                        f"entry ({i},{j}) must be homogeneous of degree {want}")

    @classmethod
    def identity(cls, chart: ChartSpec,
                 degrees: Sequence[DegreeVector]) -> "GradedMatrix":
        n = len(degrees)
        return cls(chart, degrees, degrees, [
            [chart.one() if i == j else chart.zero() for j in range(n)]
            for i in range(n)
        ])

    def entry(self, i: int, j: int) -> GradedSeries:
        return self.entries[i][j]

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        if self.chart != other.chart:
            raise ChartError("matrices on different charts")
        if self.col_degrees != other.row_degrees:
            raise DimensionError("inner degree profiles do not match")
        columns = [[row[j] for row in other.entries]
                   for j in range(len(other.col_degrees))]
        return GradedMatrix(self.chart, self.row_degrees, other.col_degrees, [
            [_accumulate(self.chart, [(1, a, b) for a, b in zip(row, column)])
             for column in columns]
            for row in self.entries
        ])

    def __add__(self, other: "GradedMatrix") -> "GradedMatrix":
        return self._entrywise(other, 1)

    def __sub__(self, other: "GradedMatrix") -> "GradedMatrix":
        return self._entrywise(other, -1)

    def _entrywise(self, other: "GradedMatrix", sign: int) -> "GradedMatrix":
        """``self + sign * other``, entry by entry."""
        if self.chart != other.chart:
            raise ChartError("matrices on different charts")
        if (self.row_degrees != other.row_degrees
                or self.col_degrees != other.col_degrees):
            raise DimensionError("degree profiles do not match")
        return GradedMatrix(self.chart, self.row_degrees, self.col_degrees, [
            [_accumulate(self.chart, ((1, a), (sign, b))) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ])

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def value_at_origin(self) -> list[list[Coefficient]]:
        return [[e.constant_term for e in row] for row in self.entries]

    def __eq__(self, other):
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return (self.chart == other.chart
                and self.row_degrees == other.row_degrees
                and self.col_degrees == other.col_degrees
                and self.entries == other.entries)

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries
        )
        return f"GradedMatrix[{body}]"


def invert_mod_J(matrix: GradedMatrix) -> GradedMatrix:
    """Two-sided inverse of a square graded matrix T, exact in the window.

    `_pivot_reduce` of the rows ends in ``[P | P T^-1]`` with P a
    permutation matrix, so the right halves sorted by pivot are the
    inverse, as `rational_inverse` reads its ``RowSpan``.  Every entry
    carries the loss of every entry of T.
    """
    if matrix.row_degrees != matrix.col_degrees:
        raise DimensionError("inverse needs row degrees equal to column degrees")
    try:
        pivots, rows = _pivot_reduce(matrix.chart, matrix.entries)
    except DependentAtPoint:
        raise NotInvertibleModJ("matrix is singular at the base point") from None
    n = len(pivots)
    return GradedMatrix(matrix.chart, matrix.row_degrees, matrix.col_degrees,
                        [row[n:] for _, row in sorted(zip(pivots, rows))])


def _pivot_reduce(chart: ChartSpec, rows: Sequence[Sequence[GradedSeries]]
                  ) -> tuple[list[int], list[list[GradedSeries]]]:
    """The pivot columns of the rows of A, and ``[S A | S]`` with S the
    inverse of A's square block T on them: Gauss-Jordan on ``[A | I]``.

    Row i's pivot is the first column of A where its value at the origin
    is nonzero once the rows before it have cleared it; as a product's
    constant term is the product of the constant terms, that value is what
    eliminating the values at the origin leaves, and a row with none is
    dependent there.  Its pivot entry is a unit (`_reciprocal`) even where
    T(0) has a zero diagonal.  Rows are scaled and cleared from the left,
    the pivot entry set to exactly 1 unscaled and zero entries skipped; S is
    T's unique inverse in the window, and every entry carries the loss of
    every entry of A.
    """
    one, zero = chart.one(), chart.zero()
    out = [[*row, *(one if i == j else zero for j in range(len(rows)))]
           for i, row in enumerate(rows)]
    pivots = []
    for i, width in enumerate(map(len, rows)):
        p = next((c for c in range(width) if out[i][c].constant_term), None)
        if p is None:
            raise DependentAtPoint(
                "generators are linearly dependent at the base point")
        pivots.append(p)
        if out[i][p] != one:
            unit = _reciprocal(out[i][p])
            out[i] = [a if a.is_zero or c == p else
                      _accumulate(chart, [(1, unit, a)])
                      for c, a in enumerate(out[i])]
        row = out[i]
        row[p] = one
        for k, other in enumerate(out):
            if k != i and not (f := other[p]).is_zero:
                out[k] = [b if a.is_zero else
                          _accumulate(chart, ((1, b), (-1, f, a)))
                          for a, b in zip(row, other)]
    return pivots, _sharing_loss(out, (a for row in rows for a in row))


def complete_basis(vectors: Sequence[TangentVector],
                   chart: ChartSpec) -> list[str]:
    """Names of coordinate derivations extending the given tangent vectors
    to a basis of the tangent space at the origin.

    Inputs are first checked for per-degree independence; the extension
    picks, per degree, the first coordinates in chart order whose
    derivations stay outside the span built so far.
    """
    spans: dict[DegreeVector, RowSpan] = {}
    for v in vectors:
        v.validate_on(chart)
        if v.is_zero:
            raise DependentAtPoint("zero tangent vector in the input family")
        span = spans.setdefault(v.degree, RowSpan())
        if not span.try_add(v.as_row(chart)):
            raise DependentAtPoint(
                "input tangent vectors are dependent at the base point")
    chosen: list[str] = []
    for i, name in enumerate(chart.names):
        deg = chart.degrees[i]
        span = spans.setdefault(deg, RowSpan())
        if span.try_add([int(k == i) for k in range(len(chart.names))]):
            chosen.append(name)
    return chosen
