"""Distributions on a chart: rank, normalized generators, membership, and
the involutivity test.

A distribution is a finite list of homogeneous generator fields whose
tangent vectors at the origin are independent degree by degree.
Normalization is one row reduction of ``[coefficients | I]`` over the
chart ring, after which generator i reads ``d/d(pivot_i) + tail`` with
tails supported away from the pivot columns, and the right block is the
inverse of the square pivot block.  Membership against a normalized
family is then a forced solve: the candidate's pivot coefficients are the
only possible combination, and the leftover field is the obstruction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .errors import ChartError
from .fields import VectorField, bracket
from .grading import DegreeVector
from .linalg import _pivot_reduce
from .series import ChartSpec, GradedSeries, _accumulate, _certified


@dataclass(frozen=True)
class Rank:
    """Generator count per degree vector."""

    counts: tuple[tuple[DegreeVector, int], ...]

    @classmethod
    def of(cls, pairs: dict[DegreeVector, int]) -> "Rank":
        return cls(tuple(sorted(
            ((d, c) for d, c in pairs.items() if c),
            key=lambda dc: dc[0].bits,
        )))

    def to_json(self) -> dict[str, int]:
        return {"".join(str(b) for b in d.bits): c for d, c in self.counts}


class Distribution:
    """Generator list on a chart; generators must be homogeneous fields."""

    __slots__ = ("chart", "generators", "_norm_cache")

    def __init__(self, chart: ChartSpec, generators: Sequence[VectorField]):
        for g in generators:
            if g.chart != chart:
                raise ChartError("generator lives on another chart")
        self.chart = chart
        self.generators = tuple(generators)
        self._norm_cache: Optional[_Normalized] = None

    def normalized(self) -> "_Normalized":
        if self._norm_cache is None:
            self._norm_cache = _normalize(self)
        return self._norm_cache


@dataclass(frozen=True)
class _Normalized:
    distribution: Distribution          # recombined generators
    pivots: tuple[str, ...]             # pivot coordinate per generator
    transform: tuple[tuple[GradedSeries, ...], ...]  # S: new = S @ old


def _normalize(D: Distribution) -> _Normalized:
    chart = D.chart
    width = len(chart.names)
    pivots, reduced = _pivot_reduce(chart, [
        [gen.coefficient(name) for name in chart.names]
        for gen in D.generators])
    new_gens = [VectorField(chart, gen.degree, dict(zip(chart.names, row)))
                for gen, row in zip(D.generators, reduced)]
    return _Normalized(Distribution(chart, new_gens),
                       tuple(chart.names[p] for p in pivots),
                       tuple(tuple(row[width:]) for row in reduced))


def rank_of(D: Distribution) -> Rank:
    """Per-degree generator count; the normalization pass certifies
    independence at the base point."""
    gens = D.normalized().distribution.generators
    return Rank.of(Counter(g.degree for g in gens))


def normalize_generators(D: Distribution) -> tuple[Distribution, tuple[str, ...]]:
    """Recombined generators in pivot form plus the column permutation that
    lists the pivot coordinates first."""
    norm = D.normalized()
    rest = tuple(n for n in D.chart.names if n not in norm.pivots)
    return norm.distribution, norm.pivots + rest


@dataclass(frozen=True)
class MembershipResult:
    contained: bool
    residual: Optional[VectorField]
    obstruction_coordinate: Optional[str]
    residual_order: Optional[int]    # least total degree of a residual term
    _solution: Optional[tuple] = None  # (chart, f', S) when contained

    def __bool__(self) -> bool:
        return self.contained

    @cached_property
    def coefficients(self) -> Optional[tuple[GradedSeries, ...]]:
        """``f = f' S`` on D's generators from the forced f' on the normalized
        ones, worked out when first read; None when X is not contained."""
        if self._solution is None:
            return None
        chart, forced, transform = self._solution
        return tuple(_accumulate(chart, [(1, f, s) for f, s in zip(
            forced, column)]) for column in zip(*transform))


def membership(X: VectorField, D: Distribution) -> MembershipResult:
    """Solve ``X = sum_t f_t G_t`` over the chart ring.

    Against the normalized family the pivot coefficients of X force the
    f_t, so the leftover field decides the answer: a residual inside the
    certified window is a definitive no at this truncation, while leftover
    terms on the truncation boundary are not trustworthy evidence either
    way and are ignored for the verdict (they are still reported).
    """
    if X.chart != D.chart:
        raise ChartError("field and distribution live on different charts")
    norm = D.normalized()
    gens = norm.distribution.generators
    forced = tuple(X.coefficient(p) for p in norm.pivots)
    residual = VectorField(X.chart, X.degree, {
        name: _accumulate(X.chart, [(1, X.coefficient(name)), *(
            (-1, f, g.coefficient(name)) for f, g in zip(forced, gens))])
        for name in X.chart.names})
    decisive = _certified(residual.coefficients)
    if not decisive:
        return MembershipResult(True, None if residual.is_zero else residual,
                                None, None, (X.chart, forced, norm.transform))
    # the residual is built in chart order
    first = next(iter(decisive))
    order = min(
        m.total_degree for series in decisive.values() for m in series.terms
    )
    return MembershipResult(False, residual, first, order)


@dataclass(frozen=True)
class InvolutivityResult:
    involutive: bool
    witness_pair: Optional[tuple[int, int]]
    witness_bracket: Optional[VectorField]
    obstruction: Optional[MembershipResult]

    def __bool__(self) -> bool:
        return self.involutive


def _bracket_pairs(fields: Sequence[VectorField]) -> Iterator[tuple[int, int]]:
    """The pairs (i, j) whose bracket can be nonzero: i < j, and i == j for
    an odd field (an even field's self-bracket cancels term by term)."""
    for i, X in enumerate(fields):
        for j in range(i if X.degree.is_odd else i + 1, len(fields)):
            yield i, j


def is_involutive(D: Distribution) -> InvolutivityResult:
    """Check closure under the graded bracket for every `_bracket_pairs`
    pair of generators."""
    gens = D.generators
    for i, j in _bracket_pairs(gens):
        b = bracket(gens[i], gens[j])
        if b.is_zero:
            continue
        got = membership(b, D)
        if not got.contained:
            return InvolutivityResult(False, (i, j), b, got)
    return InvolutivityResult(True, None, None, None)
