"""Truncated series over a graded chart, with Koszul-signed arithmetic.

The chart ring is modelled as the quotient of the free (Z_2)^n-graded
commutative algebra on the chart coordinates by two relations:

* odd coordinates square to zero,
* monomials whose J-degree (total exponent of nonzero-degree coordinates)
  exceeds ``j_order`` or whose base degree exceeds ``base_order`` are zero.

Monomials are exponent tuples, canonical by construction: factors sorted
by chart coordinate order, all reordering signs folded into the exact
coefficient.  A coefficient is an ``int`` when it is integral and a
``Fraction`` only while a denominator remains, so integral arithmetic never
takes the slow ``Fraction`` path.  ``GradedSeries(chart, terms)`` is the
one constructor and always checks its input; every kernel result comes
from one private builder, `_built`, which keeps the map its producer made,
so a coefficient is made canonical, and a zero left out, where it is made;
every sum of scaled series and scaled products of two series, from ``+``
to a bracket, comes from one accumulator, `_accumulate`.
Dropping a monomial during multiplication or substitution is *exact*
quotient-ring arithmetic and carries no flag (`multiply` checks the window
first and builds a dropped product only for a drop collector).
Antiderivatives are the one lifted operation that can genuinely lose
information: when the integral of a representable term is not
representable, the term is dropped and the result carries truncation
loss, one private value per series that ``|`` combines into everything
computed from it and the read-only ``base_loss`` / ``j_loss`` report.

Products run on term rows, which a series works out once from its terms
and caches: ``(monomial, coefficient, J-degree, base degree, odd-support
mask, odd-exponent mask, sign mask)``, where bit ``i`` of the sign mask is
``sum_{j<i} (e_j mod 2) <deg_j, deg_i> mod 2``.  A product term's degrees
and masks are the sums and XORs of its factors', so a product's rows come
out of the product itself.  One chain of powers (`_extend`) and one
product fold (`_fold`), the one product rule, serve `multiply`, ``**``,
substitution and the parser, with no series built per power or product.
A series' ``terms`` never change once built (a lint in the tests checks
this), or its cached rows and the series sharing its map would go stale.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import comb
from operator import add, or_
from typing import Iterable, Mapping, Optional, Union

from .errors import (
    CenteringError,
    ChartError,
    DimensionError,
    HomogeneityError,
    OddIntegrationError,
    UnknownCoordinateError,
)
from .grading import DegreeVector

Rational = Union[Fraction, int, str]
# canonical coefficient: never a Fraction whose denominator is 1
Coefficient = Union[int, Fraction]


def _canonical(c: Coefficient) -> Coefficient:
    """The one canonical form of a coefficient: an integral ``Fraction``
    becomes its ``int``."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# chart
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChartSpec:
    """Named graded coordinates plus the truncation orders of the ring.

    Coordinates of degree zero are the base coordinates; all others
    generate the ideal J.  The given coordinate order is the canonical
    monomial order.  The chart is centered at the origin.
    """

    n: int
    coordinates: tuple[tuple[str, DegreeVector], ...]
    j_order: int = 4
    base_order: int = 6

    def __post_init__(self):
        n, j, b = self.n, self.j_order, self.base_order
        if not (_is_int(n) and n >= 1):
            raise DimensionError("chart needs an integer n >= 1")
        if not (_is_int(j) and _is_int(b) and j >= 1 and b >= 1):
            raise DimensionError("truncation orders must be positive integers")
        names = [name for name, _ in self.coordinates]
        if len(set(names)) != len(names):
            raise ChartError(f"duplicate coordinate names: {names}")
        for name, deg in self.coordinates:
            if deg.n != self.n:
                raise DimensionError(
                    f"coordinate {name!r} has degree length {deg.n}, chart has n={self.n}"
                )

    @classmethod
    def build(cls, n: int, coords: Iterable[tuple[str, Iterable[int]]],
              j_order: int = 4, base_order: int = 6) -> "ChartSpec":
        return cls(
            n=n,
            coordinates=tuple((name, DegreeVector(tuple(deg))) for name, deg in coords),
            j_order=j_order,
            base_order=base_order,
        )

    # -- cached structure ---------------------------------------------------

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.coordinates)

    @cached_property
    def degrees(self) -> tuple[DegreeVector, ...]:
        return tuple(deg for _, deg in self.coordinates)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def odd_flags(self) -> tuple[bool, ...]:
        return tuple(deg.is_odd for deg in self.degrees)

    @cached_property
    def base_indices(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.degrees) if d.is_zero)

    @cached_property
    def nonzero_indices(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.degrees) if not d.is_zero)

    @cached_property
    def pair_table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(a.dot(b) for b in self.degrees) for a in self.degrees
        )

    @cached_property
    def _row_masks(self) -> tuple[int, tuple[int, ...]]:
        # the bits of the odd coordinates, and per coordinate j the bits of
        # the later coordinates i with <deg_j, deg_i> = 1
        return (sum(1 << i for i, odd in enumerate(self.odd_flags) if odd),
                tuple(sum(1 << i for i in range(j + 1, len(row)) if row[i])
                      for j, row in enumerate(self.pair_table)))

    @cached_property
    def _pairs_before(self) -> tuple[tuple[int, ...], ...]:
        # per coordinate k, the earlier coordinates j with <deg_j, deg_k> = 1
        later = self._row_masks[1]
        return tuple(tuple(j for j in range(k) if later[j] >> k & 1)
                     for k in range(len(later)))

    @cached_property
    def _coordinate_rows(self) -> tuple[tuple, ...]:
        # each coordinate's term row: both orders are at least 1
        n = len(self.coordinates)
        units = (Monomial(int(i == j) for j in range(n)) for i in range(n))
        return tuple(_rows_of(self, ((m, 1) for m in units)))

    @cached_property
    def _degree_codes(self) -> tuple[int, ...]:
        # each coordinate's degree as an int whose bit k is component k
        return tuple(map(self._code_of, self.degrees))

    @cached_property
    def zero_degree(self) -> DegreeVector:
        return DegreeVector.zero(self.n)

    @cached_property
    def unit_monomial(self) -> "Monomial":
        return Monomial((0,) * len(self.coordinates))

    # -- lookups --------------------------------------------------------------

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownCoordinateError(f"unknown coordinate {name!r}") from None

    def degree_of(self, name: str) -> DegreeVector:
        return self.degrees[self.index(name)]

    def _code_of(self, degree: DegreeVector) -> int:
        """A degree vector of this chart's length as an int whose bit k is
        component k."""
        if degree.n != self.n:
            raise DimensionError(
                f"degree length mismatch: {degree.n} vs {self.n}")
        return sum(b << k for k, b in enumerate(degree.bits))

    def _degree_code(self, mon: "Monomial") -> int:
        """The degree of a monomial as an int: the XOR of the codes of its
        odd-exponent coordinates, since even powers have degree zero."""
        codes = self._degree_codes
        code = 0
        for i, e in enumerate(mon):
            if e & 1:
                code ^= codes[i]
        return code

    def _degree_vector(self, code: int) -> DegreeVector:
        """The degree vector of a code, built where a degree is read."""
        return DegreeVector(tuple((code >> k) & 1 for k in range(self.n)))

    def with_truncation(self, j_order: Optional[int] = None,
                        base_order: Optional[int] = None) -> "ChartSpec":
        return ChartSpec(
            n=self.n,
            coordinates=self.coordinates,
            j_order=self.j_order if j_order is None else j_order,
            base_order=self.base_order if base_order is None else base_order,
        )

    # -- series factories -----------------------------------------------------

    def zero(self) -> "GradedSeries":
        return _built(self, {})

    def constant(self, value: Rational) -> "GradedSeries":
        coeff = value if type(value) is int else _canonical(Fraction(value))
        return _built(self, {self.unit_monomial: coeff} if coeff else {})

    def one(self) -> "GradedSeries":
        return self.constant(1)

    def coordinate(self, name: str) -> "GradedSeries":
        row = self._coordinate_rows[self.index(name)]
        return _built(self, {row[0]: 1}, 0, [row])

    def monomial(self, exponents: Mapping[str, int],
                 coefficient: Rational = 1) -> "GradedSeries":
        exps = [0] * len(self.coordinates)
        for name, e in exponents.items():
            exps[self.index(name)] = e
        return GradedSeries(self, {Monomial(tuple(exps)): coefficient})


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

class Monomial(tuple):
    """Canonical monomial: a tuple of exponents aligned with the chart
    coordinate order, so hashing and equality are the tuple's own."""

    __slots__ = ()

    @property
    def exps(self) -> tuple[int, ...]:
        return self

    def j_degree(self, chart: ChartSpec) -> int:
        return sum(self[i] for i in chart.nonzero_indices)

    def base_degree(self, chart: ChartSpec) -> int:
        return sum(self[i] for i in chart.base_indices)

    @property
    def total_degree(self) -> int:
        return sum(self)

    def degree(self, chart: ChartSpec) -> DegreeVector:
        return chart._degree_vector(chart._degree_code(self))

    def label(self, chart: ChartSpec) -> str:
        if not any(self):
            return "1"
        parts = []
        for i, e in enumerate(self):
            if not e:
                continue
            name = chart.names[i]
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    @property
    def is_unit(self) -> bool:
        return not any(self)


# ---------------------------------------------------------------------------
# truncation-drop reporting (used by the parser to warn about dropped terms)
# ---------------------------------------------------------------------------

# a context variable, not a process-wide stack: each thread (and each
# asyncio task) sees only the sink of its own innermost collector
_DROP_SINK = contextvars.ContextVar("znfrob_drop_sink", default=None)


@contextlib.contextmanager
def collect_truncation_drops():
    """Collect monomials dropped by the truncation window inside the block."""
    sink: list[tuple[Monomial, Coefficient]] = []
    token = _DROP_SINK.set(sink)
    try:
        yield sink
    finally:
        _DROP_SINK.reset(token)


def _note_drop(mon: Monomial, coeff: Coefficient) -> None:
    sink = _DROP_SINK.get()
    if sink is not None:
        sink.append((mon, coeff))


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

# the bits of a series' truncation loss
_BASE_LOSS = 1
_J_LOSS = 2


class GradedSeries:
    """Element of the truncated chart ring with exact rational coefficients."""

    __slots__ = ("chart", "terms", "_rows", "_loss")

    def __init__(self, chart: ChartSpec,
                 terms: Mapping[Monomial, Rational],
                 declared_degree: Optional[DegreeVector] = None):
        kept = {}
        width = len(chart.coordinates)
        for mon, raw in terms.items():
            if len(mon) != width:
                raise DimensionError(f"monomial {mon} needs {width} exponents")
            if not all(type(e) is int and e >= 0 for e in mon):
                raise ValueError(f"monomial {mon} needs nonnegative int exponents")
            coeff = Fraction(raw)
            if not coeff:
                continue
            if any(mon.exps[i] > 1 for i in chart.nonzero_indices
                   if chart.odd_flags[i]):
                continue  # odd square: zero in the ring
            if (mon.j_degree(chart) > chart.j_order
                    or mon.base_degree(chart) > chart.base_order):
                _note_drop(mon, coeff)
                continue
            kept[mon] = _canonical(coeff)
        self._fill(chart, kept, 0, None)
        if declared_degree is not None:
            code = chart._code_of(declared_degree)
            for mon in self.terms:
                if chart._degree_code(mon) != code:
                    raise HomogeneityError(
                        f"monomial {mon.label(chart)} has degree "
                        f"{mon.degree(chart)}, declared {declared_degree}"
                    )

    def _fill(self, chart: ChartSpec, terms: dict[Monomial, Coefficient],
              loss: int, rows: Optional[list[tuple]]) -> "GradedSeries":
        """Set every slot; only the constructor and `_built` call this."""
        self.chart = chart
        self.terms = terms
        self._loss = loss
        self._rows = rows
        return self

    # -- basic structure ----------------------------------------------------

    @property
    def base_loss(self) -> bool:
        return bool(self._loss & _BASE_LOSS)

    @property
    def j_loss(self) -> bool:
        return bool(self._loss & _J_LOSS)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> Optional[DegreeVector]:
        """Common degree of the terms, or None when the series is zero or
        inhomogeneous."""
        codes = set(map(self.chart._degree_code, self.terms))
        return self.chart._degree_vector(codes.pop()) if len(codes) == 1 else None

    def is_homogeneous_of(self, degree: DegreeVector) -> bool:
        return self._is_of_code(self.chart._code_of(degree))

    def _is_of_code(self, code: int) -> bool:
        """Every term has the degree whose code is ``code``."""
        return all(self.chart._degree_code(m) == code for m in self.terms)

    @property
    def constant_term(self) -> Coefficient:
        return self.terms.get(self.chart.unit_monomial, 0)

    def coefficient(self, mon: Monomial) -> Coefficient:
        return self.terms.get(mon, 0)

    def sorted_terms(self) -> list[tuple[Monomial, Coefficient]]:
        return sorted(self.terms.items(),
                      key=lambda mc: (mc[0].total_degree, mc[0].exps))

    def _term_rows(self) -> list[tuple]:
        """The cached term rows (see the module docstring)."""
        if self._rows is None:
            self._rows = _rows_of(self.chart, self.terms.items())
        return self._rows

    # -- ring operations ------------------------------------------------------

    def _operand(self, other) -> Optional["GradedSeries"]:
        """``other`` as a series on this chart, or None for a non-number."""
        if isinstance(other, (int, Fraction)):
            return self.chart.constant(other)
        if isinstance(other, GradedSeries):
            _same_chart(self, other)
            return other
        return None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return _accumulate(self.chart, ((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self):
        return _accumulate(self.chart, ((-1, self),))

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return _accumulate(self.chart, ((1, self), (-1, other)))

    def __rsub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return _accumulate(self.chart, ((1, other), (-1, self)))

    def __mul__(self, other):
        if isinstance(other, GradedSeries):
            return multiply(self, other)
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.chart.zero()
            return _accumulate(self.chart, ((other, self),))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other:
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int):
        if not _is_int(exponent) or exponent < 0:
            raise ValueError("series powers take a nonnegative integer")
        # binomial sum over self = c + n: the constant c is a central scalar
        # and n is centered, so n^k vanishes past the window's total degree
        # and the chain of powers stops there whatever the exponent
        chart = self.chart
        c = self.constant_term
        chain = [(self - c)._term_rows()]
        _extend(chain, exponent, chart)  # extends nothing for exponent 0
        parts = [(c ** exponent, [(chart.unit_monomial, 1, 0, 0, 0, 0, 0)])]
        parts += [(comb(exponent, k) * c ** (exponent - k), rows)
                  for k, rows in enumerate(chain[:exponent], 1)
                  if c or k == exponent]  # else the binomial term is zero
        return _accumulate(chart, parts, self._loss if exponent else 0)

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        return hash((self.chart, frozenset(self.terms.items())))

    # -- truncation -----------------------------------------------------------

    def truncated_to(self, chart: ChartSpec) -> "GradedSeries":
        """Re-truncate onto a chart with the same frame but lower orders."""
        if (self.chart.n, self.chart.coordinates) != (chart.n, chart.coordinates):
            raise ChartError("truncation target must share the coordinate frame")
        terms = {
            m: c for m, c in self.terms.items()
            if m.j_degree(chart) <= chart.j_order
            and m.base_degree(chart) <= chart.base_order
        }
        return _built(chart, terms, self._loss)

    # -- presentation -----------------------------------------------------------

    def to_json_map(self) -> dict[str, str]:
        return {m.label(self.chart): str(c) for m, c in self.sorted_terms()}

    def __str__(self) -> str:
        out = ""
        for mon, coeff in self.sorted_terms():
            mag = abs(coeff)
            if out:
                out += " - " if coeff < 0 else " + "
            elif coeff < 0:
                # a leading "-e^2" would reparse as (-e)^2: unary minus binds
                # tighter than '^', so spell the unit coefficient out
                out = "-1*" if mag == 1 and not mon.is_unit else "-"
            if mon.is_unit:
                out += str(mag)
            else:
                label = mon.label(self.chart)
                out += label if mag == 1 else f"{mag}*{label}"
        return out or "0"

    def __repr__(self) -> str:
        return f"GradedSeries({self})"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _built(chart: ChartSpec, terms: dict[Monomial, Coefficient],
           loss: int = 0, rows: Optional[list[tuple]] = None) -> GradedSeries:
    """The one builder of kernel results, keeping the map its producer made:
    ``terms`` lie in the window and hold no odd square, no zero and only
    canonical coefficients; ``rows``, when given, are their cached rows."""
    return object.__new__(GradedSeries)._fill(chart, terms, loss, rows)


def _rows_of(chart: ChartSpec, terms: Iterable[tuple]) -> list[tuple]:
    """The rows (see the module docstring) of ``(monomial, coefficient)``
    pairs."""
    odd_mask, later = chart._row_masks
    base = chart.base_indices
    rows = []
    for mon, c in terms:
        par = sign = b = 0
        for i, e in enumerate(mon):
            if e & 1:
                par |= 1 << i
                sign ^= later[i]
        for i in base:
            b += mon[i]
        # an odd coordinate's exponent is 0 or 1, so its odd-exponent bit is
        # its support bit
        rows.append((mon, c, sum(mon) - b, b, par & odd_mask, par, sign))
    return rows


def _accumulate(chart: ChartSpec, parts: Iterable[tuple],
                loss: int = 0) -> GradedSeries:
    """``sum a*f`` and ``sum a*f*g`` over the parts ``(a, f)`` and
    ``(a, f, g)`` in one coefficient map, built as one series carrying
    ``loss`` and every factor's loss.  A product is `_multiply_rows` on
    cached rows in factor order (the Koszul sign depends on it); one with
    a zero factor is skipped, keeping its loss.  In ``(a, f)``, ``f`` may
    also be a row list of canonical coefficients, with no loss of its own.
    A monomial that cancels is deleted, so one that comes back goes last,
    as adding the parts one at a time puts it.  Each part's terms are
    scaled first, a -1 part by negation, so a plain sum multiplies no
    coefficient, and a 0 part to nothing; one loop merges them.  A scaled
    value or a sum is made canonical where it is made.  Callers check the
    charts."""
    out: dict[Monomial, Coefficient] = {}
    get = out.get
    for part in parts:
        if len(part) == 3:
            a, f, g = part
            loss |= f._loss | g._loss
            if not f.terms or not g.terms:
                continue
            terms = _multiply_rows(f._term_rows(), g._term_rows(), chart)
        else:
            a, f = part
            if type(f) is not list:
                loss |= f._loss
                if a == 1 and not out:  # a leading series is copied as it is
                    out.update(f.terms)
                    continue
            terms = f if type(f) is list else f.terms.items()
        if a == -1:
            terms = [(t[0], -t[1]) for t in terms]
        elif a != 1:
            terms = [(t[0], _canonical(a * t[1])) for t in terms] if a else []
        # a new monomial takes its coefficient as it is: 0 + c would take
        # Fraction's slow reverse-operator path
        for t in terms:
            got = get(t[0])
            if got is None:
                out[t[0]] = t[1]
            elif got := got + t[1]:
                out[t[0]] = _canonical(got)
            else:
                del out[t[0]]
    return _built(chart, out, loss)


def _same_chart(f: GradedSeries, g: GradedSeries) -> ChartSpec:
    if f.chart != g.chart:
        raise ChartError("series live on different charts")
    return f.chart


def multiply(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """Koszul-signed product, truncated to the chart window.

    Merging two canonical monomials moves every right factor of coordinate
    index j past the left factors of index i > j; each pass contributes
    ``(-1)^{<deg_i, deg_j>}``, so the pair's sign is
    ``(-1)^{popcount(par1 & sign2)}`` on the term rows, and the pair is an
    odd square exactly when ``osup1 & osup2`` is nonzero.  The product is
    the `_fold` of the two series' cached rows; its rows are cached on the
    result.
    """
    return _product(_same_chart(f, g), (f, g))


def _multiply_rows(rows1: list[tuple], rows2: list[tuple],
                   chart: ChartSpec) -> list[tuple]:
    """Rows of the product of two row lists, truncated to the window.

    The window is checked first, on the rows' degrees; a pair past it that
    is no odd square is built, unsigned, only for a drop collector.  Two
    integral coefficients multiply as ``int``s; only a pair with a
    ``Fraction`` factor takes the ``Fraction`` path.  A side of one row
    gives distinct products that no merge needs, listed in pair order.
    """
    jmax, bmax = chart.j_order, chart.base_order
    sink = _DROP_SINK.get()
    listed = [] if len(rows1) == 1 or len(rows2) == 1 else None
    out: dict[Monomial, list] = {}
    for m1, c1, j1, b1, o1, p1, s1 in rows1:
        j_room = jmax - j1
        b_room = bmax - b1
        for m2, c2, j2, b2, o2, p2, s2 in rows2:
            if j2 > j_room or b2 > b_room:
                if sink is not None and not o1 & o2:
                    sink.append((Monomial(map(add, m1, m2)), c1 * c2))
                continue
            if o1 & o2:
                continue
            mon = Monomial(map(add, m1, m2))
            coeff = -c1 * c2 if (p1 & s2).bit_count() & 1 else c1 * c2
            if listed is not None:
                listed.append((mon, _canonical(coeff), j1 + j2, b1 + b2,
                               o1 | o2, p1 ^ p2, s1 ^ s2))
                continue
            row = out.get(mon)
            if row is None:
                out[mon] = [coeff, j1 + j2, b1 + b2, o1 | o2, p1 ^ p2, s1 ^ s2]
            else:
                coeff += row[0]
                if coeff:
                    row[0] = coeff
                else:
                    del out[mon]
    return listed if listed is not None else [
        (m, _canonical(c), j, b, o, p, s) for m, (c, j, b, o, p, s) in out.items()]


def _extend(chain: list[list[tuple]], k: int, chart: ChartSpec) -> list[tuple]:
    """``u^k`` from the chain ``[u, u^2, ...]`` of a row list's powers,
    extended by `_multiply_rows` of its last power by ``u`` until it holds
    ``u^k`` or ends in an empty power; ``[]`` past the first empty power."""
    while len(chain) < k and chain[-1]:
        chain.append(_multiply_rows(chain[-1], chain[0], chart))
    return chain[k - 1] if k <= len(chain) else []


def _scaled(rows: list[tuple], a: Coefficient) -> list[tuple]:
    """``a`` times a row list: scaling keeps every degree and mask."""
    if a == 1:
        return rows
    return [(m, _canonical(c * a), j, b, o, p, s)
            for m, c, j, b, o, p, s in rows] if a else []


def _coordinate_power(chart: ChartSpec, i: int, k: int) -> list[tuple]:
    """The rows of the k-th power (k >= 1) of coordinate i: none for an odd
    square, and none past the window, after noting the first power past
    it with coefficient 1, as `_multiply_rows` notes a product it drops."""
    if k > 1 and chart.odd_flags[i]:
        return []
    top = chart.j_order if chart._degree_codes[i] else chart.base_order
    exps = [0] * len(chart.names)
    exps[i] = min(k, top + 1)
    if k > top:
        _note_drop(Monomial(exps), 1)
        return []
    return _rows_of(chart, ((Monomial(exps), 1),))


def _fold(chart: ChartSpec, factors: Iterable) -> tuple[list[tuple], int]:
    """The rows and the loss of the product of ``factors``, taken one at a
    time and all of them, so a lazy caller parses each factor after the
    product of the factors before it: the kernel's one product rule.

    A factor is a coefficient, a pair ``(i, k)`` for the k-th power of
    coordinate i, a row list, or a series, bringing its rows and its loss.
    Leading coefficients and pairs are read off as one monomial while it
    stays in the window and holds no odd square: the exponents add, the
    coefficients multiply, and an odd power flips the sign once for each
    odd-exponent factor after it that it pairs with (the sign masks of
    ``ChartSpec._row_masks``).  From the first factor that ends it, a pair
    is the rows `_coordinate_power` gives, a coefficient scales the product
    so far, and every other factor is multiplied into it by
    `_multiply_rows`, so the drops are noted in the order of the factors.
    A monomial with a zero coefficient has no rows, and one of numbers
    alone only scales the first rows to arrive."""
    odd_mask, later = chart._row_masks
    exps, held, rows, loss = [0] * len(later), 1, None, 0
    j = b = par = sign = 0
    for factor in factors:
        if type(factor) is tuple:
            i, k = factor
            jk, bk = (j + k, b) if chart._degree_codes[i] else (j, b + k)
            if (rows is None and jk <= chart.j_order and bk <= chart.base_order
                    and not (odd_mask >> i & 1 and exps[i] + k > 1)):
                if k & 1:
                    held = -held if (par & later[i]).bit_count() & 1 else held
                    par, sign = par ^ 1 << i, sign ^ later[i]
                exps[i] += k
                j, b = jk, bk
                continue
            got = _coordinate_power(chart, i, k)
        elif type(factor) is list:
            got = factor
        elif isinstance(factor, GradedSeries):
            loss |= factor._loss
            got = factor._term_rows()
        elif rows is not None:
            rows = _scaled(rows, factor)
            continue
        else:  # 1 * c would take Fraction's slow reverse-operator path
            held = factor if held == 1 else held * factor
            continue
        if rows is None and (j or b):  # the monomial read so far
            rows = [(Monomial(exps), _canonical(held), j, b, par & odd_mask,
                     par, sign)] if held else []
        rows = (_scaled(got, held) if rows is None
                else _multiply_rows(rows, got, chart))
    if rows is None:  # every factor was read into the monomial
        rows = [(Monomial(exps), _canonical(held), j, b, par & odd_mask, par,
                 sign)] if held else []
    return rows, loss


def _product(chart: ChartSpec, factors: Iterable) -> GradedSeries:
    """The `_fold` of ``factors`` as one series."""
    rows, loss = _fold(chart, factors)
    return _built(chart, {row[0]: row[1] for row in rows}, loss, rows)


def _moved_terms(f: GradedSeries, k: int, step: int) -> Iterable[tuple]:
    """Each term ``c*m`` of ``f`` whose exponent of coordinate k can move by
    ``step`` (+-1), as ``(m', c, n)``: m with it moved, and the larger
    exponent times the Koszul sign of passing m's factors before k: bit k
    of m's sign mask, read off the chart's earlier coordinates that pair
    with k (so it needs no rows)."""
    signed = f.chart._pairs_before[k]
    for mon, coeff in f.terms.items():
        e = mon[k] + step
        if e >= 0:
            n = mon[k] if step < 0 else e
            for j in signed:
                if mon[j] & 1:
                    n = -n
            yield Monomial((*mon[:k], e, *mon[k + 1:])), coeff, n


def derive(f: GradedSeries, name: str) -> GradedSeries:
    """Graded left partial derivative along a chart coordinate."""
    moved = _moved_terms(f, f.chart.index(name), -1)
    # lowering one exponent maps distinct monomials to distinct ones
    return _built(f.chart, {m: _canonical(n * c) for m, c, n in moved}, f._loss)


def antiderivative(f: GradedSeries, name: str) -> GradedSeries:
    """Inverse of `derive` along an even coordinate, vanishing at zero.

    Terms whose integral leaves the truncation window are dropped and the
    matching loss flag is set on the result; everything representable
    satisfies ``derive(name, result) == f`` exactly.
    """
    chart = f.chart
    k = chart.index(name)
    if chart.odd_flags[k]:
        raise OddIntegrationError(
            f"cannot integrate along odd coordinate {name!r}")
    # raising an exponent can leave the window only through its own layer
    if chart.degrees[k].is_zero:
        layer, order, flag = chart.base_indices, chart.base_order, _BASE_LOSS
    else:
        layer, order, flag = chart.nonzero_indices, chart.j_order, _J_LOSS
    out: dict[Monomial, Coefficient] = {}
    loss = f._loss
    for mon, coeff, n in _moved_terms(f, k, 1):
        if sum(mon[i] for i in layer) > order:
            _note_drop(mon, coeff)
            loss |= flag
        else:
            out[mon] = _canonical(Fraction(coeff, n))
    return _built(chart, out, loss)


def is_boundary_monomial(mon: Monomial, chart: ChartSpec) -> bool:
    """True where truncated pipelines stop being reliable witnesses.

    Derivatives along nonzero-degree coordinates pull dropped content down
    one J-layer, base derivatives do the same for the base order, and a
    substitution whose base images carry J-positive terms can fold a
    dropped pure-base tail back into the window at total degree past
    ``base_order``.  Identities certified by the solver therefore exclude
    these monomials; everything below them is exact.
    """
    return (mon.j_degree(chart) >= chart.j_order
            or mon.base_degree(chart) >= chart.base_order
            or mon.total_degree > chart.base_order)


def certified_part(f: GradedSeries) -> GradedSeries:
    """The sub-series supported on the certified window."""
    terms = {m: c for m, c in f.terms.items()
             if not is_boundary_monomial(m, f.chart)}
    return _built(f.chart, terms, f._loss)


def _certified(coefficients: Mapping[str, GradedSeries]
               ) -> dict[str, GradedSeries]:
    """The nonzero certified part of each coefficient, in the mapping's
    order.  A residual refutes exactly when this is nonempty: the one
    reader of the certified window for every verdict."""
    return {name: part for name, f in coefficients.items()
            if not (part := certified_part(f)).is_zero}


def _free_of(f: GradedSeries, name: str) -> GradedSeries:
    """The terms of ``f`` free of a coordinate, with ``f``'s loss: ``f``
    with that coordinate set to zero."""
    k = f.chart.index(name)
    return _built(f.chart, {m: c for m, c in f.terms.items() if not m[k]},
                  f._loss)


def _reciprocal(f: GradedSeries) -> GradedSeries:
    """``1/f`` for ``f = c + n`` with c a nonzero constant and n vanishing
    at the origin: ``1/c`` times the sum of one chain of the powers
    ``(-n/c)^k``, each of total degree at least k; with ``f``'s loss."""
    chart = f.chart
    inv = _canonical(Fraction(1) / f.constant_term)
    chain = [_accumulate(chart, ((1, chart.one()), (-inv, f)))._term_rows()]
    _extend(chain, chart.j_order + chart.base_order, chart)
    return _accumulate(chart, [(inv, chart.one()), *(
        (inv, rows) for rows in chain)], f._loss)


def _sharing_loss(rows: list[list[GradedSeries]],
                  sources: Iterable[GradedSeries]) -> list[list[GradedSeries]]:
    """``rows`` with every entry also carrying the loss of each source."""
    loss = reduce(or_, (f._loss for f in sources), 0)
    return [[_built(f.chart, f.terms, f._loss | loss, f._rows)
             if loss & ~f._loss else f for f in row] for row in rows]


def reduce_series(f: GradedSeries, mode: str):
    """``mod_J`` deletes every monomial touching J; ``at_point`` also sets
    the base coordinates to zero and returns the rational value."""
    chart = f.chart
    if mode == "mod_J":
        terms = {m: c for m, c in f.terms.items() if m.j_degree(chart) == 0}
        return _built(chart, terms, f._loss)
    if mode == "at_point":
        return f.constant_term
    raise ValueError(f"unknown reduction mode {mode!r}")


def reduce_mod_j(f: GradedSeries) -> GradedSeries:
    return reduce_series(f, "mod_J")


def check_images(images: Mapping[str, GradedSeries], keyed: ChartSpec,
                 values_on: ChartSpec) -> None:
    """Require exactly one image per ``keyed`` coordinate, each a centered
    series on ``values_on`` that is homogeneous of its coordinate's degree
    (or zero).  A map is checked where it enters the kernel: by `compose`
    and by ``CoordinateChange.make``."""
    if images.keys() != set(keyed.names):
        missing = set(keyed.names) - set(images)
        extra = set(images) - set(keyed.names)
        raise UnknownCoordinateError(
            f"images must cover the chart exactly (missing {sorted(missing)},"
            f" extra {sorted(extra)})")
    for name in keyed.names:
        img = images[name]
        if img.chart != values_on:
            raise ChartError(f"image of {name!r} lives on the wrong chart")
        if not img.is_homogeneous_of(keyed.degree_of(name)):
            raise HomogeneityError(
                f"image of {name!r} must be homogeneous of degree "
                f"{keyed.degree_of(name)}")
        if img.constant_term:
            raise CenteringError(
                f"image of {name!r} does not vanish at the base point")


def compose(f: GradedSeries, images: Mapping[str, GradedSeries],
            into_chart: ChartSpec) -> GradedSeries:
    """Substitute an image series for every coordinate of ``f``.

    ``images`` maps each coordinate name of ``f.chart``, and no other key,
    to a centered series on ``into_chart`` that is homogeneous of the
    coordinate's degree (or zero); `check_images` enforces this.  Identical
    degrees make the substitution a morphism of graded rings, so the
    canonical word can be expanded in coordinate order without extra signs.

    Every term goes into one accumulator: its coefficient times its kept
    coordinates and its moved images' powers (`_substitution`, which
    callers that push several series through one map use to share them).
    """
    check_images(images, f.chart, into_chart)
    return _substitution(images, f.chart, into_chart)(f)


def _linear_split(images: Mapping[str, GradedSeries], keyed: ChartSpec,
                  values_on: ChartSpec) -> tuple[list, dict, int]:
    """An image map split at the origin: its Jacobian (one row per
    ``keyed`` coordinate, one column per ``values_on`` coordinate), its
    nonlinear part (each image's terms of total degree >= 2, with the
    image's loss) and the loss of all the images together."""
    jacobian = [[images[k].terms.get(row[0], 0)
                 for row in values_on._coordinate_rows] for k in keyed.names]
    nonlinear = {k: _built(values_on, {m: c for m, c in images[k].terms.items()
                                       if sum(m) > 1}, images[k]._loss)
                 for k in keyed.names}
    loss = reduce(or_, (images[k]._loss for k in keyed.names), 0)
    return jacobian, nonlinear, loss


def _kept(images: Mapping[str, GradedSeries], keyed: ChartSpec,
          values_on: ChartSpec) -> list[bool]:
    """For each ``keyed`` coordinate, whether its image is itself."""
    if keyed.coordinates != values_on.coordinates:
        return [False] * len(keyed.names)
    return [len(t := images[name].terms) == 1 and t.get(row[0]) == 1
            for name, row in zip(keyed.names, values_on._coordinate_rows)]


def _substitution(images: Mapping[str, GradedSeries], keyed: ChartSpec,
                  into_chart: ChartSpec):
    """`compose` through one image map, unchecked: a change's maps were
    checked by ``make``, and an inversion iterate is valid by construction.
    Every caller checks or builds the series it passes on ``keyed``, so
    the returned function takes them as they are and shares the image
    powers across them: each moved image keeps one chain of its powers,
    which `_extend` lengthens only when a term needs a power past its end,
    so an image power, empty or not, is worked out and noted once per map.

    A term ``c*m`` splits as ``m = eps * m_K * m_M`` into the coordinates
    the map keeps (`_kept`) and those it moves, ``eps`` the sign of moving
    m_K ahead, ``(-1)^popcount(par(m_K) & sign(m_M))`` (images keep their
    coordinates' degrees), and is the `_fold` of ``eps*c``, m_K read off as
    one monomial, and the moved images' powers from the chains; a term of
    kept coordinates is itself.  `_accumulate` sums the terms' row lists as
    they are, so no series is built but the result."""
    image_loss = reduce(or_, (img._loss for img in images.values()), 0)
    kept = _kept(images, keyed, into_chart)
    later = keyed._row_masks[1]
    chains: dict[int, list[list[tuple]]] = {}

    def term(mon: Monomial, coeff: Coefficient) -> tuple:
        """``coeff * mon`` with every coordinate substituted, as a part."""
        pairs, powers, par, sign = [], [], 0, 0
        for i, e in enumerate(mon):
            if e and kept[i]:
                pairs.append((i, e))
                par |= (e & 1) << i
            elif e:
                sign ^= later[i] if e & 1 else 0
                chain = chains.get(i)
                if chain is None:
                    chain = chains[i] = [images[keyed.names[i]]._term_rows()]
                powers.append(chain[e - 1] if e <= len(chain)
                              else _extend(chain, e, into_chart))
        if (par & sign).bit_count() & 1:
            coeff = -coeff
        return 1, _fold(into_chart, [coeff, *pairs, *powers])[0]

    def substitute(f: GradedSeries) -> GradedSeries:
        return _accumulate(into_chart, map(term, f.terms, f.terms.values()),
                           f._loss | image_loss)

    return substitute
