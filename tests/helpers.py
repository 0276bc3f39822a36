"""Shared test utilities: standard charts, seeded random data, the
brute-force transposition oracle for the product sign, the Picard loop
that is the reference for inverting a coordinate change, the alternating
sum that is the reference for inverting a graded matrix, the inverse
pivot block and product that are the reference for normalizing a
distribution, the matrix ODE that is the reference for the J-linear step,
the Lie series that is the reference for straightening a field, the
membership-based reference for certificate verification, a graded ring
of plain dicts, tampered certificates, and the parser that evaluates
every atom, power and product in series arithmetic."""

import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from znfrob import (
    AdaptedReport,
    ChartSpec,
    CoordinateChange,
    DegreeVector,
    DependentAtPoint,
    Distribution,
    GradedMatrix,
    GradedSeries,
    InternalInconsistency,
    JacobianSingular,
    Monomial,
    NotInvertibleModJ,
    Rank,
    VectorField,
    antiderivative,
    certified_part,
    compose,
    derive,
    membership,
    pushforward,
    rank_of,
    rational_inverse,
    reduce_mod_j,
)
from znfrob.errors import UnknownCoordinateError
from znfrob.io_cli import _MAX_NESTING, _max_digits, _printable, _syntax_error
from znfrob.linalg import RowSpan
from znfrob.series import _free_of, collect_truncation_drops


def standard_chart(j_order=4, base_order=6, extra_base=False):
    """n=2 chart with one coordinate per degree class (plus an optional
    second base coordinate)."""
    coords = [("x", (0, 0))]
    if extra_base:
        coords.append(("y", (0, 0)))
    coords += [("t1", (0, 1)), ("t2", (1, 0)), ("e", (1, 1))]
    return ChartSpec.build(2, coords, j_order=j_order, base_order=base_order)


def base_chart(names=("x", "y", "z"), j_order=2, base_order=4):
    return ChartSpec.build(1, [(n, (0,)) for n in names],
                           j_order=j_order, base_order=base_order)


def random_monomial(rng, chart, max_exp=2, max_j=None, max_base=None):
    """Uniform-ish sparse monomial inside the truncation window; optional
    caps keep test data away from the boundary where pipeline identities
    pick up truncation effects."""
    j_cap = chart.j_order if max_j is None else max_j
    base_cap = chart.base_order if max_base is None else max_base
    while True:
        exps = []
        for i in range(len(chart.names)):
            if chart.odd_flags[i]:
                exps.append(rng.randint(0, 1))
            else:
                exps.append(rng.choice([0] * 3 + list(range(1, max_exp + 1))))
        mon = Monomial(tuple(exps))
        if (mon.j_degree(chart) <= j_cap
                and mon.base_degree(chart) <= base_cap):
            return mon


def random_coefficient(rng):
    num = rng.randint(-4, 4)
    if num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 3))


def random_series(rng, chart, degree=None, terms=3, allow_constant=True,
                  max_j=None, max_base=None):
    """Random series; homogeneous of the given degree when one is passed."""
    out = {}
    attempts = 0
    while len(out) < terms and attempts < 300:
        attempts += 1
        mon = random_monomial(rng, chart, max_j=max_j, max_base=max_base)
        if degree is not None and mon.degree(chart) != degree:
            continue
        if not allow_constant and mon.is_unit:
            continue
        out[mon] = random_coefficient(rng)
    return GradedSeries(chart, out, degree)


def random_degree(rng, n):
    return DegreeVector(tuple(rng.randint(0, 1) for _ in range(n)))


def random_field(rng, chart, degree=None, terms=2, max_j=None, max_base=None):
    """Random homogeneous field; coefficients are sparse random series."""
    if degree is None:
        degree = random_degree(rng, chart.n)
    coeffs = {}
    for name in chart.names:
        want = degree + chart.degree_of(name)
        count = rng.randint(0, terms)
        if count:
            s = random_series(rng, chart, degree=want, terms=count,
                              max_j=max_j, max_base=max_base)
            if not s.is_zero:
                coeffs[name] = s
    return VectorField(chart, degree, coeffs)


def boundary_only(field_or_series, chart):
    """True when every term sits on the truncation boundary."""
    from znfrob import GradedSeries, is_boundary_monomial
    if isinstance(field_or_series, GradedSeries):
        return all(is_boundary_monomial(m, chart)
                   for m in field_or_series.terms)
    return all(
        is_boundary_monomial(m, chart)
        for series in field_or_series.coefficients.values()
        for m in series.terms
    )


def random_centered_change(rng, chart, extra_terms=1, max_total=2,
                           mix_linear=True):
    """Identity plus sparse homogeneous corrections of total degree >= 2,
    with optional unit-triangular mixing inside each degree block."""
    images = {}
    for name in chart.names:
        img = chart.coordinate(name)
        deg = chart.degree_of(name)
        added = 0
        attempts = 0
        while added < extra_terms and attempts < 80:
            attempts += 1
            mon = random_monomial(rng, chart)
            if not 2 <= mon.total_degree <= max_total:
                continue
            if mon.degree(chart) != deg:
                continue
            coeff = rng.randint(-2, 2)
            if not coeff:
                continue
            img = img + GradedSeries(chart, {mon: Fraction(coeff)})
            added += 1
        images[name] = img
    if mix_linear:
        for i, u in enumerate(chart.names):
            for j, v in enumerate(chart.names):
                if i < j and chart.degrees[i] == chart.degrees[j]:
                    if rng.random() < 0.3:
                        images[v] = images[v] + chart.coordinate(u) * rng.randint(1, 2)
    return CoordinateChange.make(chart, chart, images)


def oracle_multiply_monomials(chart, m1, m2):
    """Reference product of two canonical monomials: expand into explicit
    letter sequences, bubble-sort into chart order accumulating the pairing
    sign per adjacent transposition, then apply the ring relations.

    Returns (monomial, sign) or (None, 0) when the product vanishes.
    """
    letters = []
    for i, e in enumerate(m1.exps):
        letters.extend([i] * e)
    for i, e in enumerate(m2.exps):
        letters.extend([i] * e)
    sign = 1
    changed = True
    while changed:
        changed = False
        for k in range(len(letters) - 1):
            a, b = letters[k], letters[k + 1]
            if a > b:
                letters[k], letters[k + 1] = b, a
                if chart.pair_table[a][b]:
                    sign = -sign
                changed = True
    exps = [0] * len(chart.names)
    for i in letters:
        exps[i] += 1
    for i, e in enumerate(exps):
        if chart.odd_flags[i] and e >= 2:
            return None, 0
    mon = Monomial(tuple(exps))
    if (mon.j_degree(chart) > chart.j_order
            or mon.base_degree(chart) > chart.base_order):
        return None, 0
    return mon, sign


# -- a graded ring for tests: a series is a dict from exponent tuples to
# Fractions, and every product goes through `oracle_multiply_monomials`

def oracle_series(f):
    """A kernel series as an oracle series: its terms, as plain data."""
    return {tuple(m): Fraction(c) for m, c in f.terms.items()}


def oracle_product(chart, f, g, keep):
    """The product of two oracle series, letter by letter, keeping only the
    monomials ``keep`` accepts; a pair whose exponent sum ``keep`` refuses
    is not sorted at all."""
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            if not keep(tuple(a + b for a, b in zip(m1, m2))):
                continue
            mon, sign = oracle_multiply_monomials(chart, Monomial(m1),
                                                  Monomial(m2))
            if mon is not None:
                out[tuple(mon)] = out.get(tuple(mon), 0) + sign * c1 * c2
    return {m: c for m, c in out.items() if c}


def oracle_derive(chart, f, k):
    """Left derivative along coordinate k: ``d/dk`` moves past each earlier
    letter i with the sign ``(-1)^<deg_k, deg_i>``, then removes one of
    the e letters k in e ways with the same sign (an odd k has e <= 1, and
    an even one passes its own letters with no sign)."""
    out = {}
    for mon, c in f.items():
        if mon[k]:
            passed = sum(mon[i] * chart.degrees[k].dot(chart.degrees[i])
                         for i in range(k))
            lowered = mon[:k] + (mon[k] - 1,) + mon[k + 1:]
            out[lowered] = (-1) ** passed * mon[k] * c
    return out


def oracle_apply(chart, coefficients, f, keep):
    """``X(f) = sum_u a_u d/du f`` for the field with oracle coefficients
    ``a_u``, keeping the monomials ``keep`` accepts."""
    out = {}
    for u, a in coefficients.items():
        derivative = oracle_derive(chart, f, chart.names.index(u))
        part = oracle_product(chart, a, derivative, keep)
        for m, c in part.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def oracle_substitute(chart, f, images, keep):
    """``f`` with ``images[name]`` for each coordinate: each term is its
    coefficient times the images' powers, multiplied in coordinate order.
    The images keep the degrees of their coordinates, so no sign enters."""
    out = {}
    for mon, c in f.items():
        term = {(0,) * len(mon): c}
        for i, e in enumerate(mon):
            for _ in range(e):
                term = oracle_product(chart, term, images[chart.names[i]],
                                      keep)
        for m, coeff in term.items():
            out[m] = out.get(m, 0) + coeff
    return {m: c for m, c in out.items() if c}


def tampered_certificate(rng, cert):
    """``cert`` with its change followed by one that adds 1-3 monomials to
    one image, each of total degree 2 or more and inside the truncation,
    and with its adapted tuple reversed one time in five."""
    chart = cert.change.target
    name = rng.choice(chart.names)
    images = {n: chart.coordinate(n) for n in chart.names}
    for _ in range(rng.randint(1, 3)):
        while True:
            mon = random_monomial(rng, chart)
            if (mon.total_degree >= 2
                    and mon.degree(chart) == chart.degree_of(name)):
                break
        images[name] = images[name] + GradedSeries(
            chart, {mon: random_coefficient(rng)})
    change = cert.change.then(CoordinateChange.make(chart, chart, images))
    adapted = cert.adapted[::-1] if rng.random() < 0.2 else cert.adapted
    return replace(cert, change=change, adapted=adapted)


def series_of(chart, text):
    from znfrob import parse_expression
    return parse_expression(text, chart)


def field_of(chart, degree_bits, coefficients):
    """Build a field from expression strings keyed by coordinate."""
    coeffs = {
        name: series_of(chart, expr) for name, expr in coefficients.items()
    }
    return VectorField(chart, DegreeVector(tuple(degree_bits)), coeffs)


def reference_verify_adapted(D, cert):
    """Certificate check through `rank_of` on ``D`` and one `membership` of
    each adapted derivation in the pushed family: the reference that
    `verify_adapted`, which reads both answers off one normalization,
    must match field by field."""
    chart = cert.change.target
    pushed = [pushforward(cert.change, g) for g in D.generators]
    coefficients = [a for Y in pushed for a in Y.coefficients.values()]
    base_loss = cert.change.base_loss or any(a.base_loss for a in coefficients)
    j_loss = cert.change.j_loss or any(a.j_loss for a in coefficients)

    adapted = set(cert.adapted)
    residual_orders: list[Optional[int]] = []
    tolerated: list[bool] = []
    for Y in pushed:
        orders = []
        clean = True
        for name in chart.names:
            if name in adapted:
                continue
            series = Y.coefficient(name)
            if series.is_zero:
                continue
            orders.extend(m.total_degree for m in series.terms)
            if certified_part(series).terms:
                clean = False
        residual_orders.append(min(orders) if orders else None)
        tolerated.append(clean)

    try:
        rank_ok = rank_of(D) == Rank.of(
            Counter(chart.degree_of(n) for n in cert.adapted))
    except DependentAtPoint:
        rank_ok = False

    reverse_ok = True
    if pushed:
        try:
            image = Distribution(chart, pushed)
            for name in cert.adapted:
                if not membership(
                        VectorField.coordinate_derivation(chart, name),
                        image).contained:
                    reverse_ok = False
                    break
        except DependentAtPoint:
            reverse_ok = False
    elif cert.adapted:
        reverse_ok = False

    # the fields in order: ok, generator_residuals, rank_ok, reverse_ok,
    # base_loss, j_loss
    return AdaptedReport(all(tolerated) and rank_ok and reverse_ok,
                         tuple(residual_orders), rank_ok, reverse_ok,
                         base_loss, j_loss)


def reference_invert_map(images, keyed, values_on):
    """Inverse substitution of ``images`` (``keyed`` coordinates written on
    ``values_on``) by the whole-map Picard loop: from ``u = 0``, repeat
    ``u <- u + A^{-1}(k - images(u))`` until a pass changes nothing, with
    ``A`` the Jacobian at the origin and every substitution through the
    public, checked `compose`.  The reference that
    ``CoordinateChange.make``, which iterates only the nonlinear part, must
    match term by term and flag by flag.  Returns the inverse images and
    the number of passes."""
    linear = [next(iter(values_on.coordinate(v).terms))
              for v in values_on.names]
    ainv = rational_inverse([[images[k].coefficient(m) for m in linear]
                             for k in keyed.names])
    if ainv is None:
        raise JacobianSingular("singular Jacobian at the base point")
    current = {u: keyed.zero() for u in values_on.names}
    for passes in range(1, keyed.j_order + keyed.base_order + 3):
        error = {k: keyed.coordinate(k) - compose(images[k], current, keyed)
                 for k in keyed.names}
        new = {}
        for u, row in zip(values_on.names, ainv):
            total = current[u]
            for a, k in zip(row, keyed.names):
                if a:
                    total = total + error[k] * a
            new[u] = total
        if all(new[u].terms == current[u].terms for u in new):
            return new, passes
        current = new
    raise InternalInconsistency("inverse substitution did not stabilise")


def reference_invert_mod_J(matrix):
    """`invert_mod_J` as an alternating sum: with ``S`` the rational
    inverse at the origin and ``X = S*T - I``, the inverse is
    ``sum_k (-1)^k X^k S``, each power added or subtracted by its sign.
    The reference that `invert_mod_J`, which reads the Gauss-Jordan
    reduction of ``[T | I]``, must match entry by entry, term by term and
    flag by flag on a matrix that is not constant."""
    chart = matrix.chart
    degrees = matrix.row_degrees
    s0 = rational_inverse(matrix.value_at_origin())
    if s0 is None:
        raise NotInvertibleModJ("matrix is singular at the base point")
    s = GradedMatrix(chart, degrees, degrees, [
        [chart.constant(v) if v else chart.zero() for v in row] for row in s0])
    x = (s @ matrix) - GradedMatrix.identity(chart, degrees)
    total = GradedMatrix.identity(chart, degrees)
    power = GradedMatrix.identity(chart, degrees)
    sign = -1
    for _ in range(chart.j_order + chart.base_order):
        power = power @ x
        if power.is_zero:
            break
        total = (total + power) if sign > 0 else (total - power)
        sign = -sign
    return total @ s


def reference_normalize(D):
    """`Distribution.normalized` as an inverse and a product: the pivots
    chosen by the same elimination of the values at the origin, ``S`` the
    `reference_invert_mod_J` of the square pivot block (`invert_mod_J`
    reads the reduction this checks), and the recombined
    coefficients ``S @ old``.  Returns the pivot names, ``S @ old`` and
    ``S``: the reference that the one row reduction must match term by
    term, keeping every flag this sets on a nonzero entry."""
    chart, gens = D.chart, D.generators
    span = RowSpan()
    for gen in gens:
        if not span.try_add([gen.coefficient(name).constant_term
                             for name in chart.names]):
            raise DependentAtPoint("generators are dependent at the origin")
    pivots = tuple(chart.names[p] for p in span.pivots)
    degrees = tuple(g.degree for g in gens)
    s = reference_invert_mod_J(GradedMatrix(chart, degrees, degrees, [
        [gen.coefficient(p) for p in pivots] for gen in gens]))
    old = GradedMatrix(chart, degrees, chart.degrees, [
        [gen.coefficient(name) for name in chart.names] for gen in gens])
    return pivots, s @ old, s


def reference_j_linear_step(X, pivot):
    """The J-linear step as a matrix ODE: the frame ``eta = g @ zeta``, with
    ``g`` solving ``dg/d(pivot) = -g @ B``, ``g = I`` on the pivot
    hyperplane, by Picard passes on ``g``, where ``B[rho][tau]`` is the
    coefficient of tau in the J-linear part of X's rho coefficient.  A zero
    entry of ``g @ B`` integrates to a fresh zero.  The reference that
    `_j_linear_step` must match term by term and flag by flag."""
    chart = X.chart
    nz = [chart.names[i] for i in chart.nonzero_indices]
    b = [[reduce_mod_j(derive(X.coefficient(rho), tau)) for tau in nz]
         for rho in nz]
    degrees = tuple(chart.degree_of(rho) for rho in nz)
    B = GradedMatrix(chart, degrees, degrees, b)
    if B.is_zero:
        return None
    identity = GradedMatrix.identity(chart, degrees)
    g = identity
    for _ in range(chart.base_order + 2):
        integral = [
            [antiderivative(s, pivot) if not s.is_zero else chart.zero()
             for s in row]
            for row in (g @ B).entries
        ]
        new_g = identity - GradedMatrix(chart, degrees, degrees, integral)
        stable = new_g == g
        g = new_g
        if stable:
            break
    zeta = GradedMatrix(chart, degrees, (chart.zero_degree,),
                        [[chart.coordinate(tau)] for tau in nz])
    images = dict(CoordinateChange.identity(chart).images)
    for rho, (eta,) in zip(nz, (g @ zeta).entries):
        images[rho] = eta
    change = CoordinateChange.make(chart, chart, images)
    return None if change.is_identity else change


def reference_lie_series(X):
    """The straightening of ``X`` as the flow of ``X`` from the slice
    ``p = 0``, with ``p`` the first coordinate whose coefficient has a
    nonzero constant term: each old coordinate ``u`` is
    ``sum_k (1/k!) p^k (X^k u)|_{p=0}`` in the new coordinates, with
    ``p^k`` on the left.  The sum stops once ``X^k u`` or ``p^k`` is zero.
    The reference that `straighten_deg0` and `straighten_nonzero` must
    match on the certified window, and term by term when they carry no
    loss flag."""
    chart = X.chart
    p = next(n for n in chart.names if X.coefficient(n).constant_term)
    inverse = {}
    for u in chart.names:
        total = chart.zero()
        xk, pk, k = chart.coordinate(u), chart.one(), 0
        while not xk.is_zero and not pk.is_zero:
            total = total + pk * _free_of(xk, p) * Fraction(1, math.factorial(k))
            xk, pk, k = X.apply(xk), pk * chart.coordinate(p), k + 1
        inverse[u] = total
    return CoordinateChange.from_inverse_images(chart, chart, inverse)


@dataclass(frozen=True)
class _Token:
    kind: str       # "int", "ident", or the operator character itself
    text: str
    offset: int


def _reference_tokenize(src):
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            start = i
            while i < n and src[i].isdigit():
                i += 1
            tokens.append(_Token("int", src[start:i], start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (src[i].isalnum() or src[i] == "_"):
                i += 1
            tokens.append(_Token("ident", src[start:i], start))
            continue
        if c in "+-*^/()":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise _syntax_error(src, i, f"unexpected character {c!r}")
    return tokens


class _ReferenceParser:
    """Recursive descent in series arithmetic: every atom is a series, every
    ``^`` a `GradedSeries.__pow__`, every ``*`` a product and every ``+``
    a sum of the value so far and the next term."""

    def __init__(self, src, chart):
        self.src = src
        self.chart = chart
        self.tokens = _reference_tokenize(src)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def error(self, message):
        tok = self.peek()
        offset = tok.offset if tok is not None else len(self.src)
        return _syntax_error(self.src, offset, message)

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise self.error(f"unexpected token {self.peek().text!r}")
        if not all(map(_printable, value.terms.values())):
            raise self.error("coefficient too large to print")
        return value

    def integer(self):
        tok = self.next()
        try:
            return int(tok.text)
        except ValueError:
            raise _syntax_error(self.src, tok.offset,
                                f"unreadable integer {tok.text[:20]!r}") from None

    def expr(self):
        value = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok.kind not in ("+", "-"):
                return value
            self.next()
            rhs = self.term()
            value = value + rhs if tok.kind == "+" else value - rhs

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "*":
                return value
            self.next()
            value = value * self.factor()

    def factor(self):
        value = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "^":
            self.next()
            exp = self.peek()
            if exp is None or exp.kind != "int":
                raise self.error("expected a natural number after '^'")
            exponent = self.integer()
            c = value.constant_term
            if abs(c) not in (0, 1) and exponent * math.log10(
                    max(abs(c.numerator), c.denominator)) >= _max_digits():
                raise _syntax_error(self.src, exp.offset,
                                    "coefficient too large to print")
            value = value ** exponent
        return value

    def atom(self):
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of expression")
        if tok.kind in ("-", "("):
            if self.depth == _MAX_NESTING:
                raise self.error(
                    f"expression nested deeper than {_MAX_NESTING} levels")
            self.depth += 1
            self.next()
            if tok.kind == "-":
                value = -self.atom()
            else:
                value = self.expr()
                closing = self.peek()
                if closing is None or closing.kind != ")":
                    raise self.error("expected ')'")
                self.next()
            self.depth -= 1
            return value
        if tok.kind == "int":
            numerator = self.integer()
            nxt = self.peek()
            if nxt is not None and nxt.kind == "/":
                self.next()
                den = self.peek()
                if den is None or den.kind != "int":
                    raise self.error("expected a positive integer denominator")
                denominator = self.integer()
                if denominator == 0:
                    raise _syntax_error(self.src, den.offset,
                                        "denominator must be positive")
                return self.chart.constant(Fraction(numerator, denominator))
            return self.chart.constant(numerator)
        if tok.kind == "ident":
            self.next()
            try:
                return self.chart.coordinate(tok.text)
            except UnknownCoordinateError:
                raise _syntax_error(
                    self.src, tok.offset,
                    f"unknown identifier {tok.text!r}") from None
        raise self.error(f"unexpected token {tok.text!r}")


def reference_parse(src, chart, warnings=None):
    """`parse_expression` through series arithmetic alone: the reference
    that the parser, which folds each product of atoms into one series and
    sums an expression in one map, must match term by term, flag by flag
    and warning by warning, and error by error on refused input."""
    with collect_truncation_drops() as drops:
        value = _ReferenceParser(src, chart).parse()
    if not all(_printable(coeff) for _, coeff in drops):
        raise _syntax_error(src, len(src),
                            "dropped coefficient too large to print")
    if warnings is not None:
        for mon, coeff in drops:
            warnings.append(
                f"dropped {coeff}*{mon.label(chart)}: beyond truncation "
                f"(j_order={chart.j_order}, base_order={chart.base_order})")
    return value
