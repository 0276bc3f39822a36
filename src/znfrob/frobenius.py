"""Constructive straightening of fields and involutive distributions.

The solver composes four mechanisms:

* a linear frame change sending a nondegenerate tangent vector to a
  coordinate direction,
* an order-by-order flow-box for the reduced (mod J) part of a
  degree-zero field,
* a matrix ODE in the pivot variable that conjugates away the J-linear
  layer of a degree-zero field,
* one integration loop that shifts the coordinates by the antiderivative
  of the current error along the pivot, each pass pushing the error one
  base layer (flow box) or J-layer (corrections) deeper until it leaves
  the truncation window.

Corrections whose antiderivative is not representable are dropped with a
loss flag.  Verification is decisive on the certified window (J-degree
below j_order, base degree below base_order, total degree at most
base_order): residuals there refute a certificate, leftovers on the
truncation boundary are reported but tolerated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .distribution import Distribution, is_involutive, membership, rank_of
from .errors import (
    DegenerateAtPoint,
    DependentAtPoint,
    InternalInconsistency,
    NonzeroDegree,
    NotCommuting,
    NotInvolutive,
    OddSquareNonzero,
    ZeroDegree,
)
from .fields import (
    CoordinateChange,
    VectorField,
    bracket,
    pushforward,
)
from .grading import DegreeVector
from .linalg import GradedMatrix
from .series import (
    ChartSpec,
    GradedSeries,
    Monomial,
    _substitution,
    antiderivative,
    is_boundary_monomial,
    multiply,
    reduce_mod_j,
    value_at_origin,
)

Step = tuple[str, CoordinateChange]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _identity_images(chart: ChartSpec) -> dict[str, GradedSeries]:
    return {name: chart.coordinate(name) for name in chart.names}


def _compose_steps(chart: ChartSpec, steps: Sequence[Step]) -> CoordinateChange:
    change = CoordinateChange.identity(chart)
    for _, step in steps:
        change = change.then(step)
    return change


def _untolerated(series: GradedSeries, chart: ChartSpec) -> list[Monomial]:
    """Residual monomials inside the certified window; anything there is a
    genuine failure, anything on the truncation boundary is not decidable
    at this order."""
    return [mon for mon in series.terms
            if not is_boundary_monomial(mon, chart)]


def _noncommuting_pair(fields: Sequence[VectorField], diagonal: bool
                       ) -> Optional[tuple[int, int]]:
    """First pair (i, j) with i < j (i <= j with ``diagonal``) whose bracket
    keeps a residual inside the certified window; None when all vanish."""
    for i in range(len(fields)):
        for j in range(i if diagonal else i + 1, len(fields)):
            b = bracket(fields[i], fields[j])
            if any(_untolerated(s, b.chart) for s in b.coefficients.values()):
                return i, j
    return None


def _field_flags(X: VectorField) -> tuple[bool, bool]:
    return (any(a.base_loss for a in X.coefficients.values()),
            any(a.j_loss for a in X.coefficients.values()))


def _straightness_error(X: VectorField, pivot: str) -> dict[str, GradedSeries]:
    """Coefficients of X - d/d(pivot), keyed by coordinate, zeros omitted."""
    chart = X.chart
    err: dict[str, GradedSeries] = {}
    for name in chart.names:
        e = X.coefficient(name)
        if name == pivot:
            e = e - chart.one()
        if not e.is_zero:
            err[name] = e
    return err


def _check_straight(X: VectorField, pivot: str) -> None:
    for name, e in _straightness_error(X, pivot).items():
        bad = _untolerated(e, X.chart)
        if bad:
            raise InternalInconsistency(
                f"straightening left residual {bad[0].label(X.chart)} on "
                f"coordinate {name!r} inside the certified window")


# ---------------------------------------------------------------------------
# degree-zero straightening
# ---------------------------------------------------------------------------

def _linear_base_frame(chart: ChartSpec, tangent: dict[str, Fraction],
                       pivot: str) -> CoordinateChange:
    """Linear change of the base coordinates taking the given tangent vector
    to the pivot derivation; nonzero-degree coordinates are untouched.

    Built from the inverse direction: each old base coordinate is its new
    value (none for the pivot) plus the new pivot times its tangent
    component, which is invertible exactly because the pivot component is
    nonzero.
    """
    inverse_images = _identity_images(chart)
    pivot_series = chart.coordinate(pivot)
    for name in chart.base_names():
        old = chart.zero() if name == pivot else inverse_images[name]
        inverse_images[name] = old + pivot_series * tangent[name]
    return CoordinateChange.from_inverse_images(chart, chart, inverse_images)


def _j_linear_step(X: VectorField, pivot: str) -> Optional[CoordinateChange]:
    """Conjugate away the J-linear layer of the nonzero-degree coefficients
    by a frame eta = g * zeta, where g solves dg/d(pivot) = -g b, g = I on
    the pivot hyperplane."""
    chart = X.chart
    nz = chart.nonzero_names()
    if not nz:
        return None
    # b[rho][tau]: coefficient of tau in the J-linear part of X's rho entry
    b = [[chart.zero()] * len(nz) for _ in nz]
    for row, rho in zip(b, nz):
        for mon, c in X.coefficient(rho).terms.items():
            if mon.j_degree(chart) != 1:
                continue
            tau_pos = next(i for i in chart.nonzero_indices if mon.exps[i])
            base_exps = list(mon.exps)
            base_exps[tau_pos] = 0
            col = chart.nonzero_indices.index(tau_pos)
            row[col] = row[col] + GradedSeries(
                chart, {Monomial(tuple(base_exps)): c}, _trusted=True)
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
        # keep the last pass: equal terms can still carry new loss flags
        stable = new_g == g
        g = new_g
        if stable:
            break

    zeta = GradedMatrix(chart, degrees, (chart.zero_degree,),
                        [[chart.coordinate(tau)] for tau in nz])
    images = _identity_images(chart)
    for rho, (eta,) in zip(nz, (g @ zeta).entries):
        images[rho] = eta
    change = CoordinateChange.make(chart, chart, images)
    return None if change.is_identity else change


def _shift_step(chart: ChartSpec, err: dict[str, GradedSeries],
                pivot: str) -> Optional[CoordinateChange]:
    """Change u -> u - (antiderivative of the error along the pivot); kills
    the representable part of the error, returns None when nothing is
    representable."""
    images = _identity_images(chart)
    moved = False
    for name, e in err.items():
        corr = antiderivative(e, pivot)
        if corr.is_zero:
            continue
        moved = True
        images[name] = images[name] - corr
    if not moved:
        return None
    return CoordinateChange.make(chart, chart, images)


def _integrate(X: VectorField, pivot: str, labels: Sequence[str],
               mod_j: bool = False) -> tuple[list[Step], VectorField]:
    """One shift step per label while the straightness error (reduced mod J
    when ``mod_j``) is nonzero and has a representable antiderivative."""
    steps: list[Step] = []
    for label in labels:
        err = _straightness_error(X, pivot)
        if mod_j:
            err = {n: reduce_mod_j(e) for n, e in err.items()}
            err = {n: e for n, e in err.items() if not e.is_zero}
        if not err:
            break
        step = _shift_step(X.chart, err, pivot)
        if step is None:
            break
        X = pushforward(step, X)
        steps.append((label, step))
    return steps, X


def _straighten_deg0_steps(X: VectorField) -> tuple[list[Step], VectorField, str]:
    chart = X.chart
    if not X.degree.is_zero:
        raise NonzeroDegree("degree-zero straightening needs a degree-zero field")
    tangent = {
        name: value_at_origin(X.coefficient(name))
        for name in chart.base_names()
    }
    pivot = next((n for n in chart.base_names() if tangent[n]), None)
    if pivot is None:
        raise DegenerateAtPoint("field vanishes at the base point")

    steps: list[Step] = []
    cur = X

    frame = _linear_base_frame(chart, tangent, pivot)
    if not frame.is_identity:
        cur = pushforward(frame, cur)
        steps.append(("linear_frame", frame))

    # flow-box of the reduced field, one base layer per pass
    flow, cur = _integrate(cur, pivot, ["flow_box"] * (chart.base_order + 1),
                           mod_j=True)
    steps += flow

    ode = _j_linear_step(cur, pivot)
    if ode is not None:
        cur = pushforward(ode, cur)
        steps.append(("j_linear", ode))

    # deeper J-layers: plain integration along the pivot
    corrections, cur = _integrate(
        cur, pivot, [f"j_correction_{k}" for k in range(2, chart.j_order + 1)])
    steps += corrections

    _check_straight(cur, pivot)
    return steps, cur, pivot


def straighten_deg0(X: VectorField) -> CoordinateChange:
    """Coordinate change after which the field is the pivot derivation.

    The pivot is the first base coordinate whose coefficient has a nonzero
    constant term.
    """
    steps, _, _ = _straighten_deg0_steps(X)
    return _compose_steps(X.chart, steps)


# ---------------------------------------------------------------------------
# nonzero-degree straightening
# ---------------------------------------------------------------------------

def _straighten_nonzero_steps(X: VectorField) -> tuple[list[Step], VectorField, str]:
    chart = X.chart
    degree = X.degree
    if degree.is_zero:
        raise ZeroDegree("nonzero-degree straightening needs a nonzero-degree field")
    pivot = next(
        (name for name in chart.names
         if chart.degree_of(name) == degree
         and value_at_origin(X.coefficient(name))),
        None,
    )
    if pivot is None:
        raise DegenerateAtPoint("field vanishes at the base point")
    odd = degree.is_odd
    if odd and _noncommuting_pair([X], diagonal=True) is not None:
        raise OddSquareNonzero(
            "odd field with nonzero self-bracket cannot be straightened")

    # pivot frame, built from the inverse direction: each old coordinate is
    # its new value plus (pivot) times the pivot-free part of its coefficient
    pivot_series = chart.coordinate(pivot)
    projection = {
        name: (chart.zero() if name == pivot else chart.coordinate(name))
        for name in chart.names
    }
    project = _substitution(projection, chart, chart)
    inverse_images: dict[str, GradedSeries] = {}
    for name in chart.names:
        sliced = project(X.coefficient(name))
        contribution = (multiply(pivot_series, sliced)
                        if not sliced.is_zero else chart.zero())
        if name == pivot:
            inverse_images[name] = contribution
        else:
            inverse_images[name] = chart.coordinate(name) + contribution

    steps: list[Step] = []
    cur = X
    frame = CoordinateChange.from_inverse_images(chart, chart, inverse_images)
    if not frame.is_identity:
        cur = pushforward(frame, cur)
        steps.append(("pivot_frame", frame))

    # an odd field with zero self-bracket is exact after the pivot frame
    if not odd:
        corrections, cur = _integrate(cur, pivot, [
            f"j_correction_{k}" for k in range(1, chart.j_order + 1)])
        steps += corrections
    _check_straight(cur, pivot)
    return steps, cur, pivot


def straighten_nonzero(X: VectorField) -> CoordinateChange:
    """Coordinate change after which the field is d/d(pivot), where the
    pivot is the first coordinate of matching degree with a nonzero
    constant coefficient; odd inputs must have vanishing self-bracket."""
    steps, _, _ = _straighten_nonzero_steps(X)
    return _compose_steps(X.chart, steps)


# ---------------------------------------------------------------------------
# commuting families and full assembly
# ---------------------------------------------------------------------------

def _subtract_adapted(X: VectorField, adapted: Sequence[str]) -> VectorField:
    out = X
    for name in adapted:
        c = out.coefficient(name)
        if c.is_zero:
            continue
        out = out - VectorField.coordinate_derivation(X.chart, name).scaled_by(c)
    return out


def _straighten_family(fields: Sequence[VectorField], order: Sequence[int]
                       ) -> tuple[list[Step], list[str]]:
    """Straighten ``fields[i]`` for each i in ``order``, minus the pivot
    derivations adapted before it, pushing the whole family through every
    step; returns the steps and the adapted pivots."""
    steps: list[Step] = []
    adapted: list[str] = []
    cur = list(fields)
    for i in order:
        stripped = _subtract_adapted(cur[i], adapted)
        if stripped.degree.is_zero:
            sub_steps, _, pivot = _straighten_deg0_steps(stripped)
        else:
            try:
                sub_steps, _, pivot = _straighten_nonzero_steps(stripped)
            except (OddSquareNonzero, DegenerateAtPoint) as exc:
                raise InternalInconsistency(
                    f"straightening generator {i} failed on involutive "
                    f"input: {exc}") from exc
        for label, step in sub_steps:
            cur = [pushforward(step, Y) for Y in cur]
            steps.append((label, step))
        adapted.append(pivot)
    return steps, adapted


def commuting_triangular(fields: Sequence[VectorField]) -> CoordinateChange:
    """Change after which a supercommuting degree-zero family is unit upper
    triangular over its pivots; the family then spans exactly the pivot
    derivations."""
    if not fields:
        raise DegenerateAtPoint("empty family")
    for X in fields:
        if not X.degree.is_zero:
            raise NonzeroDegree("triangularization needs degree-zero fields")
    pair = _noncommuting_pair(fields, diagonal=False)
    if pair is not None:
        raise NotCommuting(
            f"fields {pair[0]} and {pair[1]} do not commute", pair=pair)
    steps, _ = _straighten_family(fields, range(len(fields)))
    return _compose_steps(fields[0].chart, steps)


@dataclass(frozen=True)
class FrobeniusCertificate:
    """Machine-checkable witness: the composite change, the adapted
    coordinates spanning the image, leftover residual orders (absent =
    clean within truncation), and the audit trail of intermediate steps."""

    change: CoordinateChange
    adapted: tuple[str, ...]
    residuals: tuple[tuple[int, int], ...]
    steps: tuple[Step, ...]

    def to_json_dict(self) -> dict:
        body = self.change.to_json_dict()
        return {
            "adapted": list(self.adapted),
            "change": body["change"],
            "inverse": body["inverse"],
            "residuals": {str(i): order for i, order in self.residuals},
            "steps": [
                {"label": label, "images": {
                    n: str(s) for n, s in step.images.items()
                }}
                for label, step in self.steps
            ],
            "truncation_loss": body["truncation_loss"],
        }


@dataclass(frozen=True)
class AdaptedReport:
    """Outcome of checking a certificate against a distribution."""

    ok: bool
    generator_residuals: tuple[Optional[int], ...]
    generator_tolerated: tuple[bool, ...]
    rank_ok: bool
    reverse_ok: bool
    base_loss: bool
    j_loss: bool

    def __bool__(self) -> bool:
        return self.ok

    def residual_entries(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, order)
            for i, order in enumerate(self.generator_residuals)
            if order is not None
        )

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "rank_ok": self.rank_ok,
            "reverse_ok": self.reverse_ok,
            "residuals": {str(i): order for i, order in self.residual_entries()},
            "truncation_loss": {"base": self.base_loss, "j": self.j_loss},
        }


def verify_adapted(D: Distribution, cert: FrobeniusCertificate) -> AdaptedReport:
    """Push every generator through the certificate's change and check both
    inclusions between the distribution and the adapted span; only residuals
    inside the certified window refute the certificate."""
    chart = cert.change.target
    pushed = [pushforward(cert.change, g) for g in D.generators]
    base_loss = cert.change.base_loss
    j_loss = cert.change.j_loss
    for Y in pushed:
        fb, fj = _field_flags(Y)
        base_loss = base_loss or fb
        j_loss = j_loss or fj

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
            if _untolerated(series, chart):
                clean = False
        residual_orders.append(min(orders) if orders else None)
        tolerated.append(clean)

    try:
        rank = rank_of(D)
        counts: dict[DegreeVector, int] = {}
        for name in cert.adapted:
            deg = chart.degree_of(name)
            counts[deg] = counts.get(deg, 0) + 1
        rank_ok = all(rank.count(d) == c for d, c in counts.items()) \
            and rank.total == len(cert.adapted)
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

    ok = all(tolerated) and rank_ok and reverse_ok
    return AdaptedReport(
        ok=ok,
        generator_residuals=tuple(residual_orders),
        generator_tolerated=tuple(tolerated),
        rank_ok=rank_ok,
        reverse_ok=reverse_ok,
        base_loss=base_loss,
        j_loss=j_loss,
    )


def adapted_coordinates(D: Distribution) -> FrobeniusCertificate:
    """Full pipeline for an involutive distribution: normalize, triangularize
    the degree-zero part, straighten each nonzero-degree generator in pivot
    order, compose, and verify before returning."""
    chart = D.chart
    if not D.generators:
        cert = FrobeniusCertificate(
            change=CoordinateChange.identity(chart),
            adapted=(), residuals=(), steps=())
        return cert

    involutive = is_involutive(D)
    if not involutive:
        i, j = involutive.witness_pair
        raise NotInvolutive(
            f"bracket of generators {i} and {j} leaves the distribution",
            witness=involutive)

    norm = D.normalized()
    gens = list(norm.distribution.generators)
    pivots = list(norm.pivots)

    # a normalized involutive family supercommutes inside the window
    if _noncommuting_pair(gens, diagonal=True) is not None:
        raise InternalInconsistency(
            "normalized involutive generators fail to supercommute")

    # degree-zero generators first, each group in pivot order
    order = sorted(range(len(gens)), key=lambda i: (
        not gens[i].degree.is_zero, chart.index(pivots[i])))
    steps, adapted = _straighten_family(gens, order)
    change = _compose_steps(chart, steps)
    cert = FrobeniusCertificate(
        change=change, adapted=tuple(adapted), residuals=(),
        steps=tuple(steps))
    report = verify_adapted(D, cert)
    if not report.ok:
        raise InternalInconsistency(
            "constructed certificate failed verification")
    return replace(cert, residuals=report.residual_entries())
