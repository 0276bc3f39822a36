"""Constructive straightening of fields and involutive distributions.

One routine straightens a homogeneous field of any degree, as in the
paper's proof, one field at a time:

* the pivot is the first coordinate whose coefficient is nonzero at the
  origin; it has the field's degree;
* a frame change, built from its inverse images, sends the field to the
  pivot direction: each old coordinate is its new value (zero for the
  pivot) plus the pivot times a slice of its coefficient, the value at
  the origin for a degree-zero field and the pivot-free part otherwise;
* corrections are then shifts of the coordinates by the antiderivative
  along the pivot of the current error, each pushing the error one base
  layer (flow box, degree zero only) or J-layer deeper, until a shift
  moves nothing; a degree-zero field also has its J-linear layer
  conjugated away by new coordinates that flow along it in the pivot
  variable, and an odd field with zero self-bracket is exact after the
  frame.  A frame or J-linear flow that would move nothing is decided
  on its map and never built.  One recorder pushes the field and the
  fields still to come through each step and folds it into the composite.

The pipeline asks ``is_involutive`` once whether a distribution can be
straightened, and a refused family carries that test's witness; the
reverse inclusion of a verification is asked of ``membership``.  No
other code here decides involutivity or span membership.

Corrections whose antiderivative is not representable are dropped with a
loss flag.  Verification is decisive on the certified window (J-degree
below j_order, base degree below base_order, total degree at most
base_order): residuals there refute a certificate, leftovers on the
truncation boundary are reported but tolerated.  The series reader
``_certified`` makes that call for every check: the self-bracket and
commuting checks, the straightening check and both inclusions.  The rows
``X(phi_v)`` give the rank and the reverse inclusion at the origin, or by
``membership`` in their span.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .distribution import (
    Distribution,
    Rank,
    _bracket_pairs,
    is_involutive,
    membership,
)
from .errors import (
    ChartError,
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
from .linalg import rational_inverse
from .series import (
    ChartSpec,
    GradedSeries,
    _accumulate,
    _certified,
    _free_of,
    antiderivative,
    derive,
    multiply,
    reduce_mod_j,
)

Step = tuple[str, CoordinateChange]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _noncommuting_pair(fields: Sequence[VectorField]
                       ) -> Optional[tuple[int, int]]:
    """First of the `_bracket_pairs` whose bracket keeps a residual inside
    the certified window; None when all vanish."""
    for i, j in _bracket_pairs(fields):
        if _certified(bracket(fields[i], fields[j]).coefficients):
            return i, j
    return None


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


# ---------------------------------------------------------------------------
# straightening, one field at a time
# ---------------------------------------------------------------------------

def _j_linear_step(X: VectorField, pivot: str) -> Optional[CoordinateChange]:
    """Conjugate away the J-linear layer ``b = sum_s b_s d/ds`` of X's
    nonzero-degree coefficients by new coordinates eta with
    ``d(eta)/d(pivot) = -b(eta)``, ``eta = zeta`` on the pivot hyperplane:
    Picard passes whose rate is one sum, keeping each zero part's loss,
    and a zero rate leaves zeta as it is."""
    chart = X.chart
    nz = [chart.names[i] for i in chart.nonzero_indices]
    zeta = {rho: chart.coordinate(rho) for rho in nz}
    b = {s: _accumulate(chart, [
        (1, reduce_mod_j(derive(X.coefficient(s), tau)), zeta[tau])
        for tau in nz]) for s in nz}
    if all(layer.is_zero for layer in b.values()):
        return None

    eta = zeta
    for _ in range(chart.base_order + 2):
        new_eta = {}
        for rho, e in eta.items():
            rate = _accumulate(chart, [(1, b[s], derive(e, s)) for s in nz])
            new_eta[rho] = (zeta[rho] if rate.is_zero
                            else zeta[rho] - antiderivative(rate, pivot))
        # keep the last pass: equal terms can still carry new loss flags
        stable = new_eta == eta
        eta = new_eta
        if stable:
            break
    return None if eta == zeta else CoordinateChange.make(chart, chart, {
        name: eta.get(name, chart.coordinate(name)) for name in chart.names})


def _shift(X: VectorField, pivot: str, mod_j: bool
           ) -> Optional[CoordinateChange]:
    """The change shifting the coordinates by minus the antiderivative along
    the pivot of the straightness error (reduced mod J when ``mod_j``), or
    None when no error term has a representable antiderivative."""
    chart = X.chart
    images = {name: chart.coordinate(name) for name in chart.names}
    moved = False
    for name, e in _straightness_error(X, pivot).items():
        corr = antiderivative(reduce_mod_j(e) if mod_j else e, pivot)
        if not corr.is_zero:
            images[name] = images[name] - corr
            moved = True
    return CoordinateChange.make(chart, chart, images) if moved else None


def _straighten(chart: ChartSpec, fields: Sequence[VectorField],
                order: Sequence[int]
                ) -> tuple[list[Step], CoordinateChange, list[str]]:
    """Straighten ``fields[i]`` for each i in ``order``, minus the pivot
    derivations adapted before it, to d/d(pivot); returns the steps, their
    composite (the identity when there are none) and the adapted pivots."""
    steps: list[Step] = []
    change: Optional[CoordinateChange] = None
    adapted: list[str] = []
    cur = list(fields)

    def record(label: str, step: Optional[CoordinateChange]) -> bool:
        """Push X and the later fields through the step, record and fold it."""
        nonlocal X, change
        if step is None:
            return False
        X = pushforward(step, X)
        for j in order[pos + 1:]:
            cur[j] = pushforward(step, cur[j])
        steps.append((label, step))
        change = step if change is None else change.then(step)
        return True

    for pos, i in enumerate(order):
        X = VectorField(chart, cur[i].degree, {
            n: a for n, a in cur[i].coefficients.items() if n not in adapted})
        degree = X.degree
        # a coefficient is homogeneous, so one with a nonzero constant term
        # lies on a coordinate of the field's degree
        pivot = next((name for name in chart.names
                      if (a := X.coefficients.get(name)) is not None
                      and a.constant_term), None)
        if pivot is None:
            raise DegenerateAtPoint("field vanishes at the base point")
        if _noncommuting_pair([X]) is not None:
            raise OddSquareNonzero(
                "odd field with nonzero self-bracket cannot be straightened")

        # the frame, from the inverse direction: each old coordinate is its
        # new value (none for the pivot) plus the pivot times a slice of its
        # coefficient, invertible because the pivot's slice is nonzero
        def slice_of(s: GradedSeries) -> GradedSeries:
            if degree.is_zero:
                return chart.constant(s.constant_term)
            return _free_of(s, pivot)
        pivot_series = chart.coordinate(pivot)
        inverse = {name: (chart.zero() if name == pivot else chart.coordinate(name))
                   + multiply(pivot_series, slice_of(X.coefficient(name)))
                   for name in chart.names}
        record("linear_frame" if degree.is_zero else "pivot_frame",
               None if all(s == chart.coordinate(n) for n, s in inverse.items())
               else CoordinateChange.from_inverse_images(chart, chart, inverse))
        if degree.is_zero:
            # flow-box of the reduced field, one base layer per pass
            for _ in range(chart.base_order + 1):
                if not record("flow_box", _shift(X, pivot, mod_j=True)):
                    break
            record("j_linear", _j_linear_step(X, pivot))
        # an odd field with zero self-bracket is exact after the frame; the
        # J-linear step has already cleared layer 1 of a degree-zero field
        if not degree.is_odd:
            for k in range(2 if degree.is_zero else 1, chart.j_order + 1):
                if not record(f"j_correction_{k}", _shift(X, pivot, mod_j=False)):
                    break
        bad = next(iter(_certified(_straightness_error(X, pivot)).items()), None)
        if bad is not None:
            name, e = bad
            raise InternalInconsistency(
                f"straightening left residual {next(iter(e.terms)).label(chart)} "
                f"on coordinate {name!r} inside the certified window")
        adapted.append(pivot)
    return steps, change or CoordinateChange.identity(chart), adapted


def straighten_deg0(X: VectorField) -> CoordinateChange:
    """Coordinate change after which the field is the pivot derivation.

    The pivot is the first base coordinate whose coefficient has a nonzero
    constant term.
    """
    if not X.degree.is_zero:
        raise NonzeroDegree("degree-zero straightening needs a degree-zero field")
    return _straighten(X.chart, [X], [0])[1]


def straighten_nonzero(X: VectorField) -> CoordinateChange:
    """Coordinate change after which the field is d/d(pivot), where the
    pivot is the first coordinate of matching degree with a nonzero
    constant coefficient; odd inputs must have vanishing self-bracket."""
    if X.degree.is_zero:
        raise ZeroDegree("nonzero-degree straightening needs a nonzero-degree field")
    return _straighten(X.chart, [X], [0])[1]


# ---------------------------------------------------------------------------
# commuting families and full assembly
# ---------------------------------------------------------------------------

def commuting_triangular(fields: Sequence[VectorField]) -> CoordinateChange:
    """Change after which a supercommuting degree-zero family is unit upper
    triangular over its pivots; the family then spans exactly the pivot
    derivations."""
    if not fields:
        raise DegenerateAtPoint("empty family")
    for X in fields:
        if not X.degree.is_zero:
            raise NonzeroDegree("triangularization needs degree-zero fields")
    pair = _noncommuting_pair(fields)
    if pair is not None:
        raise NotCommuting(
            f"fields {pair[0]} and {pair[1]} do not commute", pair=pair)
    return _straighten(fields[0].chart, fields, range(len(fields)))[1]


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
    """Check both inclusions between the distribution and the adapted span
    after the change, on one chart; residuals refute only in the certified
    window.  Nothing is pushed: ``phi_* X`` has coefficient
    ``X(phi_v) o phi^-1`` on ``v``, and substituting the centered,
    degree-preserving ``phi^-1`` keeps a series' value at the origin, its
    least total degree (the linear part keeps each layer of J-degree and
    base degree) and whether it has a certified term (no term's total or
    J-degree falls, and one off the window of J-degree 0 and total degree
    ``base_order`` meets only the linear part, which keeps its base
    degree).  The rows ``X(phi_v)`` therefore give the pushed family's
    residual orders and ranks, and ``d/da`` is in its span exactly when
    ``membership`` finds it in theirs.
    The origin test skips normalizing when forward inclusion holds and the
    rows' constants on the adapted names form an invertible square ``C(0)``:
    the constants off them are certified, hence zero, so the pivots are the
    adapted names, and the tails, ``T⁻¹`` (T the rows on them) times
    boundary-only entries, stay boundary-only: reverse inclusion holds.
    """
    chart, change = D.chart, cert.change
    if not chart == change.source == change.target:
        raise ChartError("certificate and distribution live on different charts")
    adapted_rank = Rank.of(Counter(chart.degree_of(n) for n in cert.adapted))
    rows = [VectorField(chart, g.degree, {v: g.apply(change.images[v])
                                          for v in chart.names})
            for g in D.generators]
    coefficients = [a for Y in rows for a in Y.coefficients.values()]
    base_loss = change.base_loss or any(a.base_loss for a in coefficients)
    j_loss = change.j_loss or any(a.j_loss for a in coefficients)

    off = [{n: a for n, a in Y.coefficients.items() if n not in cert.adapted}
           for Y in rows]
    residual_orders = tuple(
        min((m.total_degree for a in rest.values() for m in a.terms),
            default=None)
        for rest in off)
    forward_ok = not any(map(_certified, off))

    rank_ok = Rank.of(Counter(Y.degree for Y in rows)) == adapted_rank
    reverse_ok = True  # unless the origin test cannot decide
    if not forward_ok or len(rows) != len(cert.adapted) or rational_inverse([
            [Y.coefficient(n).constant_term for n in cert.adapted]
            for Y in rows]) is None:
        pushed = Distribution(chart, rows)
        try:
            pushed.normalized()  # refuses dependent rows, adapted names or not
        except DependentAtPoint:
            rank_ok, reverse_ok = False, not cert.adapted
        else:
            reverse_ok = all(membership(
                VectorField.coordinate_derivation(chart, a), pushed)
                for a in cert.adapted)

    return AdaptedReport(forward_ok and rank_ok and reverse_ok,
                         residual_orders, rank_ok, reverse_ok,
                         base_loss, j_loss)


def adapted_coordinates(D: Distribution) -> FrobeniusCertificate:
    """Full pipeline for an involutive distribution: normalize, triangularize
    the degree-zero part, straighten each nonzero-degree generator in pivot
    order, compose, and verify before returning.

    ``is_involutive`` decides once whether the family can be straightened;
    a refused family raises ``NotInvolutive`` with its witness.  A wrong
    verdict yields no certificate: the closing verification refuses it.
    """
    chart = D.chart
    norm = D.normalized()
    gens = list(norm.distribution.generators)
    pivots = list(norm.pivots)
    involutive = is_involutive(D)
    if not involutive:
        i, j = involutive.witness_pair
        raise NotInvolutive(
            f"bracket of generators {i} and {j} leaves the distribution",
            witness=involutive)

    # degree-zero generators first, each group in pivot order
    order = sorted(range(len(gens)), key=lambda i: (
        not gens[i].degree.is_zero, chart.index(pivots[i])))
    try:
        steps, change, adapted = _straighten(chart, gens, order)
    except (OddSquareNonzero, DegenerateAtPoint) as exc:
        # unreachable after normalization and the involutivity test
        raise InternalInconsistency(
            f"straightening failed on involutive input: {exc}") from exc
    cert = FrobeniusCertificate(
        change=change, adapted=tuple(adapted), residuals=(),
        steps=tuple(steps))
    report = verify_adapted(D, cert)
    if not report.ok:
        raise InternalInconsistency(
            "constructed certificate failed verification")
    return replace(cert, residuals=report.residual_entries())
