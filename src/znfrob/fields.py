"""Homogeneous derivations of the chart ring and coordinate changes.

A coordinate change stores both directions eagerly:

* ``images``: each *target* coordinate written as a centered, homogeneous
  series in the *source* coordinates (the new coordinates as functions of
  the old);
* ``inverse_images``: each source coordinate written in target
  coordinates, found as a fixed point: from the linear inverse
  ``L = A^{-1} k``, with ``A`` the Jacobian at the origin, repeat
  ``u <- L - A^{-1} N(u)`` over the images' nonlinear terms ``N``.  Each
  pass settles one more total-degree layer, a linear change takes no pass,
  and the centered inverse is unique in the truncated ring.

``substitute(f, change)`` takes a series on the target chart into the
source chart; ``pushforward(change, X)`` rewrites a field on the source
chart in the target coordinates.

``make`` and ``_from_both`` check the forward images (``check_images``);
``make`` derives the inverse, ``_from_both`` checks a stored one, and every
later substitution runs unchecked.  Where one image map substitutes several
series, each moved image's powers form one chain of rows and a kept
coordinate costs nothing (``series._substitution``): each inversion pass
substitutes every nonzero nonlinear image part into the current inverse (a
J-linear change takes one elimination instead), ``then`` each direction
through one map, and ``pushforward`` every coefficient into the inverse
images.  Powers and partial products are multiplied as rows, so none of
these builds a series per product, only one per result, nor do the
inversion's update, ``VectorField.apply`` and ``bracket`` (both of its
halves at once): each result is one sum in ``series._accumulate``.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .errors import (
    ChartError,
    HomogeneityError,
    InternalInconsistency,
    JacobianSingular,
)
from .grading import DegreeVector, scalar_product
from .linalg import _pivot_reduce, rational_inverse
from .series import (ChartSpec, GradedSeries, _accumulate, _certified, _kept,
                     _linear_split, _sharing_loss, _substitution,
                     check_images, derive, multiply)


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------

class VectorField:
    """Homogeneous derivation ``sum_u a_u d/du`` with series coefficients.

    Each coefficient ``a_u`` is homogeneous of degree ``degree + deg(u)``
    or zero.
    """

    __slots__ = ("chart", "degree", "coefficients")

    def __init__(self, chart: ChartSpec, degree: DegreeVector,
                 coefficients: Mapping[str, GradedSeries]):
        self.chart = chart
        self.degree = degree
        coeffs: dict[str, GradedSeries] = {}
        code = chart._code_of(degree)
        for name, series in coefficients.items():
            idx = chart.index(name)  # raises for unknown names
            if series.chart != chart:
                raise ChartError(f"coefficient on {name!r} lives on another chart")
            if series.is_zero:
                continue
            # degrees add as codes XOR
            want = code ^ chart._degree_codes[idx]
            if not series._is_of_code(want):
                raise HomogeneityError(
                    f"coefficient on {name!r} must be homogeneous of degree "
                    f"{chart._degree_vector(want)}")
            coeffs[name] = series
        self.coefficients = coeffs

    @classmethod
    def coordinate_derivation(cls, chart: ChartSpec, name: str) -> "VectorField":
        return cls(chart, chart.degree_of(name), {name: chart.one()})

    def coefficient(self, name: str) -> GradedSeries:
        got = self.coefficients.get(name)
        return got if got is not None else self.chart.zero()

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def apply(self, f: GradedSeries) -> GradedSeries:
        if f.chart != self.chart:
            raise ChartError("field and series live on different charts")
        return _accumulate(self.chart, _applied(self, f, 1))

    def scaled_by(self, f: GradedSeries) -> "VectorField":
        """Left multiplication by a homogeneous series."""
        if f.chart != self.chart:
            raise ChartError("scalar lives on another chart")
        if f.is_zero:
            return VectorField(self.chart, self.degree, {})
        if f.degree is None:
            raise HomogeneityError("scaling series must be homogeneous")
        return VectorField(self.chart, f.degree + self.degree, {
            name: multiply(f, a) for name, a in self.coefficients.items()
        })

    def __add__(self, other: "VectorField") -> "VectorField":
        self._check_compatible(other)
        degree = other.degree if self.is_zero else self.degree
        return VectorField(self.chart, degree, {
            name: self.coefficient(name) + other.coefficient(name)
            for name in self.chart.names})

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, self.degree, {
            name: -a for name, a in self.coefficients.items()
        })

    def _check_compatible(self, other: "VectorField") -> None:
        if self.chart != other.chart:
            raise ChartError("fields live on different charts")
        if (not self.is_zero and not other.is_zero
                and self.degree != other.degree):
            raise HomogeneityError(
                f"cannot combine fields of degrees {self.degree} and {other.degree}")

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        if self.chart != other.chart or self.coefficients != other.coefficients:
            return False
        if self.is_zero and other.is_zero:
            return True
        return self.degree == other.degree

    def truncated_to(self, chart: ChartSpec) -> "VectorField":
        return VectorField(chart, self.degree, {
            name: a.truncated_to(chart)
            for name, a in self.coefficients.items()
        })

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree.to_json(),
            "coefficients": {
                name: str(self.coefficients[name])
                for name in self.chart.names if name in self.coefficients
            },
        }

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for name in self.chart.names:
            a = self.coefficients.get(name)
            if a is not None:
                parts.append(f"({a})*d/d{name}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"VectorField({self})"


def _applied(X: VectorField, f: Optional[GradedSeries], scale: int
             ) -> list[tuple]:
    """The parts ``scale * a_u * d/du f`` of ``scale * X(f)``; none for None."""
    if f is None:
        return []
    return [(scale, a, derive(f, u)) for u, a in X.coefficients.items()]


def bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Graded Lie bracket ``X o Y - (-1)^{<deg X, deg Y>} Y o X``, computed
    coefficient-wise as one sum of both halves; the second-order terms
    cancel identically.  For ``X is Y`` odd the halves are the same sum, so
    the bracket is one half, doubled."""
    if X.chart != Y.chart:
        raise ChartError("fields live on different charts")
    chart = X.chart
    sign = 1 if scalar_product(X.degree, Y.degree) else -1
    halves = [(X, Y, 2)] if X is Y and sign == 1 else [(X, Y, 1), (Y, X, sign)]
    return VectorField(chart, X.degree + Y.degree, {
        name: _accumulate(chart, [part for A, B, scale in halves for part in
                                  _applied(A, B.coefficients.get(name), scale)])
        for name in chart.names})


# ---------------------------------------------------------------------------
# coordinate changes
# ---------------------------------------------------------------------------

def _check_frames(source: ChartSpec, target: ChartSpec) -> None:
    if source.n != target.n:
        raise ChartError("charts have different grading groups")
    if (source.j_order, source.base_order) != (target.j_order, target.base_order):
        raise ChartError("charts have different truncation orders")
    src_profile = sorted(d.bits for d in source.degrees)
    tgt_profile = sorted(d.bits for d in target.degrees)
    if src_profile != tgt_profile:
        raise ChartError("charts have different degree profiles")


def _linear_inverse(jacobian: list) -> list:
    """A change's Jacobian inverted over Q; a singular one is refused."""
    if (ainv := rational_inverse(jacobian)) is None:
        raise JacobianSingular("coordinate change has singular Jacobian at the base point")
    return ainv


def _invert_map(images: Mapping[str, GradedSeries],
                keyed: ChartSpec, values_on: ChartSpec) -> dict[str, GradedSeries]:
    """Inverse substitution of ``images`` (keyed chart written on the value
    chart).  With ``F(u) = A u + N(u)``, ``A`` the Jacobian at the origin
    and ``N`` the terms of total degree >= 2, start from the linear inverse
    ``L = A^{-1} k``, which a linear change is, and repeat
    ``u <- L - A^{-1} N(u)`` over the nonzero parts of ``N`` until a pass
    changes nothing.  The degree-p layer of ``N(u)`` depends only on the
    layers of ``u`` below p, so the window needs at most
    ``j_order + base_order`` passes.  The fixed point solves ``F(u) = k``
    when ``A^{-1}`` inverts ``A``, which is checked once.  The centered
    inverse is unique, since ``A`` keeps every (J-degree, base degree)
    layer, so it is the one ``u <- u + A^{-1}(k - F(u))`` from ``u = 0``
    reaches a pass later.  A J-linear map (base coordinates kept, each J
    image ``sum_tau M[rho][tau] tau`` over base series) takes no pass: u
    keeps the base and sends tau to ``sum_rho S[tau][rho] rho``, S = M^-1
    by one `_pivot_reduce` (M(0) is A's J block), so ``F(u) = k``, as the
    terms that truncation drops from ``M S = I`` lie past the base order,
    and stay there times rho.  Every image carries the loss of all images."""
    jacobian, nonlinear, loss = _linear_split(images, keyed, values_on)
    ainv = _linear_inverse(jacobian)
    if any(sum(a * b for a, b in zip(row, col)) != int(i == j)
           for i, row in enumerate(jacobian)
           for j, col in enumerate(zip(*ainv))):
        raise InternalInconsistency("linear inverse does not invert the Jacobian")
    coords = [keyed.coordinate(k) for k in keyed.names]
    linear = {u: _accumulate(keyed, [(a, c) for a, c in zip(row, coords) if a],
                             loss)
              for u, row in zip(values_on.names, ainv)}
    moving = [(j, k) for j, k in enumerate(keyed.names) if nonlinear[k].terms]
    if not moving:
        return linear
    nz = [keyed.names[i] for i in keyed.nonzero_indices]
    kept = _kept(images, keyed, values_on)
    if keyed == values_on and all(kept[i] for i in keyed.base_indices) and all(
            m.j_degree(keyed) == 1 for rho in nz for m in images[rho].terms):
        pivots, rows = _pivot_reduce(values_on, [
            [derive(images[rho], tau) for tau in nz] for rho in nz])
        return linear | {nz[p]: _accumulate(keyed, [
            (1, a, keyed.coordinate(rho)) for a, rho in zip(row[len(nz):], nz)],
            loss) for p, row in zip(pivots, rows)}
    current = linear
    for _ in range(keyed.j_order + keyed.base_order + 2):
        through = _substitution(current, values_on, keyed)
        pushed = [(j, through(nonlinear[k])) for j, k in moving]
        new = {u: _accumulate(keyed, [(1, linear[u]), *(
                   (-row[j], p) for j, p in pushed if row[j])])
               for u, row in zip(values_on.names, ainv)}
        if all(new[n].terms == current[n].terms for n in new):
            return new
        current = new
    raise InternalInconsistency("inverse substitution did not stabilise")


class CoordinateChange:
    """Invertible, degree-preserving, centered change between two charts."""

    __slots__ = ("source", "target", "images", "inverse_images")

    def __init__(self, source, target, images, inverse_images, _token=None):
        if _token is not _PRIVATE:
            raise TypeError("use CoordinateChange.make()/from_inverse_images()")
        self.source = source
        self.target = target
        self.images = images
        self.inverse_images = inverse_images

    # both directions carry the same flags: an inverse image carries those
    # of all the images, and `then` those of both parts in each direction
    @property
    def base_loss(self) -> bool:
        return any(s.base_loss for s in self.images.values())

    @property
    def j_loss(self) -> bool:
        return any(s.j_loss for s in self.images.values())

    @classmethod
    def make(cls, source: ChartSpec, target: ChartSpec,
             images: Mapping[str, GradedSeries]) -> "CoordinateChange":
        """Build from forward images (target coordinates in source variables)."""
        _check_frames(source, target)
        check_images(images, target, source)
        images = {name: images[name] for name in target.names}
        return cls(source, target, images, _invert_map(images, target, source),
                   _token=_PRIVATE)

    @classmethod
    def from_inverse_images(cls, source: ChartSpec, target: ChartSpec,
                            inverse_images: Mapping[str, GradedSeries]
                            ) -> "CoordinateChange":
        """Build from the other direction (source coordinates in target
        variables), as straightening steps naturally produce them."""
        return cls.make(target, source, inverse_images).inverted()

    @classmethod
    def _from_both(cls, chart: ChartSpec, images, inverse_images) -> tuple:
        """A change of ``chart`` from both directions as stored, inverting
        nothing, and whether its inverse ψ names the chart's coordinates, is
        centered and leaves ``φ∘ψ - id`` no certified term (φ is checked as
        by ``make``).  That holds exactly when ``δ = ψ - φ⁻¹`` has none:
        ``φ∘ψ - id`` is ``Aδ``, for A the invertible Jacobian that keeps each
        (J-degree, base degree) layer, plus products of δ with a centered
        factor, which stay on the boundary, leave the window or exceed the
        least total degree of a certified term of δ."""
        check_images(images, chart, chart)
        _linear_inverse(_linear_split(images, chart, chart)[0])
        ok = (inverse_images.keys() == set(chart.names)
              and not any(s.constant_term for s in inverse_images.values()))
        if ok:  # the substitution reads which coordinates ψ keeps
            through = _substitution(inverse_images, chart, chart)
            ok = not _certified({v: through(images[v]) - chart.coordinate(v)
                                 for v in chart.names})
        return cls(chart, chart, dict(images), dict(inverse_images),
                   _token=_PRIVATE), ok

    @classmethod
    def identity(cls, chart: ChartSpec) -> "CoordinateChange":
        ims = {name: chart.coordinate(name) for name in chart.names}
        return cls(chart, chart, dict(ims), dict(ims), _token=_PRIVATE)

    def inverted(self) -> "CoordinateChange":
        return CoordinateChange(self.target, self.source,
                                dict(self.inverse_images), dict(self.images),
                                _token=_PRIVATE)

    def then(self, nxt: "CoordinateChange") -> "CoordinateChange":
        """Composite change: apply ``self`` first, then ``nxt``."""
        if self.target != nxt.source:
            raise ChartError("changes do not compose: chart mismatch")
        forward = _substitution(self.images, self.target, self.source)
        backward = _substitution(nxt.inverse_images, nxt.source, nxt.target)
        images = {w: forward(nxt.images[w]) for w in nxt.target.names}
        inverse = {u: backward(self.inverse_images[u])
                   for u in self.source.names}
        return CoordinateChange(self.source, nxt.target, images, inverse,
                                _token=_PRIVATE)

    def pull_back(self, f: GradedSeries) -> GradedSeries:
        """Series on the target chart, rewritten in source coordinates."""
        if f.chart != self.target:
            raise ChartError("series does not live on the target chart")
        return _substitution(self.images, self.target, self.source)(f)

    def push_series(self, f: GradedSeries) -> GradedSeries:
        """Series on the source chart, rewritten in target coordinates."""
        if f.chart != self.source:
            raise ChartError("series does not live on the source chart")
        return _substitution(self.inverse_images, self.source, self.target)(f)

    @property
    def is_identity(self) -> bool:
        return self.source == self.target and all(
            _kept(self.images, self.target, self.source))

    def truncated_to(self, source: ChartSpec, target: ChartSpec) -> "CoordinateChange":
        images = {n: s.truncated_to(source) for n, s in self.images.items()}
        inverse = {n: s.truncated_to(target) for n, s in self.inverse_images.items()}
        return CoordinateChange(source, target, images, inverse,
                                _token=_PRIVATE)

    def to_json_dict(self) -> dict:
        return {
            "change": {n: str(self.images[n]) for n in self.target.names},
            "inverse": {n: str(self.inverse_images[n]) for n in self.source.names},
            "truncation_loss": {"base": self.base_loss, "j": self.j_loss},
        }

    def __repr__(self) -> str:
        body = ", ".join(f"{n} -> {self.images[n]}" for n in self.target.names)
        return f"CoordinateChange({body})"


_PRIVATE = object()


def substitute(f: GradedSeries, change: CoordinateChange) -> GradedSeries:
    """Formal composition of a target-chart series with the change."""
    return change.pull_back(f)


def invert_change(change: CoordinateChange) -> CoordinateChange:
    return change.inverted()


def compose_changes(first: CoordinateChange,
                    then: CoordinateChange) -> CoordinateChange:
    return first.then(then)


def pushforward(change: CoordinateChange, X: VectorField) -> VectorField:
    """Rewrite a source-chart field in the target coordinates via the chain
    rule: the new coefficient on v is X(image of v) expressed in target
    variables; where the change keeps v, X(v) is X's coefficient on v with
    the loss ``X.apply`` gives it (every coefficient's and the image's)."""
    if X.chart != change.source:
        raise ChartError("field does not live on the source chart")
    push = _substitution(change.inverse_images, change.source, change.target)
    kept = _kept(change.images, change.target, change.source)
    return VectorField(change.target, X.degree, {
        v: push(_sharing_loss([[X.coefficient(v)]], [
            *X.coefficients.values(), change.images[v]])[0][0]
            if keep else X.apply(change.images[v]))
        for v, keep in zip(change.target.names, kept)})
