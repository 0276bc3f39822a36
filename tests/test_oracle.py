"""An oracle for degree-zero straightening that shares no code with the
kernel: the certificate is pushed through with sympy polynomials over the
rationals, not with the kernel's own substitution.

On a chart where every degree is zero, the change ``y = phi(x)`` with
inverse ``x = psi(y)`` straightens ``X = sum_u a_u d/dx_u`` when
``(X phi_v)(psi(y))`` is 1 for the pivot and 0 for every other ``v``.
Every series is centered, so the terms of total degree below
``base_order`` (the certified window on such a chart) are exact, and
those are compared.

On graded charts the oracle is a ring of plain dicts in
``tests/helpers.py``: products by the transposition oracle, and left
derivatives and substitutions built on them.  A certificate is checked
there with nothing pushed through its change (`certificate_ok`).
"""

import random
from fractions import Fraction
from itertools import product

import pytest
import sympy

from helpers import (
    base_chart,
    oracle_apply,
    oracle_series,
    oracle_substitute,
    random_centered_change,
    standard_chart,
    tampered_certificate,
)
from znfrob import (
    Distribution,
    GradedSeries,
    Monomial,
    VectorField,
    adapted_coordinates,
    pushforward,
    straighten_deg0,
    verify_adapted,
)


def to_poly(series, symbols):
    return sympy.Poly.from_dict(
        {tuple(m): sympy.Rational(c.numerator, c.denominator)
         for m, c in series.terms.items()} or {(0,) * len(symbols): 0},
        *symbols, domain=sympy.QQ)


def below(poly, order):
    """The terms of total degree below ``order``."""
    kept = {m: c for m, c in poly.as_dict().items() if sum(m) < order}
    return sympy.Poly.from_dict(kept or {(0,) * len(poly.gens): 0},
                                *poly.gens, domain=sympy.QQ)


def substitute(poly, images, order):
    """``poly`` with ``images[i]`` for its i-th variable, below ``order``."""
    out = sympy.Poly(0, *poly.gens, domain=sympy.QQ)
    for mon, coeff in poly.as_dict().items():
        term = sympy.Poly(coeff, *poly.gens, domain=sympy.QQ)
        for image, e in zip(images, mon):
            for _ in range(e):
                term = below(term * image, order)
        out += term
    return out


def random_field(rng, chart):
    """A degree-zero field with small rational coefficients and a nonzero
    constant on at least one coordinate."""
    monomials = [m for m in product(range(chart.base_order + 1),
                                    repeat=len(chart.names))
                 if sum(m) <= chart.base_order]
    coeffs = {}
    for name in chart.names:
        terms = {Monomial(m): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for m in rng.sample(monomials, 4)}
        coeffs[name] = GradedSeries(chart, terms)
    lead = rng.choice(chart.names)
    constant = rng.choice([-2, 1, Fraction(1, 2)])
    coeffs[lead] = coeffs[lead] + (constant - coeffs[lead].constant_term)
    return VectorField(chart, chart.zero_degree, coeffs)


@pytest.mark.parametrize("seed", range(8))
def test_straighten_deg0_agrees_with_sympy(seed):
    rng = random.Random(seed)
    names = ("x", "y", "z")[:2 + seed % 2]
    chart = base_chart(names, base_order=3 + seed % 3)
    order = chart.base_order
    X = random_field(rng, chart)
    change = straighten_deg0(X)

    symbols = sympy.symbols(names)
    a = [to_poly(X.coefficient(n), symbols) for n in names]
    phi = [to_poly(change.images[n], symbols) for n in names]
    psi = [to_poly(change.inverse_images[n], symbols) for n in names]
    pivot = next(n for n, p in zip(names, a) if p.eval(
        {s: 0 for s in symbols}) != 0)

    for n, image in zip(names, phi):
        applied = sum((ai * image.diff(s) for ai, s in zip(a, symbols)),
                      sympy.Poly(0, *symbols, domain=sympy.QQ))
        pushed = substitute(below(applied, order), psi, order)
        want = 1 if n == pivot else 0
        assert pushed == sympy.Poly(want, *symbols, domain=sympy.QQ), n

    # the two directions are inverse to each other up to base_order
    for images, other in ((phi, psi), (psi, phi)):
        for s, image in zip(symbols, images):
            assert substitute(image, other, order + 1) == sympy.Poly(
                s, *symbols, domain=sympy.QQ)


def in_certified_window(chart):
    """The predicate of the certified window: J-degree below ``j_order``,
    base degree below ``base_order`` and total degree at most
    ``base_order``.  The monomials outside it form an ideal, which a
    centered, degree-preserving substitution keeps, so a check on the
    window may drop them after every product."""
    in_j = [not d.is_zero for d in chart.degrees]

    def keep(mon):
        j = sum(e for e, graded in zip(mon, in_j) if graded)
        return (j < chart.j_order and sum(mon) - j < chart.base_order
                and sum(mon) <= chart.base_order)
    return keep


def certificate_ok(D, cert):
    """A certificate checked in the oracle ring, with nothing pushed
    through the change ``phi`` and its inverse ``psi``.  It is sound on the
    certified window when

    (a) ``X_i(phi_v)`` has no term there for every generator ``X_i`` and
        every ``v`` off the adapted names;
    (b) the square block ``X_i(phi_a)(0)`` over the adapted names is
        invertible, which also matches the count per degree, since the
        block at the origin does not mix degrees;
    (c) ``phi o psi`` and ``psi o phi`` are the identity there."""
    chart = D.chart
    keep = in_certified_window(chart)
    phi = {v: oracle_series(cert.change.images[v]) for v in chart.names}
    psi = {u: oracle_series(cert.change.inverse_images[u])
           for u in chart.names}
    rows = [{v: oracle_apply(chart, {u: oracle_series(a) for u, a in
                                     X.coefficients.items()}, phi[v], keep)
             for v in chart.names} for X in D.generators]
    if any(row[v] for row in rows for v in chart.names
           if v not in cert.adapted):
        return False
    origin = (0,) * len(chart.names)
    block = [[row[a].get(origin, 0) for a in cert.adapted] for row in rows]
    if len(rows) != len(cert.adapted) or sympy.Matrix(block).det() == 0:
        return False
    for outer, inner in ((phi, psi), (psi, phi)):
        for i, name in enumerate(chart.names):
            unit = tuple(int(i == k) for k in range(len(chart.names)))
            window = {m: c for m, c in outer[name].items() if keep(m)}
            if oracle_substitute(chart, window, inner, keep) != {unit: 1}:
                return False
    return True


def test_graded_certificates_agree_with_the_oracle_ring():
    # 40 families of pushed coordinate derivations of degree zero, odd
    # degree (t1, t2) and even nonzero degree (e), each certificate with
    # five tampered ones; the oracle ring must give verify's verdict on
    # every one of them, both ways
    chart = standard_chart(j_order=3, base_order=4, extra_base=True)
    rng = random.Random(1608)
    subsets = [("x",), ("t1",), ("e",), ("x", "t1"), ("x", "e"),
               ("y", "t2"), ("t1", "e"), ("x", "y", "t1"),
               ("t1", "t2", "e"), ("x", "t2", "e")]
    verdicts = {False: 0, True: 0}
    for i in range(40):
        sigma = random_centered_change(rng, chart)
        D = Distribution(chart, [
            pushforward(sigma, VectorField.coordinate_derivation(chart, u))
            for u in subsets[i % len(subsets)]])
        cert = adapted_coordinates(D)
        assert certificate_ok(D, cert), i
        for k in range(5):
            tampered = tampered_certificate(rng, cert)
            ok = verify_adapted(D, tampered).ok
            assert certificate_ok(D, tampered) == ok, (i, k)
            verdicts[ok] += 1
    assert min(verdicts.values()) >= 40, verdicts
