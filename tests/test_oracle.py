"""An oracle for degree-zero straightening that shares no code with the
kernel: the certificate is pushed through with sympy polynomials over the
rationals, not with the kernel's own substitution.

On a chart where every degree is zero, the change ``y = phi(x)`` with
inverse ``x = psi(y)`` straightens ``X = sum_u a_u d/dx_u`` when
``(X phi_v)(psi(y))`` is 1 for the pivot and 0 for every other ``v``.
Every series is centered, so the terms of total degree below
``base_order`` (the certified window on such a chart) are exact, and
those are compared.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
import sympy

from helpers import base_chart
from znfrob import GradedSeries, Monomial, VectorField, straighten_deg0


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
