"""Canonical coefficients: an integral coefficient is an ``int``, a
``Fraction`` only appears with a denominator above 1, and no operation
ever yields a ``float``.  Integral arithmetic takes no ``Fraction`` path
at all."""

import random
from fractions import Fraction

import pytest

from helpers import (random_centered_change, random_field, random_series,
                     standard_chart)
from znfrob import (
    Distribution,
    GradedSeries,
    Monomial,
    VectorField,
    adapted_coordinates,
    antiderivative,
    bracket,
    compose,
    derive,
    multiply,
    parse_expression,
    pushforward,
    rational_inverse,
)
from znfrob.series import _reciprocal


def canonical(value) -> bool:
    return type(value) is int or (type(value) is Fraction
                                  and value.denominator > 1)


def assert_canonical(series: GradedSeries) -> None:
    bad = {m: c for m, c in series.terms.items() if not canonical(c)}
    assert not bad, bad


def test_constructors_return_canonical_coefficients():
    chart = standard_chart()
    x = chart.coordinate("x")
    made = [
        chart.constant(Fraction(4, 2)), chart.constant("6/3"),
        chart.constant("1/2"), chart.one(), x,
        chart.monomial({"x": 1}, "8/4"), chart.monomial({"x": 2}, 2.5),
        GradedSeries(chart, {Monomial((1, 0, 0, 0)): Fraction(3, 1),
                             Monomial((2, 0, 0, 0)): 2.0}),
        x * Fraction(1, 2) + x * Fraction(1, 2),
        x * Fraction(2, 1), x / 2 * 4, x / Fraction(1, 3),
        (x * Fraction(1, 2)) ** 2 * 4,
    ]
    for series in made:
        assert_canonical(series)
    assert made[0].terms == {chart.unit_monomial: 2}
    assert made[8] == x


@pytest.mark.parametrize("seed", range(6))
def test_every_operation_keeps_coefficients_canonical(seed):
    rng = random.Random(seed)
    chart = standard_chart(j_order=3, base_order=4)
    even = [n for n, odd in zip(chart.names, chart.odd_flags) if not odd]
    for _ in range(4):
        f = random_series(rng, chart, terms=4)
        g = random_series(rng, chart, terms=4)
        results = [multiply(f, g), f + g, f - g, -f, f * 3,
                   f * Fraction(3, 2), f / 3, f / Fraction(2, 3),
                   f ** 2, f ** 3, (f + 2) ** 3]
        results += [derive(f, n) for n in chart.names]
        results += [antiderivative(f, n) for n in even]
        change = random_centered_change(rng, chart)
        results += [compose(f, change.images, chart),
                    compose(f, change.inverse_images, chart)]
        results += [*change.images.values(), *change.inverse_images.values()]
        for series in results:
            assert_canonical(series)

    values = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
               for _ in range(3)] for _ in range(3)]
    for matrix in (values, [[2, 1, 0], [1, 1, 0], [0, 0, 4]]):
        inverse = rational_inverse(matrix)
        if inverse is not None:
            assert all(canonical(c) for row in inverse for c in row)
    assert rational_inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    assert all(type(c) is int for row in rational_inverse([[2, 1], [1, 1]])
               for c in row)


@pytest.mark.parametrize("seed", range(3))
def test_kernel_producers_make_nonzero_canonical_coefficients(seed):
    # a kernel result keeps the coefficient map its producer built, so each
    # producer leaves out zeros and makes integral values ints itself
    rng = random.Random(seed)
    chart = standard_chart(j_order=3, base_order=4)
    even = [n for n, odd in zip(chart.names, chart.odd_flags) if not odd]
    x = chart.coordinate("x")
    results = [chart.constant(Fraction(4, 2)), chart.constant(0),
               parse_expression("1/2*2*x + 4/2*t1*t2 - 2/2*x + 4/9*(3/2)^2*e",
                                chart),
               x * Fraction(1, 2) * 2, _reciprocal(2 + x * Fraction(1, 2))]
    for _ in range(4):
        f = random_series(rng, chart, terms=4)
        g = random_series(rng, chart, terms=4)
        centered = f - f.constant_term
        results += [f + g, f - g, f - f, f * Fraction(2, 3), f * 2,
                    multiply(f, g), centered ** 2, centered ** 3, f ** 2]
        results += [derive(f, n) for n in chart.names]
        results += [antiderivative(f, n) for n in even]
        change = random_centered_change(rng, chart)
        results += [compose(f, change.images, chart),
                    compose(f, change.inverse_images, chart)]
        X = random_field(rng, chart, terms=3)
        Y = random_field(rng, chart, terms=3)
        results += [*pushforward(change, X).coefficients.values(),
                    *bracket(X, Y).coefficients.values(),
                    *bracket(X, X).coefficients.values()]
    assert results[1].terms == {} and results[0].terms == {
        chart.unit_monomial: 2}
    for series in results:
        bad = {m: c for m, c in series.terms.items()
               if not (c and canonical(c))}
        assert not bad, bad


def test_certificate_coefficients_are_canonical():
    chart = standard_chart(j_order=3, base_order=4, extra_base=True)
    s = {name: chart.coordinate(name) for name in chart.names}
    # the flow box of X integrates x^2 into x^3/3
    X = VectorField(chart, chart.zero_degree, {
        "x": chart.one() * 2, "y": s["x"] ** 2 * 2, "t1": s["x"] * s["t1"]})
    T = VectorField(chart, chart.degree_of("t1"), {"t1": chart.one()})
    cert = adapted_coordinates(Distribution(chart, [X, T]))
    series = [*cert.change.images.values(), *cert.change.inverse_images.values()]
    series += [s for _, step in cert.steps for s in step.images.values()]
    assert any(isinstance(c, Fraction) for f in series for c in f.terms.values())
    for f in series:
        assert_canonical(f)


ARITHMETIC = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
              "__rfloordiv__", "__mod__", "__rmod__", "__pow__", "__rpow__",
              "__neg__", "__pos__", "__abs__"]


@pytest.mark.parametrize("seed", range(3))
def test_integral_hot_path_takes_no_fraction_operation(seed, monkeypatch):
    rng = random.Random(seed)
    chart = standard_chart(j_order=3, base_order=4)
    # integral series and an integral change, built before the patch
    f, g = (GradedSeries(chart, {
        m: rng.choice([-3, -2, -1, 1, 2, 3])
        for m in random_series(rng, chart, terms=4).terms}) for _ in range(2))
    change = random_centered_change(rng, chart)

    def refuse(*args):
        raise AssertionError("Fraction arithmetic on the integral path")

    for name in ARITHMETIC:
        monkeypatch.setattr(Fraction, name, refuse)
    with pytest.raises(AssertionError):
        Fraction(1, 2) * 2  # the patch is live

    products = [multiply(f, g), f * g - g * f, f ** 3, (f + 1) ** 2]
    derived = [derive(f, n) for n in chart.names]
    composed = [compose(f, change.images, chart),
                compose(g, change.inverse_images, chart)]
    monkeypatch.undo()
    for series in products + derived + composed:
        assert all(type(c) is int for c in series.terms.values())
    assert any(not s.is_zero for s in products + composed)


@pytest.mark.parametrize("seed", range(3))
def test_fraction_sums_take_no_fraction_multiplication(seed, monkeypatch):
    # a sum, difference or negation adds or subtracts coefficients; only a
    # scale other than 1 or -1 multiplies them
    from znfrob.series import _accumulate
    rng = random.Random(seed)
    chart = standard_chart(j_order=3, base_order=4)
    mons = list(random_series(rng, chart, terms=6).terms)
    f, g, u = (GradedSeries(chart, {
        m: Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([2, 3]))
        for m in rng.sample(mons, 4)}) for _ in range(3))

    def refuse(*args):
        raise AssertionError("Fraction multiplication in a plain sum")

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name, refuse)
    with pytest.raises(AssertionError):
        Fraction(1, 2) * 2  # the patch is live

    # the Picard update u + sum a_k error_k where A^{-1} is a signed
    # permutation
    results = [f + g, f - g, 1 - f, -f,
               _accumulate(chart, [(1, u), (1, f), (-1, g)])]
    monkeypatch.undo()

    def plain(*scaled):
        out = {}
        for a, s in scaled:
            for m, v in s.terms.items():
                out[m] = out.get(m, 0) + a * v
        return {m: v for m, v in out.items() if v}

    wants = [plain((1, f), (1, g)), plain((1, f), (-1, g)),
             plain((1, chart.one()), (-1, f)), plain((-1, f)),
             plain((1, u), (1, f), (-1, g))]
    for got, want in zip(results, wants):
        assert got.terms == want
        assert_canonical(got)
    assert any(isinstance(v, Fraction) for s in results for v in s.terms.values())
