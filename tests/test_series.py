import itertools
import random
import threading
from operator import add
from fractions import Fraction

import pytest

from helpers import (
    oracle_multiply_monomials,
    oracle_series,
    oracle_substitute,
    random_monomial,
    random_series,
    series_of,
    standard_chart,
)
from znfrob import (
    ChartError,
    ChartSpec,
    DegreeVector,
    DimensionError,
    GradedSeries,
    HomogeneityError,
    Monomial,
    OddIntegrationError,
    UnknownCoordinateError,
    antiderivative,
    certified_part,
    collect_truncation_drops,
    compose,
    derive,
    multiply,
    reduce_mod_j,
    reduce_series,
)


@pytest.fixture
def chart():
    return standard_chart(j_order=3, base_order=6)


def test_multiply_examples(chart):
    t1, t2, e = (chart.coordinate(n) for n in ("t1", "t2", "e"))
    assert (t1 * t1).is_zero
    assert t2 * t1 == series_of(chart, "t1*t2")
    assert e * t1 == series_of(chart, "-t1*e")
    # expand and truncate at J-degree 3
    inv = series_of(chart, "1 - e + e^2 - e^3")
    assert (1 + e) * inv == chart.one()


def test_multiply_homogeneous_degree(chart):
    t1, e = chart.coordinate("t1"), chart.coordinate("e")
    prod = t1 * e
    assert prod.degree == DegreeVector.of(1, 0)


def test_derive_examples(chart):
    t1t2 = series_of(chart, "t1*t2")
    assert derive(t1t2, "t1") == chart.coordinate("t2")
    assert derive(t1t2, "t2") == chart.coordinate("t1")
    assert derive(series_of(chart, "x*e^2"), "e") == series_of(chart, "2*x*e")
    with pytest.raises(UnknownCoordinateError):
        derive(t1t2, "nope")


def test_derive_left_sign(chart):
    # d/de passes t1 with a sign: <deg e, deg t1> = 1
    f = series_of(chart, "t1*e")
    assert derive(f, "e") == series_of(chart, "-t1")
    assert derive(f, "t1") == chart.coordinate("e")


def test_antiderivative_examples(chart):
    x, e = chart.coordinate("x"), chart.coordinate("e")
    assert antiderivative(2 * x, "x") == series_of(chart, "x^2")
    assert antiderivative(e, "e") == series_of(chart, "1/2*e^2")
    with pytest.raises(OddIntegrationError):
        antiderivative(chart.coordinate("t1"), "t1")


def test_antiderivative_inverts_derive(chart):
    rng = random.Random(7)
    for _ in range(25):
        f = random_series(rng, chart, terms=4)
        for name in ("x", "e"):
            g = antiderivative(f, name)
            if g.base_loss or g.j_loss:
                continue
            assert derive(g, name) == f
            # boundary: no part free of the integration variable
            idx = chart.index(name)
            assert all(m.exps[idx] for m in g.terms)


def test_antiderivative_loss_flags(chart):
    x = chart.coordinate("x")
    top = series_of(chart, "x^6")
    out = antiderivative(top, "x")
    assert out.is_zero and out.base_loss and not out.j_loss
    top_j = series_of(chart, "e^3")  # j_order is 3
    out_j = antiderivative(top_j, "e")
    assert out_j.is_zero and out_j.j_loss and not out_j.base_loss


def test_antiderivative_drop_notes_pinned(chart):
    # d/de passes t1 and t2 with sign -1; a dropped term is noted with the
    # integrand's coefficient, unsigned and undivided, in term order
    f = series_of(chart, "3*t1*e^2 - 2/3*t2*e^2 + 4*t1*e + e^3 + x*e")
    with collect_truncation_drops() as sink:
        out = antiderivative(f, "e")
    assert [(mon.label(chart), coeff) for mon, coeff in sink] == [
        ("t1*e^3", 3), ("t2*e^3", Fraction(-2, 3)), ("e^4", 1)]
    assert str(out) == "-2*t1*e^2 + 1/2*x*e^2"
    assert out.j_loss and not out.base_loss


def test_reduce_examples(chart):
    f = series_of(chart, "3 + 2*x + t1*t2")
    assert reduce_series(f, "mod_J") == series_of(chart, "3 + 2*x")
    assert reduce_series(f, "at_point") == Fraction(3)
    assert reduce_series(chart.coordinate("e"), "mod_J").is_zero


def test_reduce_is_ring_morphism(chart):
    rng = random.Random(11)
    for _ in range(30):
        f = random_series(rng, chart, terms=4)
        g = random_series(rng, chart, terms=4)
        assert reduce_mod_j(f * g) == reduce_mod_j(f) * reduce_mod_j(g)


def test_supercommutativity(chart):
    rng = random.Random(3)
    degrees = [DegreeVector.of(*b) for b in ((0, 0), (0, 1), (1, 0), (1, 1))]
    for _ in range(40):
        da, db = rng.choice(degrees), rng.choice(degrees)
        f = random_series(rng, chart, degree=da, terms=3)
        g = random_series(rng, chart, degree=db, terms=3)
        sign = -1 if da.dot(db) else 1
        assert multiply(f, g) == multiply(g, f) * sign


def test_associativity_distributivity(chart):
    rng = random.Random(5)
    for _ in range(25):
        f = random_series(rng, chart, terms=3)
        g = random_series(rng, chart, terms=3)
        h = random_series(rng, chart, terms=3)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_leibniz_rule(chart):
    # shallow factors keep the product inside the window, where the rule is
    # exact; a derivative along a nonzero-degree coordinate would otherwise
    # see one layer past the truncation
    rng = random.Random(9)
    degrees = [DegreeVector.of(*b) for b in ((0, 0), (0, 1), (1, 0), (1, 1))]
    for _ in range(30):
        da = rng.choice(degrees)
        f = random_series(rng, chart, degree=da, terms=3, max_j=1, max_base=2)
        g = random_series(rng, chart, terms=3, max_j=1, max_base=2)
        for name in chart.names:
            du = chart.degree_of(name)
            sign = -1 if du.dot(da) else 1
            lhs = derive(f * g, name)
            rhs = derive(f, name) * g + f * derive(g, name) * sign
            assert lhs == rhs, name


def test_multiply_matches_transposition_oracle(chart):
    rng = random.Random(13)
    for _ in range(60):
        m1 = random_series(rng, chart, terms=1)
        m2 = random_series(rng, chart, terms=1)
        if m1.is_zero or m2.is_zero:
            continue
        (mon1, c1), = m1.terms.items()
        (mon2, c2), = m2.terms.items()
        expected_mon, sign = oracle_multiply_monomials(chart, mon1, mon2)
        got = m1 * m2
        if expected_mon is None:
            assert got.is_zero
        else:
            assert got.terms == {expected_mon: c1 * c2 * sign}


def test_truncation_coherence_of_pipelines(chart):
    # computing at (3, 6) then truncating to (2, 4) equals computing at (2, 4)
    rng = random.Random(17)
    low = chart.with_truncation(j_order=2, base_order=4)
    for _ in range(20):
        f = random_series(rng, chart, terms=4)
        g = random_series(rng, chart, terms=4)
        high = multiply(f, g)
        assert high.truncated_to(low) == multiply(
            f.truncated_to(low), g.truncated_to(low))
        # base derivatives keep the J-filtration, so they commute with a
        # lower J-window on the nose
        d = derive(f, "x")
        assert d.truncated_to(low) == derive(f.truncated_to(low), "x")


def test_nonzero_derivative_shifts_the_window(chart):
    # a derivative along a nonzero-degree coordinate determines one J-layer
    # less: the results agree only below the lower window's top layer
    rng = random.Random(19)
    low = chart.with_truncation(j_order=2, base_order=6)
    lower = chart.with_truncation(j_order=1, base_order=6)
    for _ in range(20):
        f = random_series(rng, chart, terms=4)
        a = derive(f, "e").truncated_to(lower)
        b = derive(f.truncated_to(low), "e").truncated_to(lower)
        assert a == b


def test_chart_mismatch(chart):
    other = standard_chart(j_order=2, base_order=6)
    with pytest.raises(ChartError):
        multiply(chart.one(), other.one())


def test_homogeneity_declaration(chart):
    mixed = series_of(chart, "x + e")
    assert mixed.degree is None
    with pytest.raises(HomogeneityError):
        GradedSeries(chart, dict(mixed.terms), DegreeVector.of(0, 0))


def test_truncation_window_at_construction(chart):
    # beyond the window: silently zero (quotient-ring semantics)
    over = chart.monomial({"x": 7})
    assert over.is_zero
    over_j = chart.monomial({"e": 4})
    assert over_j.is_zero
    # odd square is zero, not an error
    assert chart.monomial({"t1": 2}).is_zero


def test_constructor_refuses_malformed_monomials(chart):
    # the README chart x, t1, t2, e: a monomial has four exponents, each a
    # nonnegative int
    for exps in [(1, 0, 0, 0, 0), (1, 0)]:
        with pytest.raises(DimensionError):
            GradedSeries(chart, {Monomial(exps): 1})
    for exps in [(-1, 0, 0, 0), (1.0, 0, 0, 0), ("1", 0, 0, 0),
                 (True, 0, 0, 0)]:
        with pytest.raises(ValueError):
            GradedSeries(chart, {Monomial(exps): 1})
    for exponents in [{"x": -2}, {"x": True}]:
        with pytest.raises(ValueError):
            chart.monomial(exponents)
    assert GradedSeries(chart, {Monomial((1, 0, 0, 2)): 3}) == series_of(
        chart, "3*x*e^2")


def test_even_nonzero_generator_not_nilpotent(chart):
    e = chart.coordinate("e")
    assert not (e * e).is_zero
    assert not (e * e * e).is_zero
    assert (e ** 4).is_zero  # j_order 3


def test_canonical_printing_sorted(chart):
    f = series_of(chart, "e^2 + x + 1 + t1*t2")
    assert str(f) == "1 + x + e^2 + t1*t2"


def test_degree_is_derived_from_terms(chart):
    assert series_of(chart, "(x + t1)*t1").degree == DegreeVector.of(0, 1)
    assert series_of(chart, "x + t1").degree is None
    assert chart.zero().degree is None


def test_compose_requires_exact_cover(chart):
    images = {name: chart.coordinate(name) for name in chart.names}
    x = chart.coordinate("x")
    assert compose(x * x, images, chart) == x * x
    with pytest.raises(UnknownCoordinateError):
        compose(x, dict(images, w=x), chart)


def test_truncation_drops_stay_in_their_thread(chart):
    # A opens a collector, B opens one, A closes its own, then B drops x^7
    a_in, b_in, a_out = (threading.Event() for _ in range(3))
    sinks = {}

    def thread_a():
        with collect_truncation_drops() as sink:
            a_in.set()
            b_in.wait(10)
        sinks["a"] = sink
        a_out.set()

    def thread_b():
        a_in.wait(10)
        with collect_truncation_drops() as sink:
            b_in.set()
            a_out.wait(10)
            assert chart.monomial({"x": 7}).is_zero
        sinks["b"] = sink

    threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    assert sinks["a"] == []
    assert [mon.label(chart) for mon, _ in sinks["b"]] == ["x^7"]


def test_monomial_contract():
    chart = standard_chart()  # x, t1, t2, e
    a, b = Monomial(tuple([2, 1, 0, 3])), Monomial(tuple((2, 1, 0, 3)))
    assert a.exps == (2, 1, 0, 3)
    assert a == b and hash(a) == hash(b)
    assert a != Monomial((2, 1, 0, 2))
    assert (a.j_degree(chart), a.base_degree(chart), a.total_degree) == (4, 2, 6)
    assert a.degree(chart) == DegreeVector.of(1, 0)
    assert a.label(chart) == "x^2*t1*e^3" and not a.is_unit
    unit = Monomial((0, 0, 0, 0))
    assert unit.label(chart) == "1" and unit.is_unit
    assert unit.degree(chart) == DegreeVector.of(0, 0)
    assert (unit.j_degree(chart), unit.base_degree(chart), unit.total_degree) == (0, 0, 0)


def test_compose_drop_notes_pinned():
    # recorded before compose moved to one accumulator: the same products
    # in the same order drop the same scaled terms
    chart = standard_chart(j_order=3, base_order=4)
    images = {
        "x": series_of(chart, "2*x + x^2"),
        "t1": series_of(chart, "t1 + x*t1"),
        "t2": series_of(chart, "-t2 + 3*x*t2"),
        "e": series_of(chart, "e + 1/2*t1*t2"),
    }
    f = series_of(chart, "3*x^3*e + 1/2*x^2*e^2 - t1*t2*e + 5*x^3*t1"
                         " - 2/3*x^2*t2*e + 7")
    with collect_truncation_drops() as sink:
        out = compose(f, images, chart)
    assert [(mon.label(chart), coeff) for mon, coeff in sink] == [
        ("x^5", 4), ("x^5", 2), ("x^6", 1), ("x^5*t1", 60), ("x^5*t2", -2)]
    assert out.constant_term == 7
    assert out.coefficient(Monomial((4, 1, 0, 0))) == 100


def test_substitution_notes_each_image_power_once(monkeypatch):
    # recorded before substitution kept its image powers as chains: x^2
    # leaves the window and is used by two terms, t2 goes to zero, and each
    # image power, empty or not, is worked out and noted once per map
    import znfrob.series
    chart = ChartSpec.build(2, [("t1", (0, 1)), ("t2", (1, 0)),
                                ("e", (1, 1)), ("x", (0, 0))],
                            j_order=2, base_order=4)
    images = {"t1": series_of(chart, "t1 + x*t1"), "t2": chart.zero(),
              "e": series_of(chart, "e + 2*t1*t2"),
              "x": series_of(chart, "x^3")}
    f = series_of(chart, "2*e*x^2 - 3*t1*x^2 + 5*t1*t2 + t2 + e^2"
                         " + t1*e*x + 1/2*x + 7")
    calls = 0
    real = znfrob.series._multiply_rows

    def counted(rows1, rows2, chart):
        nonlocal calls
        calls += 1
        return real(rows1, rows2, chart)

    monkeypatch.setattr(znfrob.series, "_multiply_rows", counted)
    with collect_truncation_drops() as sink:
        out = compose(f, images, chart)
    assert [(mon.label(chart), coeff) for mon, coeff in sink] == [
        ("x^6", 1), ("t1*t2*e", 2), ("t1*t2*e", 2)]
    assert str(out) == "7 + e^2 + 1/2*x^3 + t1*e*x^3 + t1*e*x^4"
    assert calls == 7


def test_power_with_constant_term_matches_chained_products(chart):
    x = chart.coordinate("x")
    base = 1 + x
    chained = chart.one()
    for _ in range(5):
        chained = multiply(chained, base)
    assert base ** 5 == chained
    mixed = series_of(chart, "-1/2 + x - t1*t2 + 2*e^2")
    chained = chart.one()
    for _ in range(7):
        chained = multiply(chained, mixed)
    assert mixed ** 7 == chained
    assert mixed ** 0 == chart.one()


@pytest.mark.parametrize("seed", [3, 29, 61, 97])
def test_multi_term_products_match_transposition_oracle(seed):
    # a low window on the five-coordinate chart, so that many term pairs
    # leave it or hit an odd square, against the oracle summed over pairs
    chart = standard_chart(j_order=2, base_order=3, extra_base=True)
    rng = random.Random(seed)
    pairs = left = 0
    for _ in range(25):
        f = random_series(rng, chart, terms=rng.randint(2, 6))
        g = random_series(rng, chart, terms=rng.randint(2, 6))
        expected = {}
        for m1, c1 in f.terms.items():
            for m2, c2 in g.terms.items():
                pairs += 1
                mon, sign = oracle_multiply_monomials(chart, m1, m2)
                if mon is None:
                    left += 1
                    continue
                expected[mon] = expected.get(mon, 0) + c1 * c2 * sign
        assert multiply(f, g).terms == {m: c for m, c in expected.items() if c}
    assert left > pairs // 3


def test_multiply_drop_notes_pinned():
    # recorded before the window moved ahead of the sign scan: odd squares
    # are not noted, window drops are, unsigned and in pair order
    chart = standard_chart(j_order=3, base_order=4)
    f = series_of(chart, "x^3 + t1*e + 2*x*t2 - 1/2*e^2 + t1*t2")
    g = series_of(chart, "3*x^2 + t1 - 1/3*e^2 + t2*e + 5*x*t1*t2")
    with collect_truncation_drops() as sink:
        out = multiply(f, g)
    assert [(mon.label(chart), coeff) for mon, coeff in sink] == [
        ("x^5", 3), ("t1*e^3", Fraction(-1, 3)), ("t1*t2*e^2", 1),
        ("e^4", Fraction(1, 6)), ("t2*e^3", Fraction(-1, 2)),
        ("x*t1*t2*e^2", Fraction(-5, 2)), ("t1*t2*e^2", Fraction(-1, 3))]
    assert str(out) == (
        "-1/2*t1*e^2 + 2*x*t1*t2 - 2/3*x*t2*e^2 - 3/2*x^2*e^2 + 3*x^2*t1*e"
        " + 3*x^2*t1*t2 + 6*x^3*t2 + x^3*t1 - 1/3*x^3*e^2 + x^3*t2*e"
        " + 5*x^4*t1*t2")


def test_multiply_without_collector_notes_nothing(chart, monkeypatch):
    import znfrob.series

    def refuse(mon, coeff):
        raise AssertionError("a dropped product was built with no collector")

    monkeypatch.setattr(znfrob.series, "_note_drop", refuse)
    f = series_of(chart, "x^4 + e^2 + x*t1")
    g = series_of(chart, "x^3 + e^2 + t1*e")
    # x^7, e^4 and t1*e^3 leave the window, x*t1*t1*e is an odd square
    assert str(multiply(f, g)) == (
        "x*t1*e^2 + x^3*e^2 + x^4*t1 + x^4*e^2 + x^4*t1*e")


@pytest.mark.parametrize("k, drops, terms", [
    (0, 0, 1), (1, 0, 4), (2, 0, 9), (3, 7, 13), (5, 47, 11), (8, 101, 3)])
def test_centered_power_matches_chained_products(chart, k, drops, terms):
    # powers of a centered series leave the window after a few factors; the
    # loss flag comes from an antiderivative that dropped x^7; the counts
    # were recorded before zero binomial terms were skipped
    n = series_of(chart, "x + 2*e - t1*t2") + antiderivative(
        series_of(chart, "3*x^6 + 2*x*e"), "x")
    assert n.base_loss and not n.j_loss and not n.constant_term
    with collect_truncation_drops() as chained_drops:
        chained = chart.one()
        for _ in range(k):
            chained = multiply(chained, n)
    with collect_truncation_drops() as power_drops:
        powered = n ** k
    assert powered == chained
    assert (powered.base_loss, powered.j_loss) == (chained.base_loss,
                                                   chained.j_loss)
    assert power_drops == chained_drops
    assert (len(power_drops), len(powered.terms)) == (drops, terms)


def interleaved_chart():
    # n=3, odd and even degrees interleaved in the coordinate order, so
    # that sign-mask bits sit between base and odd coordinates
    return ChartSpec.build(3, [("a", (1, 0, 0)), ("x", (0, 0, 0)),
                               ("b", (0, 1, 1)), ("c", (1, 1, 0)),
                               ("y", (0, 0, 0))], j_order=3, base_order=3)


@pytest.mark.parametrize("seed", [5, 17, 43])
def test_interleaved_chart_products_match_transposition_oracle(seed):
    chart = interleaved_chart()
    odd = [i for i, flag in enumerate(chart.odd_flags) if flag]
    rng = random.Random(seed)
    signs = {1: 0, -1: 0}
    dropped = 0
    for _ in range(20):
        f = random_series(rng, chart, terms=rng.randint(2, 6))
        g = random_series(rng, chart, terms=rng.randint(2, 6))
        expected, drops = {}, []
        for m1, c1 in f.terms.items():
            for m2, c2 in g.terms.items():
                mon, sign = oracle_multiply_monomials(chart, m1, m2)
                if mon is not None:
                    signs[sign] += 1
                    expected[mon] = expected.get(mon, 0) + c1 * c2 * sign
                    continue
                summed = Monomial(map(add, m1, m2))
                if all(summed[i] < 2 for i in odd):
                    drops.append((summed, c1 * c2))
        want = {m: c for m, c in expected.items() if c}
        assert multiply(f, g).terms == want
        with collect_truncation_drops() as sink:
            assert multiply(f, g).terms == want
        assert sink == drops
        dropped += len(drops)
    assert signs[-1] > 10 and signs[1] > 10 and dropped > 10


def rows_by_definition(s):
    """Term rows straight from their definition: bit i of the sign mask is
    the parity of sum_{j<i} e_j <deg_j, deg_i>."""
    chart = s.chart
    pair = chart.pair_table
    rows = []
    for mon, c in s.terms.items():
        sign = sum((sum(mon[j] * pair[j][i] for j in range(i)) % 2) << i
                   for i in range(len(mon)))
        rows.append((mon, c, mon.j_degree(chart), mon.base_degree(chart),
                     sum(1 << i for i, e in enumerate(mon)
                         if e and chart.odd_flags[i]),
                     sum(1 << i for i, e in enumerate(mon) if e % 2), sign))
    return rows


def test_cached_rows_match_rows_from_terms(monkeypatch):
    import znfrob.series
    chart = interleaved_chart()
    made = []
    real = znfrob.series._multiply_rows

    def recording(rows1, rows2, chart):
        out = real(rows1, rows2, chart)
        made.append(out)
        return out

    monkeypatch.setattr(znfrob.series, "_multiply_rows", recording)
    f = series_of(chart, "x^2*b + 1/2*a*c*y - 3*x*y^2 + 2*a*x + b*c - 1")
    g = series_of(chart, "a*b + 2*x*c - 1/3*y + c^2")
    product = multiply(f, g)
    assert product._term_rows() is made[-1]
    power = f ** 3
    images = {"a": series_of(chart, "a + x*a - 2*a*c^2"),
              "x": series_of(chart, "x + 1/2*x^2 + c^2"),
              "b": series_of(chart, "b - y*b + b*c^2"),
              "c": series_of(chart, "2*c + x*c"),
              "y": series_of(chart, "y + x*y - 1/4*x^2")}
    pulled = compose(f, images, chart)
    assert len(made) > 10
    for rows in made:
        built = GradedSeries(chart, {row[0]: row[1] for row in rows})
        assert rows == rows_by_definition(built)
    for s in (product, power, pulled, f, g):
        assert s._term_rows() == rows_by_definition(s)



def kept_chart():
    # n=2, four odd coordinates of degree (0, 1), which anticommute,
    # interleaved with base, odd (1, 0) and even nonzero (1, 1) ones that
    # pair with some of them
    return ChartSpec.build(2, [("a", (0, 1)), ("x", (0, 0)), ("b", (0, 1)),
                               ("e", (1, 1)), ("c", (0, 1)), ("s", (1, 0)),
                               ("y", (0, 0)), ("d", (0, 1))],
                           j_order=4, base_order=3)


@pytest.mark.parametrize("seed", [2, 19, 41, 88])
def test_substitution_keeping_coordinates_matches_the_oracle(seed,
                                                             monkeypatch):
    # maps that keep a random subset of the coordinates (some kept images
    # carry a loss flag), send others to zero and move the rest, against
    # the oracle ring, which substitutes every coordinate; a series of kept
    # coordinates alone is substituted with no product at all
    import znfrob.series
    chart = kept_chart()
    rng = random.Random(seed)
    x, e = chart.coordinate("x"), chart.coordinate("e")
    lossy = [antiderivative(x ** chart.base_order, "x"),
             antiderivative(e ** chart.j_order, "e")]
    assert all(f.is_zero for f in lossy)
    in_window = lambda m: (Monomial(m).j_degree(chart) <= chart.j_order and
                           Monomial(m).base_degree(chart) <= chart.base_order)
    calls = 0
    real = znfrob.series._multiply_rows

    def counted(rows1, rows2, chart):
        nonlocal calls
        calls += 1
        return real(rows1, rows2, chart)

    monkeypatch.setattr(znfrob.series, "_multiply_rows", counted)
    seen = {"signed split": 0, "kept only": 0, "zero": 0, "lossy kept": 0}
    for _ in range(12):
        kept = {n for n in chart.names if rng.random() < 0.5}
        images = {}
        for name in chart.names:
            deg = chart.degree_of(name)
            if name in kept:
                images[name] = chart.coordinate(name)
                if rng.random() < 0.3:
                    images[name] = images[name] + rng.choice(lossy)
                    seen["lossy kept"] += 1
            elif rng.random() < 0.2:
                images[name] = chart.zero()
                seen["zero"] += 1
            else:
                images[name] = (rng.choice([1, -1, 2]) * chart.coordinate(name)
                                + random_series(rng, chart, deg, terms=2,
                                                allow_constant=False))
        f = random_series(rng, chart, terms=8)
        mons = [random_monomial(rng, chart) for _ in range(40)]
        only_kept = GradedSeries(chart, {m: rng.randint(1, 5) for m in mons
                                         if any(m) and all(
            chart.names[i] in kept for i, k in enumerate(m) if k)})
        for g in (f, f + only_kept):
            got = compose(g, images, chart)
            assert oracle_series(got) == oracle_substitute(
                chart, oracle_series(g),
                {n: oracle_series(s) for n, s in images.items()}, in_window)
            for flag in ("base_loss", "j_loss"):
                assert getattr(got, flag) == any(
                    getattr(s, flag) for s in (g, *images.values()))
            # terms whose kept factors move past a moved factor they
            # pair with, both odd powers: the split's sign is -1
            odd = [[i for i, k in enumerate(m) if k & 1] for m in g.terms]
            seen["signed split"] += sum(1 for ids in odd if sum(
                chart.degrees[i].dot(chart.degrees[j]) for i in ids
                for j in ids if j < i and chart.names[i] in kept
                and chart.names[j] not in kept) & 1)
        seen["kept only"] += len(only_kept.terms)
        calls = 0
        assert compose(only_kept, images, chart).terms == only_kept.terms
        assert calls == 0
    assert all(seen.values()), seen


def test_loss_flags_are_read_only(chart):
    s = antiderivative(series_of(chart, "x^6 + e"), "x")
    for flag in ("base_loss", "j_loss"):
        with pytest.raises(AttributeError):
            setattr(s, flag, False)
    assert s.base_loss and not s.j_loss


def lossy_operands(chart):
    """Nonzero series with no loss, base loss, j loss and both: each loss
    comes from an antiderivative that drops a term past the window."""
    base = antiderivative(series_of(chart, "x^6 + e + 1"), "x")  # x^7 drops
    j = antiderivative(series_of(chart, "e^3 + x + 2"), "e")     # e^4 drops
    both = antiderivative(series_of(chart, "x^6*e + x + e"), "x") + j
    operands = [series_of(chart, "x*e - 3*x^2*e + 1"), base, j, both]
    assert [(s.base_loss, s.j_loss) for s in operands] == [
        (False, False), (True, False), (False, True), (True, True)]
    assert not any(s.is_zero for s in operands)
    return operands


@pytest.mark.parametrize("bits", [(0, 0), (1, 1), (0, 1)],
                         ids=["zero", "even", "odd"])
def test_pivot_free_part_is_the_zero_image_substitution(chart, bits):
    # the pivot frame's slice of a coefficient: its terms free of the pivot,
    # as substituting zero for the pivot gives them, with the series' loss
    from znfrob.series import _free_of, _substitution
    rng = random.Random(2 * bits[0] + bits[1])
    losses = [chart.zero(),
              antiderivative(series_of(chart, "x^6"), "x"),   # x^7 drops
              antiderivative(series_of(chart, "e^3"), "e")]   # e^4 drops
    losses.append(losses[1] + losses[2])
    assert [(s.base_loss, s.j_loss) for s in losses] == [
        (False, False), (True, False), (False, True), (True, True)]
    kept = 0
    for k in range(12):
        f = random_series(rng, chart, DegreeVector(bits), terms=5)
        f = f + losses[k % 4]
        for pivot in chart.names:
            zero_image = _substitution({
                n: chart.zero() if n == pivot else chart.coordinate(n)
                for n in chart.names}, chart, chart)(f)
            got = _free_of(f, pivot)
            assert got.terms == zero_image.terms
            assert (got.base_loss, got.j_loss) == (zero_image.base_loss,
                                                   zero_image.j_loss)
            kept += 0 < len(got.terms) < len(f.terms)
    assert kept


def test_certified_reader_keeps_the_nonempty_windows_in_order(chart):
    # the one reader of the certified window (j-degree below 3, base degree
    # below 6, total degree at most 6): each coefficient's terms inside it,
    # with the coefficient's loss, and no entry where none is inside
    from znfrob.series import _certified
    losses = [chart.zero(),
              antiderivative(series_of(chart, "x^6"), "x"),   # x^7 drops
              antiderivative(series_of(chart, "e^3"), "e")]   # e^4 drops
    losses.append(losses[1] + losses[2])
    flags = [(False, False), (True, False), (False, True), (True, True)]
    assert [(s.base_loss, s.j_loss) for s in losses] == flags
    kinds = {
        "zero": (chart.zero(), None),
        "boundary": (series_of(chart, "x^6 + 2*t1*t2*e - e^3 + x^5*e^2"),
                     None),
        "interior": (series_of(chart, "1 + x^2 - 3*t1*t2 + e^2 + x^4*e^2"),
                     "1 + x^2 - 3*t1*t2 + e^2 + x^4*e^2"),
        "mixed": (series_of(chart, "x - x^6 + t1*e + e^3"), "x + t1*e"),
    }
    entries = [(f"{kind}/{k}", series + loss, inside, flags[k])
               for kind, (series, inside) in kinds.items()
               for k, loss in enumerate(losses)]
    random.Random(5).shuffle(entries)
    got = _certified({name: f for name, f, _, _ in entries})
    kept = [(name, inside, flag) for name, _, inside, flag in entries
            if inside is not None]
    assert list(got) == [name for name, _, _ in kept]
    assert len(kept) == 8
    for name, inside, flag in kept:
        assert got[name].terms == series_of(chart, inside).terms, name
        assert (got[name].base_loss, got[name].j_loss) == flag, name
    assert _certified({}) == {}


@pytest.mark.parametrize("arity, operation", [
    (2, lambda f, g: f + g),
    (2, lambda f, g: f - g),
    (1, lambda f: 2 - f),
    (1, lambda f: -f),
    (1, lambda f: Fraction(-3, 2) * f),
    (1, lambda f: f * 4),
    (1, lambda f: f.truncated_to(f.chart.with_truncation(2, 3))),
    (1, certified_part),
    (1, reduce_mod_j),
    (1, lambda f: derive(f, "x")),
], ids=["add", "sub", "rsub", "neg", "scalar_left", "scalar_right",
        "truncated_to", "certified_part", "reduce_mod_j", "derive"])
def test_operations_carry_the_union_of_their_operands_loss(
        chart, arity, operation):
    operands = lossy_operands(chart)
    for args in itertools.product(operands, repeat=arity):
        out = operation(*args)
        assert (out.base_loss, out.j_loss) == (
            any(a.base_loss for a in args), any(a.j_loss for a in args))
