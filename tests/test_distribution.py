import random

import pytest

from helpers import (
    base_chart,
    field_of,
    random_centered_change,
    random_series,
    reference_normalize,
    series_of,
    standard_chart,
)
from znfrob import (
    DependentAtPoint,
    Distribution,
    GradedMatrix,
    VectorField,
    antiderivative,
    bracket,
    is_involutive,
    membership,
    normalize_generators,
    pushforward,
    rank_of,
)
from znfrob import distribution, linalg


@pytest.fixture
def chart():
    return standard_chart(j_order=3, base_order=4)


def dgen(chart, name):
    return VectorField.coordinate_derivation(chart, name)


def test_rank_examples(chart):
    D = Distribution(chart, [dgen(chart, "x"), dgen(chart, "t1")])
    rank = rank_of(D)
    assert rank.to_json() == {"00": 1, "01": 1}
    X = field_of(chart, (0, 0), {"x": "1", "e": "e"})
    rank2 = rank_of(Distribution(chart, [X, dgen(chart, "t1")]))
    assert rank2.to_json() == {"00": 1, "01": 1}
    bad = Distribution(chart, [dgen(chart, "x"),
                               field_of(chart, (0, 0), {"x": "x"})])
    with pytest.raises(DependentAtPoint):
        rank_of(bad)


def test_normalize_examples(chart):
    X = field_of(chart, (0, 0), {"x": "1", "e": "e"})
    D = Distribution(chart, [X])
    norm, perm = normalize_generators(D)
    assert norm.generators == (X,)
    assert perm[0] == "x"

    Y = field_of(chart, (0, 0), {"x": "1 + x"})
    norm2, perm2 = normalize_generators(Distribution(chart, [Y]))
    assert norm2.generators == (dgen(chart, "x"),)
    assert perm2[0] == "x"

    Z = field_of(chart, (0, 1), {"t1": "1", "x": "t1"})
    norm3, perm3 = normalize_generators(Distribution(chart, [Z]))
    assert norm3.generators == (Z,)
    assert perm3[0] == "t1"


def test_normalize_pivot_block(chart):
    # after normalization the pivot columns carry the identity exactly
    X = field_of(chart, (0, 0), {"x": "2 + x", "e": "t1*t2"})
    Y = field_of(chart, (0, 1), {"t1": "1 - x", "x": "3*t1"})
    D = Distribution(chart, [X, Y])
    norm, perm = normalize_generators(D)
    pivots = perm[: len(D.generators)]
    for i, gen in enumerate(norm.generators):
        for j, p in enumerate(pivots):
            want = chart.one() if i == j else chart.zero()
            assert gen.coefficient(p) == want


def test_membership_examples(chart):
    D = Distribution(chart, [dgen(chart, "x"), dgen(chart, "t1")])
    got = membership(dgen(chart, "x"), D)
    assert got.contained
    assert got.coefficients[0] == chart.one()
    assert got.coefficients[1].is_zero

    D2 = Distribution(chart, [dgen(chart, "x")])
    f = series_of(chart, "1 + e^2")
    X = VectorField(chart, chart.zero_degree, {"x": f})
    got2 = membership(X, D2)
    assert got2.contained and got2.coefficients[0] == f

    got3 = membership(dgen(chart, "e"), D2)
    assert not got3.contained
    assert got3.obstruction_coordinate == "e"
    assert got3.residual_order == 0


def test_membership_span_preserved_by_normalization(chart):
    X = field_of(chart, (0, 0), {"x": "1 + x", "e": "t1*t2"})
    Y = field_of(chart, (1, 1), {"e": "2", "x": "e"})
    D = Distribution(chart, [X, Y])
    norm, _ = normalize_generators(D)
    for gen in D.generators:
        assert membership(gen, norm).contained
    for gen in norm.generators:
        assert membership(gen, D).contained


def test_membership_coefficients_reconstruct(chart):
    X = field_of(chart, (0, 0), {"x": "1 + x", "e": "t1*t2"})
    Y = field_of(chart, (1, 1), {"e": "2", "x": "e"})
    D = Distribution(chart, [X, Y])
    probe = X.scaled_by(series_of(chart, "1 - x")) + \
        Y.scaled_by(series_of(chart, "e"))
    got = membership(probe, D)
    assert got.contained
    rebuilt = VectorField(chart, probe.degree, {})
    for f, gen in zip(got.coefficients, D.generators):
        if not f.is_zero:
            rebuilt = rebuilt + gen.scaled_by(f)
    assert rebuilt.coefficients == probe.coefficients


def test_involutive_examples(chart):
    D = Distribution(chart, [dgen(chart, "x"), dgen(chart, "t1")])
    assert is_involutive(D).involutive

    c3 = base_chart()
    X = field_of(c3, (0,), {"x": "1", "z": "y"})
    Y = field_of(c3, (0,), {"y": "1"})
    res = is_involutive(Distribution(c3, [X, Y]))
    assert not res.involutive
    assert res.witness_pair == (0, 1)
    assert res.witness_bracket == VectorField(
        c3, c3.zero_degree, {"z": -c3.one()})
    assert res.obstruction.residual_order == 0

    single = field_of(chart, (0, 0), {"x": "1", "e": "e"})
    assert bracket(single, single).is_zero
    assert is_involutive(Distribution(chart, [single])).involutive


def test_involutive_includes_odd_self_bracket(chart):
    # chi = dt1 + t1 dx has [chi, chi] = 2 dx, so {chi} is not involutive
    chi = field_of(chart, (0, 1), {"t1": "1", "x": "t1"})
    res = is_involutive(Distribution(chart, [chi]))
    assert not res.involutive
    assert res.witness_pair == (0, 0)


def test_involutivity_translates_no_membership(monkeypatch):
    # is_involutive reads only the verdict, so the coefficients on the
    # original generators are worked out only when a caller reads them:
    # `_accumulate` runs once per residual coefficient, not once more per
    # generator
    ch = standard_chart(j_order=3, base_order=4, extra_base=True)
    X = field_of(ch, (0, 0), {"x": "1 + y"})
    Y = field_of(ch, (0, 0), {"y": "2 + x", "x": "y"})
    D = Distribution(ch, [X, Y])
    sums = results = 0
    real_sum, real_membership = distribution._accumulate, distribution.membership

    def counted_sum(*args):
        nonlocal sums
        sums += 1
        return real_sum(*args)

    def counted_membership(*args):
        nonlocal results
        results += 1
        return real_membership(*args)

    monkeypatch.setattr(distribution, "_accumulate", counted_sum)
    monkeypatch.setattr(distribution, "membership", counted_membership)
    assert is_involutive(D).involutive
    assert results and sums == results * len(ch.names)
    got = membership(bracket(X, Y), D)
    sums = 0
    assert got.contained and len(got.coefficients) == 2
    assert sums == 2
    assert got.coefficients is got.coefficients and sums == 2


def test_rank_invariant_under_recombination():
    ch = standard_chart(j_order=3, base_order=4, extra_base=True)
    X = field_of(ch, (0, 0), {"x": "1", "e": "t1*t2"})
    Y = field_of(ch, (0, 0), {"y": "1 + x"})
    D = Distribution(ch, [X, Y])
    norm, _ = normalize_generators(D)
    assert rank_of(D).to_json() == rank_of(norm).to_json() == {"00": 2}
    # invertible recombination: swap and shear
    D2 = Distribution(ch, [Y, X + Y.scaled_by(series_of(ch, "x"))])
    assert rank_of(D2).to_json() == {"00": 2}


def test_normalized_involutive_generators_supercommute(chart):
    from helpers import boundary_only
    rng = random.Random(61)
    for _ in range(5):
        sigma = random_centered_change(rng, chart)
        gens = [pushforward(sigma, dgen(chart, n)) for n in ("x", "t1")]
        D = Distribution(chart, gens)
        assert is_involutive(D).involutive
        norm, _ = normalize_generators(D)
        for i in range(len(norm.generators)):
            for j in range(i, len(norm.generators)):
                b = bracket(norm.generators[i], norm.generators[j])
                assert b.is_zero or boundary_only(b, chart)


def zero_diagonal_family(ch):
    """Two generators whose pivot block is ``[[1, 1], [1, 0]]`` at the
    origin, a zero on its diagonal."""
    return Distribution(ch, [
        field_of(ch, (0, 0), {"x": "1 + y", "y": "1 - x*y"}),
        field_of(ch, (0, 0), {"x": "1 + e^2", "y": "x^2"}),
    ])


def random_family(rng, ch, lossy):
    """Zero to three generators of random degrees: random centered
    coefficients, some times a lossy factor, plus random constants on the
    coordinates of the generator's degree, so the pivot block at the
    origin need not be the identity (or invertible)."""
    degrees = list(dict.fromkeys(ch.degrees))
    gens = []
    for _ in range(rng.randint(0, 3)):
        degree = rng.choice(degrees)
        coeffs = {}
        for name in ch.names:
            want = degree + ch.degree_of(name)
            s = random_series(rng, ch, degree=want, terms=rng.randint(0, 2),
                              allow_constant=False)
            if rng.random() < 0.3:
                s = s * rng.choice(lossy)
            if want.is_zero:
                s = s + ch.constant(rng.choice([0, 1, -1, 2]))
            if not s.is_zero:
                coeffs[name] = s
        gens.append(VectorField(ch, degree, coeffs))
    return Distribution(ch, gens)


def test_normalize_matches_the_inverse_block_reference():
    ch = standard_chart(j_order=3, base_order=4, extra_base=True)
    # degree-zero factors whose antiderivative dropped a term: x^4 leaves
    # the base window, e^3 the J window
    lossy = [antiderivative(series_of(ch, "x + x^4"), "x"),
             antiderivative(series_of(ch, "e + e^3"), "e")]
    assert lossy[0].base_loss and lossy[1].j_loss
    rng = random.Random(47)
    families = [zero_diagonal_family(ch)]
    families += [random_family(rng, ch, lossy) for _ in range(150)]
    sizes, compared, flagged = set(), 0, 0
    for D in families:
        try:
            pivots, want_gens, want_s = reference_normalize(D)
        except DependentAtPoint:
            with pytest.raises(DependentAtPoint):
                D.normalized()
            continue
        norm = D.normalized()
        assert norm.pivots == pivots
        got_gens = [[g.coefficient(name) for name in ch.names]
                    for g in norm.distribution.generators]
        for got_rows, want_rows in ((got_gens, want_gens.entries),
                                    (norm.transform, want_s.entries)):
            for got_row, want_row in zip(got_rows, want_rows, strict=True):
                for got, want in zip(got_row, want_row, strict=True):
                    assert got.terms == want.terms
                    if not want.is_zero:
                        assert got.base_loss >= want.base_loss
                        assert got.j_loss >= want.j_loss
                        flagged += want.base_loss or want.j_loss
        sizes.add(len(D.generators))
        compared += 1
    assert compared >= 40 and sizes == {0, 1, 2, 3} and flagged


def test_pivot_entry_is_set_not_scaled(monkeypatch):
    # a row of [A | I] is scaled by the inverse of its pivot entry, which is
    # then set to 1: only the other nonzero entries are multiplied (3 here
    # when the pivot entry was scaled too)
    ch = standard_chart(j_order=3, base_order=4, extra_base=True)
    products = 0
    real = linalg._accumulate

    def counted(chart, parts, loss=0):
        nonlocal products
        parts = list(parts)
        products += sum(len(part) == 3 for part in parts)
        return real(chart, parts, loss)

    monkeypatch.setattr(linalg, "_accumulate", counted)
    entry, tail = series_of(ch, "2 + x"), series_of(ch, "y")
    pivots, rows = linalg._pivot_reduce(ch, [[entry, tail]])
    assert products == 2
    unit = linalg._reciprocal(entry)
    assert pivots == [0] and rows == [[ch.one(), unit * tail, unit]]


def test_normalization_takes_no_matrix_inverse(monkeypatch):
    def refuse(*args):
        raise AssertionError("normalization took a matrix inverse or product")

    ch = standard_chart(j_order=3, base_order=4, extra_base=True)
    lossy = antiderivative(series_of(ch, "x + x^4"), "x")
    families = [
        [field_of(ch, (0, 0), {"x": "2 + x", "e": "t1*t2"})],
        [field_of(ch, (0, 0), {"x": "1 + x", "y": "x"}).scaled_by(lossy + 1),
         field_of(ch, (0, 1), {"t1": "1 - x", "x": "3*t1"})],
        zero_diagonal_family(ch).generators + (
            field_of(ch, (1, 1), {"e": "2 + x", "x": "e"}),),
    ]
    monkeypatch.setattr(linalg, "invert_mod_J", refuse)
    monkeypatch.setattr(GradedMatrix, "__matmul__", refuse)
    for gens in families:
        norm = Distribution(ch, gens).normalized()
        for i, gen in enumerate(norm.distribution.generators):
            for j, p in enumerate(norm.pivots):
                assert gen.coefficient(p).terms == ({} if i != j else
                                                    ch.one().terms)


@pytest.mark.parametrize("case, message", [
    ("generator", "generator lives on another chart"),
    ("membership", "field and distribution live on different charts")])
def test_distribution_refuses_other_charts(chart, case, message):
    from znfrob import ChartError
    other = standard_chart(j_order=3, base_order=5)
    with pytest.raises(ChartError, match=message):
        if case == "generator":
            Distribution(chart, [dgen(chart, "x"), dgen(other, "t1")])
        else:
            membership(dgen(other, "x"), Distribution(chart, [dgen(chart, "x")]))


@pytest.mark.parametrize("name, contained", [("x", True), ("e", False)])
def test_membership_result_is_its_verdict(chart, name, contained):
    got = membership(dgen(chart, name), Distribution(chart, [dgen(chart, "x")]))
    assert got.contained is contained and bool(got) is contained
