import random
from fractions import Fraction

import pytest

from helpers import (
    base_chart,
    random_series,
    reference_invert_mod_J,
    series_of,
    standard_chart,
)
from znfrob import (
    ChartError,
    DegreeVector,
    DependentAtPoint,
    DimensionError,
    GradedMatrix,
    HomogeneityError,
    NotInvertibleModJ,
    TangentVector,
    antiderivative,
    complete_basis,
    compose,
    invert_mod_J,
    rational_inverse,
)


@pytest.fixture
def chart():
    return standard_chart(j_order=3, base_order=4)


# the fixture's frame at another base order, and another frame
OTHER_ORDERS = standard_chart(j_order=3, base_order=5)
OTHER_FRAME = base_chart()


def _one_by_one(chart, row=(0, 0), col=(0, 0), entries=None):
    """A 1x1 matrix of degrees ``row`` by ``col``, the unit by default."""
    return GradedMatrix(chart, [DegreeVector(row)], [DegreeVector(col)],
                        [[chart.one()]] if entries is None else entries)


# each guard of a public matrix or series input, with its exact error
INPUT_GUARDS = {
    "matrix-row-count": (DimensionError, "row count mismatch",
                         lambda c: _one_by_one(c, entries=[])),
    "matrix-column-count": (DimensionError, "column count mismatch",
                            lambda c: _one_by_one(c, entries=[[]])),
    "matrix-entry-on-other-chart": (
        ChartError, "matrix entry on a different chart",
        lambda c: _one_by_one(c, entries=[[OTHER_ORDERS.one()]])),
    "matmul-across-charts": (ChartError, "matrices on different charts",
                             lambda c: _one_by_one(c)
                             @ _one_by_one(OTHER_ORDERS)),
    "matmul-inner-degrees": (DimensionError,
                             "inner degree profiles do not match",
                             lambda c: _one_by_one(c, col=(0, 1))
                             @ _one_by_one(c)),
    "add-across-charts": (ChartError, "matrices on different charts",
                          lambda c: _one_by_one(c) + _one_by_one(OTHER_ORDERS)),
    "add-degree-profiles": (DimensionError, "degree profiles do not match",
                            lambda c: _one_by_one(c)
                            + _one_by_one(c, row=(0, 1), col=(0, 1))),
    "invert-rectangular-degrees": (
        DimensionError, "inverse needs row degrees equal to column degrees",
        lambda c: invert_mod_J(_one_by_one(c, col=(0, 1),
                                           entries=[[c.zero()]]))),
    "power-negative": (ValueError, "series powers take a nonnegative integer",
                       lambda c: c.one() ** -1),
    "power-fractional": (ValueError,
                         "series powers take a nonnegative integer",
                         lambda c: c.one() ** 1.5),
    "power-bool": (ValueError, "series powers take a nonnegative integer",
                   lambda c: c.one() ** True),
    "truncate-onto-other-frame": (
        ChartError, "truncation target must share the coordinate frame",
        lambda c: c.one().truncated_to(OTHER_FRAME)),
    "compose-image-on-other-chart": (
        ChartError, "image of 'x' lives on the wrong chart",
        lambda c: compose(c.coordinate("x"), {
            n: OTHER_ORDERS.coordinate(n) for n in c.names}, c)),
}


@pytest.mark.parametrize("case", sorted(INPUT_GUARDS))
def test_public_inputs_are_guarded(chart, case):
    error, message, call = INPUT_GUARDS[case]
    with pytest.raises(error) as exc:
        call(chart)
    assert (type(exc.value), str(exc.value)) == (error, message)


def test_rational_inverse():
    inv = rational_inverse([[Fraction(2), Fraction(1)],
                            [Fraction(1), Fraction(1)]])
    assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]
    assert rational_inverse([[Fraction(1), Fraction(2)],
                             [Fraction(2), Fraction(4)]]) is None


def test_matrix_product_keeps_the_loss_of_a_zero_factor():
    # products carry the union of their operands' flags, a zero one too
    chart = standard_chart()
    x = chart.coordinate("x")
    z = antiderivative(x ** chart.base_order, "x")  # x^7 drops
    assert z.is_zero and z.base_loss
    zero = chart.zero_degree
    row = GradedMatrix(chart, (zero,), (zero, zero), [[z, chart.one()]])
    column = GradedMatrix(chart, (zero, zero), (zero,), [[1 + x], [x ** 2]])
    ((entry,),) = (row @ column).entries
    by_hand = z * (1 + x) + x ** 2
    assert entry == by_hand == x ** 2
    assert entry.base_loss and by_hand.base_loss and not entry.j_loss


def test_invert_examples(chart):
    zero = chart.zero_degree
    one_plus_e = series_of(chart, "1 + e")
    T = GradedMatrix(chart, [zero], [zero], [[one_plus_e]])
    Ti = invert_mod_J(T)
    assert Ti.entry(0, 0) == series_of(chart, "1 - e + e^2 - e^3")
    I = GradedMatrix.identity(chart, (zero, zero))
    assert invert_mod_J(I) == I
    with pytest.raises(NotInvertibleModJ):
        invert_mod_J(GradedMatrix(chart, [zero], [zero],
                                  [[series_of(chart, "t1*t2")]]))


def test_invert_base_coordinate_dependence(chart):
    # the error matrix leaves J but still vanishes at the point
    zero = chart.zero_degree
    T = GradedMatrix(chart, [zero], [zero], [[series_of(chart, "1 + x")]])
    Ti = invert_mod_J(T)
    assert Ti.entry(0, 0) == series_of(chart, "1 - x + x^2 - x^3 + x^4")
    assert (Ti @ T).entry(0, 0) == chart.one()


def test_invert_random_graded_matrices(chart):
    rng = random.Random(23)
    degrees = list(dict.fromkeys(chart.degrees))
    for _ in range(15):
        size = rng.randint(1, 3)
        row = tuple(rng.choice(degrees) for _ in range(size))
        entries = []
        for i in range(size):
            line = []
            for j in range(size):
                s = random_series(rng, chart, degree=row[i] + row[j],
                                  terms=rng.randint(0, 2),
                                  allow_constant=False)
                if i == j:
                    s = s + chart.constant(rng.choice([1, -1, 2]))
                line.append(s)
            entries.append(line)
        T = GradedMatrix(chart, row, row, entries)
        if rational_inverse(T.value_at_origin()) is None:
            continue
        Ti = invert_mod_J(T)
        I = GradedMatrix.identity(chart, row)
        assert Ti @ T == I
        assert T @ Ti == I


def test_invert_matches_the_alternating_sum(chart):
    # degree-zero factors whose antiderivative dropped a term: x^4 leaves
    # the base window, e^3 the J window
    lossy = [antiderivative(series_of(chart, "x + x^4"), "x"),
             antiderivative(series_of(chart, "e + e^3"), "e")]
    assert lossy[0].base_loss and lossy[1].j_loss
    rng = random.Random(31)
    degrees = list(dict.fromkeys(chart.degrees))
    compared = flagged = 0
    for _ in range(20):
        size = rng.randint(1, 3)
        row = tuple(rng.choice(degrees) for _ in range(size))
        entries = []
        for i in range(size):
            line = []
            for j in range(size):
                s = random_series(rng, chart, degree=row[i] + row[j],
                                  terms=rng.randint(1, 2),
                                  allow_constant=False)
                if rng.random() < 0.4:
                    s = s * rng.choice(lossy)
                if i == j:
                    s = s + chart.constant(rng.choice([1, -1, 2]))
                line.append(s)
            entries.append(line)
        T = GradedMatrix(chart, row, row, entries)
        if rational_inverse(T.value_at_origin()) is None:
            continue
        got, want = invert_mod_J(T), reference_invert_mod_J(T)
        for got_row, want_row in zip(got.entries, want.entries):
            for a, b in zip(got_row, want_row):
                assert (a.terms, a.base_loss, a.j_loss) == (
                    b.terms, b.base_loss, b.j_loss)
                flagged += a.base_loss or a.j_loss
        compared += 1
    assert compared >= 10 and flagged


def test_invert_constant_lossy_matrix_keeps_its_flag(chart):
    # the inverse carries the loss of every entry, as a product does, also
    # when the matrix equals its value at the origin
    z = antiderivative(chart.coordinate("x") ** chart.base_order, "x")
    assert z.is_zero and z.base_loss
    zero = chart.zero_degree
    ((entry,),) = invert_mod_J(GradedMatrix(chart, [zero], [zero],
                                            [[1 + z]])).entries
    assert entry == chart.one()
    assert entry.base_loss and not entry.j_loss


def test_graded_matrix_validation(chart):
    zero = chart.zero_degree
    odd = DegreeVector.of(0, 1)
    good = GradedMatrix(chart, [odd], [odd],
                        [[series_of(chart, "1 + x")]])
    good.validate_graded()  # odd+odd = degree zero entry
    bad = GradedMatrix(chart, [zero], [odd],
                       [[series_of(chart, "x")]])
    with pytest.raises(HomogeneityError):
        bad.validate_graded()


def test_complete_basis_examples(chart):
    zero = chart.zero_degree
    v = TangentVector.make(zero, {"x": Fraction(1)})
    assert complete_basis([v], chart) == ["t1", "t2", "e"]
    w = TangentVector.make(DegreeVector.of(0, 1), {"t1": Fraction(2)})
    assert complete_basis([w], chart) == ["x", "t2", "e"]
    with pytest.raises(DependentAtPoint):
        complete_basis([v, TangentVector.make(zero, {"x": Fraction(3)})], chart)


def test_complete_basis_rejects_zero_vector(chart):
    # a column of the coefficient expansion inside the maximal ideal gives
    # a vanishing tangent vector, which must be rejected
    v = TangentVector.make(chart.zero_degree, {})
    with pytest.raises(DependentAtPoint):
        complete_basis([v], chart)


def test_complete_basis_full_rank(chart):
    rng = random.Random(29)
    for _ in range(10):
        deg = rng.choice(list(dict.fromkeys(chart.degrees)))
        names = [n for n in chart.names if chart.degree_of(n) == deg]
        comps = {n: Fraction(rng.randint(-3, 3)) for n in names}
        if not any(comps.values()):
            comps[names[0]] = Fraction(1)
        v = TangentVector.make(deg, comps)
        chosen = complete_basis([v], chart)
        # one slot of the matching degree is consumed, everything else stays
        assert len(chosen) == len(chart.names) - 1
        per_degree = sum(
            1 for n in chosen if chart.degree_of(n) == deg)
        assert per_degree == len(names) - 1


def test_complete_basis_homogeneity(chart):
    bad = TangentVector.make(chart.zero_degree, {"t1": Fraction(1)})
    with pytest.raises(HomogeneityError):
        complete_basis([bad], chart)


def _leibniz_det(a):
    """Determinant as the signed sum over permutations: an oracle that
    shares nothing with the elimination."""
    from itertools import permutations
    from math import prod
    total = Fraction(0)
    for perm in permutations(range(len(a))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        total += (-1) ** inversions * prod(a[i][p] for i, p in enumerate(perm))
    return total


@pytest.mark.parametrize("seed", range(6))
def test_rational_inverse_oracle(seed):
    rng = random.Random(seed)
    for size in range(7):
        a = [[Fraction(rng.choice([0, 0, 1, -1, 2, -3]), rng.randint(1, 3))
              for _ in range(size)] for _ in range(size)]
        identity = [[Fraction(i == j) for j in range(size)]
                    for i in range(size)]
        inv = rational_inverse(a)
        assert (inv is None) == (_leibniz_det(a) == 0)
        if inv is not None:
            assert [[sum((a[i][k] * inv[k][j] for k in range(size)),
                         Fraction(0)) for j in range(size)]
                    for i in range(size)] == identity
        if size:
            # a last row combining the others leaves the matrix singular
            weights = [Fraction(rng.randint(-2, 2)) for _ in range(size - 1)]
            last = [sum((w * row[j] for w, row in zip(weights, a)),
                        Fraction(0)) for j in range(size)]
            assert rational_inverse(a[:-1] + [last]) is None
