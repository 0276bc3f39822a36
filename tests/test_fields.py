import copy
import random
from fractions import Fraction

import pytest

import znfrob.fields
import znfrob.series

from helpers import (
    base_chart,
    boundary_only,
    oracle_multiply_monomials,
    random_series,
    field_of,
    random_centered_change,
    random_field,
    reference_invert_map,
    series_of,
    standard_chart,
)
from znfrob import (
    ChartError,
    ChartSpec,
    CoordinateChange,
    DegreeVector,
    DimensionError,
    GradedMatrix,
    HomogeneityError,
    InternalInconsistency,
    JacobianSingular,
    UnknownCoordinateError,
    VectorField,
    antiderivative,
    bracket,
    compose,
    compose_changes,
    derive,
    invert_change,
    pushforward,
    scalar_product,
    straighten_nonzero,
    substitute,
)


@pytest.fixture
def chart():
    return standard_chart(j_order=3, base_order=6)


def test_apply_examples(chart):
    dx = VectorField.coordinate_derivation(chart, "x")
    assert dx.apply(series_of(chart, "x^2")) == series_of(chart, "2*x")
    e_de = field_of(chart, (0, 0), {"e": "e"})
    assert e_de.apply(series_of(chart, "e^2")) == series_of(chart, "2*e^2")
    dt1 = VectorField.coordinate_derivation(chart, "t1")
    assert dt1.apply(series_of(chart, "t1*t2")) == chart.coordinate("t2")


def test_bracket_examples(chart):
    dx = VectorField.coordinate_derivation(chart, "x")
    x_dx = field_of(chart, (0, 0), {"x": "x"})
    assert bracket(dx, x_dx) == dx
    dt1 = VectorField.coordinate_derivation(chart, "t1")
    dt2 = VectorField.coordinate_derivation(chart, "t2")
    assert bracket(dt1, dt2).is_zero
    t1_dx = field_of(chart, (0, 1), {"x": "t1"})
    assert bracket(dt1, t1_dx) == dx


def test_odd_self_bracket_is_one_half_doubled(monkeypatch):
    # with X is Y odd both halves are the same sum; an equal field that is
    # another object still takes both halves
    chart = standard_chart(j_order=3, base_order=4)
    rng = random.Random(5)
    odd = [d for d in map(DegreeVector, ((0, 1), (1, 0), (1, 1))) if d.is_odd]
    assert len(odd) == 2
    calls = 0
    real = znfrob.series._multiply_rows

    def counted(rows1, rows2, chart):
        nonlocal calls
        calls += 1
        return real(rows1, rows2, chart)

    monkeypatch.setattr(znfrob.series, "_multiply_rows", counted)
    seen = 0
    for degree in odd * 3:
        X = random_field(rng, chart, degree, terms=3)
        twin = VectorField(chart, X.degree, dict(X.coefficients))
        calls = 0
        halves = bracket(X, twin)
        both = calls
        calls = 0
        assert bracket(X, X) == halves
        assert 2 * calls == both
        seen += bool(calls) and not halves.is_zero
    assert seen


def test_bracket_degree_additivity(chart):
    rng = random.Random(31)
    for _ in range(20):
        X = random_field(rng, chart)
        Y = random_field(rng, chart)
        b = bracket(X, Y)
        if not b.is_zero:
            assert b.degree == X.degree + Y.degree


def test_bracket_antisymmetry(chart):
    rng = random.Random(37)
    for _ in range(25):
        X = random_field(rng, chart)
        Y = random_field(rng, chart)
        sign = -1 if scalar_product(X.degree, Y.degree) else 1
        lhs = bracket(X, Y)
        rhs = bracket(Y, X)
        neg = VectorField(chart, rhs.degree, {
            n: -c * sign for n, c in rhs.coefficients.items()})
        assert lhs.coefficients == neg.coefficients


def test_bracket_jacobi(chart):
    # shallow coefficients keep both double brackets inside the window,
    # where the identity is exact
    rng = random.Random(41)
    for _ in range(15):
        X = random_field(rng, chart, terms=1, max_j=1, max_base=2)
        Y = random_field(rng, chart, terms=1, max_j=1, max_base=2)
        Z = random_field(rng, chart, terms=1, max_j=1, max_base=2)
        # graded Jacobi: [X,[Y,Z]] = [[X,Y],Z] + (-1)^<X,Y> [Y,[X,Z]]
        sign = -1 if scalar_product(X.degree, Y.degree) else 1
        lhs = bracket(X, bracket(Y, Z))
        rhs = bracket(bracket(X, Y), Z)
        third = bracket(Y, bracket(X, Z))
        want = rhs + (third if sign > 0 else -third)
        assert lhs.coefficients == want.coefficients


def test_bracket_matches_operator_composition(chart):
    # independent oracle: apply both sides to random functions; shallow
    # data keeps the three-fold products inside the window
    rng = random.Random(97)
    for _ in range(20):
        X = random_field(rng, chart, terms=1, max_j=1, max_base=2)
        Y = random_field(rng, chart, terms=1, max_j=1, max_base=2)
        f = random_series(rng, chart, terms=2, max_j=1, max_base=2)
        sign = -1 if scalar_product(X.degree, Y.degree) else 1
        lhs = bracket(X, Y).apply(f)
        rhs = X.apply(Y.apply(f)) - Y.apply(X.apply(f)) * sign
        assert lhs == rhs


def test_pushforward_matches_operator_conjugation(chart):
    # the pushed field acts as: pull back, apply, push forward
    from helpers import boundary_only, random_series as rs
    rng = random.Random(99)
    for _ in range(8):
        sigma = random_centered_change(rng, chart)
        X = random_field(rng, chart, terms=1, max_j=1, max_base=2)
        Y = pushforward(sigma, X)
        g = rs(rng, chart, terms=2, max_j=1, max_base=2)
        lhs = Y.apply(g)
        rhs = sigma.push_series(X.apply(sigma.pull_back(g)))
        diff = lhs - rhs
        assert diff.is_zero or boundary_only(diff, chart)


def test_vector_field_homogeneity(chart):
    with pytest.raises(HomogeneityError):
        VectorField(chart, chart.zero_degree,
                    {"x": chart.coordinate("t1")})


def test_substitute_examples(chart):
    x, e = chart.coordinate("x"), chart.coordinate("e")
    sigma = CoordinateChange.make(chart, chart, {
        "x": x, "t1": chart.coordinate("t1"),
        "t2": chart.coordinate("t2"), "e": (1 - x) * e,
    })
    out = substitute(series_of(chart, "e^2"), sigma)
    assert out == series_of(chart, "(1 - 2*x + x^2)*e^2")
    identity = CoordinateChange.identity(chart)
    f = series_of(chart, "1 + x*e - t1*t2")
    assert substitute(f, identity) == f
    with pytest.raises(HomogeneityError):
        CoordinateChange.make(chart, chart, {
            "x": x, "t1": chart.coordinate("t1"),
            "t2": chart.coordinate("t2"), "e": chart.coordinate("t1"),
        })


def test_change_requires_centering(chart):
    from znfrob import CenteringError
    x = chart.coordinate("x")
    with pytest.raises(CenteringError):
        CoordinateChange.make(chart, chart, {
            "x": x + 1, "t1": chart.coordinate("t1"),
            "t2": chart.coordinate("t2"), "e": chart.coordinate("e"),
        })


def test_invert_change_examples(chart):
    identity = CoordinateChange.identity(chart)
    assert invert_change(identity).is_identity
    x, e = chart.coordinate("x"), chart.coordinate("e")
    sigma = CoordinateChange.make(chart, chart, {
        "x": x, "t1": chart.coordinate("t1"),
        "t2": chart.coordinate("t2"), "e": (1 - x) * e,
    })
    inv = invert_change(sigma)
    geom = sum((x ** k for k in range(1, 7)), chart.one())
    assert inv.images["e"] == geom * e
    for name in chart.names:
        assert substitute(substitute(chart.coordinate(name), sigma), inv) \
            == chart.coordinate(name)
    with pytest.raises(JacobianSingular):
        CoordinateChange.make(chart, chart, {
            "x": x, "t1": chart.coordinate("t1"),
            "t2": chart.coordinate("t2"), "e": x * e,
        })


def test_pushforward_examples(chart):
    rng = random.Random(43)
    X = random_field(rng, chart)
    identity = CoordinateChange.identity(chart)
    assert pushforward(identity, X) == X


def test_pushforward_relabeling():
    # swapping base coordinates through a renamed target chart
    src = ChartSpec.build(1, [("x1", (0,)), ("x2", (0,))], 2, 4)
    tgt = ChartSpec.build(1, [("y1", (0,)), ("y2", (0,))], 2, 4)
    sigma = CoordinateChange.make(src, tgt, {
        "y1": src.coordinate("x2"), "y2": src.coordinate("x1"),
    })
    X = VectorField.coordinate_derivation(src, "x1")
    Y = pushforward(sigma, X)
    assert Y == VectorField.coordinate_derivation(tgt, "y2")


def test_pushforward_exponential_frame():
    chart = ChartSpec.build(2, [("x", (0, 0)), ("e", (1, 1))],
                            j_order=3, base_order=4)
    x, e = chart.coordinate("x"), chart.coordinate("e")
    exp_minus = series_of(chart, "1 - x + 1/2*x^2 - 1/6*x^3 + 1/24*x^4")
    sigma = CoordinateChange.make(chart, chart, {"x": x, "e": exp_minus * e})
    X = field_of(chart, (0, 0), {"x": "1", "e": "e"})
    Y = pushforward(sigma, X)
    assert Y.coefficient("x") == chart.one()
    # the truncated exponential satisfies its equation only below the top
    # base order; the leftover sits exactly at base degree 4
    leftover = Y.coefficient("e")
    assert all(m.base_degree(chart) >= chart.base_order for m in leftover.terms)
    low = chart.with_truncation(base_order=3)
    assert Y.truncated_to(low) == VectorField.coordinate_derivation(low, "x")


def test_change_functoriality(chart):
    # stepwise and composite pushforwards agree inside the certified window
    rng = random.Random(47)
    for _ in range(6):
        sigma = random_centered_change(rng, chart)
        tau = random_centered_change(rng, chart)
        X = random_field(rng, chart, terms=1)
        combined = compose_changes(sigma, tau)
        lhs = pushforward(combined, X)
        rhs = pushforward(tau, pushforward(sigma, X))
        assert boundary_only(lhs - rhs, chart)


def test_bracket_naturality(chart):
    rng = random.Random(53)
    for _ in range(6):
        sigma = random_centered_change(rng, chart)
        X = random_field(rng, chart, terms=1)
        Y = random_field(rng, chart, terms=1)
        lhs = pushforward(sigma, bracket(X, Y))
        rhs = bracket(pushforward(sigma, X), pushforward(sigma, Y))
        diff = VectorField(chart, lhs.degree if not lhs.is_zero else rhs.degree, {
            n: c for n, c in (
                (m, lhs.coefficient(m) - rhs.coefficient(m))
                for m in chart.names
            ) if not c.is_zero
        })
        assert boundary_only(diff, chart)


def test_substitution_is_ring_morphism(chart):
    # shallow data: exact; composition with degree-preserving centered
    # images respects the Koszul-signed product on the nose
    rng = random.Random(103)
    for _ in range(10):
        sigma = random_centered_change(rng, chart, extra_terms=1, max_total=2)
        f = random_series(rng, chart, terms=2, max_j=1, max_base=2)
        g = random_series(rng, chart, terms=2, max_j=1, max_base=2)
        assert substitute(f * g, sigma) == substitute(f, sigma) * substitute(g, sigma)


def test_change_composition_associative(chart):
    rng = random.Random(107)
    for _ in range(4):
        a = random_centered_change(rng, chart)
        b = random_centered_change(rng, chart)
        c = random_centered_change(rng, chart)
        left = compose_changes(compose_changes(a, b), c)
        right = compose_changes(a, compose_changes(b, c))
        for name in chart.names:
            diff = left.images[name] - right.images[name]
            assert diff.is_zero or boundary_only(diff, chart), name


def test_change_round_trip_random(chart):
    rng = random.Random(59)
    for _ in range(6):
        sigma = random_centered_change(rng, chart, extra_terms=2, max_total=3)
        inv = sigma.inverted()
        for name in chart.names:
            f = chart.coordinate(name)
            # the defining direction holds on the nose
            assert substitute(substitute(f, sigma), inv) == f
            # the reverse composition can differ where a dropped pure-base
            # tail redistributes into the window: total degree past the
            # base order only
            diff = substitute(substitute(f, inv), sigma) - f
            assert all(m.total_degree > chart.base_order for m in diff.terms)


def test_change_requires_exact_homogeneous_images(chart):
    identity = {name: chart.coordinate(name) for name in chart.names}
    missing = {n: s for n, s in identity.items() if n != "e"}
    with pytest.raises(UnknownCoordinateError):
        CoordinateChange.make(chart, chart, missing)
    extra = dict(identity, w=chart.coordinate("x"))
    with pytest.raises(UnknownCoordinateError):
        CoordinateChange.make(chart, chart, extra)
    mixed = dict(identity, t1=chart.coordinate("t1") + chart.coordinate("x") ** 2)
    with pytest.raises(HomogeneityError):
        CoordinateChange.make(chart, chart, mixed)


def test_from_inverse_images_matches_inverted(chart):
    rng = random.Random(61)
    for _ in range(4):
        sigma = random_centered_change(rng, chart, extra_terms=2, max_total=3)
        built = CoordinateChange.from_inverse_images(chart, chart, sigma.images)
        flipped = sigma.inverted()
        assert built.images == flipped.images
        assert built.inverse_images == flipped.inverse_images


def test_then_and_pushforward_match_one_compose_per_series(chart):
    rng = random.Random(67)
    for _ in range(4):
        a = random_centered_change(rng, chart, extra_terms=2, max_total=3)
        b = random_centered_change(rng, chart, extra_terms=2, max_total=3)
        both = a.then(b)
        assert both.images == {
            w: compose(b.images[w], a.images, chart) for w in chart.names}
        assert both.inverse_images == {
            u: compose(a.inverse_images[u], b.inverse_images, chart)
            for u in chart.names}
        X = random_field(rng, chart, terms=2)
        pushed = pushforward(a, X).coefficients
        expected = {}
        for v in chart.names:
            w = X.apply(a.images[v])
            if not w.is_zero:
                expected[v] = compose(w, a.inverse_images, chart)
        assert pushed == {v: s for v, s in expected.items() if not s.is_zero}


def test_pushforward_reads_a_kept_coordinate_off_the_field():
    # on a coordinate the change keeps, the chain rule's X(image) is X's
    # coefficient there, carrying the loss of every coefficient of X and
    # of the image, as X.apply gives it
    chart = standard_chart(j_order=3, base_order=4, extra_base=True)
    rng = random.Random(31)
    x, e = chart.coordinate("x"), chart.coordinate("e")
    lossy = [antiderivative(x ** 4, "x"), antiderivative(e ** 3, "e")]
    flagged = 0
    for _ in range(16):
        moved = set(rng.sample(chart.names, 2))
        images = {n: (s if n in moved else chart.coordinate(n))
                  + (rng.choice(lossy) if rng.random() < 0.1 else 0)
                  for n, s in random_centered_change(rng, chart).images.items()}
        change = CoordinateChange.make(chart, chart, images)
        X = random_field(rng, chart, terms=2)
        X = VectorField(chart, X.degree, {
            n: a + rng.choice(lossy) if rng.random() < 0.3 else a
            for n, a in X.coefficients.items()})
        pushed = pushforward(change, X)
        for v in chart.names:
            want = compose(X.apply(change.images[v]), change.inverse_images,
                           chart)
            got = pushed.coefficient(v)
            assert got.terms == want.terms, v
            if not want.is_zero:
                assert (got.base_loss, got.j_loss) == (
                    want.base_loss, want.j_loss), v
                flagged += v not in moved and (want.base_loss or want.j_loss)
    assert flagged >= 5


def test_substitution_multiply_counts(monkeypatch):
    # work counts, not timings: powers are built once per image map and a
    # term starts from its scaled first power (200 and 172 calls when each
    # compose rebuilt its powers from a constant series); substitution
    # multiplies term rows, so the count is taken at the row product.  The
    # inversion in make substitutes only the nonlinear images, from the
    # linear inverse on (62 when it began with a pass through the zero map),
    # and skips the zero ones and the coordinates a map keeps (60 before)
    chart = standard_chart()
    rng = random.Random(3)
    a = random_centered_change(rng, chart, extra_terms=2)
    b = random_centered_change(rng, chart, extra_terms=2)
    calls = 0
    real = znfrob.series._multiply_rows

    def counted(rows1, rows2, chart):
        nonlocal calls
        calls += 1
        return real(rows1, rows2, chart)

    monkeypatch.setattr(znfrob.series, "_multiply_rows", counted)
    a.then(b)
    assert calls == 112
    calls = 0
    CoordinateChange.make(chart, chart, b.images)
    assert calls == 54


def test_change_maps_are_checked_once(monkeypatch):
    # a map is checked where it enters: make checks the forward images,
    # while its Picard passes, then and pushforward reuse checked maps
    chart = standard_chart()
    rng = random.Random(5)
    a = random_centered_change(rng, chart, extra_terms=2)
    b = random_centered_change(rng, chart, extra_terms=2)
    calls = 0
    real = znfrob.series.check_images

    def counted(images, keyed, values_on):
        nonlocal calls
        calls += 1
        return real(images, keyed, values_on)

    monkeypatch.setattr(znfrob.series, "check_images", counted)
    monkeypatch.setattr(znfrob.fields, "check_images", counted)
    CoordinateChange.make(chart, chart, b.images)
    assert calls == 1
    calls = 0
    pushforward(a, field_of(chart, (0, 0), {"x": "1 + t1*t2*e", "e": "x*e"}))
    a.then(b)
    assert calls == 0
    compose(chart.coordinate("x"), a.images, chart)
    assert calls == 1


INVERSION_CHARTS = {
    "j4b6": standard_chart(),
    "j3b4": standard_chart(j_order=3, base_order=4),
    "extra_base": standard_chart(extra_base=True),
}


def lossy_variants(change):
    """The change's forward images, and the same images plus an
    antiderivative that drops a term: base loss on the image of ``x``, J
    loss on the image of ``t1``, and both."""
    chart = change.source
    x, t2, e = (chart.coordinate(n) for n in ("x", "t2", "e"))
    base_drop = antiderivative(x ** 2 + x ** chart.base_order, "x")
    j_drop = antiderivative(x * t2 + t2 * e ** (chart.j_order - 1), "e")
    assert (base_drop.base_loss, j_drop.j_loss) == (True, True)
    for extra in ({}, {"x": base_drop}, {"t1": j_drop},
                  {"x": base_drop, "t1": j_drop}):
        yield {k: img + extra[k] if k in extra else img
               for k, img in change.images.items()}


def changes_to_invert(chart, seeds=range(2)):
    for seed in seeds:
        rng = random.Random(seed)
        for mix in (False, True):
            for max_total in (2, 3):
                change = random_centered_change(
                    rng, chart, extra_terms=2, max_total=max_total,
                    mix_linear=mix)
                yield from lossy_variants(change)


def assert_same_images(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].terms == want[name].terms, name
        assert got[name].base_loss == want[name].base_loss, name
        assert got[name].j_loss == want[name].j_loss, name


@pytest.mark.parametrize("name", sorted(INVERSION_CHARTS))
def test_inverse_matches_picard_reference(name):
    chart = INVERSION_CHARTS[name]
    for images in changes_to_invert(chart):
        change = CoordinateChange.make(chart, chart, images)
        want, _ = reference_invert_map(images, chart, chart)
        assert_same_images(change.inverse_images, want)


@pytest.mark.parametrize("name", sorted(INVERSION_CHARTS))
def test_inverse_round_trips_through_compose(name):
    # the defining direction holds exactly; the other can differ only at
    # total degree past the base order, where a dropped pure-base tail
    # folds back into the window (see test_change_round_trip_random)
    chart = INVERSION_CHARTS[name]
    for images in changes_to_invert(chart, seeds=[2]):
        change = CoordinateChange.make(chart, chart, images)
        for k in chart.names:
            assert compose(images[k], change.inverse_images, chart) == \
                chart.coordinate(k), k
            back = compose(change.inverse_images[k], images, chart)
            assert all(m.total_degree > chart.base_order
                       for m in (back - chart.coordinate(k)).terms), k


def count_substitutions(monkeypatch):
    calls = [0]
    real = znfrob.fields._substitution

    def counted(images, keyed, into_chart):
        calls[0] += 1
        return real(images, keyed, into_chart)

    monkeypatch.setattr(znfrob.fields, "_substitution", counted)
    return calls


def test_linear_change_takes_no_substitution(monkeypatch):
    chart = standard_chart(extra_base=True)
    rng = random.Random(8)
    linear = [random_centered_change(rng, chart, extra_terms=0).images
              for _ in range(4)]
    x = chart.coordinate("x")
    lossy = dict(linear[0], x=linear[0]["x"]
                 + antiderivative(x ** chart.base_order, "x"))
    assert lossy["x"].base_loss and lossy["x"] == linear[0]["x"]
    calls = count_substitutions(monkeypatch)
    for images in [*linear, lossy]:
        change = CoordinateChange.make(chart, chart, images)
        assert calls[0] == 0
        want, passes = reference_invert_map(images, chart, chart)
        assert passes == 2
        assert_same_images(change.inverse_images, want)


def test_nonlinear_change_takes_one_pass_fewer(monkeypatch):
    calls = count_substitutions(monkeypatch)
    for chart in INVERSION_CHARTS.values():
        for images in changes_to_invert(chart, seeds=[3]):
            calls[0] = 0
            CoordinateChange.make(chart, chart, images)
            _, passes = reference_invert_map(images, chart, chart)
            assert calls[0] == passes - 1


def test_j_linear_change_is_inverted_by_one_elimination(monkeypatch):
    # a change that keeps every base coordinate and sends each J coordinate
    # to a J-linear image over the base is inverted with no substitution;
    # J coordinates of one degree swapped at the origin make the elimination
    # take its pivots off the diagonal, and a kept base image that carries
    # a loss flag passes it to every inverse image
    chart = ChartSpec.build(2, [("x", (0, 0)), ("t1", (0, 1)), ("y", (0, 0)),
                                ("s1", (0, 1)), ("e", (1, 1)), ("f", (1, 1)),
                                ("t2", (1, 0))], j_order=3, base_order=3)
    rng = random.Random(12)
    lossy = antiderivative(chart.coordinate("x") ** 3, "x")
    calls = count_substitutions(monkeypatch)
    flagged = 0
    for _ in range(12):
        images = {n: chart.coordinate(n) for n in ("x", "y")}
        if rng.random() < 0.4:
            images["y"] = images["y"] + lossy
            flagged += 1
        for group in (("t1", "s1"), ("e", "f"), ("t2",)):
            for rho, sigma in zip(group, rng.sample(group, len(group))):
                images[rho] = rng.choice([1, -1, 2]) * chart.coordinate(sigma)
                for tau in group:
                    images[rho] = images[rho] + random_series(
                        rng, chart, chart.zero_degree, terms=2,
                        allow_constant=False, max_j=0) * chart.coordinate(tau)
        calls[0] = 0
        change = CoordinateChange.make(chart, chart, images)
        assert calls[0] == 0
        want, _ = reference_invert_map(images, chart, chart)
        assert_same_images(change.inverse_images, want)
    assert flagged >= 3


def test_wrong_linear_inverse_is_refused(monkeypatch):
    # the fixed point solves images(u) = k only when A^{-1} inverts A, so a
    # wrong linear inverse must raise, not return a wrong inverse
    chart = standard_chart()
    rng = random.Random(4)
    nonlinear = random_centered_change(rng, chart, extra_terms=2).images
    linear = random_centered_change(rng, chart, extra_terms=0).images
    real = znfrob.fields.rational_inverse

    def doubled(rows):
        return [[2 * a for a in row] for row in real(rows)]

    monkeypatch.setattr(znfrob.fields, "rational_inverse", doubled)
    for images in (nonlinear, linear):
        with pytest.raises(InternalInconsistency):
            CoordinateChange.make(chart, chart, images)


def test_change_loss_flags_pinned():
    # recorded while the flags were stored next to the images
    from znfrob import antiderivative
    chart = ChartSpec.build(2, [("z", (0, 0)), ("e", (1, 1))],
                            j_order=4, base_order=4)
    z, e = chart.coordinate("z"), chart.coordinate("e")
    base_lost = CoordinateChange.make(
        chart, chart, {"z": z + antiderivative(z ** 4, "z"), "e": e})
    j_lost = CoordinateChange.make(
        chart, chart, {"z": z, "e": e + antiderivative(e ** 4, "e")})
    clean = CoordinateChange.make(
        chart, chart, {"z": z + z ** 2 + e ** 2, "e": e + z * e})
    low = chart.with_truncation(j_order=3, base_order=3)
    cases = {
        "base_lost": (base_lost, (True, False)),
        "j_lost": (j_lost, (False, True)),
        "clean": (clean, (False, False)),
        "base_then_j": (base_lost.then(j_lost), (True, True)),
        "clean_then_base": (clean.then(base_lost), (True, False)),
        "clean_then_clean": (clean.then(clean), (False, False)),
        "base_inverted": (base_lost.inverted(), (True, False)),
        "j_inverted": (j_lost.inverted(), (False, True)),
        "base_truncated": (base_lost.truncated_to(low, low), (True, False)),
        "j_truncated": (j_lost.truncated_to(low, low), (False, True)),
    }
    for name, (change, (base, j)) in cases.items():
        assert (change.base_loss, change.j_loss) == (base, j), name
        assert change.to_json_dict()["truncation_loss"] == {
            "base": base, "j": j}, name


def test_change_flags_are_those_of_both_directions():
    # the flags read off the images are the OR over the images and the
    # inverse images, for every way of building a change from lossy images
    chart = standard_chart(j_order=3, base_order=4)
    low = chart.with_truncation(j_order=2, base_order=3)

    def both_directions(change):
        series = [*change.images.values(), *change.inverse_images.values()]
        return (any(s.base_loss for s in series),
                any(s.j_loss for s in series))

    rng = random.Random(5)
    seen = set()
    for images in lossy_variants(random_centered_change(rng, chart)):
        made = CoordinateChange.make(chart, chart, images)
        built = CoordinateChange.from_inverse_images(chart, chart, images)
        for change in (made, built, made.then(built), built.then(made),
                       made.inverted(), built.inverted(),
                       made.then(CoordinateChange.identity(chart)),
                       made.truncated_to(low, low),
                       built.then(made).truncated_to(low, low)):
            flags = (change.base_loss, change.j_loss)
            assert flags == both_directions(change)
            seen.add(flags)
    assert seen == {(False, False), (True, False), (False, True),
                    (True, True)}


def oracle_sum(chart, products):
    """``sum scale * f * g`` over ``(scale, f, g)`` as a plain dict, from
    the transposition oracle term pair by term pair; no kernel arithmetic."""
    out = {}
    for scale, f, g in products:
        for m1, c1 in f.terms.items():
            for m2, c2 in g.terms.items():
                mon, sign = oracle_multiply_monomials(chart, m1, m2)
                if mon is not None:
                    out[mon] = out.get(mon, 0) + scale * sign * c1 * c2
    return {m: c for m, c in out.items() if c}


def oracle_apply(X, f, scale=1):
    if f is None:
        return []
    return [(scale, a, derive(f, u)) for u, a in X.coefficients.items()]


def assert_bracket_matches_oracle(X, Y):
    chart = X.chart
    sign = 1 if scalar_product(X.degree, Y.degree) else -1
    got = bracket(X, Y)
    for name in chart.names:
        want = oracle_sum(chart,
                          oracle_apply(X, Y.coefficients.get(name))
                          + oracle_apply(Y, X.coefficients.get(name), sign))
        assert got.coefficient(name).terms == want, name


@pytest.mark.parametrize("seed", range(5))
def test_apply_bracket_and_matmul_match_oracle_sums(chart, seed):
    # Fraction coefficients and the odd coordinates t1, t2 of the chart
    rng = random.Random(seed)
    for _ in range(3):
        X, Y = random_field(rng, chart, terms=3), random_field(rng, chart, terms=3)
        f = random_series(rng, chart, terms=5)
        assert X.apply(f).terms == oracle_sum(chart, oracle_apply(X, f))
        assert_bracket_matches_oracle(X, Y)
        assert_bracket_matches_oracle(Y, X)
        assert_bracket_matches_oracle(X, X)
    degrees = [chart.degree_of(n) for n in ("x", "t1", "e")]
    A = GradedMatrix(chart, degrees[:2], degrees, [
        [random_series(rng, chart, terms=3) for _ in degrees] for _ in range(2)])
    B = GradedMatrix(chart, degrees, degrees[1:], [
        [random_series(rng, chart, terms=3) for _ in range(2)] for _ in degrees])
    product = A @ B
    for i in range(2):
        for j in range(2):
            want = oracle_sum(chart, [(1, A.entry(i, k), B.entry(k, j))
                                      for k in range(3)])
            assert product.entry(i, j).terms == want


def test_sums_that_cancel_and_reappear_match_oracle():
    # the running sum of x goes x, 0, x within one result
    chart = base_chart(("x", "y", "z", "w"))
    x = chart.coordinate("x")
    X = VectorField(chart, chart.zero_degree, {"x": x, "y": -x, "z": x})
    f = series_of(chart, "x + y + z")
    assert X.apply(f) == x
    assert X.apply(f).terms == oracle_sum(chart, oracle_apply(X, f))
    Y = VectorField(chart, chart.zero_degree, {"w": f})
    assert bracket(X, Y) == VectorField(chart, chart.zero_degree, {"w": x})
    assert_bracket_matches_oracle(X, Y)
    deg = (chart.zero_degree,) * 3
    row = GradedMatrix(chart, deg[:1], deg, [[chart.one()] * 3])
    column = GradedMatrix(chart, deg, deg[:1], [[x], [-x], [x * Fraction(1, 2)]])
    assert (row @ column).entry(0, 0) == x * Fraction(1, 2)


def test_sums_build_one_series_per_result(chart, monkeypatch):
    # work counts: a sum of products builds its result and nothing else
    # beyond the derivatives it applies
    rng = random.Random(5)
    X = random_field(rng, chart, terms=3)
    Y = random_field(rng, chart, terms=3)
    f = random_series(rng, chart, terms=5)
    degrees = [chart.degree_of(n) for n in ("x", "t1", "e")]
    A = GradedMatrix(chart, degrees, degrees, [
        [random_series(rng, chart, terms=3) for _ in degrees] for _ in degrees])
    fills = derives = 0
    real_fill = znfrob.series.GradedSeries._fill
    real_derive = znfrob.fields.derive

    def counted_fill(self, *args):
        nonlocal fills
        fills += 1
        return real_fill(self, *args)

    def counted_derive(f, name):
        nonlocal derives
        derives += 1
        return real_derive(f, name)

    monkeypatch.setattr(znfrob.series.GradedSeries, "_fill", counted_fill)
    monkeypatch.setattr(znfrob.fields, "derive", counted_derive)
    assert not X.apply(f).is_zero
    assert (fills, derives) == (len(X.coefficients) + 1, len(X.coefficients))
    fills = derives = 0
    assert not (A @ A).is_zero
    assert (fills, derives) == (9, 0)
    fills = derives = 0
    assert not bracket(X, Y).is_zero
    assert derives and fills == derives + len(chart.names)


def test_pushforward_builds_no_degree_vector(chart, monkeypatch):
    # a coefficient's degree is checked as an int code against the vectors
    # the chart keeps per code, so a warm pushforward builds none
    rng = random.Random(11)
    change = random_centered_change(rng, chart)
    X = random_field(rng, chart, degree=chart.degree_of("e"), terms=3)
    want = pushforward(change, X)
    assert want.coefficients
    built = 0
    real_post_init = DegreeVector.__post_init__

    def counted_post_init(self):
        nonlocal built
        built += 1
        real_post_init(self)

    monkeypatch.setattr(DegreeVector, "__post_init__", counted_post_init)
    assert pushforward(change, X) == want
    assert built == 0


def test_field_degree_of_wrong_length_is_refused(chart):
    with pytest.raises(DimensionError, match="degree length mismatch: 3 vs 2"):
        VectorField(chart, DegreeVector.of(0, 0, 0), {"x": chart.one()})
    with pytest.raises(HomogeneityError, match=r"degree \(0,1\)"):
        VectorField(chart, chart.zero_degree, {"t1": chart.coordinate("x")})


def test_field_degree_of_wrong_length_is_refused_without_coefficients(chart):
    for coefficients in ({}, {"x": chart.zero()}):
        with pytest.raises(DimensionError,
                           match="degree length mismatch: 3 vs 2"):
            VectorField(chart, DegreeVector.of(0, 0, 0), coefficients)


def test_reading_degrees_leaves_the_chart_as_built():
    # a degree is compared as an int code, and a vector is built only to be
    # returned, so reading degrees of codes not seen before changes nothing
    chart = ChartSpec.build(3, [("x", (0, 0, 0)), ("a", (1, 0, 0)),
                                ("b", (0, 1, 0)), ("c", (0, 0, 1))])
    straighten_nonzero(VectorField.coordinate_derivation(chart, "a"))
    built = copy.deepcopy(vars(chart))
    a, b, c = (chart.coordinate(name) for name in "abc")
    assert (a * b).degree == DegreeVector.of(1, 1, 0)
    assert (b * c).is_homogeneous_of(DegreeVector.of(0, 1, 1))
    assert VectorField(chart, DegreeVector.of(1, 1, 0),
                       {"c": a * b * c}).coefficients
    assert vars(chart) == built



# charts that differ from the `chart` fixture (j_order 3, base_order 6) in
# the grading group, the truncation orders or the degree profile
OTHER_N = base_chart(("x", "y", "z", "w"), j_order=3, base_order=6)
OTHER_ORDERS = standard_chart(j_order=3, base_order=5)
OTHER_PROFILE = ChartSpec.build(2, [("x", (0, 0)), ("t1", (0, 1)),
                                    ("t2", (0, 1)), ("e", (1, 1))],
                                j_order=3, base_order=6)


def _coordinates(chart):
    return {name: chart.coordinate(name) for name in chart.names}


def _d(chart, name):
    return VectorField.coordinate_derivation(chart, name)


def _identity(chart):
    return CoordinateChange.identity(chart)


CHART_GUARDS = {
    "make-across-n": (ChartError, "different grading groups", lambda c:
                      CoordinateChange.make(c, OTHER_N, _coordinates(OTHER_N))),
    "make-across-orders": (
        ChartError, "different truncation orders", lambda c:
        CoordinateChange.make(c, OTHER_ORDERS, _coordinates(OTHER_ORDERS))),
    "make-across-profiles": (
        ChartError, "different degree profiles", lambda c:
        CoordinateChange.make(c, OTHER_PROFILE, _coordinates(OTHER_PROFILE))),
    "direct-construction": (TypeError, "use CoordinateChange.make", lambda c:
                            CoordinateChange(c, c, _coordinates(c),
                                             _coordinates(c))),
    "then-across-charts": (ChartError, "do not compose", lambda c:
                           _identity(c).then(_identity(OTHER_ORDERS))),
    "pull-back-off-target": (ChartError, "not live on the target", lambda c:
                             _identity(c).pull_back(OTHER_ORDERS.one())),
    "push-series-off-source": (ChartError, "not live on the source", lambda c:
                               _identity(c).push_series(OTHER_ORDERS.one())),
    "pushforward-off-source": (ChartError, "not live on the source", lambda c:
                               pushforward(_identity(c),
                                           _d(OTHER_ORDERS, "x"))),
    "coefficient-on-other-chart": (
        ChartError, "coefficient on 'x' lives on another chart", lambda c:
        VectorField(c, c.zero_degree, {"x": OTHER_ORDERS.one()})),
    "apply-across-charts": (ChartError, "different charts", lambda c:
                            _d(c, "x").apply(OTHER_ORDERS.coordinate("x"))),
    "scale-by-other-chart": (ChartError, "scalar lives on another chart",
                             lambda c: _d(c, "x").scaled_by(
                                 OTHER_ORDERS.coordinate("x"))),
    "scale-by-inhomogeneous": (HomogeneityError, "must be homogeneous",
                               lambda c: _d(c, "x").scaled_by(
                                   series_of(c, "1 + e"))),
    "add-across-charts": (ChartError, "different charts", lambda c:
                          _d(c, "x") + _d(OTHER_ORDERS, "x")),
    "add-across-degrees": (HomogeneityError, "cannot combine", lambda c:
                           _d(c, "x") + _d(c, "e")),
    "bracket-across-charts": (ChartError, "different charts", lambda c:
                              bracket(_d(c, "x"), _d(OTHER_ORDERS, "x"))),
}


@pytest.mark.parametrize("case", sorted(CHART_GUARDS))
def test_changes_and_fields_refuse_other_charts(chart, case):
    error, message, call = CHART_GUARDS[case]
    with pytest.raises(error, match=message):
        call(chart)


def test_scaling_by_zero_keeps_the_degree(chart):
    X = field_of(chart, (1, 1), {"e": "1", "t1": "x*t2"})
    zero = X.scaled_by(chart.zero())
    assert zero.is_zero and zero.degree == X.degree
    assert zero == VectorField(chart, X.degree, {})
