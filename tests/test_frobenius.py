import random
from dataclasses import replace

import pytest

from helpers import (
    base_chart,
    field_of,
    random_centered_change,
    random_field,
    reference_invert_map,
    reference_j_linear_step,
    reference_lie_series,
    series_of,
    standard_chart,
)
from znfrob import (
    ChartSpec,
    DegenerateAtPoint,
    Distribution,
    InternalInconsistency,
    InvolutivityResult,
    NonzeroDegree,
    NotCommuting,
    NotInvolutive,
    OddSquareNonzero,
    UnknownCoordinateError,
    VectorField,
    ZeroDegree,
    ZnError,
    adapted_coordinates,
    antiderivative,
    certified_part,
    commuting_triangular,
    pushforward,
    straighten_deg0,
    straighten_nonzero,
    verify_adapted,
)
from znfrob.frobenius import FrobeniusCertificate, _j_linear_step


def dgen(chart, name):
    return VectorField.coordinate_derivation(chart, name)


def ze_chart(j_order=4, base_order=4):
    return ChartSpec.build(2, [("z", (0, 0)), ("e", (1, 1))],
                           j_order=j_order, base_order=base_order)


def zt_chart(j_order=4, base_order=3):
    return ChartSpec.build(2, [("z", (0, 0)), ("t1", (0, 1))],
                           j_order=j_order, base_order=base_order)


# -- degree-zero straightening -------------------------------------------------

def test_deg0_identity():
    chart = ze_chart()
    change = straighten_deg0(dgen(chart, "z"))
    assert change.is_identity


def test_deg0_exponential_witness():
    chart = ze_chart(base_order=4)
    X = field_of(chart, (0, 0), {"z": "1", "e": "e"})
    change = straighten_deg0(X)
    want = series_of(chart, "1 - z + 1/2*z^2 - 1/6*z^3 + 1/24*z^4")
    assert change.images["z"] == chart.coordinate("z")
    assert change.images["e"] == want * chart.coordinate("e")
    assert change.base_loss
    Y = pushforward(change, X)
    assert Y.coefficient("z") == chart.one()
    # leftover only at the flagged base boundary
    leftover = Y.coefficient("e")
    assert all(m.base_degree(chart) >= chart.base_order for m in leftover.terms)


def test_deg0_formal_log_witness():
    chart = ze_chart(base_order=5)
    X = field_of(chart, (0, 0), {"z": "1 + z"})
    change = straighten_deg0(X)
    want = series_of(chart, "z - 1/2*z^2 + 1/3*z^3 - 1/4*z^4 + 1/5*z^5")
    assert change.images["z"] == want
    Y = pushforward(change, X)
    err = Y.coefficient("z") - chart.one()
    assert all(m.base_degree(chart) >= chart.base_order for m in err.terms)


def test_deg0_degenerate_and_wrong_degree():
    chart = ze_chart()
    with pytest.raises(DegenerateAtPoint):
        straighten_deg0(field_of(chart, (0, 0), {"e": "e"}))
    with pytest.raises(NonzeroDegree):
        straighten_deg0(dgen(chart, "e"))


def test_deg0_linear_mixing():
    chart = base_chart(("x", "y"), j_order=2, base_order=4)
    X = field_of(chart, (0,), {"x": "1", "y": "1"})
    change = straighten_deg0(X)
    Y = pushforward(change, X)
    assert Y == dgen(chart, "x")


def test_straightening_refuses_a_residual_it_left(monkeypatch):
    # with every correction withheld the frame alone leaves y on x, a
    # residual inside the certified window that the closing check names
    import znfrob.frobenius
    monkeypatch.setattr(znfrob.frobenius, "_shift", lambda X, pivot, mod_j: None)
    chart = ChartSpec.build(1, [("x", (0,)), ("y", (0,)), ("e", (1,))],
                            j_order=2, base_order=4)
    X = field_of(chart, (0,), {"x": "1 + y", "y": "x"})
    with pytest.raises(InternalInconsistency, match=(
            r"^straightening left residual y on coordinate 'x' inside the "
            r"certified window$")):
        straighten_deg0(X)


# -- nonzero-degree straightening ----------------------------------------------

def test_odd_geometric_witness():
    chart = zt_chart(base_order=3)
    chi = field_of(chart, (0, 1), {"t1": "1 + z"})
    change = straighten_nonzero(chi)
    assert change.images["t1"] == series_of(chart, "(1 - z + z^2 - z^3)*t1")
    assert pushforward(change, chi) == dgen(chart, "t1")
    assert not change.base_loss and not change.j_loss


def test_odd_square_nonzero_rejected():
    chart = zt_chart()
    chi = field_of(chart, (0, 1), {"t1": "1", "z": "t1"})
    with pytest.raises(OddSquareNonzero):
        straighten_nonzero(chi)


def test_even_single_iteration_witness():
    chart = ze_chart()
    chi = field_of(chart, (1, 1), {"e": "1", "z": "e"})
    change = straighten_nonzero(chi)
    assert change.images["z"] == series_of(chart, "z - 1/2*e^2")
    assert change.images["e"] == chart.coordinate("e")
    assert pushforward(change, chi) == dgen(chart, "e")


def test_nonzero_idempotent_and_errors():
    chart = ze_chart()
    assert straighten_nonzero(dgen(chart, "e")).is_identity
    with pytest.raises(ZeroDegree):
        straighten_nonzero(dgen(chart, "z"))
    with pytest.raises(DegenerateAtPoint):
        straighten_nonzero(field_of(chart, (1, 1), {"e": "z"}))


def test_even_straightening_random():
    from znfrob import is_boundary_monomial
    rng = random.Random(67)
    chart = standard_chart(j_order=4, base_order=4)
    for _ in range(5):
        sigma = random_centered_change(rng, chart)
        chi = pushforward(sigma, dgen(chart, "e"))
        change = straighten_nonzero(chi)
        Y = pushforward(change, chi)
        for name in chart.names:
            got = Y.coefficient(name)
            want = chart.one() if name == "e" else chart.zero()
            diff = got - want
            assert all(is_boundary_monomial(m, chart) for m in diff.terms)


# -- commuting triangular families ----------------------------------------------

def test_triangular_identity():
    chart = base_chart(("x", "y"), j_order=2, base_order=4)
    change = commuting_triangular([dgen(chart, "x"), dgen(chart, "y")])
    assert change.is_identity


def test_triangular_linear_family():
    chart = base_chart(("x", "y"), j_order=2, base_order=4)
    X1 = field_of(chart, (0,), {"x": "1", "y": "1"})
    X2 = dgen(chart, "y")
    change = commuting_triangular([X1, X2])
    Y1 = pushforward(change, X1)
    Y2 = pushforward(change, X2)
    # triangular over the pivots: spans of {Y1, Y2} = span{dx, dy}
    assert Y1.coefficient("x") == chart.one()
    assert Y2.coefficient("x").is_zero or Y2.coefficient("x").constant_term == 0
    assert Y2.coefficient("y").constant_term != 0


def test_triangular_not_commuting():
    chart = base_chart()
    X = dgen(chart, "x")
    Y = field_of(chart, (0,), {"y": "1", "z": "x"})
    with pytest.raises(NotCommuting) as exc:
        commuting_triangular([X, Y])
    assert exc.value.pair == (0, 1)


def test_triangular_dependent_family():
    chart = base_chart(("x", "y"))
    X = dgen(chart, "x")
    with pytest.raises(DegenerateAtPoint):
        commuting_triangular([X, X.scaled_by(chart.constant(2))])


def test_triangular_wrong_degree():
    chart = standard_chart()
    with pytest.raises(NonzeroDegree):
        commuting_triangular([dgen(chart, "t1")])


# -- full pipeline ----------------------------------------------------------------

def test_adapted_identity_case():
    chart = standard_chart(j_order=3, base_order=4)
    D = Distribution(chart, [dgen(chart, "x"), dgen(chart, "t1")])
    cert = adapted_coordinates(D)
    assert cert.change.is_identity
    assert cert.adapted == ("x", "t1")
    assert not cert.residuals
    assert verify_adapted(D, cert).ok


def test_adapted_mixed_degree_generator():
    chart = standard_chart(j_order=4, base_order=6)
    X = field_of(chart, (0, 0), {"x": "1", "e": "t1*t2"})
    D = Distribution(chart, [X])
    cert = adapted_coordinates(D)
    assert cert.adapted == ("x",)
    assert cert.change.images["e"] == series_of(chart, "e - x*t1*t2")
    assert verify_adapted(D, cert).ok
    assert not cert.residuals


def test_adapted_rejects_noninvolutive():
    chart = base_chart()
    X = field_of(chart, (0,), {"x": "1", "z": "y"})
    Y = field_of(chart, (0,), {"y": "1"})
    with pytest.raises(NotInvolutive) as exc:
        adapted_coordinates(Distribution(chart, [X, Y]))
    witness = exc.value.witness
    assert witness.witness_pair == (0, 1)


def test_adapted_rechecks_supercommuting(monkeypatch):
    # a wrong involutivity verdict still yields no certificate: the
    # pipeline's closing verification refuses what it straightened
    import znfrob.frobenius
    monkeypatch.setattr(znfrob.frobenius, "is_involutive",
                        lambda D: InvolutivityResult(True, None, None, None))
    chart = base_chart()
    X = field_of(chart, (0,), {"x": "1", "z": "y"})
    Y = field_of(chart, (0,), {"y": "1"})
    with pytest.raises(InternalInconsistency, match="failed verification"):
        adapted_coordinates(Distribution(chart, [X, Y]))


def test_straightening_faults_are_bugs_only_in_the_pipeline(monkeypatch):
    # a self-bracket refusal cannot happen after normalization and the
    # bracket pass, so the pipeline reports one from either degree class
    # as a bug; the single-field and family entry points raise it as it is
    import znfrob.frobenius
    real = znfrob.frobenius._noncommuting_pair
    monkeypatch.setattr(znfrob.frobenius, "_noncommuting_pair", lambda fields:
                        (0, 0) if len(fields) == 1 else real(fields))
    chart = standard_chart(extra_base=True)
    for names in (("x", "y"), ("t1", "t2")):
        D = Distribution(chart, [dgen(chart, u) for u in names])
        with pytest.raises(InternalInconsistency,
                           match="failed on involutive input: odd field"):
            adapted_coordinates(D)
    with pytest.raises(OddSquareNonzero):
        straighten_nonzero(dgen(chart, "t1"))
    with pytest.raises(OddSquareNonzero):
        commuting_triangular([dgen(chart, "x"), dgen(chart, "y")])


def test_adapted_rank_zero():
    chart = standard_chart()
    cert = adapted_coordinates(Distribution(chart, []))
    assert cert.change.is_identity
    assert cert.adapted == ()


def test_adapted_full_rank_mixed():
    chart = standard_chart(j_order=3, base_order=4)
    D = Distribution(chart, [
        field_of(chart, (0, 0), {"x": "1", "e": "t1*t2"}),
        field_of(chart, (0, 1), {"t1": "1", "e": "x*t2"}),
    ])
    cert = adapted_coordinates(D)
    assert set(cert.adapted) == {"x", "t1"}
    report = verify_adapted(D, cert)
    assert report.ok and report.rank_ok and report.reverse_ok


def test_verify_rejects_perturbed_certificate():
    chart = standard_chart(j_order=4, base_order=6)
    X = field_of(chart, (0, 0), {"x": "1", "e": "t1*t2"})
    D = Distribution(chart, [X])
    cert = adapted_coordinates(D)
    # perturb the image of e by a J-degree-1 term
    from znfrob import CoordinateChange
    images = dict(cert.change.images)
    images["e"] = images["e"] + chart.coordinate("e")
    broken = CoordinateChange.make(chart, chart, images)
    bad_cert = FrobeniusCertificate(change=broken, adapted=cert.adapted,
                                    residuals=(), steps=())
    report = verify_adapted(D, bad_cert)
    assert not report.ok


def test_verify_identity_certificate_single_derivation():
    chart = standard_chart()
    D = Distribution(chart, [dgen(chart, "x")])
    from znfrob import CoordinateChange
    cert = FrobeniusCertificate(
        change=CoordinateChange.identity(chart),
        adapted=("x",), residuals=(), steps=())
    assert verify_adapted(D, cert).ok


def test_monotone_corrections():
    # each correction step only moves coordinates by terms of J-degree >= k
    chart = standard_chart(j_order=4, base_order=4)
    rng = random.Random(71)
    sigma = random_centered_change(rng, chart)
    X = pushforward(sigma, dgen(chart, "x"))
    from znfrob.frobenius import _straighten
    steps, _, _ = _straighten(chart, [X], [0])
    last = 1
    for label, step in steps:
        if not label.startswith("j_correction_"):
            continue
        k = int(label.rsplit("_", 1)[1])
        assert k >= last
        last = k
        for name in chart.names:
            diff = step.images[name] - chart.coordinate(name)
            for m in diff.terms:
                assert m.j_degree(chart) >= k


def test_adapted_step_order_mixed_family():
    # degree-zero generators are straightened first, then the odd one
    chart = standard_chart()
    sigma = random_centered_change(random.Random(7), chart)
    D = Distribution(chart, [pushforward(sigma, dgen(chart, u))
                             for u in ("x", "t1")])
    cert = adapted_coordinates(D)
    assert [label for label, _ in cert.steps] == [
        "j_linear", "j_correction_2", "j_correction_3", "pivot_frame"]
    assert cert.adapted == ("x", "t1")


def test_odd_straightening_with_same_degree_mixing():
    # two odd coordinates of equal degree: the pivot frame must absorb the
    # constant mixing column
    chart = ChartSpec.build(2, [("z", (0, 0)), ("ta", (0, 1)), ("tb", (0, 1))],
                            j_order=3, base_order=3)
    chi = field_of(chart, (0, 1), {"ta": "1", "tb": "1"})
    change = straighten_nonzero(chi)
    assert pushforward(change, chi) == dgen(chart, "ta")
    assert change.images["tb"] == series_of(chart, "tb - ta")


def test_even_straightening_with_same_degree_mixing():
    chart = ChartSpec.build(2, [("z", (0, 0)), ("e1", (1, 1)), ("e2", (1, 1))],
                            j_order=4, base_order=4)
    chi = field_of(chart, (1, 1), {"e1": "1", "e2": "z"})
    change = straighten_nonzero(chi)
    assert pushforward(change, chi) == dgen(chart, "e1")


def test_adapted_same_degree_odd_pair():
    chart = ChartSpec.build(2, [("x", (0, 0)), ("ta", (0, 1)), ("tb", (0, 1))],
                            j_order=3, base_order=3)
    D = Distribution(chart, [
        field_of(chart, (0, 1), {"ta": "1", "tb": "x"}),
        field_of(chart, (0, 1), {"tb": "1"}),
    ])
    cert = adapted_coordinates(D)
    assert set(cert.adapted) == {"ta", "tb"}
    assert verify_adapted(D, cert).ok


def test_certificate_truncation_coherence_full_pipeline():
    high = standard_chart(j_order=4, base_order=4, extra_base=True)
    low = standard_chart(j_order=3, base_order=4, extra_base=True)
    rng = random.Random(555)
    subsets = [("x",), ("x", "t1"), ("e",), ("x", "y", "e"), ("t1", "e")]
    for i in range(5):
        sigma = random_centered_change(rng, high)
        names = subsets[i % len(subsets)]
        gens_high = [
            pushforward(sigma, VectorField.coordinate_derivation(high, u))
            for u in names
        ]
        gens_low = [g.truncated_to(low) for g in gens_high]
        c_high = adapted_coordinates(Distribution(high, gens_high))
        c_low = adapted_coordinates(Distribution(low, gens_low))
        assert c_high.adapted == c_low.adapted
        for name in high.names:
            assert c_high.change.images[name].truncated_to(low) \
                == c_low.change.images[name], (i, name)
            assert c_high.change.inverse_images[name].truncated_to(low) \
                == c_low.change.inverse_images[name], (i, name)


def _straightened(X):
    return (straighten_deg0 if X.degree.is_zero else straighten_nonzero)(X)


def _differences(got, want):
    """Per coordinate, image minus image and inverse image minus inverse
    image of two changes on the same charts."""
    return [got_map[u] - want_map[u]
            for got_map, want_map in ((got.images, want.images),
                                      (got.inverse_images, want.inverse_images))
            for u in got.source.names]


def test_straightening_is_the_lie_series():
    # d/du pushed through a random change, for u of each degree class
    rng = random.Random(7)
    for j_order, base_order in [(5, 4), (3, 4), (2, 3), (4, 6), (3, 5)]:
        chart = standard_chart(j_order=j_order, base_order=base_order)
        for _ in range(6):
            sigma = random_centered_change(rng, chart)
            for u in ("x", "e", "t1", "t2"):
                X = pushforward(sigma, dgen(chart, u))
                got = _straightened(X)
                diffs = _differences(got, reference_lie_series(X))
                where = (j_order, base_order, u)
                assert not any(certified_part(d).terms for d in diffs), where
                if not (got.base_loss or got.j_loss):
                    assert all(d.is_zero for d in diffs), where


def test_straightening_is_coherent_in_the_base_order():
    # a substitution can fold a tail that the low chart dropped back in at
    # total degree past its base order, and no loss flag marks that, so an
    # unflagged low result may still differ there
    rng = random.Random(11)
    for j_order, high_b, low_b in [(3, 6, 4), (4, 5, 3), (2, 5, 2), (5, 4, 3),
                                   (3, 4, 2), (4, 6, 5), (2, 3, 1)]:
        high = standard_chart(j_order=j_order, base_order=high_b)
        low = standard_chart(j_order=j_order, base_order=low_b)
        for _ in range(5):
            sigma = random_centered_change(rng, high)
            for u in ("x", "e", "t1", "t2"):
                X = pushforward(sigma, dgen(high, u))
                want = _straightened(X.truncated_to(low))
                diffs = _differences(_straightened(X).truncated_to(low, low), want)
                where = (j_order, high_b, low_b, u)
                assert not any(certified_part(d).terms for d in diffs), where
                if not (want.base_loss or want.j_loss):
                    assert all(m.total_degree > low_b
                               for d in diffs for m in d.terms), where


def test_j_linear_step_matches_the_matrix_reference():
    # the flow of the new coordinates against the matrix ODE for g in
    # eta = g @ zeta, term by term and flag by flag; the lossy zeros added
    # to some coefficients reach zero parts of the J-linear layer and zero
    # rates, whose flags the step must pass on or leave out as g did
    rng = random.Random(22)
    compared = 0
    for j_order, base_order in [(2, 2), (3, 3), (3, 4), (4, 3), (5, 4)]:
        for extra_base in (False, True):
            chart = standard_chart(j_order, base_order, extra_base)
            bases = [n for n in chart.names if chart.degree_of(n).is_zero]
            lossy = [antiderivative(chart.coordinate("x") ** base_order, "x"),
                     antiderivative(chart.coordinate("e") ** j_order, "e")]
            for _ in range(25):
                X = random_field(rng, chart, chart.zero_degree, terms=3,
                                 max_j=2)
                X = VectorField(chart, X.degree, {
                    n: a + rng.choice(lossy) if rng.random() < 0.3 else a
                    for n, a in X.coefficients.items()})
                pivot = rng.choice(bases)
                got = _j_linear_step(X, pivot)
                want = reference_j_linear_step(X, pivot)
                assert (got is None) == (want is None)
                if got is None:
                    continue
                compared += 1
                for side in ("images", "inverse_images"):
                    for n in chart.names:
                        a, b = getattr(got, side)[n], getattr(want, side)[n]
                        assert a.terms == b.terms, (side, n)
                        assert (a.base_loss, a.j_loss) == (
                            b.base_loss, b.j_loss), (side, n)
    assert compared >= 200


def count_picard_passes(monkeypatch):
    """Per caller label, the Picard passes of the inversions in ``make``:
    one substitution each, counted inside `_invert_map`, labelled with the
    straightening step that asked for the change (None for the frame)."""
    import znfrob.fields
    import znfrob.frobenius
    passes, label, inverting = {}, [None], [False]
    real_substitution = znfrob.fields._substitution
    real_invert = znfrob.fields._invert_map

    def substitution(*args):
        if inverting[0]:
            passes[label[0]] = passes.get(label[0], 0) + 1
        return real_substitution(*args)

    def invert(*args):
        inverting[0] = True
        try:
            return real_invert(*args)
        finally:
            inverting[0] = False

    def labelled(name):
        real = getattr(znfrob.frobenius, name)

        def step(*args, **kwargs):
            label[0] = name
            try:
                return real(*args, **kwargs)
            finally:
                label[0] = None
        return step

    monkeypatch.setattr(znfrob.fields, "_substitution", substitution)
    monkeypatch.setattr(znfrob.fields, "_invert_map", invert)
    for name in ("_j_linear_step", "_shift"):
        monkeypatch.setattr(znfrob.frobenius, name, labelled(name))
    return passes


def test_j_linear_inverse_is_one_elimination(monkeypatch):
    # the J-linear step's map keeps every base coordinate and sends each J
    # coordinate to a J-linear image over the base, so make inverts its
    # matrix of base series by one elimination, with no Picard pass; the
    # inverse must equal the whole-map Picard reference term by term and
    # flag by flag, lossy layers included
    rng = random.Random(30)
    passes = count_picard_passes(monkeypatch)
    compared = flagged = 0
    for j_order, base_order in [(2, 2), (3, 4), (5, 4)]:
        for extra_base in (False, True):
            chart = standard_chart(j_order, base_order, extra_base)
            bases = [n for n in chart.names if chart.degree_of(n).is_zero]
            lossy = [antiderivative(chart.coordinate("x") ** base_order, "x"),
                     antiderivative(chart.coordinate("e") ** j_order, "e")]
            for _ in range(12):
                X = random_field(rng, chart, chart.zero_degree, terms=3,
                                 max_j=2)
                X = VectorField(chart, X.degree, {
                    n: a + rng.choice(lossy) if rng.random() < 0.3 else a
                    for n, a in X.coefficients.items()})
                step = reference_j_linear_step(X, rng.choice(bases))
                if step is None:
                    continue
                assert passes == {}
                want, _ = reference_invert_map(step.images, chart, chart)
                passes.clear()
                for n in chart.names:
                    got = step.inverse_images[n]
                    assert got.terms == want[n].terms, n
                    assert (got.base_loss, got.j_loss) == (
                        want[n].base_loss, want[n].j_loss), n
                compared += 1
                flagged += step.base_loss or step.j_loss
    assert compared >= 40 and compared > flagged >= 5


def test_degree_zero_straightening_work_pinned(monkeypatch):
    # work counts, not timings, for one field that takes every step of a
    # degree-zero straightening: the row products and the Picard passes
    # (1729 products and 11 + 5 passes before substitution skipped the
    # coordinates a map keeps and the J-linear step was inverted by one
    # elimination)
    import znfrob.series
    chart = standard_chart(j_order=3, base_order=4, extra_base=True)
    X = field_of(chart, (0, 0), {
        "x": "2 + y + x*y + t1*t2*e", "y": "x^2 + e^2",
        "t1": "y*t1 + x*e*t2", "t2": "t2 - x*t2 + e*t1",
        "e": "x*e + t1*t2"})
    passes = count_picard_passes(monkeypatch)
    calls = 0
    real = znfrob.series._multiply_rows

    def counted(rows1, rows2, chart):
        nonlocal calls
        calls += 1
        return real(rows1, rows2, chart)

    monkeypatch.setattr(znfrob.series, "_multiply_rows", counted)
    from znfrob.frobenius import _straighten
    steps, _, _ = _straighten(chart, [X], [0])
    assert [label for label, _ in steps] == [
        "linear_frame", "flow_box", "flow_box", "j_linear",
        "j_correction_2", "j_correction_3"]
    assert passes == {"_shift": 11}
    assert calls == 1315


def test_adapted_random_soundness_small():
    rng = random.Random(73)
    chart = standard_chart(j_order=3, base_order=3)
    subsets = [("x",), ("x", "t1"), ("t1",), ("e",), ("x", "e"),
               ("x", "t1", "e")]
    for i in range(6):
        sigma = random_centered_change(rng, chart)
        names = subsets[i % len(subsets)]
        gens = [pushforward(sigma, dgen(chart, n)) for n in names]
        D = Distribution(chart, gens)
        cert = adapted_coordinates(D)
        assert verify_adapted(D, cert).ok
        assert len(cert.adapted) == len(names)


def test_linear_frame_images_pinned():
    # recorded before the frame was built from its inverse images
    from znfrob.frobenius import _straighten
    chart = standard_chart(extra_base=True)
    X = field_of(chart, (0, 0), {"x": "2 + y", "y": "3 + x^2", "t1": "x*t1"})
    steps, _, (pivot,) = _straighten(chart, [X], [0])
    frame = dict(steps)["linear_frame"]
    assert pivot == "x"
    assert {n: str(s) for n, s in frame.images.items()} == {
        "x": "1/2*x", "y": "y - 3/2*x", "t1": "t1", "t2": "t2", "e": "e"}
    assert {n: str(s) for n, s in frame.inverse_images.items()} == {
        "x": "2*x", "y": "y + 3*x", "t1": "t1", "t2": "t2", "e": "e"}


def test_pivot_frame_images_pinned():
    # recorded while each degree class had its own frame builder
    from znfrob import bracket
    from znfrob.frobenius import _straighten
    chart = standard_chart(j_order=4, base_order=4)
    even = field_of(chart, (1, 1), {"e": "2 + x", "x": "e", "t1": "x*t2"})
    steps, _, (pivot,) = _straighten(chart, [even], [0])
    assert pivot == "e"
    assert [label for label, _ in steps] == [
        "pivot_frame", "j_correction_1", "j_correction_2"]
    frame = dict(steps)["pivot_frame"]
    assert {n: str(s) for n, s in frame.images.items()} == {
        "x": "x",
        "t1": "t1 + 1/2*x*t2*e - 1/4*x^2*t2*e + 1/8*x^3*t2*e"
              " - 1/16*x^4*t2*e",
        "t2": "t2",
        "e": "1/2*e - 1/4*x*e + 1/8*x^2*e - 1/16*x^3*e + 1/32*x^4*e"}
    assert {n: str(s) for n, s in frame.inverse_images.items()} == {
        "x": "x", "t1": "t1 - x*t2*e", "t2": "t2", "e": "2*e + x*e"}

    odd = field_of(chart, (0, 1), {"t1": "2 + x", "t2": "e"})
    assert bracket(odd, odd).is_zero
    steps, _, (pivot,) = _straighten(chart, [odd], [0])
    assert pivot == "t1"
    assert [label for label, _ in steps] == ["pivot_frame"]
    frame = dict(steps)["pivot_frame"]
    assert {n: str(s) for n, s in frame.images.items()} == {
        "x": "x",
        "t1": "1/2*t1 - 1/4*x*t1 + 1/8*x^2*t1 - 1/16*x^3*t1 + 1/32*x^4*t1",
        "t2": "t2 - 1/2*t1*e + 1/4*x*t1*e - 1/8*x^2*t1*e + 1/16*x^3*t1*e"
              " - 1/32*x^4*t1*e",
        "e": "e"}
    assert {n: str(s) for n, s in frame.inverse_images.items()} == {
        "x": "x", "t1": "2*t1 + x*t1", "t2": "t2 + t1*e", "e": "e"}


def test_composites_and_pushes_skip_redundant_work(monkeypatch):
    # a composite folds from its first step instead of the identity, and a
    # family pushes only the generators it has not straightened yet
    import znfrob.frobenius
    from znfrob import CoordinateChange
    from znfrob.frobenius import _straighten
    chart = standard_chart(j_order=4, base_order=4)
    X = pushforward(random_centered_change(random.Random(71), chart),
                    dgen(chart, "x"))
    steps, _, _ = _straighten(chart, [X], [0])
    assert len(steps) >= 2
    then_calls = 0
    real_then = CoordinateChange.then

    def counted_then(self, nxt):
        nonlocal then_calls
        then_calls += 1
        return real_then(self, nxt)

    monkeypatch.setattr(CoordinateChange, "then", counted_then)
    straighten_deg0(X)
    assert then_calls == len(steps) - 1

    pushed = []
    real_push = znfrob.frobenius.pushforward

    def recorded_push(change, Y):
        pushed.append(change)
        return real_push(change, Y)

    monkeypatch.setattr(znfrob.frobenius, "pushforward", recorded_push)
    sigma = random_centered_change(random.Random(7), chart)
    D = Distribution(chart, [pushforward(sigma, dgen(chart, u))
                             for u in ("x", "t1")])
    cert = adapted_coordinates(D)
    labels = [label for label, _ in cert.steps]
    assert labels[-1] == "pivot_frame" and "pivot_frame" not in labels[:-1]
    # x's steps: x itself and t1; t1's frame: t1 alone
    assert [sum(c is step for c in pushed) for _, step in cert.steps] == \
        [2] * (len(labels) - 1) + [1]


def test_one_pass_verdict_agrees_with_is_involutive():
    # criterion-8 families, half of them with one generator perturbed off
    # the family by a field m*d/dw, w outside it: [d/du, m*d/dw] = (dm/du)*d/dw
    from collections import Counter

    from helpers import random_series
    from znfrob import is_involutive
    from znfrob.frobenius import _noncommuting_pair
    chart = standard_chart(j_order=3, base_order=4, extra_base=True)
    rng = random.Random(2024)
    subsets = [("x",), ("x", "y"), ("x", "t1"), ("t1",), ("e",), ("x", "e"),
               ("y", "t2"), ("x", "y", "t1"), ("x", "t1", "e"), ("t1", "t2")]
    verdicts = Counter()
    for i in range(48):
        sigma = random_centered_change(rng, chart)
        names = subsets[i % len(subsets)]
        gens = [dgen(chart, u) for u in names]
        if i % 3:
            k = rng.randrange(len(gens))
            w = rng.choice([n for n in chart.names if n not in names])
            m = random_series(rng, chart, terms=2, allow_constant=False,
                              degree=gens[k].degree + chart.degree_of(w),
                              max_base=2)
            gens[k] = gens[k] + dgen(chart, w).scaled_by(m)
        D = Distribution(chart, [pushforward(sigma, g) for g in gens])
        one_pass = _noncommuting_pair(
            D.normalized().distribution.generators) is None
        assert bool(is_involutive(D)) == one_pass, (i, names)
        verdicts[one_pass] += 1
    assert verdicts[True] >= 10 and verdicts[False] >= 10, verdicts


def test_only_odd_fields_are_bracketed_with_themselves(monkeypatch):
    # [X, X] = XX - XX cancels term by term for an even X, so neither the
    # pipeline nor the involutivity test takes it; an odd square need not
    # vanish, so every odd generator is still bracketed with itself
    import znfrob.distribution
    import znfrob.frobenius
    from znfrob import is_involutive
    real = znfrob.fields.bracket
    selves = []

    def guarded(X, Y):
        if X is Y:
            assert X.degree.is_odd, "an even field bracketed with itself"
            selves.append(X)
        return real(X, Y)

    for module in (znfrob.frobenius, znfrob.distribution):
        monkeypatch.setattr(module, "bracket", guarded)
    chart = standard_chart(j_order=3, base_order=4, extra_base=True)
    sigma = random_centered_change(random.Random(31), chart)
    for names, odd in ((("x", "y", "e"), 0), (("x", "t1", "t2", "e"), 2)):
        D = Distribution(chart, [pushforward(sigma, dgen(chart, u))
                                 for u in names])
        selves.clear()
        assert is_involutive(D)
        assert [id(X) for X in selves] == [
            id(g) for g in D.generators if g.degree.is_odd]
        selves.clear()
        cert = adapted_coordinates(D)
        assert len(cert.adapted) == len(names)
        odd_gens = [g for g in D.generators if g.degree.is_odd]
        assert len(odd_gens) == odd
        assert all(any(X is g for X in selves) for g in odd_gens)


def test_adapted_asks_is_involutive_once(monkeypatch):
    # the pipeline's one involutivity decider is `is_involutive`: asked
    # once of an involutive family and once of a refused one, whose every
    # bracket it computes itself
    from collections import Counter

    import znfrob.frobenius
    real_involutive, real_bracket = (znfrob.frobenius.is_involutive,
                                     znfrob.frobenius.bracket)
    calls = Counter()

    def asked(D):
        calls["is_involutive"] += 1
        return real_involutive(D)

    def bracketed(X, Y):
        calls["bracket"] += 1
        return real_bracket(X, Y)

    monkeypatch.setattr(znfrob.frobenius, "is_involutive", asked)
    monkeypatch.setattr(znfrob.frobenius, "bracket", bracketed)
    chart = standard_chart(j_order=3, base_order=4, extra_base=True)
    sigma = random_centered_change(random.Random(11), chart)
    D = Distribution(chart, [pushforward(sigma, dgen(chart, u))
                             for u in ("x", "t1", "e")])
    cert = adapted_coordinates(D)
    assert len(cert.adapted) == 3 and verify_adapted(D, cert).ok
    assert calls["is_involutive"] == 1

    calls.clear()
    chart = base_chart()
    X = field_of(chart, (0,), {"x": "1", "z": "y"})
    Y = field_of(chart, (0,), {"y": "1"})
    with pytest.raises(NotInvolutive):
        adapted_coordinates(Distribution(chart, [X, Y]))
    assert calls == Counter(is_involutive=1)


# -- verification against the membership reference ------------------------------

def _verdict(D, cert, verify):
    """The report, or the type of the error the check raised."""
    try:
        return verify(D, cert)
    except ZnError as exc:
        return type(exc)


def test_verify_matches_membership_reference():
    # certificates from the solver, then with their adapted tuple emptied,
    # duplicated, swapped or replaced by chart names, or their change
    # replaced by a foreign one, or followed by a small change (tampered,
    # drawn from their own seed); checked against the family, a dependent
    # one, one lacking a generator and the empty one
    from helpers import reference_verify_adapted, tampered_certificate
    chart = standard_chart(j_order=3, base_order=3, extra_base=True)
    rng = random.Random(1608)
    tamper_rng = random.Random(2016)
    tampered_ok = []
    subsets = [("x",), ("x", "t1"), ("t1",), ("e",), ("x", "e"),
               ("y", "t2"), ("x", "y", "t1"), ("t1", "t2", "e")]
    kinds = set()
    for i in range(24):
        names = subsets[i % len(subsets)]
        sigma = random_centered_change(rng, chart)
        gens = [pushforward(sigma, dgen(chart, u)) for u in names]
        cert = adapted_coordinates(Distribution(chart, gens))
        adapted = cert.adapted
        swapped = (adapted[::-1] if len(adapted) > 1
                   else (rng.choice(chart.names),))
        certs = [cert, replace(cert, adapted=()),
                 replace(cert, adapted=adapted + adapted[:1]),
                 replace(cert, adapted=swapped),
                 replace(cert, adapted=tuple(rng.sample(
                     chart.names, rng.randint(0, len(chart.names))))),
                 replace(cert, change=random_centered_change(rng, chart)),
                 replace(cert, change=random_centered_change(rng, chart),
                         adapted=tuple(rng.sample(chart.names, len(names))))]
        tampered = [tampered_certificate(tamper_rng, cert) for _ in range(3)]
        k = rng.randrange(len(gens))
        families = [gens, gens + [gens[k]], gens[:k] + gens[k + 1:], []]
        for c in certs + tampered:
            for family in families:
                want = _verdict(Distribution(chart, family), c,
                                reference_verify_adapted)
                got = _verdict(Distribution(chart, family), c, verify_adapted)
                assert got == want, (i, c.adapted, len(family))
                kinds.add(want if isinstance(want, type)
                          else (want.ok, want.rank_ok, want.reverse_ok))
                if c in tampered and family is gens:
                    tampered_ok.append(want.ok)
    assert {(True, True, True), (False, False, True), (False, True, False),
            (False, False, False)} <= kinds, kinds
    accepted = sum(tampered_ok) / len(tampered_ok)
    assert 0.2 <= accepted <= 0.8, accepted


def test_verify_dependent_and_empty_families():
    chart = standard_chart(j_order=3, base_order=4)
    X = field_of(chart, (0, 0), {"x": "1", "e": "t1*t2"})
    cert = adapted_coordinates(Distribution(chart, [X]))
    dependent = Distribution(chart, [X, X])
    report = verify_adapted(dependent, replace(cert, adapted=()))
    assert (report.rank_ok, report.reverse_ok, report.ok) == (False, True, False)
    report = verify_adapted(dependent, cert)
    assert (report.rank_ok, report.reverse_ok) == (False, False)
    empty = Distribution(chart, [])
    report = verify_adapted(empty, replace(cert, adapted=()))
    assert report.ok and report.generator_residuals == ()
    report = verify_adapted(empty, cert)
    assert (report.rank_ok, report.reverse_ok, report.ok) == (False, False, False)


@pytest.mark.parametrize("adapted", [("x", "nope"), ("nope", "x")])
@pytest.mark.parametrize("duplicated", [False, True])
def test_verify_refuses_names_off_the_chart(adapted, duplicated):
    chart = standard_chart(j_order=3, base_order=4)
    X = field_of(chart, (0, 0), {"x": "1", "e": "t1*t2"})
    cert = adapted_coordinates(Distribution(chart, [X]))
    D = Distribution(chart, [X, X] if duplicated else [X])
    with pytest.raises(UnknownCoordinateError):
        verify_adapted(D, replace(cert, adapted=adapted))


def _counting_normalizations(monkeypatch):
    """Patch `_normalize` to count its calls; returns the running count."""
    import znfrob.distribution
    calls = [0]
    real = znfrob.distribution._normalize

    def counted(D):
        calls[0] += 1
        return real(D)

    monkeypatch.setattr(znfrob.distribution, "_normalize", counted)
    return calls


def test_verify_normalizes_once(monkeypatch):
    # a valid certificate is decided by the origin test, with no
    # normalization; one whose adapted block at the origin is singular or
    # whose adapted tuple is short takes one normalization of the pushed
    # family, not one of the distribution as well
    chart = standard_chart(j_order=3, base_order=4)
    sigma = random_centered_change(random.Random(12), chart)
    gens = [pushforward(sigma, dgen(chart, u)) for u in ("x", "t1")]
    cert = adapted_coordinates(Distribution(chart, gens))
    calls = _counting_normalizations(monkeypatch)
    assert verify_adapted(Distribution(chart, gens), cert).ok
    assert calls[0] == 0
    for adapted in [cert.adapted[:1] * 2, cert.adapted[:1], ("x", "e")]:
        calls[0] = 0
        assert not verify_adapted(Distribution(chart, gens),
                                  replace(cert, adapted=adapted)).ok
        assert calls[0] == 1, adapted


def test_origin_test_agrees_with_the_references(monkeypatch):
    # on certificates and their tampered copies, the report equals the
    # membership reference's field by field and the oracle ring's verdict,
    # whether the origin test decided it or the normalization did
    from helpers import reference_verify_adapted, tampered_certificate
    from test_oracle import certificate_ok
    chart = standard_chart(j_order=3, base_order=4, extra_base=True)
    rng = random.Random(26)
    cases = []
    for names in [("x", "t1"), ("e",), ("y", "t2", "e"), ("t1", "t2"),
                  ("x", "y")]:
        sigma = random_centered_change(rng, chart)
        D = Distribution(chart, [pushforward(sigma, dgen(chart, u))
                                 for u in names])
        cert = adapted_coordinates(D)
        cases += [(D, c) for c in [cert, *(tampered_certificate(rng, cert)
                                           for _ in range(6))]]
    calls = _counting_normalizations(monkeypatch)
    decided = {False: 0, True: 0}
    for D, c in cases:
        calls[0] = 0
        report = verify_adapted(Distribution(chart, D.generators), c)
        decided[calls[0] == 0] += 1
        assert report == reference_verify_adapted(D, c), c.adapted
        assert report.ok == certificate_ok(D, c), c.adapted
    assert min(decided.values()) >= 5, decided


def test_verify_pushes_and_inverts_nothing(monkeypatch):
    # every fact comes from the generators applied to the change's images:
    # with pushforward, the substitution and the inversion refused, verify
    # returns the report it returns with them, valid or tampered
    import znfrob.fields
    import znfrob.frobenius
    from helpers import tampered_certificate
    chart = standard_chart(j_order=3, base_order=4, extra_base=True)
    rng = random.Random(19)
    cases = []
    for names in [("x", "t1"), ("e",), ("y", "t2", "e")]:
        sigma = random_centered_change(rng, chart)
        D = Distribution(chart, [pushforward(sigma, dgen(chart, u))
                                 for u in names])
        cert = adapted_coordinates(D)
        for c in [cert, *(tampered_certificate(rng, cert) for _ in range(4))]:
            cases.append((D, c, verify_adapted(D, c)))
    assert {report.ok for *_, report in cases} == {False, True}

    def refuse(*args):
        raise AssertionError("verification pushed, substituted or inverted")

    monkeypatch.setattr(znfrob.frobenius, "pushforward", refuse)
    monkeypatch.setattr(znfrob.fields, "_substitution", refuse)
    monkeypatch.setattr(znfrob.fields, "_invert_map", refuse)
    for D, c, report in cases:
        assert verify_adapted(D, c) == report


def test_a_change_is_built_only_for_a_recorded_step(monkeypatch):
    # a frame or J-linear flow that would move nothing is decided on its
    # map, so the straightening builds one change per step it records;
    # `from_inverse_images` builds through `make`
    from znfrob import CoordinateChange
    from znfrob.frobenius import _straighten
    chart = standard_chart(j_order=4, base_order=4, extra_base=True)
    rng = random.Random(25)
    families = [[field_of(chart, (0, 0), {"x": "1", "y": "x^2"})],
                [field_of(chart, (1, 1), {"e": "1", "t1": "x*t2"})],
                [dgen(chart, "t1")]]
    for names in [("x",), ("y",), ("t1",), ("t2",), ("e",), ("x", "t1"),
                  ("y", "e"), ("x", "t2", "e")]:
        for _ in range(3):
            sigma = random_centered_change(rng, chart)
            families.append([pushforward(sigma, dgen(chart, u))
                             for u in names])
    built = 0
    real_make = CoordinateChange.make.__func__

    def counted_make(cls, *args):
        nonlocal built
        built += 1
        return real_make(cls, *args)

    monkeypatch.setattr(CoordinateChange, "make", classmethod(counted_make))
    frameless = 0
    for fields in families:
        norm = Distribution(chart, fields).normalized()
        gens, pivots = norm.distribution.generators, norm.pivots
        order = sorted(range(len(gens)), key=lambda i: (
            not gens[i].degree.is_zero, chart.index(pivots[i])))
        built = 0
        steps, _, _ = _straighten(chart, gens, order)
        assert built == len(steps), [label for label, _ in steps]
        frameless += not any(label.endswith("frame") for label, _ in steps)
    assert frameless >= 3


@pytest.mark.parametrize("tamper", [False, True])
def test_verify_guards_its_chart_and_its_report_is_its_verdict(tamper):
    from znfrob import ChartError
    chart = standard_chart(j_order=3, base_order=4)
    D = Distribution(chart, [field_of(chart, (0, 0), {"x": "1", "e": "t1*t2"})])
    cert = adapted_coordinates(D)
    if tamper:
        cert = replace(cert, adapted=("t1",))
    report = verify_adapted(D, cert)
    assert report.ok is not tamper and bool(report) is report.ok
    other = standard_chart(j_order=3, base_order=5)
    with pytest.raises(ChartError):
        verify_adapted(Distribution(other, [dgen(other, "x")]), cert)
