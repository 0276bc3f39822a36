"""Acceptance suite: one test per criterion, each printing a pass line.

Everything asserts exact rational equality; runtime limits are enforced
with a monotonic clock.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from helpers import (
    base_chart,
    field_of,
    oracle_multiply_monomials,
    random_centered_change,
    random_field,
    random_monomial,
    random_series,
    series_of,
    standard_chart,
)
from znfrob import (
    ChartSpec,
    Distribution,
    GradedMatrix,
    GradedSeries,
    OddSquareNonzero,
    VectorField,
    adapted_coordinates,
    bracket,
    invert_mod_J,
    is_boundary_monomial,
    parse_expression,
    pushforward,
    rational_inverse,
    scalar_product,
    straighten_deg0,
    straighten_nonzero,
    verify_adapted,
)
from znfrob.io_cli import main


class Stopwatch:
    def __init__(self, limit, label):
        self.limit = limit
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            return False
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, (
            f"{self.label} took {elapsed:.2f}s (limit {self.limit}s)")
        print(f"\nACCEPTANCE {self.label}: PASS in {elapsed:.2f}s "
              f"(limit {self.limit}s)")
        return False


def charts_for_inversion():
    c1 = ChartSpec.build(1, [("u", (0,)), ("s", (1,))], j_order=4, base_order=3)
    c2 = ChartSpec.build(2, [("x", (0, 0)), ("t1", (0, 1)), ("t2", (1, 0)),
                             ("e", (1, 1))], j_order=4, base_order=3)
    c3 = ChartSpec.build(3, [("x", (0, 0, 0)), ("a", (1, 0, 0)),
                             ("b", (0, 1, 1)), ("c", (1, 1, 0))],
                         j_order=4, base_order=3)
    return [c1, c2, c3]


def test_criterion_1_geometric_series_inversion():
    rng = random.Random(1001)
    charts = charts_for_inversion()
    with Stopwatch(10.0, "1 (geometric-series inversion)"):
        done = 0
        while done < 100:
            chart = charts[done % len(charts)]
            size = rng.randint(1, 4)
            degrees = tuple(rng.choice(chart.degrees) for _ in range(size))
            entries = []
            for i in range(size):
                row = []
                for j in range(size):
                    s = random_series(rng, chart, degree=degrees[i] + degrees[j],
                                      terms=rng.randint(0, 2),
                                      allow_constant=False)
                    if i == j:
                        s = s + chart.constant(rng.choice([1, -1, 2, -3]))
                    row.append(s)
                entries.append(row)
            T = GradedMatrix(chart, degrees, degrees, entries)
            if rational_inverse(T.value_at_origin()) is None:
                continue
            Ti = invert_mod_J(T)
            identity = GradedMatrix.identity(chart, degrees)
            assert Ti @ T == identity
            assert T @ Ti == identity
            done += 1


def test_criterion_2_graded_lie_algebra_laws():
    chart = standard_chart(j_order=4, base_order=6)
    rng = random.Random(1002)
    with Stopwatch(30.0, "2 (graded Lie algebra laws)"):
        for _ in range(100):
            # shallow coefficients keep double brackets inside the window,
            # where both laws hold exactly
            X = random_field(rng, chart, terms=2, max_j=1, max_base=2)
            Y = random_field(rng, chart, terms=2, max_j=1, max_base=2)
            Z = random_field(rng, chart, terms=2, max_j=1, max_base=2)
            sxy = -1 if scalar_product(X.degree, Y.degree) else 1
            # antisymmetry
            lhs = bracket(X, Y)
            rhs = bracket(Y, X)
            flipped = {n: -c * sxy for n, c in rhs.coefficients.items()}
            assert lhs.coefficients == flipped
            # Jacobi
            jac_lhs = bracket(X, bracket(Y, Z))
            jac_rhs = bracket(bracket(X, Y), Z)
            third = bracket(Y, bracket(X, Z))
            want = jac_rhs + (third if sxy > 0 else -third)
            assert jac_lhs.coefficients == want.coefficients


def test_criterion_3_sign_rule_oracle():
    chart = standard_chart(j_order=4, base_order=6)
    rng = random.Random(1003)
    with Stopwatch(5.0, "3 (sign-rule oracle)"):
        for _ in range(200):
            m1 = random_monomial(rng, chart)
            m2 = random_monomial(rng, chart)
            c1, c2 = Fraction(rng.randint(1, 5)), Fraction(rng.randint(-5, -1))
            f = GradedSeries(chart, {m1: c1})
            g = GradedSeries(chart, {m2: c2})
            expected_mon, sign = oracle_multiply_monomials(chart, m1, m2)
            got = f * g
            if expected_mon is None:
                assert got.is_zero
            else:
                assert got.terms == {expected_mon: c1 * c2 * sign}


def test_criterion_4_degree_zero_straightening_witness():
    chart = ChartSpec.build(2, [("z", (0, 0)), ("e", (1, 1))],
                            j_order=4, base_order=4)
    X = field_of(chart, (0, 0), {"z": "1", "e": "e"})
    with Stopwatch(5.0, "4 (degree-zero straightening witness)"):
        change = straighten_deg0(X)
        e_image = change.images["e"]
        e_series = chart.coordinate("e")
        coeffs = []
        for k in range(5):
            mon = chart.monomial({"z": k, "e": 1})
            (m, _), = mon.terms.items()
            coeffs.append(e_image.coefficient(m))
        assert coeffs == [Fraction(1), Fraction(-1), Fraction(1, 2),
                          Fraction(-1, 6), Fraction(1, 24)]
        assert change.images["z"] == chart.coordinate("z")
        assert change.base_loss  # the exponential tail leaves the window
        pushed = pushforward(change, X)
        assert pushed.coefficient("z") == chart.one()
        for name in chart.names:
            want = chart.one() if name == "z" else chart.zero()
            diff = pushed.coefficient(name) - want
            assert all(is_boundary_monomial(m, chart) for m in diff.terms)


def test_criterion_5_nonzero_degree_witnesses():
    with Stopwatch(5.0, "5 (nonzero-degree straightening witnesses)"):
        even_chart = ChartSpec.build(2, [("z", (0, 0)), ("e", (1, 1))],
                                     j_order=4, base_order=6)
        chi = field_of(even_chart, (1, 1), {"e": "1", "z": "e"})
        change = straighten_nonzero(chi)
        assert change.images["z"] == series_of(even_chart, "z - 1/2*e^2")
        assert pushforward(change, chi) == \
            VectorField.coordinate_derivation(even_chart, "e")

        odd_chart = ChartSpec.build(2, [("z", (0, 0)), ("t1", (0, 1))],
                                    j_order=4, base_order=3)
        odd = field_of(odd_chart, (0, 1), {"t1": "1 + z"})
        odd_change = straighten_nonzero(odd)
        t1_image = odd_change.images["t1"]
        coeffs = []
        for k in range(4):
            mon = odd_chart.monomial({"z": k, "t1": 1})
            (m, _), = mon.terms.items()
            coeffs.append(t1_image.coefficient(m))
        assert coeffs == [Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)]
        assert pushforward(odd_change, odd) == \
            VectorField.coordinate_derivation(odd_chart, "t1")

        rejected = field_of(odd_chart, (0, 1), {"t1": "1", "z": "t1"})
        with pytest.raises(OddSquareNonzero):
            straighten_nonzero(rejected)


def test_criterion_6_full_pipeline():
    chart = standard_chart(j_order=4, base_order=6)
    X = field_of(chart, (0, 0), {"x": "1", "e": "t1*t2"})
    D = Distribution(chart, [X])
    with Stopwatch(5.0, "6a (full pipeline, adapted chart)"):
        cert = adapted_coordinates(D)
        assert cert.change.images["e"] == series_of(chart, "e - x*t1*t2")
        assert cert.adapted == ("x",)
        assert verify_adapted(D, cert).ok
        assert not cert.residuals

    c3 = base_chart()
    bad = Distribution(c3, [
        field_of(c3, (0,), {"x": "1", "z": "y"}),
        field_of(c3, (0,), {"y": "1"}),
    ])
    with Stopwatch(5.0, "6b (full pipeline, involutivity rejection)"):
        from znfrob import NotInvolutive
        with pytest.raises(NotInvolutive) as excinfo:
            adapted_coordinates(bad)
        witness = excinfo.value.witness
        assert witness.witness_pair == (0, 1)
        assert witness.witness_bracket == VectorField(
            c3, c3.zero_degree, {"z": -c3.one()})


def test_criterion_7_truncation_coherence():
    high = standard_chart(j_order=5, base_order=4)
    low = standard_chart(j_order=3, base_order=4)
    rng = random.Random(1007)
    targets = ["x", "e", "t1", "x", "e"]
    with Stopwatch(120.0, "7 (truncation coherence of certificates)"):
        for i in range(50):
            sigma = random_centered_change(rng, high)
            target = targets[i % len(targets)]
            instance = pushforward(
                sigma, VectorField.coordinate_derivation(high, target))
            low_instance = instance.truncated_to(low)
            straighten = straighten_deg0 if target == "x" else straighten_nonzero
            cert_high = straighten(instance)
            cert_low = straighten(low_instance)
            for name in high.names:
                assert cert_high.images[name].truncated_to(low) \
                    == cert_low.images[name], (i, name)
                assert cert_high.inverse_images[name].truncated_to(low) \
                    == cert_low.inverse_images[name], (i, name)


def test_criterion_8_randomized_soundness():
    chart = standard_chart(j_order=4, base_order=6, extra_base=True)
    rng = random.Random(1008)
    subsets = [
        ("x",), ("x", "y"), ("x", "t1"), ("t1",), ("e",), ("x", "e"),
        ("y", "t2"), ("x", "y", "t1"), ("x", "t1", "e"), ("t1", "t2"),
    ]
    with Stopwatch(120.0, "8 (randomized soundness)"):
        for i in range(50):
            sigma = random_centered_change(rng, chart)
            names = subsets[i % len(subsets)]
            gens = [
                pushforward(sigma, VectorField.coordinate_derivation(chart, u))
                for u in names
            ]
            D = Distribution(chart, gens)
            cert = adapted_coordinates(D)
            report = verify_adapted(D, cert)
            assert report.ok, (i, names)
            assert len(cert.adapted) == len(names)


def random_expression(rng, chart, depth=0):
    parts = [random_term(rng, chart, depth) for _ in range(rng.randint(1, 3))]
    out = parts[0]
    for p in parts[1:]:
        out += rng.choice([" + ", " - "]) + p
    return out


def random_term(rng, chart, depth):
    return "*".join(
        random_factor(rng, chart, depth) for _ in range(rng.randint(1, 3)))


def random_factor(rng, chart, depth):
    atom = random_atom(rng, chart, depth)
    if rng.random() < 0.3:
        return f"{atom}^{rng.randint(0, 3)}"
    return atom


def random_atom(rng, chart, depth):
    r = rng.random()
    if depth < 2 and r < 0.2:
        return "(" + random_expression(rng, chart, depth + 1) + ")"
    if r < 0.35:
        return "-" + random_atom(rng, chart, depth)
    if r < 0.6:
        num = rng.randint(0, 9)
        if rng.random() < 0.5:
            return f"{num}/{rng.randint(1, 9)}"
        return str(num)
    return rng.choice(chart.names)


def test_criterion_9_cli_round_trip(tmp_path, capsys):
    chart = standard_chart(j_order=4, base_order=6)
    rng = random.Random(1009)
    with Stopwatch(30.0, "9 (CLI round trip and exit codes)"):
        for _ in range(100):
            text = random_expression(rng, chart)
            value = parse_expression(text, chart)
            printed = str(value)
            again = parse_expression(printed, chart)
            assert again == value
            assert str(again) == printed

        # exit-code contract on the three driver examples
        ok_problem = {
            "n": 2,
            "truncation": {"j_order": 4, "base_order": 6},
            "coordinates": [
                {"name": "x", "degree": [0, 0]},
                {"name": "t1", "degree": [0, 1]},
            ],
            "fields": [
                {"name": "X", "coefficients": {"x": "1"}},
                {"name": "T", "coefficients": {"t1": "1"}},
            ],
            "task": "involutive",
        }
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(ok_problem))
        assert main(["--input", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["involutive"] is True

        bad_problem = {
            "n": 1,
            "truncation": {"j_order": 2, "base_order": 4},
            "coordinates": [
                {"name": "x", "degree": [0]},
                {"name": "y", "degree": [0]},
                {"name": "z", "degree": [0]},
            ],
            "fields": [
                {"name": "X", "coefficients": {"x": "1", "z": "y"}},
                {"name": "Y", "coefficients": {"y": "1"}},
            ],
            "task": "frobenius",
        }
        path2 = tmp_path / "bad.json"
        path2.write_text(json.dumps(bad_problem))
        assert main(["--input", str(path2)]) == 1
        report2 = json.loads(capsys.readouterr().out)
        assert report2["error_kind"] == "NotInvolutive"
        assert report2["witness"]["pair"] == [0, 1]

        path3 = tmp_path / "malformed.json"
        path3.write_text("{this is not json")
        assert main(["--input", str(path3)]) == 2
        capsys.readouterr()


def test_a_large_certificate_verifies_fast(tmp_path, capsys):
    # the field (1+y) d/dx + (1+x+y+z+w)^7 d/dy + xyz d/dz + ew d/de at
    # j2/b8: the loader checks the stored inverse by one substitution, so
    # --verify takes a fraction of the solve that emitted the certificate
    problem = {
        "n": 1,
        "truncation": {"j_order": 2, "base_order": 8},
        "coordinates": [{"name": name, "degree": [int(name == "e")]}
                        for name in ("x", "y", "z", "w", "e")],
        "fields": [{"name": "X", "coefficients": {
            "x": "1+y", "y": "(1+x+y+z+w)^7", "z": "x*y*z", "e": "e*w"}}],
        "task": "frobenius",
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main(["--input", str(path)]) == 0
    certificate = tmp_path / "certificate.json"
    certificate.write_text(capsys.readouterr().out)
    with Stopwatch(5.0, "item 2 (--verify of a b8 certificate)"):
        assert main(["--input", str(path), "--verify", str(certificate)]) == 0
        report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True and report["inverse_consistent"] is True
