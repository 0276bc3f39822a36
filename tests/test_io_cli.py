import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import random_series, reference_parse, standard_chart
import znfrob
import znfrob.series
from znfrob import (
    ExpressionSyntaxError,
    ProblemFormatError,
    load_problem,
    parse_expression,
    run,
)
from znfrob.io_cli import _MAX_NESTING, main


@pytest.fixture
def chart():
    return standard_chart(j_order=4, base_order=6)


# -- parser ---------------------------------------------------------------------

def test_parse_examples(chart):
    f = parse_expression("2*x + x^2", chart)
    assert str(f) == "2*x + x^2"
    assert parse_expression("t1*t1", chart).is_zero
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression("x^", chart)
    assert exc.value.offset == 2
    assert exc.value.line == 1


def test_parse_unknown_identifier(chart):
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x + nope", chart)


def test_parse_rationals_and_unary_minus(chart):
    assert parse_expression("3/2", chart) == chart.constant("3/2")
    assert parse_expression("--x", chart) == chart.coordinate("x")
    assert parse_expression("-(x - 1)", chart) == 1 - chart.coordinate("x")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("1/0", chart)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x/2", chart)


def test_parse_power_and_parens(chart):
    f = parse_expression("(1 - x)^2", chart)
    assert str(f) == "1 - 2*x + x^2"
    assert parse_expression("x^0", chart) == chart.one()
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x^-1", chart)


def test_parse_overflow_warns(chart):
    warnings = []
    f = parse_expression("x^7 + x", chart, warnings)
    assert f == chart.coordinate("x")
    assert len(warnings) == 1 and "x^7" in warnings[0]


@pytest.mark.parametrize("src, value, dropped", [
    # recorded before products of atoms were folded into one series: a
    # coordinate power notes only its first power past the window, with
    # coefficient 1, even when a factor before it is zero or is a number
    ("3*x^7*t1 + x", "x", ["1*x^7"]),
    ("x^3*x^4", "0", ["1*x^7"]),
    ("0*e^1000000*t1", "0", ["1*e^5"]),
    ("t1^2*x", "0", []),
    ("t1^0", "1", []),
    ("-x^7*e + x^7", "0", ["-1*x^7", "1*x^7"]),
    ("1/2*e^2*3*e^3", "0", ["3/2*e^5"]),
    ("x^6*x*(e^4*e)", "0", ["1*x^7", "1*e^5"]),
    ("(x^3 + x^2 - x^3 + x^3)*x^5", "0", ["1*x^7", "1*x^8"]),
])
def test_power_drop_notes_in_products_pinned(chart, src, value, dropped):
    warnings = []
    assert str(parse_expression(src, chart, warnings)) == value
    assert warnings == [f"dropped {d}: beyond truncation (j_order=4, "
                        "base_order=6)" for d in dropped]


def test_parse_builds_one_series_per_term(chart, monkeypatch):
    # with no parentheses, each term is one product and the sum one more
    src = ("-1/2*e^2 + 3*x^2*t1*t2 - x*t1*t2*e + 7 + 2/3*x^4*e^2*x"
           " - t1*t1 + x^9*e")
    want = reference_parse(src, chart)
    built = 0
    real_fill = znfrob.series.GradedSeries._fill

    def counted_fill(self, *args):
        nonlocal built
        built += 1
        return real_fill(self, *args)

    monkeypatch.setattr(znfrob.series.GradedSeries, "_fill", counted_fill)
    assert parse_expression(src, chart) == want
    assert built <= 7 + 1


def test_monomial_terms_multiply_nothing(chart, monkeypatch):
    # a term of numbers and coordinate powers inside the window is read off
    # as one monomial: no row product, odd factors out of order and a
    # repeated factor included
    src = ("t2*t1 - e*t2*t1 + 3*t2*e*t1 + x*x^2 - 2/3*e*t1*x + e*t1"
           " + 7 - x^2*e^2*1/2*t2 + t1*x*t2*x^3")
    want = reference_parse(src, chart)
    assert reference_parse("e*t1", chart) == -chart.monomial({"t1": 1, "e": 1})
    products = 0
    real = znfrob.series._multiply_rows

    def counted(*args):
        nonlocal products
        products += 1
        return real(*args)

    monkeypatch.setattr(znfrob.series, "_multiply_rows", counted)
    got = parse_expression(src, chart)
    assert products == 0 and got == want


def test_round_trip_fixpoint(chart):
    rng = random.Random(79)
    for _ in range(40):
        f = random_series(rng, chart, terms=rng.randint(0, 5))
        printed = str(f)
        again = parse_expression(printed, chart)
        assert again == f
        assert str(again) == printed


# -- problem files ----------------------------------------------------------------

def problem_dict(task="involutive", fields=None, args=None):
    return {
        "n": 2,
        "truncation": {"j_order": 4, "base_order": 6},
        "coordinates": [
            {"name": "x", "degree": [0, 0]},
            {"name": "y", "degree": [0, 0]},
            {"name": "z", "degree": [0, 0]},
            {"name": "t1", "degree": [0, 1]},
            {"name": "e", "degree": [1, 1]},
        ],
        "fields": fields if fields is not None else [
            {"name": "X", "coefficients": {"x": "1"}},
            {"name": "T", "coefficients": {"t1": "1"}},
        ],
        "task": task,
        "args": args or {},
    }


def test_involutive_task_contract():
    spec = load_problem(problem_dict())
    report, code = run(spec)
    assert report["involutive"] is True and code == 0


def test_frobenius_not_involutive_contract():
    data = problem_dict(task="frobenius", fields=[
        {"name": "X", "coefficients": {"x": "1", "z": "y"}},
        {"name": "Y", "coefficients": {"y": "1"}},
    ])
    report, code = run(load_problem(data))
    assert code == 1
    assert report["error_kind"] == "NotInvolutive"
    assert report["witness"]["pair"] == [0, 1]


def test_bracket_task():
    data = problem_dict(task="bracket", fields=[
        {"name": "A", "coefficients": {"t1": "1"}},
        {"name": "B", "coefficients": {"x": "t1"}},
    ], args={"fields": ["A", "B"]})
    report, code = run(load_problem(data))
    assert code == 0
    assert report["result"]["coefficients"] == {"x": "1"}


def test_rank_task():
    report, code = run(load_problem(problem_dict(task="rank")))
    assert code == 0
    assert report["rank"] == {"00": 1, "01": 1}


def test_straighten_task():
    data = problem_dict(task="straighten", fields=[
        {"name": "X", "coefficients": {"x": "1", "e": "e"}},
    ], args={"field": "X"})
    report, code = run(load_problem(data))
    assert code == 0
    assert report["pivot"] == "x"
    assert report["change"]["y"] == "y"


def test_straighten_task_nonzero_degree():
    data = problem_dict(task="straighten", fields=[
        {"name": "C", "coefficients": {"t1": "1 + x"}},
    ], args={"field": "C"})
    report, code = run(load_problem(data))
    assert code == 0
    assert report["pivot"] == "t1"
    assert report["change"]["t1"].startswith("t1 - x*t1")


def test_rank_task_dependent_generators_exit_one():
    data = problem_dict(task="rank", fields=[
        {"name": "A", "coefficients": {"x": "1"}},
        {"name": "B", "coefficients": {"x": "3"}},
    ])
    report, code = run(load_problem(data))
    assert code == 1
    assert report["error_kind"] == "DependentAtPoint"


def test_involutive_witness_residual_serialization():
    data = problem_dict(task="involutive", fields=[
        {"name": "X", "coefficients": {"x": "1", "z": "y"}},
        {"name": "Y", "coefficients": {"y": "1"}},
    ])
    report, code = run(load_problem(data))
    assert code == 1 and report["involutive"] is False
    obstruction = report["witness"]["obstruction"]
    assert obstruction["coordinate"] == "z"
    assert obstruction["residual"] == {"1": "-1"}


def test_field_degree_inference_and_errors():
    data = problem_dict()
    data["fields"][0]["coefficients"] = {"x": "1 + e"}
    with pytest.raises(ProblemFormatError):
        load_problem(data)
    data2 = problem_dict()
    data2["fields"][0]["coefficients"] = {}
    with pytest.raises(ProblemFormatError):
        load_problem(data2)
    data3 = problem_dict()
    data3["fields"][0]["degree"] = [0, 1]
    with pytest.raises(ProblemFormatError):
        load_problem(data3)


def test_schema_errors():
    with pytest.raises(ProblemFormatError):
        load_problem({"n": 2})
    bad = problem_dict()
    bad["task"] = "nope"
    with pytest.raises(ProblemFormatError):
        load_problem(bad)
    dup = problem_dict()
    dup["coordinates"].append({"name": "x", "degree": [0, 0]})
    with pytest.raises(ProblemFormatError):
        load_problem(dup)


@pytest.mark.parametrize("key", ["n", "j_order", "base_order"])
def test_bool_is_not_an_integer(key):
    # JSON true would otherwise load as the valid integer 1
    data = {"n": 1, "truncation": {"j_order": 1, "base_order": 1},
            "coordinates": [{"name": "x", "degree": [0]}], "task": "rank"}
    load_problem(data)
    target = data if key == "n" else data["truncation"]
    target[key] = True
    with pytest.raises(ProblemFormatError):
        load_problem(data)


def test_truncation_override():
    spec = load_problem(problem_dict(), j_order=2, base_order=3)
    assert spec.chart.j_order == 2 and spec.chart.base_order == 3


# -- CLI driver ---------------------------------------------------------------------

def write_problem(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_main_involutive(tmp_path, capsys):
    path = write_problem(tmp_path, problem_dict())
    code = main(["--input", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["involutive"] is True


def test_main_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["--input", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error_kind"] == "JSONError"


def test_main_missing_file(capsys):
    code = main(["--input", "/nonexistent/problem.json"])
    assert code == 2


def test_main_task_override_and_verify_round_trip(tmp_path, capsys):
    data = problem_dict(task="frobenius", fields=[
        {"name": "X", "coefficients": {"x": "1", "t1": "x*t1"}},
    ])
    path = write_problem(tmp_path, data)
    code = main(["--input", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["verified"] is True
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps({
        "adapted": report["adapted"],
        "change": report["change"],
        "inverse": report["inverse"],
        "residuals": report["residuals"],
    }))
    code = main(["--input", path, "--verify", str(cert_path)])
    verify_report = json.loads(capsys.readouterr().out)
    assert code == 0 and verify_report["ok"] is True
    # breaking the certificate flips the verdict
    broken = json.loads(cert_path.read_text())
    broken["change"]["t1"] = "t1 + x*t1"
    bad_path = tmp_path / "broken.json"
    bad_path.write_text(json.dumps(broken))
    code = main(["--input", path, "--verify", str(bad_path)])
    bad_report = json.loads(capsys.readouterr().out)
    assert code == 1 and bad_report["ok"] is False


def test_verify_rejects_doctored_inverse(tmp_path, capsys):
    data = problem_dict(task="frobenius", fields=[
        {"name": "X", "coefficients": {"x": "1", "t1": "x*t1"}},
    ])
    path = write_problem(tmp_path, data)
    main(["--input", path])
    report = json.loads(capsys.readouterr().out)
    cert = {k: report[k] for k in ("adapted", "change", "inverse", "residuals")}
    cert["inverse"]["t1"] = "t1 + x*t1"
    cert_path = tmp_path / "doctored.json"
    cert_path.write_text(json.dumps(cert))
    code = main(["--input", path, "--verify", str(cert_path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["ok"] is False
    assert out["inverse_consistent"] is False


# a certificate of a field whose straightening has a nonlinear inverse, on
# the chart x, y, t1, e at j3/b3; each edit gives the stored verdict
STRAIGHT = {"x": "1 + y", "t1": "x*t1", "e": "y*e"}
T1_INVERSE = "t1 + 1/2*x^2*t1 - 1/2*x^2*y*t1"
CERTIFICATE_EDITS = {
    "valid": ({}, True),
    "tampered_inverse": ({"inverse": {"t1": T1_INVERSE + " + x*t1"}}, False),
    "tampered_images": ({"change": {"e": "e - x*y*e + x*y^2*e + x*e"}}, False),
    "singular": ({"change": {"x": "x^2"}}, "JacobianSingular"),
    "constant_term": ({"inverse": {"y": "y + 1"}}, False),
    "wrong_degree_on_the_boundary": (
        {"inverse": {"t1": T1_INVERSE + " + x^3"}}, True),
    "wrong_degree_inside": ({"inverse": {"t1": T1_INVERSE + " + x*y"}}, False),
    "missing_name": ({"inverse": {"e": None}}, False),
    "extra_name": ({"inverse": {"w": "x"}}, False),
}


@pytest.mark.parametrize("case", sorted(CERTIFICATE_EDITS))
def test_verify_inverts_nothing(tmp_path, capsys, monkeypatch, case):
    # the loader checks the stored inverse by substituting it into the
    # images once: with the inversion refused, --verify prints the bytes
    # it prints without the refusal
    import znfrob.fields
    data = problem_dict(task="frobenius", fields=[
        {"name": "X", "coefficients": STRAIGHT}])
    data["coordinates"] = [c for c in data["coordinates"] if c["name"] != "z"]
    data["truncation"] = {"j_order": 3, "base_order": 3}
    path = write_problem(tmp_path, data)
    assert main(["--input", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inverse"]["t1"] == T1_INVERSE
    cert = {k: report[k] for k in ("adapted", "change", "inverse", "residuals")}
    edit, verdict = CERTIFICATE_EDITS[case]
    for key, images in edit.items():
        for name, text in images.items():
            if text is None:
                del cert[key][name]
            else:
                cert[key][name] = text
    cert_path = write_problem(tmp_path, cert, name="cert.json")
    code = main(["--input", path, "--verify", cert_path])
    printed = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("the certificate loader inverted a change")

    monkeypatch.setattr(znfrob.fields, "_invert_map", refuse)
    monkeypatch.setattr(znfrob.CoordinateChange, "make", classmethod(refuse))
    assert main(["--input", path, "--verify", cert_path]) == code
    assert capsys.readouterr().out == printed
    out = json.loads(printed)
    if isinstance(verdict, str):
        assert code == 1 and out["error_kind"] == verdict
    else:
        assert out["inverse_consistent"] is verdict
        assert code == (0 if verdict else 1) and out["ok"] is verdict


def test_main_parse_error_in_field(tmp_path, capsys):
    data = problem_dict()
    data["fields"][0]["coefficients"]["x"] = "1 +"
    path = write_problem(tmp_path, data)
    code = main(["--input", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error_kind"] == "ExpressionSyntaxError"


def test_main_zero_times_huge_power_is_fast(tmp_path, capsys):
    # e is even, so e^N only vanishes by truncation; powering must stop there
    data = problem_dict(task="frobenius", fields=[
        {"name": "X", "coefficients": {"x": "1 + 0*e^1000000", "e": "t1*t2"}},
    ])
    data["coordinates"].append({"name": "t2", "degree": [1, 0]})
    path = write_problem(tmp_path, data)
    start = time.perf_counter()
    code = main(["--input", path])
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["verified"] is True
    assert report["warnings"] == [
        "dropped 1*e^5: beyond truncation (j_order=4, base_order=6)"]
    assert elapsed < 2.0


def _verify_with_residuals(tmp_path, capsys, residuals):
    data = problem_dict(task="frobenius", fields=[
        {"name": "X", "coefficients": {"x": "1", "t1": "x*t1"}},
    ])
    path = write_problem(tmp_path, data)
    main(["--input", path])
    report = json.loads(capsys.readouterr().out)
    cert = {k: report[k] for k in ("adapted", "change", "inverse")}
    cert["residuals"] = residuals
    cert_path = write_problem(tmp_path, cert, name="cert.json")
    code = main(["--input", path, "--verify", cert_path])
    return code, json.loads(capsys.readouterr().out)


def test_main_certificate_residuals_non_index_key(tmp_path, capsys):
    code, out = _verify_with_residuals(tmp_path, capsys, {"a": 1})
    assert code == 2 and out["error_kind"] == "ProblemFormatError"


def test_main_certificate_residuals_not_an_object(tmp_path, capsys):
    code, out = _verify_with_residuals(tmp_path, capsys, [1])
    assert code == 2 and out["error_kind"] == "ProblemFormatError"


@pytest.mark.parametrize("residuals", [
    {"99999999999999999999": 1}, {"0": -5}, {"0": 10 ** 4000},
], ids=["huge_index", "negative_order", "huge_order"])
def test_main_verify_rejects_residuals_it_does_not_find(tmp_path, capsys,
                                                        residuals):
    code, out = _verify_with_residuals(tmp_path, capsys, residuals)
    assert code == 1 and out["ok"] is False
    # the change itself is sound: only the stored residual map is wrong
    assert out["residuals"] == {} and out["inverse_consistent"] is True


def test_main_verify_checks_nonempty_residuals(tmp_path, capsys):
    # y^6 sits on the base-order boundary, so the certificate is clean in
    # the window but records a leftover of order 6 on generator 0
    data = problem_dict(task="frobenius", fields=[
        {"name": "X", "coefficients": {"x": "1", "y": "y^6"}},
    ])
    path = write_problem(tmp_path, data)
    main(["--input", path])
    report = json.loads(capsys.readouterr().out)
    assert report["residuals"] == {"0": 6}
    cert = {k: report[k] for k in ("adapted", "change", "inverse", "residuals")}
    for residuals, code in [({"0": 6}, 0), ({"0": 5}, 1), ({}, 1),
                            ({"0": 6, "1": 6}, 1)]:
        cert["residuals"] = residuals
        cert_path = write_problem(tmp_path, cert, name="cert.json")
        assert main(["--input", path, "--verify", cert_path]) == code
        assert json.loads(capsys.readouterr().out)["ok"] is (code == 0)


@pytest.mark.parametrize("expr", ["(" * 5000 + "x" + ")" * 5000,
                                  "-" * 5000 + "x"],
                         ids=["parentheses", "unary_minus"])
def test_main_deep_nesting_is_a_syntax_error(tmp_path, capsys, expr):
    data = problem_dict()
    data["fields"][0]["coefficients"]["x"] = expr
    code = main(["--input", write_problem(tmp_path, data)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error_kind"] == "ExpressionSyntaxError"


@pytest.mark.parametrize("headroom", [40, 100, 300])
def test_deep_caller_gets_a_syntax_error(chart, headroom):
    # the deepest accepted nesting needs about 610 frames below the caller
    src = "(" * _MAX_NESTING + "x" + ")" * _MAX_NESTING

    def depth():
        frame, frames = sys._getframe(), 0
        while frame is not None:
            frame, frames = frame.f_back, frames + 1
        return frames

    def call_at(frames):
        if frames > 0:
            return call_at(frames - 1)
        return parse_expression(src, chart)

    with pytest.raises(ExpressionSyntaxError,
                       match="nested too deeply for the caller's stack"):
        call_at(sys.getrecursionlimit() - headroom - depth())
    assert znfrob.series._DROP_SINK.get() is None


def _parse_with_headroom(src, chart, headroom):
    """`parse_expression` called with ``headroom`` frames left below the
    recursion limit."""
    def call_at(frames):
        if frames > 0:
            return call_at(frames - 1)
        return parse_expression(src, chart)

    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return call_at(sys.getrecursionlimit() - headroom - depth)


@pytest.mark.parametrize("shape", ["parentheses", "product", "sum-product",
                                   "power"])
def test_deepest_accepted_nesting_parses_with_650_frames_left(chart, shape):
    # each '(' costs six frames (expr, term, _fold, factors, factor, atom),
    # so the deepest accepted input of every shape needs about 610
    n = _MAX_NESTING
    x = chart.coordinate("x")
    src, want = {
        "parentheses": ("(" * n + "x" + ")" * n, x),
        "product": ("x*(" * n + "x" + ")" * n, chart.zero()),
        "sum-product": ("(x+1)*(" * n + "x" + ")" * n, (1 + x) ** n * x),
        "power": ("(" * n + "x" + ")^2" * n, chart.zero()),
    }[shape]
    assert _parse_with_headroom(src, chart, 650) == want
    with pytest.raises(ExpressionSyntaxError, match="nested deeper than"):
        parse_expression("(" + src + ")", chart)


@pytest.mark.parametrize("expr", [
    "(" * _MAX_NESTING + "1 + x" + ")" * _MAX_NESTING,
    "(-" * (_MAX_NESTING // 2) + "1 + x" + ")" * (_MAX_NESTING // 2)],
    ids=["parentheses", "mixed"])
def test_main_deepest_accepted_nesting_is_parsed(tmp_path, capsys, expr):
    data = problem_dict()
    data["fields"][0]["coefficients"]["x"] = expr
    code = main(["--input", write_problem(tmp_path, data)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["involutive"] is True


@pytest.mark.parametrize("cert", [
    5,
    "adapted change inverse",
    {"adapted": [], "change": {"x": 1}, "inverse": {}},
    {"adapted": [], "change": {}, "inverse": {"x": None}},
], ids=["number", "string", "change_value", "inverse_value"])
def test_main_malformed_certificate(tmp_path, capsys, cert):
    path = write_problem(tmp_path, problem_dict())
    cert_path = write_problem(tmp_path, cert, name="cert.json")
    code = main(["--input", path, "--verify", cert_path])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error_kind"] == "ProblemFormatError"


def test_main_huge_power_with_constant_term_is_fast(tmp_path, capsys):
    data = problem_dict(task="frobenius", fields=[
        {"name": "X", "coefficients": {"x": "(1+x)^1000000"}},
    ])
    path = write_problem(tmp_path, data)
    start = time.perf_counter()
    code = main(["--input", path])
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["verified"] is True
    assert elapsed < 2.0


@pytest.mark.parametrize("expr", ["(2+x)^20000", "2^10000*2^10000",
                                  "1" + "0" * 5000, "x^²"],
                         ids=["power", "product", "literal", "superscript"])
def test_main_unprintable_coefficient_is_a_syntax_error(tmp_path, capsys, expr):
    data = problem_dict(task="frobenius", fields=[
        {"name": "X", "coefficients": {"x": expr}},
    ])
    code = main(["--input", write_problem(tmp_path, data)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error_kind"] == "ExpressionSyntaxError"


def test_main_deeply_nested_problem_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code = main(["--input", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error_kind"] == "JSONError"


def test_main_deeply_nested_certificate_json(tmp_path, capsys):
    path = write_problem(tmp_path, problem_dict())
    cert_path = tmp_path / "cert.json"
    cert_path.write_text("[" * 100000)
    code = main(["--input", path, "--verify", str(cert_path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error_kind"] == "ProblemFormatError"


@pytest.mark.parametrize("edit, code, kind", [
    ({"w": "x"}, 2, "ProblemFormatError"),
    ({"e": None}, 2, "ProblemFormatError"),
    ({"x": "1 + x"}, 2, "ProblemFormatError"),
    ({"x": "x + t1"}, 2, "ProblemFormatError"),
    ({"x": "x^2"}, 1, "JacobianSingular"),
], ids=["extra_key", "missing_coordinate", "uncentered", "inhomogeneous",
        "singular"])
def test_main_verify_rejects_bad_change_map(tmp_path, capsys, edit, code, kind):
    path = write_problem(tmp_path, problem_dict())
    change = {name: name for name in ("x", "y", "z", "t1", "e")}
    change.update(edit)
    change = {k: v for k, v in change.items() if v is not None}
    cert = {"adapted": ["x", "t1"], "change": change, "inverse": dict(change)}
    cert_path = write_problem(tmp_path, cert, name="cert.json")
    assert main(["--input", path, "--verify", cert_path]) == code
    out = json.loads(capsys.readouterr().out)
    assert out["error_kind"] == kind


@pytest.mark.parametrize("task,fields", [
    ("bracket", [{"name": "A", "coefficients": {"x": "2^14000*x"}},
                 {"name": "B", "coefficients": {"x": "2^14000*x^2"}}]),
    ("frobenius", [{"name": "A",
                    "coefficients": {"x": "1", "t1": "2^14000*x*t1"}}]),
], ids=["bracket", "frobenius"])
def test_main_answer_too_large_to_print(tmp_path, capsys, task, fields):
    # each input coefficient prints, but the answer's coefficients do not
    data = problem_dict(task=task, fields=fields)
    code = main(["--input", write_problem(tmp_path, data)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["error_kind"] == "OutputTooLarge"
    assert out["task"] == task


def test_main_dropped_coefficient_too_large_to_print(tmp_path, capsys):
    # the drop warning would have to print 2^28000
    data = problem_dict(task="rank", fields=[
        {"name": "X", "coefficients": {"x": "1 + (2^4000*x)^7"}}])
    code = main(["--input", write_problem(tmp_path, data)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error_kind"] == "ExpressionSyntaxError"


def test_run_lets_other_value_errors_through(monkeypatch):
    import znfrob.io_cli

    def broken(spec):
        raise ValueError("not about printing")

    monkeypatch.setattr(znfrob.io_cli, "_run_rank", broken)
    with pytest.raises(ValueError, match="not about printing"):
        run(load_problem(problem_dict(task="rank")))


def _capped_address_space():
    # a regression would allocate one label per truncation order: let it
    # fail at 512 MiB instead of taking the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.parametrize("task, key, value", [
    ("frobenius", "verified", True), ("straighten", "pivot", "x")])
def test_main_huge_j_order_is_fast_in_bounded_memory(tmp_path, task, key,
                                                     value):
    data = problem_dict(task=task, fields=[
        {"name": "X", "coefficients": {"x": "1", "t1": "x*t1", "e": "y*e"}},
    ], args={"field": "X"})
    data["truncation"]["j_order"] = 10 ** 12
    env = dict(os.environ, PYTHONPATH=str(Path(znfrob.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "znfrob",
         "--input", write_problem(tmp_path, data)],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_capped_address_space)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr[-400:]
    assert json.loads(proc.stdout)[key] == value
    assert elapsed < 2.0


@pytest.mark.parametrize("names", [[[1], "X"], [{"a": 1}, "X"], ["X", None]])
def test_main_bracket_non_string_field_name(tmp_path, capsys, names):
    # an unhashable name used to reach the field lookup and raise TypeError
    data = problem_dict(task="bracket", args={"fields": names})
    code = main(["--input", write_problem(tmp_path, data)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error_kind"] == "ProblemFormatError"


@pytest.mark.parametrize("bit", [False, True, 0.0, 1.0])
@pytest.mark.parametrize("where", ["coordinate", "field"])
def test_degree_bits_must_be_integers(where, bit):
    # JSON false/true and 0.0/1.0 compare equal to the bits 0 and 1
    data = problem_dict(fields=[
        {"name": "X", "degree": [0, 0], "coefficients": {"x": "1"}}])
    load_problem(data)
    owner = data["coordinates"][1] if where == "coordinate" else data["fields"][0]
    owner["degree"] = [bit, 0]
    with pytest.raises(ProblemFormatError, match="bits"):
        load_problem(data)


def test_main_refuses_a_chart_of_no_bits(tmp_path, capsys):
    # an empty degree is a list of n = 0 bits, and building it used to
    # raise DimensionError out of main
    data = {"n": 0, "coordinates": [{"name": "x", "degree": []}],
            "task": "rank"}
    code = main(["--input", write_problem(tmp_path, data)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error_kind"] == "ProblemFormatError"


def test_main_names_a_negative_n_as_such(tmp_path, capsys):
    # the degree length used to be checked against n first, so a negative
    # n was reported as a list of -1 bits
    data = {"n": -1, "coordinates": [{"name": "x", "degree": [0]}],
            "task": "rank"}
    code = main(["--input", write_problem(tmp_path, data)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error_kind"] == "ProblemFormatError"
    assert out["error"] == "chart needs an integer n >= 1"

@pytest.mark.parametrize("value", [None, 3, "X", {"name": "X"}])
def test_main_fields_must_be_a_list(tmp_path, capsys, value):
    data = problem_dict(task="rank")
    data["fields"] = value
    code = main(["--input", write_problem(tmp_path, data)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error_kind"] == "ProblemFormatError"


@pytest.mark.parametrize("certificate", [
    "nul\0byte", "lone\ud800surrogate", "binary"],
    ids=["nul-byte", "surrogate", "binary"])
def test_main_unreadable_certificate_path(tmp_path, capsys, certificate):
    # open() refuses the first two paths with ValueError, and the third
    # file is not UTF-8 text
    (tmp_path / "binary").write_bytes(b"\xff\xfe\x00")
    if certificate == "binary":
        certificate = str(tmp_path / "binary")
    data = problem_dict(task="verify", args={"certificate": certificate})
    code = main(["--input", write_problem(tmp_path, data)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error_kind"] == "ProblemFormatError"


def test_main_input_not_utf8(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_bytes(b"{\"n\": \xff}")
    code = main(["--input", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error_kind"] == "IOError"


STRAIGHTEN_REPORTS = {
    "even-zero": (
        {"x": "1 + y", "t1": "y*t1", "e": "x*e"},
        {"task": "straighten", "field": "F", "pivot": "x",
         "change": {"x": "x - x*y + x*y^2", "y": "y", "z": "z",
                    "t1": "t1 - x*y*t1 + x*y^2*t1",
                    "e": "e - 1/2*x^2*e + 1/2*x^2*y*e"},
         "inverse": {"x": "x + x*y", "y": "y", "z": "z", "t1": "t1 + x*y*t1",
                     "e": "e + 1/2*x^2*e + 1/2*x^2*y*e"},
         "truncation_loss": {"base": True, "j": False}}),
    "even-nonzero": (
        {"e": "1 + x", "t1": "x*t1*e", "x": "y*e"},
        {"task": "straighten", "field": "F", "pivot": "e",
         "change": {"x": "x - 1/2*y*e^2 + 1/2*x*y*e^2 - 1/2*x^2*y*e^2",
                    "y": "y", "z": "z", "t1": "t1",
                    "e": "e - x*e + x^2*e - x^3*e"},
         "inverse": {"x": "x + 1/2*y*e^2 + 1/2*x*y*e^2", "y": "y", "z": "z",
                     "t1": "t1", "e": "e + x*e"},
         "truncation_loss": {"base": False, "j": False}}),
    "odd": (
        {"t1": "1 + x + x*y"},
        {"task": "straighten", "field": "F", "pivot": "t1",
         "change": {"x": "x", "y": "y", "z": "z",
                    "t1": "t1 - x*t1 - x*y*t1 + x^2*t1 + 2*x^2*y*t1 - x^3*t1",
                    "e": "e"},
         "inverse": {"x": "x", "y": "y", "z": "z", "t1": "t1 + x*t1 + x*y*t1",
                     "e": "e"},
         "truncation_loss": {"base": False, "j": False}}),
}


@pytest.mark.parametrize("kind", sorted(STRAIGHTEN_REPORTS))
def test_main_straighten_report_pinned(tmp_path, capsys, kind):
    coefficients, expected = STRAIGHTEN_REPORTS[kind]
    data = problem_dict(task="straighten", fields=[
        {"name": "F", "coefficients": coefficients}])
    data["truncation"] = {"j_order": 2, "base_order": 3}
    code = main(["--input", write_problem(tmp_path, data)])
    assert code == 0
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def _field(coefficients):
    return {"name": "X", "coefficients": coefficients}


def _bad_coordinate_name():
    data = problem_dict()
    data["coordinates"][0]["name"] = "1x"
    return data


INPUT_FAULTS = {
    "not-an-object": ([problem_dict()], "ProblemFormatError",
                      "problem must be a JSON object"),
    "bad-coordinate-name": (_bad_coordinate_name(), "ProblemFormatError",
                            "coordinates[0].name is not a valid identifier"),
    "field-not-an-object": (problem_dict(fields=["X"]), "ProblemFormatError",
                            "fields[0] must be an object"),
    "duplicate-field": (
        problem_dict(fields=[_field({"x": "1"}), _field({"y": "1"})]),
        "ProblemFormatError", "duplicate field name 'X'"),
    "unknown-coordinate": (
        problem_dict(fields=[_field({"q": "1"})]),
        "ProblemFormatError", "fields[0] refers to unknown coordinate 'q'"),
    "unknown-generator": (
        problem_dict(task="rank", args={"generators": ["Q"]}),
        "ProblemFormatError", "unknown field 'Q' in args.generators"),
    # two fields and no args.field
    "straighten-without-field": (problem_dict(task="straighten"),
                                 "ProblemFormatError",
                                 "straighten needs args.field"),
    "verify-without-certificate": (problem_dict(task="verify"),
                                   "ProblemFormatError",
                                   "verify needs args.certificate = <path>"),
    "variable-denominator": (
        problem_dict(fields=[_field({"x": "1/x"})]),
        "ExpressionSyntaxError", "expected a positive integer denominator "
                                 "at offset 2 (line 1, column 2)"),
}

@pytest.mark.parametrize("case", sorted(INPUT_FAULTS))
def test_main_reports_input_faults(tmp_path, capsys, case):
    data, kind, message = INPUT_FAULTS[case]
    code = main(["--input", write_problem(tmp_path, data)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out == {"error_kind": kind, "error": message}


def test_python_dash_m_runs_the_cli_quietly(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(znfrob.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "znfrob",
         "--input", write_problem(tmp_path, problem_dict())],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["involutive"] is True


def test_main_reads_the_problem_from_stdin(monkeypatch, capsys):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(problem_dict())))
    code = main(["--input", "-"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["involutive"] is True
