"""Fuzzed problem files, run through `io_cli.main`: fuzzed expression
text, and a fuzzed JSON structure with values of the wrong type.

Whatever the file says, a run ends in exit code 0, 1 or 2 with exactly
one JSON object on stdout, within a time the small truncation orders
bound.  The examples are derandomized, so the run is repeatable.
"""

import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_parse
from znfrob import ChartSpec, ZnError, parse_expression
from znfrob.io_cli import main

COORDINATES = [("x", [0, 0]), ("y", [0, 0]), ("t1", [0, 1]), ("t2", [1, 0]),
               ("e", [1, 1])]
NAMES = [name for name, _ in COORDINATES]
TASKS = ["bracket", "rank", "involutive", "straighten", "frobenius"]


def _series(names, numbers, exponents):
    atoms = st.one_of(st.sampled_from(names), numbers)
    return st.recursive(atoms, lambda inner: st.one_of(
        st.builds("{} {} {}".format, inner, st.sampled_from("+-*"), inner),
        st.builds("({})^{}".format, inner, st.sampled_from(exponents)),
        st.builds("({})".format, inner),
        st.builds("-{}".format, inner),
    ), max_leaves=8)


def _rationals(low):
    return st.one_of(
        st.integers(low, 10 ** 6).map(str),
        st.builds("{}/{}".format, st.integers(low, 99), st.integers(low, 9)))


# series in the base coordinates alone are homogeneous of degree zero, so
# fields built from them reach the solver, not only the parser; the noise
# also has unknown names, zero denominators and huge powers
_base = _series(["x", "y"], _rationals(1), [0, 1, 2, 3, 7])
_mixed = _series(NAMES + ["w"], _rationals(0), [0, 1, 2, 3, 7, 10 ** 6])
_soup = st.text(alphabet="xyte12 0^*+-/().", max_size=24)


@st.composite
def coefficients(draw):
    """One field, homogeneous of the degree of a lead coordinate: its
    coefficient on the lead is one plus a base series, and its coefficient
    on another coordinate has the degree of the lead times that one."""
    lead = draw(st.sampled_from(NAMES))
    out = {name: draw(_base.map(f"({{}})*{lead}*{name}".format))
           for name in draw(st.lists(st.sampled_from(NAMES), max_size=2))}
    out[lead] = draw(_base.map("1 + {}".format))
    return out


@st.composite
def problems(draw):
    fields = draw(st.lists(coefficients(), min_size=2, max_size=3))
    # at most one coefficient is mixed or token soup, so that most problems
    # get past the parser
    noise = draw(st.one_of(st.none(), _mixed, _soup))
    if noise is not None:
        where = draw(st.sampled_from(fields))
        where[draw(st.sampled_from(NAMES))] = noise
    task = draw(st.sampled_from(TASKS))
    return {
        "n": 2,
        "truncation": {"j_order": draw(st.integers(1, 3)),
                       "base_order": draw(st.integers(1, 4))},
        "coordinates": [{"name": n, "degree": d} for n, d in COORDINATES],
        "fields": [{"name": f"F{i}", "coefficients": c}
                   for i, c in enumerate(fields)],
        "task": task,
        "args": {"field": "F0"} if task == "straighten" else {},
    }


def test_fuzzed_expressions_end_in_one_json_report(tmp_path):
    path = tmp_path / "problem.json"

    @settings(max_examples=150, derandomize=True, deadline=None,
              database=None)
    @given(problem=problems())
    def check(problem):
        path.write_text(json.dumps(problem))
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(["--input", str(path)])
        elapsed = time.perf_counter() - start
        assert code in (0, 1, 2)
        assert isinstance(json.loads(out.getvalue()), dict)
        assert elapsed < 2.0, problem

    check()


# -- the parser against series arithmetic ---------------------------------------

def _outcome(parse, src, chart):
    """What a parse gives: the terms, both loss flags and the warnings in
    order, or the refusal's type, message and offset."""
    warnings = []
    try:
        value = parse(src, chart, warnings)
    except ZnError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    return value.terms, value.base_loss, value.j_loss, warnings


def test_parser_matches_series_arithmetic_reference():
    @settings(max_examples=400, derandomize=True, deadline=None,
              database=None)
    @given(src=st.one_of(_base, _mixed, _soup), j_order=st.integers(1, 3),
           base_order=st.integers(1, 4))
    def check(src, j_order, base_order):
        chart = ChartSpec.build(2, COORDINATES, j_order, base_order)
        assert (_outcome(parse_expression, src, chart)
                == _outcome(reference_parse, src, chart)), src

    check()


@pytest.mark.parametrize("src", [
    "2\u00b2", "x\u00b2", "x^\u00b2", "\u00bd", "x\u00bd*x", "3\u00bd",
    "\u0663*x", "x^\u0663", "x\u00a0+\u00a0t1", "\u00a0", "_x", "x_2 + 1",
])
def test_parser_matches_reference_on_unicode_text(src):
    # str.isdigit / isalnum and re's \d / \w differ on these characters
    chart = ChartSpec.build(2, COORDINATES + [("x\u00bd", [0, 0])], 4, 6)
    assert (_outcome(parse_expression, src, chart)
            == _outcome(reference_parse, src, chart))


# -- problem-JSON structure ---------------------------------------------------

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(
        max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)

FIELDS = [
    {"name": "A", "coefficients": {"x": "1 + y", "t1": "x*t1"}},
    {"name": "B", "degree": [0, 1], "coefficients": {"t1": "1", "e": "t2"}},
    {"name": "C", "coefficients": {"y": "1 + x^2"}},
]
ARGS = {
    "bracket": {"fields": ["A", "B"]},
    "rank": {"generators": ["A", "B"]},
    "involutive": {"generators": ["A", "C"]},
    "straighten": {"field": "A"},
    "frobenius": {"generators": ["A", "B", "C"]},
    "verify": {"generators": ["A"], "certificate": "certificate.json"},
}
MUTABLE = ("args", "fields", "coordinates", "truncation")


def _paths(value, path):
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, inner in items:
        yield from _paths(inner, path + (key,))


@st.composite
def mutated_problems(draw):
    """A valid problem of a drawn task with one or two values under
    ``args``, ``fields``, ``coordinates`` or ``truncation`` replaced by JSON
    of another type."""
    task = draw(st.sampled_from(sorted(ARGS)))
    problem = json.loads(json.dumps({
        "n": 2,
        "truncation": {"j_order": 2, "base_order": 3},
        "coordinates": [{"name": n, "degree": d} for n, d in COORDINATES],
        "fields": FIELDS,
        "task": task,
        "args": ARGS[task],
    }))
    for _ in range(draw(st.integers(1, 2))):
        paths = [p for key in MUTABLE for p in _paths(problem[key], (key,))]
        *parents, last = draw(st.sampled_from(paths))
        owner = problem
        for key in parents:
            owner = owner[key]
        old = owner[last]
        owner[last] = draw(_json.filter(lambda v: type(v) is not type(old)))
    return problem


def test_fuzzed_problem_structure_ends_in_one_json_report(tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    source = tmp_path / "problem.json"
    source.write_text(json.dumps({
        "n": 2, "truncation": {"j_order": 2, "base_order": 3},
        "coordinates": [{"name": n, "degree": d} for n, d in COORDINATES],
        "fields": FIELDS[:1], "task": "frobenius"}))
    with contextlib.redirect_stdout(io.StringIO()) as certificate:
        assert main(["--input", str(source)]) == 0
    (tmp_path / "certificate.json").write_text(certificate.getvalue())
    path = tmp_path / "mutated.json"

    @settings(max_examples=200, derandomize=True, deadline=None,
              database=None)
    @given(problem=mutated_problems())
    def check(problem):
        path.write_text(json.dumps(problem))
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(["--input", str(path)])
        elapsed = time.perf_counter() - start
        assert code in (0, 1, 2)
        assert isinstance(json.loads(out.getvalue()), dict)
        assert elapsed < 2.0, problem

    check()


# -- certificate JSON -----------------------------------------------------------

CERTIFICATE_KEYS = ("adapted", "change", "inverse", "residuals")


@st.composite
def mutated_certificates(draw, certificate):
    """A valid certificate with one or two values under ``adapted``,
    ``change``, ``inverse`` or ``residuals`` replaced by JSON of another
    type or by a fuzzed expression."""
    certificate = json.loads(json.dumps(certificate))
    for _ in range(draw(st.integers(1, 2))):
        paths = [p for key in CERTIFICATE_KEYS
                 for p in _paths(certificate[key], (key,))]
        *parents, last = draw(st.sampled_from(paths))
        owner = certificate
        for key in parents:
            owner = owner[key]
        old = owner[last]
        owner[last] = draw(st.one_of(
            _json.filter(lambda v: type(v) is not type(old)), _mixed))
    return certificate


def test_fuzzed_certificate_ends_in_one_json_report(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "n": 2, "truncation": {"j_order": 2, "base_order": 3},
        "coordinates": [{"name": n, "degree": d} for n, d in COORDINATES],
        "fields": FIELDS[:1], "task": "frobenius"}))
    with contextlib.redirect_stdout(io.StringIO()) as report:
        assert main(["--input", str(problem)]) == 0
    certificate = json.loads(report.getvalue())
    assert certificate["change"] and certificate["inverse"]
    path = tmp_path / "certificate.json"

    @settings(max_examples=200, derandomize=True, deadline=None,
              database=None)
    @given(mutated=mutated_certificates(certificate))
    def check(mutated):
        path.write_text(json.dumps(mutated))
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(["--input", str(problem), "--verify", str(path)])
        elapsed = time.perf_counter() - start
        assert code in (0, 1, 2)
        assert isinstance(json.loads(out.getvalue()), dict)
        assert elapsed < 2.0, mutated

    check()
