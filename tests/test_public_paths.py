"""Pins for public paths that no other test reaches: the printed forms of
fields, changes and matrices, series hashing, and the refusals of empty or
malformed input."""

import pytest

from helpers import field_of, series_of, standard_chart
from znfrob import (
    ChartSpec,
    CoordinateChange,
    DegenerateAtPoint,
    DimensionError,
    GradedMatrix,
    VectorField,
    commuting_triangular,
    rational_inverse,
    reduce_series,
)


@pytest.fixture
def chart():
    return standard_chart(j_order=3, base_order=6)


def test_printed_forms_pinned(chart):
    X = field_of(chart, (0, 0), {"x": "1 + x", "e": "t1*t2",
                                 "t1": "-1/2*x*t1"})
    assert str(X) == "(1 + x)*d/dx + (-1/2*x*t1)*d/dt1 + (t1*t2)*d/de"
    assert repr(X) == f"VectorField({X})"
    assert repr(VectorField(chart, chart.zero_degree, {})) == "VectorField(0)"
    change = CoordinateChange.make(chart, chart, {
        "x": series_of(chart, "x + x^2"), "t1": series_of(chart, "t1"),
        "t2": series_of(chart, "t2 - x*t2"),
        "e": series_of(chart, "e + t1*t2")})
    assert repr(change) == (
        "CoordinateChange(x -> x + x^2, t1 -> t1, t2 -> t2 - x*t2, "
        "e -> e + t1*t2)")
    zero = chart.zero_degree
    matrix = GradedMatrix(chart, (zero, zero), (zero, zero), [
        [series_of(chart, "1 + x"), chart.zero()],
        [series_of(chart, "t1*t2"), chart.one()]])
    assert repr(matrix) == "GradedMatrix[1 + x, 0; t1*t2, 1]"


def test_series_hash_agrees_with_equality(chart):
    f = series_of(chart, "x + 2*e^2 - t1*t2")
    g = series_of(chart, "-t1*t2 + 2*e^2 + x")
    assert list(f.terms) != list(g.terms)
    assert f == g and hash(f) == hash(g)
    assert len({f, g}) == 1


def test_empty_and_malformed_input_is_refused(chart):
    with pytest.raises(DegenerateAtPoint):
        commuting_triangular([])
    with pytest.raises(ValueError, match="bogus"):
        reduce_series(chart.one(), "bogus")
    for rows in ([[1, 2]], [[1], [2]], [[1, 0], [0]]):
        with pytest.raises(DimensionError):
            rational_inverse(rows)


@pytest.mark.parametrize("n, coords, orders", [
    (0, [], {}),
    (1, [("x", (0,))], {"j_order": 0}),
    (1, [("x", (0,))], {"base_order": 0}),
    (2, [("x", (0, 0)), ("t", (1,))], {}),
    (1, [("x", (0,)), ("e", (1,))], {"j_order": 2.5, "base_order": True}),
    (1, [("x", (0,))], {"j_order": 2.5}),
    (1, [("x", (0,))], {"base_order": True}),
    (True, [("x", (0,))], {}),
    (1.0, [("x", (0,))], {}),
])
def test_chart_refuses_bad_dimensions(n, coords, orders):
    with pytest.raises(DimensionError):
        ChartSpec.build(n, coords, **orders)
