"""Expression parser, problem files, and the command-line driver.

Grammar (rationals only, no general division)::

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' nat)?
    atom     := rational | identifier | '(' expr ')' | '-' atom
    rational := integer ('/' positive-integer)?

Parsing evaluates directly in the chart ring, so Koszul normalization and
truncation happen on the fly; terms pushed past the truncation window are
dropped and reported as warnings.

Exit codes: 0 success (or a true answer), 1 mathematically negative answer
or solver precondition failure (see ``error_kind`` in the report),
2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .distribution import Distribution, is_involutive, rank_of
from .errors import (
    CenteringError,
    ExpressionSyntaxError,
    HomogeneityError,
    OutputTooLarge,
    ProblemFormatError,
    UnknownCoordinateError,
    ZnError,
)
from .fields import CoordinateChange, VectorField, bracket
from .frobenius import (
    FrobeniusCertificate,
    _straighten,
    adapted_coordinates,
    verify_adapted,
)
from .grading import DegreeVector
from .series import (ChartSpec, Coefficient, GradedSeries, _accumulate,
                     _fold, _is_int, _product, collect_truncation_drops)


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

# a token is a tuple (kind, text, offset): kind is "int", "ident", the
# operator character itself, or "end" for the one token after the last
_Token = tuple[str, str, int]


def _line_col(src: str, offset: int) -> tuple[int, int]:
    line = src.count("\n", 0, offset) + 1
    last_nl = src.rfind("\n", 0, offset)
    column = offset - (last_nl + 1)
    return line, column


def _syntax_error(src: str, offset: int, message: str) -> ExpressionSyntaxError:
    line, column = _line_col(src, offset)
    return ExpressionSyntaxError(f"{message} at offset {offset}",
                                 offset, line, column)


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        start = i
        if c.isdigit():
            i += 1
            while i < n and src[i].isdigit():
                i += 1
            tokens.append(("int", src[start:i], start))
        elif c.isalpha() or c == "_":
            i += 1
            while i < n and (src[i].isalnum() or src[i] == "_"):
                i += 1
            tokens.append(("ident", src[start:i], start))
        elif c in "+-*^/()":
            tokens.append((c, c, i))
            i += 1
        else:
            raise _syntax_error(src, i, f"unexpected character {c!r}")
    tokens.append(("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# recursive-descent parser, evaluating straight into the chart ring
# ---------------------------------------------------------------------------

# each '(' costs six Python frames (expr, term, _fold, factors, factor,
# atom) and each unary '-' one: the deepest accepted input of any shape
# needs about 610 frames, inside the default recursion limit of 1000
_MAX_NESTING = 100


def _max_digits() -> float:
    """Python's limit on the digits of an int it prints (0 means none)."""
    return sys.get_int_max_str_digits() or math.inf


def _printable(value: Coefficient) -> bool:
    big = max(abs(value.numerator), value.denominator)
    limit = _max_digits()
    # up to 3 bits per allowed digit needs no exact comparison
    return big.bit_length() <= 3 * limit or big < 10 ** limit


class _Parser:
    """An atom or factor is a coefficient, a pair ``(i, k)`` for the k-th
    power of coordinate i, or a series.  A term is the rows of the
    ``series._fold`` of its factors, so the parser works out no sign and no
    product; a unary minus on a non-number is one ``series._product``.  An
    expression, in parentheses too, sums its terms in one map; only a power
    of a series takes series arithmetic."""

    def __init__(self, src: str, chart: ChartSpec):
        self.src = src
        self.chart = chart
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> ExpressionSyntaxError:
        return _syntax_error(self.src, self.peek()[2], message)

    def parse(self) -> GradedSeries:
        value = self.expr()
        kind, text, _ = self.peek()
        if kind != "end":
            raise self.error(f"unexpected token {text!r}")
        if not all(map(_printable, value.terms.values())):
            raise self.error("coefficient too large to print")
        return value

    def integer(self) -> int:
        _, text, offset = self.next()
        try:
            return int(text)
        except ValueError:  # a digit int() refuses, or too many digits
            raise _syntax_error(self.src, offset,
                                f"unreadable integer {text[:20]!r}") from None

    def expr(self) -> GradedSeries:
        parts = [(1, self.term())]
        while self.peek()[0] in ("+", "-"):
            scale = 1 if self.next()[0] == "+" else -1
            parts.append((scale, self.term()))
        return _accumulate(self.chart, parts)

    def term(self) -> list[tuple]:
        return _fold(self.chart, self.factors())[0]

    def factors(self):
        # a generator, so that each factor is parsed, and notes its drops,
        # after the product of the factors before it
        yield self.factor()
        while self.peek()[0] == "*":
            self.next()
            yield self.factor()

    def factor(self):
        value = self.atom()
        if self.peek()[0] != "^":
            return value
        self.next()
        exp = self.peek()
        if exp[0] != "int":
            raise self.error("expected a natural number after '^'")
        exponent = self.integer()
        if type(value) is tuple:
            return (value[0], exponent) if exponent else 1
        # the constant term of a power is the power of the constant term,
        # so a huge one is refused before it is computed
        c = value.constant_term if isinstance(value, GradedSeries) else value
        if abs(c) not in (0, 1) and exponent * math.log10(
                max(abs(c.numerator), c.denominator)) >= _max_digits():
            raise _syntax_error(self.src, exp[2],
                                "coefficient too large to print")
        return value ** exponent

    def atom(self):
        kind, text, offset = self.peek()
        if kind == "end":
            raise self.error("unexpected end of expression")
        if kind in ("-", "("):
            # a failed parse discards the parser, so no unwinding on errors
            if self.depth == _MAX_NESTING:
                raise self.error(
                    f"expression nested deeper than {_MAX_NESTING} levels")
            self.depth += 1
            self.next()
            if kind == "-":
                value = self.atom()
                value = (-value if isinstance(value, (int, Fraction))
                         else _product(self.chart, (-1, value)))
            else:
                value = self.expr()
                if self.peek()[0] != ")":
                    raise self.error("expected ')'")
                self.next()
            self.depth -= 1
            return value
        if kind == "int":
            numerator = self.integer()
            if self.peek()[0] == "/":
                self.next()
                den = self.peek()
                if den[0] != "int":
                    raise self.error("expected a positive integer denominator")
                denominator = self.integer()
                if denominator == 0:
                    raise _syntax_error(self.src, den[2],
                                        "denominator must be positive")
                return Fraction(numerator, denominator)
            return numerator
        if kind == "ident":
            self.next()
            try:
                return self.chart.index(text), 1
            except UnknownCoordinateError:
                raise _syntax_error(
                    self.src, offset,
                    f"unknown identifier {text!r}") from None
        raise self.error(f"unexpected token {text!r}")


def parse_expression(src: str, chart: ChartSpec,
                     warnings: Optional[list[str]] = None) -> GradedSeries:
    """Parse an expression into a canonical series on the chart.

    Terms beyond the truncation window are dropped; a note per dropped
    monomial is appended to ``warnings`` when a list is supplied.
    """
    with collect_truncation_drops() as drops:
        parser = _Parser(src, chart)
        try:
            value = parser.parse()
        except RecursionError:
            raise parser.error("expression nested too deeply for the "
                               "caller's stack") from None
    if not all(_printable(coeff) for _, coeff in drops):
        raise _syntax_error(src, len(src), "dropped coefficient too large to print")
    if warnings is not None:
        for mon, coeff in drops:
            warnings.append(
                f"dropped {coeff}*{mon.label(chart)}: beyond truncation "
                f"(j_order={chart.j_order}, base_order={chart.base_order})")
    return value


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

@dataclass
class ProblemSpec:
    chart: ChartSpec
    fields: dict[str, VectorField]      # in file order
    task: str
    args: dict
    warnings: list[str] = field(default_factory=list)


def _require(data: dict, key: str, kind, where: str):
    if key not in data:
        raise ProblemFormatError(f"missing {key!r} in {where}")
    value = data[key]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise ProblemFormatError(f"{where}.{key} has the wrong type")
    return value


def _parse_bits(data, n: int, where: str) -> tuple[int, ...]:
    if (not isinstance(data, list) or len(data) != n
            or not all(_is_int(b) and b in (0, 1) for b in data)):
        raise ProblemFormatError(
            f"{where} must be a list of {n} bits")
    return tuple(data)


def load_problem(data: dict,
                 task_override: Optional[str] = None,
                 j_order: Optional[int] = None,
                 base_order: Optional[int] = None) -> ProblemSpec:
    if not isinstance(data, dict):
        raise ProblemFormatError("problem must be a JSON object")
    n = _require(data, "n", int, "problem")
    trunc = data.get("truncation", {})
    if not isinstance(trunc, dict):
        raise ProblemFormatError("problem.truncation must be an object")
    j = j_order if j_order is not None else trunc.get("j_order", 4)
    b = base_order if base_order is not None else trunc.get("base_order", 6)
    try:  # the chart's own rules refuse n and the orders before any degree
        ChartSpec(n, (), j, b)
    except ZnError as exc:
        raise ProblemFormatError(str(exc)) from exc

    coords_data = _require(data, "coordinates", list, "problem")
    coords = []
    for i, c in enumerate(coords_data):
        where = f"coordinates[{i}]"
        if not isinstance(c, dict):
            raise ProblemFormatError(f"{where} must be an object")
        name = _require(c, "name", str, where)
        if not name.isidentifier():
            raise ProblemFormatError(f"{where}.name is not a valid identifier")
        coords.append((name, _parse_bits(_require(c, "degree", list, where),
                                         n, f"{where}.degree")))
    try:  # the degrees are built here too
        chart = ChartSpec.build(n, coords, j_order=j, base_order=b)
    except ZnError as exc:
        raise ProblemFormatError(str(exc)) from exc

    warnings: list[str] = []
    fields: dict[str, VectorField] = {}
    fields_data = data.get("fields", [])
    if not isinstance(fields_data, list):
        raise ProblemFormatError("problem.fields must be a list")
    for i, f in enumerate(fields_data):
        where = f"fields[{i}]"
        if not isinstance(f, dict):
            raise ProblemFormatError(f"{where} must be an object")
        name = _require(f, "name", str, where)
        if name in fields:
            raise ProblemFormatError(f"duplicate field name {name!r}")
        coeffs_data = _require(f, "coefficients", dict, where)
        coeffs: dict[str, GradedSeries] = {}
        for coord, expr in coeffs_data.items():
            if coord not in chart.names:
                raise ProblemFormatError(
                    f"{where} refers to unknown coordinate {coord!r}")
            if not isinstance(expr, str):
                raise ProblemFormatError(f"{where}.coefficients must map to strings")
            series = parse_expression(expr, chart, warnings)
            if not series.is_zero:
                coeffs[coord] = series
        if "degree" in f:
            degree = DegreeVector(_parse_bits(f["degree"], n, f"{where}.degree"))
        else:
            degree = _infer_field_degree(chart, coeffs, where)
        try:
            fields[name] = VectorField(chart, degree, coeffs)
        except ZnError as exc:
            raise ProblemFormatError(f"{where}: {exc}") from exc

    task = task_override if task_override is not None else data.get("task")
    if task not in TASKS:
        raise ProblemFormatError(
            f"task must be one of {', '.join(TASKS)}; got {task!r}")
    args = data.get("args", {})
    if not isinstance(args, dict):
        raise ProblemFormatError("problem.args must be an object")
    return ProblemSpec(chart=chart, fields=fields, task=task, args=args,
                       warnings=warnings)


def _infer_field_degree(chart: ChartSpec, coeffs: dict[str, GradedSeries],
                        where: str) -> DegreeVector:
    for coord, series in coeffs.items():
        if series.degree is None:
            raise ProblemFormatError(
                f"{where}: coefficient on {coord!r} is inhomogeneous; "
                "declare the field degree explicitly")
        return series.degree + chart.degree_of(coord)
    raise ProblemFormatError(
        f"{where}: zero field needs an explicit degree")


def _distribution(spec: ProblemSpec) -> Distribution:
    """The distribution of the fields that ``args.generators`` names, or of
    every field."""
    names = spec.args.get("generators", list(spec.fields))
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise ProblemFormatError("args.generators must be a list of field names")
    out = []
    for name in names:
        if name not in spec.fields:
            raise ProblemFormatError(f"unknown field {name!r} in args.generators")
        out.append(spec.fields[name])
    return Distribution(spec.chart, out)


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def _witness_json(result) -> dict:
    """The report of an `is_involutive` refusal, whose obstruction is a
    refused membership."""
    obstruction = result.obstruction
    coordinate = obstruction.obstruction_coordinate
    return {
        "pair": list(result.witness_pair),
        "bracket": result.witness_bracket.to_json_dict(),
        "obstruction": {
            "coordinate": coordinate,
            "order": obstruction.residual_order,
            "residual": obstruction.residual.coefficient(
                coordinate).to_json_map(),
        },
    }


def _run_bracket(spec: ProblemSpec) -> tuple[dict, int]:
    names = spec.args.get("fields")
    if names is None:
        names = list(spec.fields)[:2]
    if (not isinstance(names, list) or len(names) != 2 or not all(
            isinstance(n, str) and n in spec.fields for n in names)):
        raise ProblemFormatError("bracket needs args.fields = [left, right]")
    result = bracket(spec.fields[names[0]], spec.fields[names[1]])
    return {"task": "bracket", "result": result.to_json_dict()}, 0


def _run_rank(spec: ProblemSpec) -> tuple[dict, int]:
    return {"task": "rank", "rank": rank_of(_distribution(spec)).to_json()}, 0


def _run_involutive(spec: ProblemSpec) -> tuple[dict, int]:
    result = is_involutive(_distribution(spec))
    report: dict = {"task": "involutive", "involutive": result.involutive}
    if result.involutive:
        return report, 0
    report["witness"] = _witness_json(result)
    return report, 1


def _run_straighten(spec: ProblemSpec) -> tuple[dict, int]:
    name = spec.args.get("field")
    if name is None and len(spec.fields) == 1:
        (name,) = spec.fields
    if not isinstance(name, str) or name not in spec.fields:
        raise ProblemFormatError("straighten needs args.field")
    _, change, (pivot,) = _straighten(spec.chart, [spec.fields[name]], [0])
    report = {"task": "straighten", "field": name, "pivot": pivot}
    report.update(change.to_json_dict())
    return report, 0


def _run_frobenius(spec: ProblemSpec) -> tuple[dict, int]:
    cert = adapted_coordinates(_distribution(spec))
    report = {"task": "frobenius", "verified": True}
    report.update(cert.to_json_dict())
    return report, 0


def _load_certificate(spec: ProblemSpec, path: str
                      ) -> tuple[FrobeniusCertificate, bool]:
    """Rebuild a certificate from its JSON form.

    Only the forward images φ are trusted, and nothing is inverted: the
    stored inverse ψ must give ``φ∘ψ = id`` on the certified window
    (``CoordinateChange._from_both``), or verification fails rather than
    the parse.  Syntactic problems stay format errors.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: an undecodable file, bad JSON, or a path open() refuses
        raise ProblemFormatError(f"cannot read certificate {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ProblemFormatError("certificate must be a JSON object")
    chart = spec.chart
    adapted = _require(data, "adapted", list, "certificate")
    if not all(isinstance(n, str) and n in chart.names for n in adapted):
        raise ProblemFormatError("certificate lists unknown adapted coordinates")
    maps = []
    for key in ("change", "inverse"):
        exprs = _require(data, key, dict, "certificate")
        if not all(isinstance(expr, str) for expr in exprs.values()):
            raise ProblemFormatError(f"certificate.{key} must map to strings")
        maps.append({n: parse_expression(e, chart) for n, e in exprs.items()})
    try:
        change, inverse_ok = CoordinateChange._from_both(chart, *maps)
    except (UnknownCoordinateError, CenteringError, HomogeneityError) as exc:
        # a map that is not a graded coordinate change is malformed input
        raise ProblemFormatError(f"certificate.change: {exc}") from exc
    residuals = data.get("residuals", {})
    if not (isinstance(residuals, dict) and all(
            k.isascii() and k.isdecimal() and _is_int(v)
            for k, v in residuals.items())):
        raise ProblemFormatError(
            "certificate.residuals must map generator indices to integers")
    residuals = tuple((int(k), v) for k, v in residuals.items())
    cert = FrobeniusCertificate(change=change, adapted=tuple(adapted),
                                residuals=residuals, steps=())
    return cert, inverse_ok


def _run_verify(spec: ProblemSpec) -> tuple[dict, int]:
    path = spec.args.get("certificate")
    if not isinstance(path, str):
        raise ProblemFormatError("verify needs args.certificate = <path>")
    cert, inverse_ok = _load_certificate(spec, path)
    report = verify_adapted(_distribution(spec), cert)
    body = {"task": "verify"}
    body.update(report.to_json_dict())
    body["inverse_consistent"] = inverse_ok
    # the stored residual orders must be the ones the check finds
    residuals_ok = sorted(cert.residuals) == list(report.residual_entries())
    body["ok"] = report.ok and inverse_ok and residuals_ok
    return body, 0 if body["ok"] else 1


def _error_report(spec: ProblemSpec, exc: ZnError) -> dict:
    report = {"task": spec.task, "error_kind": exc.kind, "error": str(exc)}
    witness = getattr(exc, "witness", None)
    if witness is not None:
        report["witness"] = _witness_json(witness)
    return report


def _handlers() -> dict:
    """Each task's runner, read from the module when the task runs."""
    return {
        "bracket": _run_bracket,
        "rank": _run_rank,
        "involutive": _run_involutive,
        "straighten": _run_straighten,
        "frobenius": _run_frobenius,
        "verify": _run_verify,
    }


TASKS = tuple(_handlers())


def run(spec: ProblemSpec) -> tuple[dict, int]:
    """Execute the task; returns the JSON report and the exit code."""
    try:
        try:
            report, code = _handlers()[spec.task](spec)
        except (ProblemFormatError, ExpressionSyntaxError):
            raise
        except ZnError as exc:
            report, code = _error_report(spec, exc), 1
    except ValueError as exc:
        # every input coefficient is printable, but an exact answer can
        # outgrow Python's limit on the digits of a printed int
        if "integer string conversion" not in str(exc):
            raise
        report, code = _error_report(spec, OutputTooLarge(
            f"the answer has a number of more than {_max_digits()} digits")), 1
    if spec.warnings:
        report["warnings"] = list(spec.warnings)
    return report, code


# ---------------------------------------------------------------------------
# CLI driver
# ---------------------------------------------------------------------------

def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="znfrob",
        description="Graded-chart kernel: brackets, ranks, involutivity, "
                    "straightening, and certificate verification.")
    parser.add_argument("--input", required=True,
                        help="problem JSON file ('-' for stdin)")
    parser.add_argument("--task", choices=TASKS,
                        help="override the task in the problem file")
    parser.add_argument("--j-order", type=int, dest="j_order",
                        help="override the J-adic truncation order")
    parser.add_argument("--base-order", type=int, dest="base_order",
                        help="override the base truncation order")
    parser.add_argument("--verify", metavar="CERTIFICATE",
                        help="re-check an emitted certificate "
                             "(sets task=verify)")
    opts = parser.parse_args(argv)

    try:
        if opts.input == "-":
            text = sys.stdin.read()
        else:
            with open(opts.input, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 text
        print(json.dumps({"error_kind": "IOError", "error": str(exc)}))
        return 2

    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        print(json.dumps({"error_kind": "JSONError", "error": str(exc)}))
        return 2

    task_override = opts.task
    try:
        spec = load_problem(data, task_override=task_override,
                            j_order=opts.j_order, base_order=opts.base_order)
        if opts.verify is not None:
            spec.task = "verify"
            spec.args = dict(spec.args)
            spec.args["certificate"] = opts.verify
        report, code = run(spec)
    except (ProblemFormatError, ExpressionSyntaxError) as exc:
        print(json.dumps({"error_kind": exc.kind, "error": str(exc)}))
        return 2
    print(json.dumps(report, indent=2))
    return code
