"""Every module-level import in the package is used (``__init__`` only
re-exports, so it is exempt), and every private module-level function or
class is referenced somewhere in the package."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "znfrob"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == [
        "line 1: os", "line 2: b"]


def dead_private_helpers(source: str, package_sources: list[str]) -> list[str]:
    """Private module-level functions and classes of ``source`` that no name
    or attribute in ``package_sources`` refers to, outside their own
    definition."""
    defined = [node.name for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")]
    used = set()
    for text in package_sources:
        for top in ast.parse(text).body:
            names = {node.id for node in ast.walk(top)
                     if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(top)
                      if isinstance(node, ast.Attribute)}
            names.discard(getattr(top, "name", None))
            used |= names
    return sorted(name for name in defined if name not in used)


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py")))
def test_no_dead_private_helpers(module):
    package = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")]
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert dead_private_helpers(source, package) == []


def test_dead_private_helper_is_caught():
    source = ("def _recursive(n):\n    return _recursive(n - 1)\n"
              "def _called(): pass\n"
              "class _Gone: pass\n"
              "def public(): return _called()\n")
    assert dead_private_helpers(source, [source]) == ["_Gone", "_recursive"]
    other = "import m\nm._recursive(3)\n"
    assert dead_private_helpers(source, [source, other]) == ["_Gone"]


REPO = PACKAGE.parent.parent


def dead_methods(sources: list[str], referencing: list[str]) -> list[str]:
    """``Class.method`` for every non-dunder method or property defined in
    ``sources`` whose name no attribute in ``referencing`` uses."""
    used = {node.attr for text in referencing
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute)}
    return sorted(
        f"{cls.name}.{node.name}"
        for text in sources
        for cls in ast.walk(ast.parse(text)) if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used)


def test_no_dead_methods():
    package = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")]
    referencing = package + [
        p.read_text(encoding="utf-8")
        for p in [*(REPO / "tests").glob("*.py"),
                  *(REPO / "perfbench").glob("*.py")]]
    assert dead_methods(package, referencing) == []


def test_dead_method_is_caught():
    source = ("class A:\n"
              "    def __len__(self): return self.used()\n"
              "    def used(self): return self._helper()\n"
              "    def _helper(self): return 1\n"
              "    @property\n"
              "    def gone(self): return 2\n"
              "    @classmethod\n"
              "    def unused(cls): return cls\n")
    assert dead_methods([source], [source]) == ["A.gone", "A.unused"]
    assert dead_methods([source], [source, "x.gone\n"]) == ["A.unused"]


# true divisions whose operands are Fractions by construction, so they
# cannot make a float: module -> the division as ``ast.unparse`` prints it;
# none at present
FRACTION_DIVISIONS: dict[str, set[str]] = {}


def float_divisions(source: str, allowed=frozenset()) -> list[str]:
    """True divisions (``/``, ``/=``) with no ``Fraction(...)`` call as an
    operand: on two ints such a division silently makes a float."""
    def is_fraction(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Fraction")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            operands = (node.target, node.value)
        else:
            continue
        text = ast.unparse(node)
        if not any(map(is_fraction, operands)) and text not in allowed:
            found.append((node.lineno, text))
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py")))
def test_no_float_division(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert float_divisions(source, FRACTION_DIVISIONS.get(module, set())) == []


def test_float_division_is_caught():
    source = ("c = coeff / (e + 1)\n"
              "c = Fraction(coeff) / (e + 1)\n"
              "c = coeff / Fraction(2)\n"
              "c /= 3\n"
              "c = x / scale\n"
              "c = n // 2\n")
    assert float_divisions(source) == [
        "line 1: coeff / (e + 1)", "line 4: c /= 3", "line 5: x / scale"]
    assert float_divisions(source, {"x / scale"}) == [
        "line 1: coeff / (e + 1)", "line 4: c /= 3"]


# the series slots that cache term rows and hold truncation loss: only
# series.py keeps them in step with the terms, so no other module reads or
# writes them
SERIES_SLOTS = ("_rows", "_loss")


def row_cache_accesses(source: str) -> list[str]:
    """Attribute reads or writes of a private series slot, and the slot's
    name as a string (``getattr``/``setattr``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in SERIES_SLOTS:
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Constant) and node.value in SERIES_SLOTS:
            found.append((node.lineno, repr(node.value)))
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name != "series.py"))
def test_row_cache_stays_in_series(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert row_cache_accesses(source) == []


def test_row_cache_access_is_caught():
    source = ("rows = f._rows\n"
              "out._rows = rows\n"
              "setattr(g, '_rows', None)\n"
              "rows = f._term_rows()\n"
              "other = f.rows\n")
    assert row_cache_accesses(source) == [
        "line 1: f._rows", "line 2: out._rows", "line 3: '_rows'"]
    assert row_cache_accesses((PACKAGE / "series.py").read_text(
        encoding="utf-8"))


def test_loss_slot_access_is_caught():
    source = ("loss = f._loss | g._loss\n"
              "getattr(s, '_loss')\n"
              "flag = f.base_loss\n")
    assert row_cache_accesses(source) == [
        "line 1: f._loss", "line 1: g._loss", "line 2: '_loss'"]


# the functions that check a substitution map where it enters the kernel:
# every other substitution runs on a map one of these has checked, or on
# one its builder makes valid, so a re-check there is only repeated work;
# `_from_both` reads a stored certificate's change
IMAGE_CHECKERS = {
    "series.py": {(None, "compose")},
    "fields.py": {("CoordinateChange", "make"),
                  ("CoordinateChange", "_from_both")},
}


def image_checks(source: str, allowed=frozenset(),
                 name="check_images") -> list[str]:
    """References to ``name`` (a call, an alias or an attribute) outside
    the ``(class, function)`` scopes in ``allowed``."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.ClassDef):
            scope = (node.name, None)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (scope[0], node.name)
        named = ((isinstance(node, ast.Name) and node.id == name)
                 or (isinstance(node, ast.Attribute) and node.attr == name))
        if named and scope not in allowed:
            found.append((node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), (None, None))
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py")))
def test_image_maps_are_checked_where_they_enter(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert image_checks(source, IMAGE_CHECKERS.get(module, frozenset())) == []


def test_image_check_is_caught():
    source = ("def compose(f, images, chart):\n"
              "    check_images(images, f.chart, chart)\n"
              "def _substitution(images, keyed, chart):\n"
              "    check_images(images, keyed, chart)\n"
              "    def substitute(f):\n"
              "        series.check_images(images, keyed, chart)\n"
              "class CoordinateChange:\n"
              "    def make(cls, source, target, images):\n"
              "        check = check_images\n"
              "    def then(self, nxt):\n"
              "        check_images(nxt.images, nxt.target, nxt.source)\n")
    assert image_checks(source, {(None, "compose"),
                                 ("CoordinateChange", "make")}) == [
        "line 4: check_images", "line 6: series.check_images",
        "line 11: check_images"]
    assert image_checks(source) == [
        "line 2: check_images", "line 4: check_images",
        "line 6: series.check_images", "line 9: check_images",
        "line 11: check_images"]


# the functions that multiply term rows: a sum of products, a chain of
# powers and a fold of factors; every other product, `multiply` included,
# goes through one of them, so the kernel keeps one loop per algorithm
ROW_MULTIPLIERS = {(None, "_accumulate"), (None, "_extend"), (None, "_fold")}


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py")))
def test_rows_are_multiplied_by_the_one_loop(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    allowed = ROW_MULTIPLIERS if module == "series.py" else frozenset()
    assert image_checks(source, allowed, "_multiply_rows") == []


def test_row_multiplication_is_caught():
    source = ("def _fold(chart, factors, power):\n"
              "    return _multiply_rows(rows, got, chart)\n"
              "def multiply(f, g):\n"
              "    return _multiply_rows(f, g, chart)\n"
              "def _power_rows(chart, power, powers):\n"
              "    return _multiply_rows(got, base, chart)\n"
              "def _substitution(images, keyed, chart):\n"
              "    def term(mon, coeff):\n"
              "        step = series._multiply_rows\n"
              "class GradedSeries:\n"
              "    def __pow__(self, k):\n"
              "        check_images(images, keyed, chart)\n")
    assert image_checks(source, ROW_MULTIPLIERS, "_multiply_rows") == [
        "line 4: _multiply_rows", "line 6: _multiply_rows",
        "line 9: series._multiply_rows"]
    assert image_checks(source, name="_multiply_rows") == [
        "line 2: _multiply_rows", "line 4: _multiply_rows",
        "line 6: _multiply_rows", "line 9: series._multiply_rows"]


# the row caches: a coordinate's row and a series' rows are worked out from
# terms once, where they are cached; every other row, a coordinate power
# included, is a product of cached rows
ROW_BUILDERS = {("ChartSpec", "_coordinate_rows"),
                ("GradedSeries", "_term_rows")}


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py")))
def test_rows_are_built_only_by_the_row_caches(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    allowed = ROW_BUILDERS if module == "series.py" else frozenset()
    assert image_checks(source, allowed, "_rows_of") == []


def test_row_building_is_caught():
    source = ("class ChartSpec:\n"
              "    def _coordinate_rows(self):\n"
              "        return tuple(_rows_of(self, units))\n"
              "class GradedSeries:\n"
              "    def _term_rows(self):\n"
              "        self._rows = _rows_of(self.chart, self.terms.items())\n"
              "    def __pow__(self, k):\n"
              "        rows = _rows_of(self.chart, ((mon, 1),))\n"
              "def _fold(chart, factors):\n"
              "    got = series._rows_of(chart, ((Monomial(exps), 1),))\n")
    assert image_checks(source, ROW_BUILDERS, "_rows_of") == [
        "line 8: _rows_of", "line 10: series._rows_of"]
    assert image_checks(source, name="_rows_of") == [
        "line 3: _rows_of", "line 6: _rows_of", "line 8: _rows_of",
        "line 10: series._rows_of"]


# the builder keeps the coefficient map its producer made, since every
# producer leaves out zeros and makes its coefficients canonical: a loop or
# comprehension in the builder would copy every kernel result once more
BUILDERS = {("GradedSeries", "_fill"), (None, "_built")}
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
         ast.DictComp, ast.GeneratorExp)


def builder_loops(source: str) -> tuple[list[str], set]:
    """The loops and comprehensions inside a `BUILDERS` scope, and the
    builders the source defines."""
    found, defined = [], set()

    def visit(node, scope):
        if isinstance(node, ast.ClassDef):
            scope = (node.name, None)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (scope[0], node.name)
            defined.add(scope)
        if scope in BUILDERS and isinstance(node, LOOPS):
            found.append((node.lineno, type(node).__name__))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), (None, None))
    return [f"line {line}: {kind}" for line, kind in sorted(found)], defined


def test_builders_keep_the_map_they_are_given():
    found, defined = builder_loops(
        (PACKAGE / "series.py").read_text(encoding="utf-8"))
    assert found == [] and BUILDERS <= defined


def test_builder_copy_is_caught():
    source = ("class GradedSeries:\n"
              "    def _fill(self, chart, terms, loss, rows):\n"
              "        self.terms = {m: c for m, c in terms.items() if c}\n"
              "    def _term_rows(self):\n"
              "        return [row for row in self.terms]\n"
              "def _built(chart, terms, loss=0, rows=None):\n"
              "    for m in list(terms):\n"
              "        while not terms[m]:\n"
              "            del terms[m]\n"
              "    return dict(c for c in terms.items())\n"
              "def _accumulate(chart, parts):\n"
              "    return {m: c for m, c in parts}\n")
    found, defined = builder_loops(source)
    assert found == ["line 3: DictComp", "line 7: For", "line 8: While",
                     "line 10: GeneratorExp"]
    assert defined == BUILDERS | {("GradedSeries", "_term_rows"),
                                  (None, "_accumulate")}


# the attributes holding a kernel value's contents, each with the functions
# allowed to write it: its class's constructor and, for a series, the builder
VALUE_WRITERS = {
    "terms": {("GradedSeries", "__init__"), ("GradedSeries", "_fill")},
    "coefficients": {("VectorField", "__init__")},
    "images": {("CoordinateChange", "__init__")},
    "inverse_images": {("CoordinateChange", "__init__")},
}
MUTATING_METHODS = {"pop", "update", "setdefault", "clear", "popitem"}


def value_writes(source: str) -> list[str]:
    """Writes to a value attribute outside its writers: an attribute store
    or ``del``, a subscript store or ``del`` on it, or a call of one of
    ``MUTATING_METHODS`` on it."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.ClassDef):
            scope = (node.name, None)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (scope[0], node.name)
        written = None
        if (isinstance(node, (ast.Attribute, ast.Subscript))
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            written = node
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS):
            written = node.func.value
        while isinstance(written, ast.Subscript):
            written = written.value
        if (isinstance(written, ast.Attribute) and written.attr in VALUE_WRITERS
                and scope not in VALUE_WRITERS[written.attr]):
            found.append((node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), (None, None))
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py")))
def test_values_are_written_only_by_their_builders(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert value_writes(source) == []


def test_value_write_is_caught():
    source = ("class GradedSeries:\n"
              "    def __init__(self, terms):\n"
              "        self.terms = dict(terms)\n"
              "    def scale(self, a):\n"
              "        self.terms = {}\n"
              "class VectorField:\n"
              "    def __init__(self, f):\n"
              "        f.terms[m] = 1\n"
              "def edit(s, change, X):\n"
              "    del s.terms[m]\n"
              "    s.terms.pop(m)\n"
              "    change.images.update({})\n"
              "    change.inverse_images[u][m] = 0\n"
              "    X.coefficients.setdefault('x', 0)\n"
              "    del X.coefficients\n"
              "    terms[m] = 1\n"
              "    got = s.terms.get(m)\n"
              "    s.terms.items()\n")
    assert value_writes(source) == [
        "line 5: self.terms", "line 8: f.terms[m]", "line 10: s.terms[m]",
        "line 11: s.terms.pop(m)", "line 12: change.images.update({})",
        "line 13: change.inverse_images[u][m]",
        "line 14: X.coefficients.setdefault('x', 0)",
        "line 15: X.coefficients"]


# the scopes that substitute through an image map: composition, and the
# places where coordinates change or a stored inverse is checked against
# its images; a slice or a filter of one series is no substitution and
# must not pay for one
SUBSTITUTION_USERS = {
    "series.py": {(None, "compose")},
    "fields.py": {(None, "_invert_map"), ("CoordinateChange", "then"),
                  ("CoordinateChange", "pull_back"),
                  ("CoordinateChange", "push_series"), (None, "pushforward"),
                  ("CoordinateChange", "_from_both")},
}


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py")))
def test_substitution_stays_where_coordinates_change(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    allowed = SUBSTITUTION_USERS.get(module, frozenset())
    assert image_checks(source, allowed, "_substitution") == []


def test_substitution_use_is_caught():
    source = ("def _straighten_steps(X):\n"
              "    slice_of = _substitution(zeroed, chart, chart)\n"
              "def pushforward(change, X):\n"
              "    push = _substitution(change.inverse_images, s, t)\n"
              "class CoordinateChange:\n"
              "    def then(self, nxt):\n"
              "        forward = series._substitution\n"
              "    def is_identity(self):\n"
              "        return _substitution(self.images, s, t)\n")
    assert image_checks(source, SUBSTITUTION_USERS["fields.py"],
                        "_substitution") == [
        "line 2: _substitution", "line 9: _substitution"]
    assert image_checks(source, name="_substitution") == [
        "line 2: _substitution", "line 4: _substitution",
        "line 7: series._substitution", "line 9: _substitution"]


# the scopes that push a field through a change, and those that fold a
# composite: the straightening's one recorder pushes the field and the
# fields still to come through each step and folds it into the composite;
# verification reads the generators applied to the change's images and
# pushes nothing
PUSHFORWARD_USERS = {"frobenius.py": {(None, "record")}}
THEN_USERS = {"frobenius.py": {(None, "record")}, "io_cli.py": frozenset()}


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py")))
def test_pushforward_stays_in_the_straightening(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    allowed = PUSHFORWARD_USERS.get(module, frozenset())
    assert image_checks(source, allowed, "pushforward") == []


@pytest.mark.parametrize("module", sorted(THEN_USERS))
def test_composite_is_folded_by_the_recorder(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert image_checks(source, THEN_USERS[module], "then") == []


def test_pushforward_use_is_caught():
    source = ("def _straighten(chart, fields, order):\n"
              "    def record(label, step):\n"
              "        X = pushforward(step, X)\n"
              "        cur[j] = pushforward(step, cur[j])\n"
              "def verify_adapted(D, cert):\n"
              "    pushed = [pushforward(cert.change, g) for g in gens]\n"
              "def _straighten_family(fields, order):\n"
              "    push = fields.pushforward\n"
              "class FrobeniusCertificate:\n"
              "    def check(self, X):\n"
              "        return pushforward(self.change, X)\n")
    assert image_checks(source, PUSHFORWARD_USERS["frobenius.py"],
                        "pushforward") == [
        "line 6: pushforward", "line 8: fields.pushforward",
        "line 11: pushforward"]
    assert image_checks(source, name="pushforward") == [
        "line 3: pushforward", "line 4: pushforward", "line 6: pushforward",
        "line 8: fields.pushforward", "line 11: pushforward"]


def test_then_use_is_caught():
    source = ("def _straighten(chart, fields, order):\n"
              "    def record(label, step):\n"
              "        change = step if change is None else change.then(step)\n"
              "    return steps, change, adapted\n"
              "def _compose_steps(chart, steps):\n"
              "    return reduce(CoordinateChange.then, changes)\n"
              "def _run_straighten(spec):\n"
              "    fold = then\n")
    assert image_checks(source, THEN_USERS["frobenius.py"], "then") == [
        "line 6: CoordinateChange.then", "line 8: then"]
    assert image_checks(source, THEN_USERS["io_cli.py"], "then") == [
        "line 3: change.then", "line 6: CoordinateChange.then",
        "line 8: then"]


# the certificate loader checks a stored inverse by one substitution
# (``CoordinateChange._from_both``), so the CLI builds no change by
# inversion: it names neither ``make`` nor ``_invert_map``
INVERTERS = ("make", "_invert_map")


def inversions(source: str) -> list[str]:
    """References to each of ``INVERTERS`` in turn."""
    return [found for name in INVERTERS
            for found in image_checks(source, name=name)]


def test_the_cli_inverts_nothing():
    assert inversions((PACKAGE / "io_cli.py").read_text(encoding="utf-8")) == []


def test_cli_inversion_is_caught():
    source = ("def _load_certificate(spec, path):\n"
              "    change = CoordinateChange.make(chart, chart, images)\n"
              "    change, ok = CoordinateChange._from_both(chart, a, b)\n"
              "def _run_verify(spec):\n"
              "    build = make\n"
              "    inverse = fields._invert_map(images, chart, chart)\n"
              "    made = spec.make_up\n")
    assert inversions(source) == [
        "line 2: CoordinateChange.make", "line 5: make",
        "line 6: fields._invert_map"]


# the ring's product rule is written once, in series.py: the parser hands
# each term's factors to ``series._fold``, so it reads no sign mask, degree
# code or pairing and builds no monomial or row; in the kernel the sign
# masks alone read the pairing table, and every sign is read off them
RING_RULES = ("_row_masks", "_degree_codes", "pair_table", "Monomial",
              "_canonical", "_rows_of", "_multiply_rows")
PAIRING_READERS = {("ChartSpec", "_row_masks")}


def ring_rules(source: str) -> list[str]:
    """References to each of ``RING_RULES`` in turn."""
    return [found for name in RING_RULES
            for found in image_checks(source, name=name)]


def test_the_parser_leaves_the_product_rule_to_the_kernel():
    assert ring_rules((PACKAGE / "io_cli.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py")))
def test_only_the_sign_masks_read_the_pairing(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert image_checks(source, PAIRING_READERS, "pair_table") == []


def test_product_rule_outside_the_kernel_is_caught():
    source = ("class _Parser:\n"
              "    def term(self):\n"
              "        odd_mask, later = self.chart._row_masks\n"
              "        j = chart._degree_codes[i]\n"
              "        return [(Monomial(exps), _canonical(coeff))]\n"
              "class ChartSpec:\n"
              "    def _row_masks(self):\n"
              "        return self.pair_table\n"
              "def _moved_terms(f, k, step):\n"
              "    pair_k = f.chart.pair_table[k]\n"
              "    return series._rows_of(f.chart, f.terms.items())\n")
    assert ring_rules(source) == [
        "line 3: self.chart._row_masks", "line 4: chart._degree_codes",
        "line 8: self.pair_table", "line 10: f.chart.pair_table",
        "line 5: Monomial", "line 5: _canonical", "line 11: series._rows_of"]
    assert image_checks(source, PAIRING_READERS, "pair_table") == [
        "line 10: f.chart.pair_table"]


# a step that moves nothing is decided on its map before any change is
# built, so no module asks a built change whether it is the identity, and
# the straightening builds the identity only as the composite of no steps
IDENTITY_BUILDERS = {"frobenius.py": {(None, "_straighten")}}


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py")))
def test_no_change_is_built_to_be_discarded(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert image_checks(source, name="is_identity") == []
    if module in IDENTITY_BUILDERS:
        assert image_checks(source, IDENTITY_BUILDERS[module],
                            "identity") == []


def test_discarded_change_is_caught():
    source = ("def _j_linear_step(X, pivot):\n"
              "    change = CoordinateChange.make(chart, chart, images)\n"
              "    return None if change.is_identity else change\n"
              "def _shift(X, pivot, mod_j):\n"
              "    images = dict(CoordinateChange.identity(chart).images)\n"
              "def _straighten(chart, fields, order):\n"
              "    def record(label, step):\n"
              "        keep = not step.is_identity\n"
              "    return steps, change or CoordinateChange.identity(chart)\n")
    assert image_checks(source, name="is_identity") == [
        "line 3: change.is_identity", "line 8: step.is_identity"]
    assert image_checks(source, IDENTITY_BUILDERS["frobenius.py"],
                        "identity") == ["line 5: CoordinateChange.identity"]


# one decider per question: `is_involutive` decides whether a family is
# involutive, asked once by the pipeline and once by the CLI task, and the
# bracket pass `_noncommuting_pair` serves only the single-field
# self-bracket check and the commuting family's precondition
DECIDER_USERS = {
    "_noncommuting_pair": {"frobenius.py": {(None, "_straighten"),
                                            (None, "commuting_triangular")}},
    "is_involutive": {"frobenius.py": {(None, "adapted_coordinates")},
                      "io_cli.py": {(None, "_run_involutive")}},
}


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py")))
@pytest.mark.parametrize("name", sorted(DECIDER_USERS))
def test_each_question_has_one_decider(module, name):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    allowed = DECIDER_USERS[name].get(module, frozenset())
    assert image_checks(source, allowed, name) == []


def test_second_decider_is_caught():
    source = ("def _straighten(chart, fields, order):\n"
              "    if _noncommuting_pair([X]) is not None:\n"
              "        raise OddSquareNonzero('odd square')\n"
              "def adapted_coordinates(D):\n"
              "    if _noncommuting_pair(gens) is not None:\n"
              "        involutive = is_involutive(D)\n"
              "def verify_adapted(D, cert):\n"
              "    closed = distribution.is_involutive(D)\n")
    deciders = DECIDER_USERS["_noncommuting_pair"]["frobenius.py"]
    assert image_checks(source, deciders, "_noncommuting_pair") == [
        "line 5: _noncommuting_pair"]
    assert image_checks(source, DECIDER_USERS["is_involutive"]["frobenius.py"],
                        "is_involutive") == [
        "line 8: distribution.is_involutive"]
    assert image_checks(source, DECIDER_USERS["is_involutive"]["io_cli.py"],
                        "is_involutive") == [
        "line 6: is_involutive", "line 8: distribution.is_involutive"]


# the public functions that only hand their own parameters to one call under
# another name: the contract names that tests import, and no others
RENAME_WRAPPERS = {"compose_changes", "invert_change", "reduce_mod_j",
                   "scalar_product", "substitute"}


def rename_wrappers(source: str) -> list[str]:
    """Module-level public functions whose body, after an optional
    docstring, is one ``return`` of a call whose callee is a name or an
    attribute of a parameter and whose every argument is a parameter of
    the function or a constant."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        body = node.body
        if (isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]
        if not (len(body) == 1 and isinstance(body[0], ast.Return)
                and isinstance(body[0].value, ast.Call)):
            continue
        call = body[0].value
        params = {a.arg for a in (*node.args.posonlyargs, *node.args.args,
                                  *node.args.kwonlyargs)}

        def is_param(expr):
            return isinstance(expr, ast.Name) and expr.id in params

        callee = call.func
        if not (isinstance(callee, ast.Name) or (
                isinstance(callee, ast.Attribute) and is_param(callee.value))):
            continue
        if all(isinstance(arg, ast.Constant) or is_param(arg)
               for arg in (*call.args, *(k.value for k in call.keywords))):
            found.append(node.name)
    return found


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py")))
def test_no_new_rename_wrappers(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert [name for name in rename_wrappers(source)
            if name not in RENAME_WRAPPERS] == []


def test_rename_wrapper_is_caught():
    source = ('def renamed(f, g):\n    """Doc."""\n    return other(f, g)\n'
              "def method(change):\n    return change.inverted()\n"
              "def constant(f):\n    return reduce_series(f, 'mod_J')\n"
              "def keyword(f, *, mode):\n    return other(f, mode=mode)\n"
              "def _private(f):\n    return other(f)\n"
              "def computed(f, g):\n    return other(f, helper(g))\n"
              "def two_lines(f):\n    g = f\n    return other(g)\n"
              "def foreign(f):\n    return module.other(f)\n"
              "def no_call(f):\n    return f\n")
    assert rename_wrappers(source) == ["renamed", "method", "constant",
                                       "keyword"]


# the one reader of the certified window: every refutation (membership, the
# bracket checks, the straightening check, both inclusions of verification
# and the certificate's inverse check) asks `_certified`; the re-export in
# ``__init__`` is an import, not a reference
CERTIFIED_READERS = {"series.py": {(None, "_certified")}}


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py")))
def test_certified_window_has_one_reader(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    allowed = CERTIFIED_READERS.get(module, frozenset())
    assert image_checks(source, allowed, "certified_part") == []


def test_certified_window_reader_is_caught():
    source = ("from .series import certified_part\n"
              "def _certified(coefficients):\n"
              "    return {n: certified_part(f) for n, f in coefficients}\n"
              "def membership(X, D):\n"
              "    decisive = [certified_part(s) for s in residual]\n"
              "class Report:\n"
              "    def check(self):\n"
              "        part = series.certified_part\n")
    assert image_checks(source, CERTIFIED_READERS["series.py"],
                        "certified_part") == [
        "line 5: certified_part", "line 8: series.certified_part"]
    assert image_checks(source, name="certified_part") == [
        "line 3: certified_part", "line 5: certified_part",
        "line 8: series.certified_part"]


# one representation per linear-algebra job: a matrix over the chart ring
# is a `GradedMatrix` only in linalg.py (the J-linear step solves for the
# new coordinates themselves), and the elimination over Q runs only where
# a rational inverse or a basis completion is asked for (`_pivot_reduce`
# reads its pivots off its own ring elimination); the re-export in
# ``__init__`` is an import, not a reference
RATIONAL_ELIMINATORS = {(None, "rational_inverse"), (None, "complete_basis")}


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name != "linalg.py"))
def test_graded_matrices_stay_in_linalg(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert image_checks(source, name="GradedMatrix") == []


def test_graded_matrix_use_is_caught():
    source = ("from .linalg import GradedMatrix\n"
              "def _j_linear_step(X, pivot):\n"
              "    B = GradedMatrix(chart, degrees, degrees, b)\n"
              "    g = linalg.GradedMatrix.identity(chart, degrees)\n"
              "__all__ = ['GradedMatrix']\n")
    assert image_checks(source, name="GradedMatrix") == [
        "line 3: GradedMatrix", "line 4: linalg.GradedMatrix"]


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py")))
def test_rational_elimination_stays_where_it_is_asked_for(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    allowed = RATIONAL_ELIMINATORS if module == "linalg.py" else frozenset()
    assert image_checks(source, allowed, "RowSpan") == []


def test_rational_elimination_use_is_caught():
    source = ("class RowSpan:\n"
              "    def residual(self, vec): pass\n"
              "def rational_inverse(rows):\n"
              "    span = RowSpan()\n"
              "def _pivot_reduce(chart, rows):\n"
              "    span = RowSpan()\n"
              "def complete_basis(vectors, chart):\n"
              "    spans: dict[DegreeVector, RowSpan] = {}\n"
              "def rank(rows):\n"
              "    make = linalg.RowSpan\n")
    assert image_checks(source, RATIONAL_ELIMINATORS, "RowSpan") == [
        "line 6: RowSpan", "line 10: linalg.RowSpan"]
    assert image_checks(source, name="RowSpan") == [
        "line 4: RowSpan", "line 6: RowSpan", "line 8: RowSpan",
        "line 10: linalg.RowSpan"]
