"""Per-layer trace recorded from outside the package.

The tracer wraps public ``znfrob`` functions and methods around each timed
call of a traced run and restores them afterwards, so answer checks are
not traced and nothing under ``src/`` knows the tracer exists.  Spans nest
on one stack (the benchmark is single-threaded), and each span's self
time is its duration minus the time its child spans cover.  Spans are
folded into per-name totals as they close, so memory stays flat however
many kernel calls a run makes.
"""

import functools
import sys
import time

# metric prefix -> name exported from ``znfrob``
FUNCTIONS = {
    "series.multiply": "multiply",
    "series.compose": "compose",
    "series.derive": "derive",
    "series.antiderivative": "antiderivative",
    "linalg.invert_mod_J": "invert_mod_J",
    "linalg.rational_inverse": "rational_inverse",
    "fields.pushforward": "pushforward",
    "fields.bracket": "bracket",
    "distribution.is_involutive": "is_involutive",
    "distribution.membership": "membership",
    "distribution.rank_of": "rank_of",
    "frobenius.adapted_coordinates": "adapted_coordinates",
    "frobenius.verify_adapted": "verify_adapted",
    "frobenius.straighten_deg0": "straighten_deg0",
    "frobenius.straighten_nonzero": "straighten_nonzero",
    "io_cli.parse_expression": "parse_expression",
    "io_cli.load_problem": "load_problem",
    "io_cli.run": "run",
}

# metric prefix -> (exported class, attribute)
METHODS = {
    "fields.CoordinateChange.make": ("CoordinateChange", "make"),
    "fields.CoordinateChange.from_inverse_images":
        ("CoordinateChange", "from_inverse_images"),
    "fields.CoordinateChange.then": ("CoordinateChange", "then"),
}

CONSTRUCTIONS = "grading.DegreeVector.constructions"
TERM_PAIRS = "series.multiply.term_pairs"
TERMS_OUT = "series.multiply.terms_out"
STEPS = "frobenius.steps"
SPANS = tuple(FUNCTIONS) + tuple(METHODS)
COUNTERS = (TERM_PAIRS, TERMS_OUT, CONSTRUCTIONS, STEPS)


class TraceBindingError(RuntimeError):
    """A name the trace wraps is no longer exported by ``znfrob``."""


class Tracer:
    """Span stack folded into ``{name: [calls, self_s, total_s]}``.

    ``total_s`` counts only the outermost active span of a name, so a
    function that re-enters itself is not counted twice.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._depth = {}

    def begin(self, name):
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def end(self):
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration - covered
        self._depth[name] -= 1
        if not self._depth[name]:
            entry[2] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def add(self, counter, amount):
        self.counts[counter] += amount


def _span(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _exported(package, name):
    if not hasattr(package, name):
        raise TraceBindingError(
            f"znfrob no longer exports {name!r}; the traced run cannot "
            f"attribute time to it (update perfbench/trace.py)")
    return getattr(package, name)


def bind(tracer):
    """Patches that route every traced name through ``tracer``.

    Modules import kernel functions by name (``fields`` and ``frobenius``
    bind ``multiply``, ``compose`` and ``pushforward``), so every binding
    of the function object in ``znfrob`` and ``znfrob.*`` is replaced, not
    only the defining module's.  Returns ``(owner, attr, original,
    replacement)`` tuples for ``Patched``; raises ``TraceBindingError`` if
    a traced name is gone.
    """
    import znfrob

    def count_multiply(args, result):
        f, g = args
        tracer.add(TERM_PAIRS, len(f.terms) * len(g.terms))
        tracer.add(TERMS_OUT, len(result.terms))

    def count_steps(args, cert):
        tracer.add(STEPS, len(cert.steps))

    after = {"series.multiply": count_multiply,
             "frobenius.adapted_coordinates": count_steps}
    modules = [module for name, module in sorted(sys.modules.items())
               if name == "znfrob" or name.startswith("znfrob.")]
    patches = []
    for metric, export in FUNCTIONS.items():
        original = _exported(znfrob, export)
        wrapper = _span(tracer, metric, original, after.get(metric))
        for module in modules:
            for attr, value in vars(module).items():
                if value is original:
                    patches.append((module, attr, original, wrapper))
    for metric, (cls_name, attr) in METHODS.items():
        cls = _exported(znfrob, cls_name)
        raw = vars(cls).get(attr)
        if raw is None:
            raise TraceBindingError(
                f"{cls_name}.{attr} is gone; update perfbench/trace.py")
        if isinstance(raw, classmethod):
            wrapper = classmethod(_span(tracer, metric, raw.__func__))
        else:
            wrapper = _span(tracer, metric, raw)
        patches.append((cls, attr, raw, wrapper))

    degree_vector = _exported(znfrob, "DegreeVector")
    post_init = vars(degree_vector).get("__post_init__")
    if post_init is None:
        raise TraceBindingError(
            "DegreeVector.__post_init__ is gone; update perfbench/trace.py")

    def counted_post_init(self):
        tracer.counts[CONSTRUCTIONS] += 1
        return post_init(self)

    patches.append((degree_vector, "__post_init__", post_init,
                    counted_post_init))
    return patches


class Patched:
    """Context manager that applies the patches and always reverts them."""

    def __init__(self, patches):
        self.patches = patches

    def __enter__(self):
        for owner, attr, _, replacement in self.patches:
            setattr(owner, attr, replacement)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in reversed(self.patches):
            setattr(owner, attr, original)
        return False


def layer_metrics(tracer, passes):
    """Per-layer metrics per pass over the workload's inputs."""
    out = {}
    for name in SPANS:
        calls, self_s, total_s = tracer.spans.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls / passes, "count")
        out[f"{name}.self_s"] = (self_s / passes, "s")
        out[f"{name}.total_s"] = (total_s / passes, "s")
    for name in COUNTERS:
        out[name] = (tracer.counts[name] / passes, "count")
    pairs = tracer.counts[TERM_PAIRS]
    out["series.multiply.yield"] = (
        tracer.counts[TERMS_OUT] / pairs if pairs else 0.0, "ratio")
    return out
