"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the seed and the public ``znfrob``
API, so one seed always yields the same inputs.  Degrees and
truncation checks are recomputed from the chart's degree bits rather than
taken from the kernel, so a kernel change cannot alter which inputs are
generated.
"""

import random
from fractions import Fraction

from znfrob import (
    ChartSpec,
    CoordinateChange,
    VectorField,
    pushforward,
)


def chart_n2(j_order, base_order, extra_base=False):
    """The n=2 chart of the acceptance suite: ``x[, y], t1, t2, e``."""
    coords = [("x", (0, 0))]
    if extra_base:
        coords.append(("y", (0, 0)))
    coords += [("t1", (0, 1)), ("t2", (1, 0)), ("e", (1, 1))]
    return ChartSpec.build(2, coords, j_order=j_order, base_order=base_order)


def _bits(chart, name):
    return tuple(chart.degree_of(name).bits)


def _is_odd(bits):
    return sum(bits) % 2 == 1


def _random_exponents(rng, chart):
    """Sparse exponent map inside the truncation window."""
    names = chart.names
    while True:
        exps = {}
        for name in names:
            if _is_odd(_bits(chart, name)):
                e = rng.randint(0, 1)
            else:
                e = rng.choice([0, 0, 0, 1, 2])
            if e:
                exps[name] = e
        j_deg = sum(e for n, e in exps.items() if any(_bits(chart, n)))
        b_deg = sum(e for n, e in exps.items() if not any(_bits(chart, n)))
        if j_deg <= chart.j_order and b_deg <= chart.base_order:
            return exps


def _degree_of(chart, exps):
    acc = [0] * chart.n
    for name, e in exps.items():
        if e % 2:
            acc = [(a + b) % 2 for a, b in zip(acc, _bits(chart, name))]
    return tuple(acc)


def random_change(shape, scaling, chart):
    """Identity plus one homogeneous correction of total degree 2 per
    coordinate, then unit-triangular mixing inside each degree block
    (probability 0.3 per pair), as in the acceptance suite's random
    coordinate change.

    ``shape`` draws the monomials, mixing pairs and base coefficients.
    The result is conjugated by the coordinate rescaling
    ``u -> scaling[u] * u``: a graded ring automorphism, so every seed
    poses a problem of the same structure with other coefficients.
    """
    def rescaled(exps):
        out = Fraction(1)
        for name, e in exps.items():
            out /= scaling[name] ** e
        return out

    images = {}
    for name in chart.names:
        img = chart.coordinate(name)
        want = _bits(chart, name)
        for _ in range(80):
            exps = _random_exponents(shape, chart)
            if sum(exps.values()) == 2 and _degree_of(chart, exps) == want:
                coeff = shape.choice((-2, -1, 1, 2)) * scaling[name]
                img = img + chart.monomial(exps, coeff * rescaled(exps))
                break
        images[name] = img
    names = chart.names
    for i, u in enumerate(names):
        for j, v in enumerate(names):
            if i < j and _bits(chart, u) == _bits(chart, v) \
                    and shape.random() < 0.3:
                coeff = shape.randint(1, 2) * scaling[v] / scaling[u]
                images[v] = images[v] + chart.coordinate(u) * coeff
    return CoordinateChange.make(chart, chart, images)


def pushed_derivations(change, names):
    """``d/du`` pushed through ``change`` for each ``u`` in ``names``."""
    chart = change.source
    return [pushforward(change, VectorField.coordinate_derivation(chart, u))
            for u in names]


# criterion-8 subsets on the 5-coordinate chart
SOUNDNESS_SUBSETS = (
    ("x",), ("x", "y"), ("x", "t1"), ("t1",), ("e",), ("x", "e"),
    ("y", "t2"), ("x", "y", "t1"), ("x", "t1", "e"), ("t1", "t2"),
)

# criterion-7 straightening targets
COHERENCE_TARGETS = ("x", "e", "t1", "x", "e")

# involutive generator sets on the README chart (no second base coordinate)
CLI_SUBSETS = (
    ("x",), ("x", "t1"), ("t1",), ("e",), ("x", "e"), ("t1", "t2"),
    ("x", "t1", "e"), ("t2",),
)


def _shape_and_scaling(workload, seed, chart):
    """The shape generator is fixed per workload; the seed draws one
    rescaling factor per coordinate (see README.md, "Seeds")."""
    values = random.Random(seed)
    scaling = {name: Fraction(values.choice((-2, -1, 1, 2)))
               for name in chart.names}
    return random.Random(f"{workload}-shape"), scaling


def soundness_instances(seed, count):
    """``(names, generators)`` pairs on the j4/b6 chart ``x, y, t1, t2, e``."""
    chart = chart_n2(4, 6, extra_base=True)
    shape, scaling = _shape_and_scaling("soundness", seed, chart)
    out = []
    for i in range(count):
        names = SOUNDNESS_SUBSETS[i % len(SOUNDNESS_SUBSETS)]
        change = random_change(shape, scaling, chart)
        out.append((names, pushed_derivations(change, names)))
    return chart, out


def coherence_instances(seed, count):
    """``(target, field at j5/b4, same field at j3/b4)`` triples."""
    high = chart_n2(5, 4)
    shape, scaling = _shape_and_scaling("coherence", seed, high)
    low = chart_n2(3, 4)
    out = []
    for i in range(count):
        target = COHERENCE_TARGETS[i % len(COHERENCE_TARGETS)]
        change = random_change(shape, scaling, high)
        field, = pushed_derivations(change, (target,))
        out.append((target, field, field.truncated_to(low)))
    return high, low, out


def _problem(chart, generators, task):
    return {
        "n": chart.n,
        "truncation": {"j_order": chart.j_order,
                       "base_order": chart.base_order},
        "coordinates": [{"name": name, "degree": list(_bits(chart, name))}
                        for name in chart.names],
        "fields": [dict(name=f"G{i}", **g.to_json_dict())
                   for i, g in enumerate(generators)],
        "task": task,
    }


def cli_problems(seed, count):
    """Problem-file bodies on the README chart, alternating involutive
    families (``frobenius``) with non-involutive pairs (``involutive``).

    The non-involutive pair is ``d/dt1`` and ``d/dt2 + t1*d/de``, whose
    bracket is ``d/de``; a coordinate change preserves that.
    """
    chart = chart_n2(4, 6)
    shape, scaling = _shape_and_scaling("cli", seed, chart)
    t1 = chart.coordinate("t1")
    out = []
    for i in range(count):
        change = random_change(shape, scaling, chart)
        if i % 2 == 0:
            names = CLI_SUBSETS[(i // 2) % len(CLI_SUBSETS)]
            gens = pushed_derivations(change, names)
            out.append((True, _problem(chart, gens, "frobenius")))
        else:
            d = {u: VectorField.coordinate_derivation(chart, u)
                 for u in ("t1", "t2", "e")}
            pair = [pushforward(change, d["t1"]),
                    pushforward(change, d["t2"] + d["e"].scaled_by(t1))]
            out.append((False, _problem(chart, pair, "involutive")))
    return out
