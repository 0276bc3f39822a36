"""Seeded, single-process benchmark of the znfrob solver.

    python3 perfbench/run.py --workload cli --seed 1 --seconds 40 --trace 0

Run from the repository root.  One caller runs operations back to back
(a closed loop, no threads) in whole passes over the inputs built from
``--seed`` until ``--seconds`` have elapsed.  Operation times are reported
in reference units: divided by the time of a fixed plain-Python reference
task run next to each operation, which cancels most of a shared machine's
drift in speed.  The last line of stdout is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``); the lines before it name the tail percentile, the sample
count, the timings in seconds and the certificate digest.  README.md in
this directory gives the reasoning behind the workloads and metrics.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
EXPECTED = os.path.join(HERE, "expected.json")
SETUP_REPEATS = 3

# The reference task: fixed sparse products of polynomials in five
# variables with small Fraction coefficients, in plain Python and without
# znfrob, shaped like the solver's own series arithmetic.  It runs between
# operations, so its time follows the machine's speed at that moment and
# nothing else (see README.md, "Reference units").
REFERENCE_FACTORS = [
    {tuple((i // 3 ** p + k) % 3 for p in range(5)):
     Fraction((i * 37 + k) % 19 - 9, 1 + (i * 11 + k) % 9)
     for i in range(60)}
    for k in range(4)]


def import_package():
    """Import the package from this checkout's ``src/`` and the workload
    modules; returns the seconds it took."""
    start = time.perf_counter()
    sys.path.insert(0, SOURCE)
    import znfrob
    import workloads  # noqa: F401  (imports the package's public API)
    elapsed = time.perf_counter() - start
    where = os.path.dirname(os.path.abspath(znfrob.__file__))
    if not where.startswith(SOURCE + os.sep):
        raise ImportError(f"znfrob was imported from {where}, not {SOURCE}")
    return elapsed


def reference_task():
    """Seconds one run of the reference task takes, with the cyclic
    collector off so that only the processor's speed shows."""
    gc.disable()
    try:
        start = time.perf_counter()
        for a, b in zip(REFERENCE_FACTORS[::2], REFERENCE_FACTORS[1::2]):
            out = {}
            for ka, c in a.items():
                for kb, d in list(b.items())[:10]:
                    key = tuple(x + y for x, y in zip(ka, kb))
                    out[key] = out.get(key, 0) + c * d
        return time.perf_counter() - start
    finally:
        gc.enable()


def canonical_digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


class Loop:
    """Closed-loop runner over one pool of operations.

    Operation ``i`` runs ``ops[i % len(ops)]`` between runs ``i`` and
    ``i + 1`` of the reference task.  The first pass records each
    operation's output digest; a later pass that emits a different output
    counts as a failure.
    """

    def __init__(self, ops, check_failed):
        self.ops = ops
        self.check_failed = check_failed
        self.first = [None] * len(ops)
        self.times = []
        self.refs = []
        self.failed = 0
        self.errors = []
        self.count = 0

    def step(self, patched=None):
        slot = self.count % len(self.ops)
        op = self.ops[slot]
        error = digest = None
        if not self.refs:
            self.refs.append(reference_task())
        with patched or contextlib.nullcontext():
            start = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a raising operation is a failed one
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        self.refs.append(reference_task())
        if error is None:
            try:
                digest = canonical_digest(op.check(out))
            except self.check_failed as exc:
                error = f"wrong answer: {exc}"
            except Exception as exc:  # a check that cannot read the output
                error = f"{type(exc).__name__} in check: {exc}"
        if self.count < len(self.ops):
            self.first[slot] = digest
        elif error is None and digest != self.first[slot]:
            error = "output differs from the first pass"
        if error is not None:
            self.failed += 1
            self.errors.append(f"{op.label} (input {slot}): {error}")
        self.times.append(elapsed)
        self.count += 1

    def run_for(self, seconds):
        """Whole passes until ``seconds`` have elapsed, at least one, so
        that every input is timed equally often; returns the number of
        passes."""
        start = time.perf_counter()
        passes = 0
        while not passes or time.perf_counter() - start < seconds:
            self.run_passes(1)
            passes += 1
        return passes

    def run_passes(self, passes, patched=None):
        """Exactly ``passes`` full passes."""
        for _ in range(passes * len(self.ops)):
            self.step(patched)

    def per_input(self, samples, first=0, last=None):
        """Each input's median over the whole passes of operations
        ``first`` to ``last``, in input order."""
        n = len(self.ops)
        samples = samples[first:last]
        return [statistics.median(samples[i::n]) for i in range(n)]

    def ratios(self, first=0, last=None):
        """Each input's median operation time in reference units: the
        operation's time over the mean time of the reference task runs
        just before and just after it."""
        ratios = [2 * t / (before + after) for t, before, after
                  in zip(self.times, self.refs, self.refs[1:])]
        return self.per_input(ratios, first, last)

    def digest(self):
        return hashlib.sha1("\n".join(
            d or "failed" for d in self.first).encode("ascii")).hexdigest()


def tail(values, percentile, passes):
    """Nearest-rank percentile of per-input values, lowered if the inputs
    beyond it hold fewer than ten samples; returns ``(value, percentile
    used, samples beyond it)``."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(percentile / 100 * n))
    rank = max(1, min(rank, n - math.ceil(10 / passes)))
    return ordered[rank - 1], 100 * rank / n, (n - rank) * passes


def smooth_median(values, steps=50):
    """Harrell-Davis estimate of the median: a mean of all the sorted
    values, each weighted by the mass of the Beta((n+1)/2, (n+1)/2)
    distribution on its 1/n slice (midpoint rule, ``steps`` points per
    slice).  Unlike the plain median it moves smoothly when one value
    crosses the middle of the others."""
    ordered = sorted(values)
    n = len(ordered)
    weights = []
    for i in range(n):
        points = ((i + (k + 0.5) / steps) / n for k in range(steps))
        # the Beta density over its peak at 1/2, in logs against underflow
        weights.append(sum(math.exp((n - 1) / 2 * math.log(4 * t * (1 - t)))
                           for t in points))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup(make_ops, seed, size, workdir):
    """Build the inputs ``SETUP_REPEATS`` times; returns the last
    operation list and every build time."""
    times = []
    for repeat in range(SETUP_REPEATS):
        where = os.path.join(workdir, f"inputs{repeat}")
        os.makedirs(where)
        start = time.perf_counter()
        ops = make_ops(seed, where, size)
        times.append(time.perf_counter() - start)
    # keep the inputs out of the cyclic collector's scans, so collection
    # cost follows each operation's own allocations, not the pool size
    gc.collect()
    gc.freeze()
    return ops, times


def recorded_digest(workload, seed):
    """The digest recorded in expected.json for this workload and seed."""
    with open(EXPECTED, encoding="utf-8") as handle:
        recorded = json.load(handle)
    if seed != recorded["seed"]:
        return None
    return recorded["digests"].get(workload)


def measure(args, import_s, workdir):
    import tracer
    import workloads

    make_ops, size, percentile = workloads.WORKLOADS[args.workload]
    ops, build_times = setup(make_ops, args.seed, size, workdir)
    loop = Loop(ops, workloads.CheckFailed)
    print(f"setup: import {import_s:.3f} s, inputs "
          + " / ".join(f"{t:.3f}" for t in build_times)
          + f" s ({len(ops)} operations per pass)")

    if args.trace:
        # untraced passes for about half the time, then as many traced
        spans = tracer.Tracer()
        patched = tracer.Patched(tracer.bind(spans))
        passes = loop.run_for(args.seconds / 2)
        half = loop.count
        loop.run_passes(passes, patched)
        metrics = tracer.layer_metrics(spans, passes)
        # in reference units, so drift between the halves mostly cancels
        overhead = sum(loop.ratios(half)) / sum(loop.ratios(0, half)) - 1
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        print(f"trace: {passes} pass(es) each way, "
              f"{sum(loop.times[:half]):.3f} s untraced, "
              f"{sum(loop.times[half:]):.3f} s traced; per-layer values "
              f"are per pass")
    else:
        passes = loop.run_for(args.seconds)
        ratios = loop.ratios()
        value, used, beyond = tail(ratios, percentile, passes)
        metrics = {
            "setup_s": (import_s + statistics.median(build_times), "s"),
            "instance_ref.p50": (smooth_median(ratios), "ref"),
            "instance_ref.tail": (value, "ref"),
            "throughput_ref": (len(ratios) / sum(ratios), "1/ref"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        seconds = loop.per_input(loop.times)
        print(f"timed: {passes} pass(es), {loop.count} operations in "
              f"{sum(loop.times):.3f} s busy; instance_ref.tail is "
              f"p{used:g} of {len(ops)} inputs, {beyond} samples beyond it")
        print(f"in seconds: p50 {smooth_median(seconds):.6f} s, "
              f"p{used:g} {tail(seconds, percentile, passes)[0]:.6f} s, "
              f"{len(seconds) / sum(seconds):.4f} operations/s; reference "
              f"task median {statistics.median(loop.refs) * 1e3:.4f} ms")

    digest = loop.digest()
    recorded = recorded_digest(args.workload, args.seed)
    verdict = ("not recorded for this seed" if recorded is None
               else "match" if digest == recorded
               else f"MISMATCH, recorded {recorded}")
    print(f"digest: {digest} ({verdict})")
    failed = loop.failed
    if recorded is not None and digest != recorded:
        failed = loop.count  # a changed certificate fails the whole run
    print(f"failed_ratio: {failed / loop.count:g} "
          f"({failed} of {loop.count} operations)")
    for line in loop.errors[:5]:
        print(f"  failure: {line}")
    return {
        "correct": failed == 0,
        "attempted": loop.count,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("soundness", "coherence", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import znfrob from {SOURCE}: {exc}",
              file=sys.stderr)
        return 2
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    workdir = os.path.join(WORKDIR, f"{os.getpid()}-{args.workload}")
    os.makedirs(workdir)
    try:
        result = measure(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
