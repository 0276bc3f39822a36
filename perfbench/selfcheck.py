"""Self-check of the benchmark itself (about 30 s).

    python3 perfbench/selfcheck.py

Runs every workload on a tiny seeded case, checks the tracer's self-time
arithmetic on a known nesting and its binding of the public names, checks
the reference-unit, smooth-median and tail-rank arithmetic on known
numbers, and checks that a tampered certificate is counted as a failed
operation.
Exits 1 on the first failed check.
"""

import json
import os
import shutil
import sys

import run

SEED = 7
TINY = {"soundness": 2, "coherence": 3, "cli": 4}


class SelfCheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise SelfCheckFailed(message)


def tiny_loop(name, workdir):
    import workloads
    make_ops, _, _ = workloads.WORKLOADS[name]
    loop = run.Loop(make_ops(SEED, workdir, TINY[name]),
                    workloads.CheckFailed)
    loop.run_passes(2)  # the second pass re-checks the first pass's digests
    return loop


def check_workloads(workdir):
    for name in TINY:
        loop = tiny_loop(name, workdir)
        expect(loop.failed == 0, f"{name}: {loop.errors}")
        expect(loop.count == 2 * len(loop.ops), f"{name}: wrong op count")


def check_tampered_certificate(workdir):
    import workloads

    def flip_one_sign(path, text):
        # negate the first nonlinear coefficient of a forward image
        report = json.loads(text)
        for name, image in report["change"].items():
            if " + " in image or " - " in image:
                flipped = (image.replace(" + ", " - ", 1) if " + " in image
                           else image.replace(" - ", " + ", 1))
                report["change"][name] = flipped
                break
        else:
            raise SelfCheckFailed("no certificate term to tamper with")
        honest(path, json.dumps(report))

    honest = workloads.save_certificate
    workloads.save_certificate = flip_one_sign
    try:
        loop = tiny_loop("cli", workdir)
    finally:
        workloads.save_certificate = honest
    expect(loop.failed > 0, "tampered certificates passed --verify")
    expect(all("cli/verify" in line for line in loop.errors),
           f"unexpected failures: {loop.errors}")


def check_self_time():
    import tracer
    ticks = iter([0, 1, 4, 5, 6, 7, 9, 10])
    spans = tracer.Tracer(clock=lambda: next(ticks))
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds b [6, 7]
    spans.begin("a")
    spans.begin("b")
    spans.end()
    spans.begin("c")
    spans.begin("b")
    spans.end()
    spans.end()
    spans.end()
    want = {"a": [1, 3, 10], "b": [2, 4, 4], "c": [1, 3, 4]}
    expect(spans.spans == want, f"self times {spans.spans} != {want}")

    ticks = iter([0, 1, 2, 3])
    spans = tracer.Tracer(clock=lambda: next(ticks))
    spans.begin("r")
    spans.begin("r")
    spans.end()
    spans.end()
    expect(spans.spans == {"r": [2, 3, 3]},
           f"re-entered span counted twice: {spans.spans}")


def check_reference_units():
    loop = run.Loop([None, None], Exception)
    # two passes over two inputs, each between two reference runs
    loop.times = [4, 2, 6, 1]
    loop.refs = [1, 3, 1, 1, 3]
    # per operation 4/2, 2/2, 6/1, 1/2; per input the median over passes
    expect(loop.ratios() == [4, 0.75], f"ratios {loop.ratios()}")
    expect(loop.ratios(0, 2) == [2, 1], f"first pass {loop.ratios(0, 2)}")
    expect(loop.ratios(2) == [6, 0.5], f"second pass {loop.ratios(2)}")
    expect(abs(run.smooth_median([3, 1, 2]) - 2) < 1e-12
           and abs(run.smooth_median([5, 5, 5, 5]) - 5) < 1e-12,
           "smooth median of a symmetric or constant list is off")
    # one value crossing a gap moves the plain median from 1 to 5
    low, high = (run.smooth_median(values) for values in
                 ([0.5, 1, 1, 1, 1, 9, 9, 9], [1, 1, 1, 1, 9, 9, 9, 9.5]))
    expect(high - low < 2.5, f"smooth median jumps from {low} to {high}")
    value, used, beyond = run.tail(list(range(1, 21)), 90, 2)
    expect((value, used, beyond) == (15, 75, 10),
           f"tail not lowered to ten samples: {(value, used, beyond)}")


def check_binding():
    import znfrob
    import znfrob.fields
    import tracer

    original = znfrob.fields.multiply
    spans = tracer.Tracer()
    patches = tracer.bind(spans)
    with tracer.Patched(patches):
        expect(znfrob.fields.multiply is not original,
               "fields.multiply was not rebound")
        chart = znfrob.ChartSpec.build(1, [("x", (0,))])
        x = chart.coordinate("x")
        znfrob.compose(x * x, {"x": x + x * x}, chart)
    expect(znfrob.fields.multiply is original, "patches were not reverted")
    expect(spans.spans["series.compose"][0] == 1, "compose not traced")
    expect(spans.spans["series.multiply"][0] >= 2, "multiply not traced")
    expect(spans.counts[tracer.CONSTRUCTIONS] > 0,
           "DegreeVector constructions not counted")

    removed = znfrob.bracket
    del znfrob.bracket
    try:
        tracer.bind(tracer.Tracer())
    except tracer.TraceBindingError as exc:
        expect("bracket" in str(exc), f"unclear message: {exc}")
    else:
        raise SelfCheckFailed("a missing export went unnoticed")
    finally:
        znfrob.bracket = removed


def main():
    run.import_package()
    workdir = os.path.join(run.WORKDIR, f"{os.getpid()}-selfcheck")
    os.makedirs(workdir)
    checks = [
        ("self time on a known nesting", check_self_time),
        ("reference units, smooth median and tail rank",
         check_reference_units),
        ("tracer binding", check_binding),
        ("tiny case of every workload", lambda: check_workloads(workdir)),
        ("tampered certificate fails",
         lambda: check_tampered_certificate(workdir)),
    ]
    try:
        for label, check in checks:
            check()
            print(f"ok: {label}")
    except SelfCheckFailed as exc:
        print(f"FAILED: {label}: {exc}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(run.WORKDIR)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
