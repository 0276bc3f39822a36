"""The three benchmark workloads.

Each workload turns a seed into a list of operations.  An operation is one
user-visible call (``call``, the timed part) and an answer check
(``check``, untimed) that raises ``CheckFailed`` on a wrong answer and
otherwise returns the JSON form of what the call emitted, which feeds the
certificate digest.  Checks use facts known by construction, not the
solver's own re-run.

Calls go through module attributes (``znfrob.adapted_coordinates``, not a
name bound here) so that a traced run sees them.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import znfrob
from znfrob import io_cli

import inputs


class CheckFailed(Exception):
    """An operation returned an answer that contradicts its construction."""


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Any]


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def soundness(seed, workdir, size):
    """Criterion-8 generator: ``d/du`` for the ``u`` of a subset, pushed
    through a random change; the rank is the subset size by construction."""
    chart, instances = inputs.soundness_instances(seed, size)
    ops = []
    for names, generators in instances:
        def call(generators=generators):
            # a fresh Distribution per call: normalized() caches on the object
            D = znfrob.Distribution(chart, generators)
            cert = znfrob.adapted_coordinates(D)
            return cert, znfrob.verify_adapted(D, cert)

        def check(out, names=names):
            cert, report = out
            _require(report.ok, "verify_adapted rejected the certificate")
            _require(len(cert.adapted) == len(names),
                     f"{len(cert.adapted)} adapted coordinates for "
                     f"{len(names)} generators")
            return cert.to_json_dict()

        ops.append(Op("soundness/" + "+".join(names), call, check))
    return ops


def coherence(seed, workdir, size):
    """Criterion-7 generator: one pushed coordinate field, straightened at
    j5/b4 and at j3/b4; truncating the high result must give the low one."""
    high, low, instances = inputs.coherence_instances(seed, size)
    ops = []
    for target, field_high, field_low in instances:
        kind = ("straighten_deg0" if field_high.degree.is_zero
                else "straighten_nonzero")

        def call(kind=kind, fh=field_high, fl=field_low):
            straighten = getattr(znfrob, kind)
            return straighten(fh), straighten(fl)

        def check(out):
            at_high, at_low = out
            for name in high.names:
                _require(at_high.images[name].truncated_to(low)
                         == at_low.images[name],
                         f"image of {name} differs after truncation")
                _require(at_high.inverse_images[name].truncated_to(low)
                         == at_low.inverse_images[name],
                         f"inverse image of {name} differs after truncation")
            return {"high": at_high.to_json_dict(),
                    "low": at_low.to_json_dict()}

        ops.append(Op(f"coherence/{target}", call, check))
    return ops


def run_cli(argv):
    """One in-process ``znfrob`` invocation: ``(exit code, stdout)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = io_cli.main(argv)
    return code, out.getvalue()


def save_certificate(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _report(out, code, **expected):
    got_code, stdout = out
    _require(got_code == code, f"exit code {got_code}, expected {code}")
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from exc
    for key, want in expected.items():
        _require(report.get(key) == want,
                 f"{key} = {report.get(key)!r}, expected {want!r}")
    return report


def cli(seed, workdir, size):
    """Problem files on the README chart.  Involutive families run
    ``frobenius`` (the report is saved as a certificate) then ``--verify``
    of that file; non-involutive pairs run ``involutive`` and
    ``frobenius``, both of which must exit 1."""
    ops = []
    for k, (involutive, body) in enumerate(inputs.cli_problems(seed, size)):
        problem = os.path.join(workdir, f"problem{k}.json")
        with open(problem, "w", encoding="utf-8") as handle:
            json.dump(body, handle)
        if involutive:
            certificate = os.path.join(workdir, f"certificate{k}.json")

            def check_frobenius(out, certificate=certificate):
                report = _report(out, 0, task="frobenius", verified=True)
                save_certificate(certificate, out[1])
                return report

            ops.append(Op("cli/frobenius",
                          lambda p=problem: run_cli(["--input", p]),
                          check_frobenius))
            ops.append(Op("cli/verify",
                          lambda p=problem, c=certificate:
                          run_cli(["--input", p, "--verify", c]),
                          lambda out: _report(out, 0, task="verify", ok=True)))
        else:
            ops.append(Op("cli/involutive",
                          lambda p=problem: run_cli(["--input", p]),
                          lambda out: _report(out, 1, task="involutive",
                                              involutive=False)))
            ops.append(Op("cli/frobenius-rejected",
                          lambda p=problem:
                          run_cli(["--input", p, "--task", "frobenius"]),
                          lambda out: _report(out, 1, task="frobenius",
                                              error_kind="NotInvolutive")))
    return ops


# name -> (operation list maker, inputs per pass, tail percentile).  Pool
# sizes keep one pass well inside a run; the tail percentile is taken over
# per-input times and leaves at least ten samples beyond it at the default
# run length (see README.md).
WORKLOADS = {
    "soundness": (soundness, 20, 75),
    "coherence": (coherence, 50, 90),
    "cli": (cli, 32, 90),
}
