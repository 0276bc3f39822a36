"""The benchmark's recorded certificate digests, checked by the unit tests.

Each workload of ``perfbench/workloads.py`` is built at the seed that
``perfbench/expected.json`` records, each operation runs once, and the
digest of the checked outputs, formed as ``run.Loop.digest`` forms it,
must equal the recorded one.  A change that moves any byte the solver
emits on a benchmark input fails here, before any benchmark run.  Nothing
under ``perfbench/`` is written: the inputs go to a temporary directory.
"""

import hashlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RECORDED = json.loads((PERFBENCH / "expected.json").read_text("utf-8"))


@pytest.mark.parametrize("workload", sorted(RECORDED["digests"]))
def test_workload_digest_matches_the_recorded_one(workload, tmp_path,
                                                  monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads

    make_ops, size, _ = workloads.WORKLOADS[workload]
    ops = make_ops(RECORDED["seed"], str(tmp_path), size)
    digests = [run.canonical_digest(op.check(op.call())) for op in ops]
    digest = hashlib.sha1("\n".join(digests).encode("ascii")).hexdigest()
    assert digest == RECORDED["digests"][workload]
