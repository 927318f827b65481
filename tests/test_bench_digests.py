"""The benchmark's workloads still produce the outputs it pinned.

``perfbench/digests.json`` is the only record of the ``select``, ``diagnose``
and ``select --matching max`` outputs on the synthetic replay logs, and of a
second default training seed.  Running one op of each here makes a change to
any of those bytes a test failure rather than a benchmark run that ends
``"correct": false``.  The workloads are imported, never modified.
"""

import importlib
import json
import os
import types

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def pinned(workload, seed):
    with open(os.path.join(PERFBENCH, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)["digests"][workload][str(seed)]


@pytest.mark.parametrize(
    "workload,seed", [("replay_logs", 0), ("replay_logs", 1), ("train_default", 1)]
)
def test_one_op_matches_the_pinned_digests(workload, seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    bench = workloads.WORKLOADS[workload](seed, str(tmp_path / "work"))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    op = bench.op(str(out_dir), types.SimpleNamespace(seconds=0.0))
    bench.check(op)
    assert op.problems == []
    assert op.digests == pinned(workload, seed)
