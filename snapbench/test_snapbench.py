"""Smoke-size tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest snapbench``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
from ledger import Ledger  # noqa: E402
from workloads import ChaosMix, HistoryLong, ShardBursty  # noqa: E402

SMOKE = {
    "history_long": lambda seed: HistoryLong(seed, histories=2, batches=4, ops_per_node=10),
    "shard_bursty": lambda seed: ShardBursty(seed, sessions=4, ops=60),
    "chaos_mix": lambda seed: ChaosMix(seed, groups=1, plans_per_unit=3),
}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_workload_gate_passes_and_repeats_identically(name):
    workload = SMOKE[name](3)
    first, second = bench.Pass(workload), bench.Pass(workload)
    assert first.same_outputs(second) is None
    assert bool(first.replay_cpu) == (name != "history_long")
    assert workload.verify()
    assert first.total("attempted") > 0
    assert first.total("ok_ops") > 0
    assert first.pooled("op_latency") and first.pooled("scan_latency")


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_pass_matches_untraced_pass(name):
    workload = SMOKE[name](5)
    plain = bench.Pass(workload, replay=False)
    with Ledger() as ledger:
        traced = bench.Pass(workload, ledger, replay=False)
    assert plain.same_outputs(traced) is None
    assert plain.stats == traced.stats
    assert ledger.self_share("sim") > 0
    assert abs(sum(ledger.self_share(layer) for layer in ledger.self_ns if layer) - 1) < 1e-9


def test_ledger_restores_every_entry_point():
    from repro.runtime.cluster import Cluster
    from repro.spec import order

    before = (Cluster.__dict__["_deliver"], order.order_check)
    with Ledger():
        assert Cluster.__dict__["_deliver"] is not before[0]
    assert (Cluster.__dict__["_deliver"], order.order_check) == before


def test_quorum_weakened_mutant_is_counted_as_failed():
    workload = ChaosMix(0, profiles=["mut-impr-weak-collect"], groups=1, plans_per_unit=40)
    result = bench.Pass(workload, replay=False)
    assert result.total("failed") > 0
    assert result.layer_total("failed_plans") > 0
    # a failing plan's operations are failures, not completions
    assert result.total("failed") + result.total("ok_ops") <= result.total("attempted")


def test_history_long_cost_grows_with_history():
    workload = HistoryLong(1, histories=1, batches=12, ops_per_node=10)
    passes = [bench.Pass(workload) for _ in range(5)]
    metrics = bench.end_to_end(workload, passes, setup=[1.0], rss_mb=1.0)
    assert metrics["cost_growth"][0] > 1


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    copy = tmp_path / "snapbench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "chaos_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
