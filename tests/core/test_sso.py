"""Tests for SSO-Fast-Scan: O(1) local scans, sequential consistency."""

import pytest

from repro.core.sso import SsoFastScan
from repro.runtime.cluster import Cluster
from repro.spec import (
    check_sequentially_consistent,
    is_linearizable,
    sequentialize,
)

from tests.conftest import run_random_execution


def test_scan_costs_zero_messages_and_zero_time():
    cluster = Cluster(SsoFastScan, n=5, f=2)
    up = cluster.invoke_at(0.0, 0, "update", "x")
    cluster.run_until_complete([up])
    sc = cluster.invoke(1, "scan")
    cluster.run_until_complete([sc])
    assert sc.latency == 0.0
    assert sc.messages_sent == 0


def test_update_cost_same_as_eq_aso():
    from repro.core.eq_aso import EqAso

    sso = Cluster(SsoFastScan, n=5, f=2)
    eq = Cluster(EqAso, n=5, f=2)
    h1 = sso.invoke_at(0.0, 0, "update", "x")
    h2 = eq.invoke_at(0.0, 0, "update", "x")
    sso.run_until_complete([h1])
    eq.run_until_complete([h2])
    assert h1.latency == h2.latency


def test_scan_before_any_update_is_bottom():
    cluster = Cluster(SsoFastScan, n=3, f=1)
    sc = cluster.invoke_at(0.0, 2, "scan")
    cluster.run_until_complete([sc])
    assert sc.result.values == (None, None, None)


def test_own_writes_visible_immediately():
    cluster = Cluster(SsoFastScan, n=5, f=2)
    handles = cluster.chain_ops(0, [("update", ("mine",)), ("scan", ())])
    cluster.run_until_complete(handles)
    assert handles[1].result.values[0] == "mine"


def test_remote_scan_may_lag_but_catches_up():
    cluster = Cluster(SsoFastScan, n=5, f=2)
    up = cluster.invoke_at(0.0, 0, "update", "x")
    cluster.run_until_complete([up])
    sc_immediate = cluster.invoke(4, "scan")
    cluster.run_until_complete([sc_immediate])
    cluster.run(until=cluster.sim.now + 3.0)  # let goodLA views propagate
    sc_later = cluster.invoke(4, "scan")
    cluster.run_until_complete([sc_later])
    assert sc_later.result.values[0] == "x"
    # local scans are monotone at one node
    base_imm = set(v for v in sc_immediate.result.values if v)
    base_lat = set(v for v in sc_later.result.values if v)
    assert base_imm <= base_lat


def test_sso_history_with_stale_read_is_sc_not_linearizable():
    """The semantic gap between Definitions 2 and 3, exhibited live:
    an update completes, then a remote local scan still misses it."""
    cluster = Cluster(SsoFastScan, n=5, f=2)
    up = cluster.invoke_at(0.0, 0, "update", "x")
    cluster.run_until_complete([up])
    # strictly after the update responded, but before goodLA views reach
    # node 4 (they take up to D)
    sc = cluster.invoke_at(cluster.sim.now + 0.01, 4, "scan")
    cluster.run_until_complete([sc])
    if sc.result.values[0] is None:  # the stale case we are after
        assert not is_linearizable(cluster.history)
        assert check_sequentially_consistent(cluster.history)
        order = sequentialize(cluster.history)
        assert [op.kind for op in order] == ["scan", "update"]
    else:  # pragma: no cover - timing-dependent alternative
        pytest.skip("view propagated too fast to exhibit staleness")


def test_randomized_workloads_sequentially_consistent():
    for seed in range(6):
        cluster, handles = run_random_execution(SsoFastScan, seed=seed)
        assert all(h.done for h in handles)
        assert check_sequentially_consistent(cluster.history)


def test_randomized_workloads_with_crashes_sc():
    from repro.net.faults import CrashAtTime, CrashPlan

    for seed in range(3):
        from repro.net.delays import UniformDelay
        from repro.sim.rng import SeededRng

        rng = SeededRng(seed)
        plan = CrashPlan({4: CrashAtTime(rng.uniform(0.5, 4.0))})
        cluster = Cluster(
            SsoFastScan,
            n=5,
            f=2,
            crash_plan=plan,
            delay_model=UniformDelay(1.0, rng.child("d"), lo=0.1),
        )
        handles = []
        for node in range(5):
            handles += cluster.chain_ops(
                node,
                [("update", (f"v{node}",)), ("scan", ()), ("scan", ())],
                start=node * 0.2,
            )
        cluster.run_until_complete(handles)
        assert check_sequentially_consistent(cluster.history)


def test_safe_view_only_grows():
    cluster = Cluster(SsoFastScan, n=4, f=1)
    node3 = cluster.node(3)
    sizes = []
    for t in range(6):
        cluster.invoke_at(t * 10.0, t % 3, "update", f"v{t}")
        cluster.run(until=(t + 1) * 10.0 - 0.5)
        sizes.append(len(node3.V.values(node3._safe_view)))
    assert sizes == sorted(sizes)
