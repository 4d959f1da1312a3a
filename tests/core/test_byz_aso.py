"""Tests for the Byzantine ASO and SSO (safety under every shipped attack)."""

import pytest

from repro.core.byz_aso import ByzantineAso
from repro.core.byz_messages import MByzGoodLA, MHave
from repro.core.byz_sso import ByzantineSso
from repro.core.tags import Timestamp, ValueTs
from repro.net.byzantine import (
    AckForger,
    Equivocator,
    FakeGoodLA,
    Silent,
    TagFlooder,
    byzantine_factory,
)
from repro.runtime.cluster import Cluster
from repro.spec import check_sequentially_consistent, is_linearizable


def test_resilience_bound():
    with pytest.raises(ValueError):
        ByzantineAso(0, 6, 2)  # needs n > 3f
    ByzantineAso(0, 7, 2)


def test_no_attack_basic_semantics():
    cluster = Cluster(ByzantineAso, n=4, f=1)
    handles = cluster.run_ops(
        [
            (0.0, 0, "update", ("a",)),
            (0.1, 1, "update", ("b",)),
            (10.0, 2, "scan", ()),
        ]
    )
    assert handles[2].result.values[:2] == ("a", "b")
    assert is_linearizable(cluster.history)


def test_values_travel_by_rbc():
    """A raw (non-RBC) HAVE for an undelivered value must not enter rows."""
    node = ByzantineAso(0, 4, 1)
    fake = ValueTs("fake", Timestamp(1, 2), 1)
    node.on_message(2, MHave(fake))
    assert node.V.values(node.V.row(2)) == frozenset()  # buffered, not applied
    assert fake in node._pending_haves


def test_rbc_delivery_rejects_wrong_origin():
    node = ByzantineAso(0, 4, 1)
    vt = ValueTs("v", Timestamp(1, 2), 1)  # claims writer 2
    node._on_rbc_deliver(3, vt)  # but delivered from origin 3
    assert node.garbage_dropped == 1
    assert not node._is_delivered(vt)


def test_rbc_first_value_per_timestamp_wins():
    node = ByzantineAso(0, 4, 1)
    vt1 = ValueTs("first", Timestamp(1, 2), 1)
    vt2 = ValueTs("second", Timestamp(1, 2), 1)
    node._on_rbc_deliver(2, vt1)
    node._on_rbc_deliver(2, vt2)
    assert node._is_delivered(vt1) and not node._is_delivered(vt2)


def test_garbage_payloads_dropped_not_fatal():
    node = ByzantineAso(0, 4, 1)
    node.on_message(3, "total garbage")
    node.on_message(3, MByzGoodLA(-5, frozenset()))  # malformed tag
    assert node.garbage_dropped >= 2


def test_fake_good_la_needs_f_plus_1_votes():
    node = ByzantineAso(0, 4, 1)
    vt = ValueTs("v", Timestamp(1, 1), 1)
    node._on_rbc_deliver(1, vt)
    ids = frozenset({vt})
    node.on_message(3, MByzGoodLA(1, ids))  # a single (possibly byz) voter
    assert node._find_verified_borrow(0, 5) is None
    node.on_message(2, MByzGoodLA(1, ids))  # second distinct voter: f+1 = 2
    assert node._find_verified_borrow(0, 5) == ids


def test_borrow_requires_locally_delivered_values():
    node = ByzantineAso(0, 4, 1)
    ghost = ValueTs("ghost", Timestamp(1, 1), 1)
    ids = frozenset({ghost})
    node.on_message(2, MByzGoodLA(1, ids))
    node.on_message(3, MByzGoodLA(1, ids))
    assert node._find_verified_borrow(0, 5) is None  # ghost not delivered


@pytest.mark.parametrize(
    "behaviour",
    [Silent, TagFlooder, AckForger, FakeGoodLA],
    ids=lambda b: b.__name__,
)
def test_safety_under_each_attack(behaviour):
    factory = byzantine_factory(ByzantineAso, {3: behaviour()})
    cluster = Cluster(factory, n=4, f=1)
    handles = []
    for node in range(3):
        handles += cluster.chain_ops(
            node,
            [("update", (f"a{node}",)), ("scan", ()), ("update", (f"b{node}",)), ("scan", ())],
            start=node * 0.25,
        )
    cluster.run_until_complete(handles)
    assert all(h.done for h in handles)
    assert is_linearizable(cluster.history)


def test_safety_under_equivocating_writer():
    def payloads(shell):
        return (
            ValueTs("evil-A", Timestamp(1, shell.node_id), 1),
            ValueTs("evil-B", Timestamp(1, shell.node_id), 1),
        )

    factory = byzantine_factory(ByzantineAso, {3: Equivocator(payloads)})
    cluster = Cluster(factory, n=4, f=1)
    handles = []
    for node in range(3):
        handles += cluster.chain_ops(
            node, [("update", (f"h{node}",)), ("scan", ())], start=node * 0.2
        )
    cluster.run_until_complete(handles)
    # honest segments correct; segment 3 shows at most one of the
    # conflicting values, identically across scans
    seen3 = {
        h.result.values[3] for h in handles if h.kind == "scan" and h.done
    }
    assert len(seen3 - {None}) <= 1
    assert is_linearizable(cluster.history)


def test_mixed_attack_coalition():
    factory = byzantine_factory(
        ByzantineAso, {6: TagFlooder(), 5: FakeGoodLA()}
    )
    cluster = Cluster(factory, n=7, f=2)
    handles = []
    for node in range(4):
        handles += cluster.chain_ops(
            node, [("update", (f"v{node}",)), ("scan", ())], start=node * 0.3
        )
    cluster.run_until_complete(handles)
    assert is_linearizable(cluster.history)


def test_byzantine_sso_local_scan():
    cluster = Cluster(ByzantineSso, n=4, f=1)
    up = cluster.invoke_at(0.0, 0, "update", "x")
    cluster.run_until_complete([up])
    cluster.run(until=cluster.sim.now + 5.0)
    sc = cluster.invoke(1, "scan")
    cluster.run_until_complete([sc])
    assert sc.latency == 0.0 and sc.messages_sent == 0
    assert sc.result.values[0] == "x"
    assert check_sequentially_consistent(cluster.history)


def test_byzantine_sso_safe_under_fake_views():
    factory = byzantine_factory(ByzantineSso, {3: FakeGoodLA(frozenset())})
    cluster = Cluster(factory, n=4, f=1)
    handles = []
    for node in range(3):
        handles += cluster.chain_ops(
            node, [("update", (f"v{node}",)), ("scan", ())], start=node * 0.2
        )
    cluster.run_until_complete(handles)
    assert check_sequentially_consistent(cluster.history)
