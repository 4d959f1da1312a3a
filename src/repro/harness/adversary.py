"""Adversarial schedules: the worst cases of Sec. III-F, made executable.

Two adversaries drive the Table I measurements:

- :func:`chain_staircase` — the failure-chain construction behind the
  :math:`O(\\sqrt{k}\\,D)` bound (Definitions 10–11).  With a budget of
  ``k`` crashes it builds ``m ≈ √(2k)`` chains of lengths ``1, 2, …, m``
  (chain ``j`` burns ``j`` faulty nodes), all terminating at the victim
  node.  Chain ``j``'s value stays *exposed* until hop ``j`` completes, so
  a fresh exposed value lands on the victim every ``D`` for ``m·D`` time —
  each arrival re-breaks the victim's equivalence quorum.  An EQ-ASO
  operation at the victim therefore takes ``Θ(√k · D)``; the paper proves
  no adversary can do better than this staircase against EQ-ASO (Lemmas
  6–8: chains of distinct exposure spans use disjoint faulty nodes).

- :func:`interference_schedule` — the concurrency adversary for the
  pull-based baselines: every node except the victim issues back-to-back
  UPDATEs while the victim SCANs.  Each concurrent update invalidates one
  confirmation/double-collect round, so [19]- and [12]-style scans pay
  ``Θ(c · D)`` with ``c`` concurrent writers (``c = n − 1`` ⇒ the paper's
  ``O(n · D)``), while EQ-ASO completes in ``O(D)`` amortized under the
  same load (technique T2 caps renewals at three before borrowing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.eq_aso import EqAso
from repro.net.faults import BroadcastCrash, CrashPlan, value_match


@dataclass(frozen=True, slots=True)
class ChainScenario:
    """A constructed staircase of failure chains.

    Attributes:
        n: required cluster size.
        f: fault threshold to configure (≥ k).
        k: total crashes consumed.
        chains: the chains, outermost writer first; each ends at ``victim``.
        writers: the chain-head nodes (they issue the doomed updates).
        victim: the node whose operations the staircase delays.
        crash_plan: ready-to-use crash plan.
    """

    n: int
    f: int
    k: int
    chains: tuple[tuple[int, ...], ...]
    writers: tuple[int, ...]
    victim: int
    crash_plan: CrashPlan


def max_chains_for_budget(k: int) -> int:
    """Largest m with 1 + 2 + … + m ≤ k."""
    m = int((math.isqrt(8 * k + 1) - 1) // 2)
    return m


def chain_staircase(
    k: int,
    *,
    victim: int = 0,
    extra_correct: int = 2,
    match_for_writer: Callable[[int], Callable[[Any], bool]] | None = None,
) -> ChainScenario:
    """Build the √k staircase for a crash budget of ``k``.

    Chain ``j`` (``j = 1..m``) consists of ``j`` faulty nodes ending at the
    victim; its head updates a value that crawls one hop per ``D`` and
    reaches the victim at time ``≈ j·D`` after the head broadcast it.
    Every chain member crashes while (re)broadcasting *that chain's*
    value — Definition 11's crash mode — delivering it only to the next
    member.  ``match_for_writer(head_id)`` builds the payload predicate
    identifying the chain's value; the default is EQ-ASO's.

    ``n`` is sized so that ``k ≤ f < n/2`` with ``extra_correct`` spare
    correct nodes beyond the victim and quorum needs.
    """
    if k < 1:
        raise ValueError("need a crash budget of at least 1")
    m = max_chains_for_budget(k)
    used = m * (m + 1) // 2
    f = k
    n = 2 * f + 1 + extra_correct
    if victim >= n:
        raise ValueError("victim id out of range")
    make_match = match_for_writer or value_match(EqAso.value_writers)

    plan = CrashPlan()
    chains: list[tuple[int, ...]] = []
    next_node = 0

    def alloc() -> int:
        nonlocal next_node
        while next_node == victim:
            next_node += 1
        node = next_node
        next_node += 1
        return node

    for j in range(1, m + 1):
        members = [alloc() for _ in range(j)]
        chain = tuple(members) + (victim,)
        chains.append(chain)
        match = make_match(members[0])
        for idx, node in enumerate(members):
            nxt = chain[idx + 1]
            plan.add(node, BroadcastCrash(deliver_to=(nxt,), match=match))
    if next_node > n:
        raise AssertionError("allocated more nodes than the cluster has")
    return ChainScenario(
        n=n,
        f=f,
        k=used,
        chains=tuple(chains),
        writers=tuple(chain[0] for chain in chains),
        victim=victim,
        crash_plan=plan,
    )


def staircase_victim_latency(
    factory,
    kind: str,
    k: int,
    *,
    match_for_writer: Callable[[int], Callable[[Any], bool]] | None = None,
    fast: float = 0.05,
) -> float:
    """Latency (in D) of one victim operation under the full √k worst-case
    scenario of Sec. III-F.

    Orchestration (D = 1; the adversary may pick any delay ≤ D per
    message, so "fast" background traffic is legal):

    1. an auxiliary correct node completes an UPDATE at t = 0 over fast
       links, raising the system tag to 1;
    2. the chain heads invoke their doomed UPDATEs at t = 1: they read
       tag 1 and broadcast values tagged 2, crashing mid-broadcast
       (Definition 11).  Every message carrying a doomed value takes the
       full D — both the chain hops and the post-exposure stabilization
       traffic — so chain ``j``'s value reaches the victim at
       ≈ (1 + j)·D and needs 2·D more to re-stabilize the victim's
       equivalence rows;
    3. a second auxiliary node updates at t = 1.2 (after the heads have
       read their tag), pushing the readable tag to 2 so the victim's
       lattice operation is bound to the tag window containing the
       exposed values;
    4. the victim's operation starts at t = 2.0, just after the first
       exposure lands: consecutive exposures arrive D apart while each
       needs 2·D to settle, so the equivalence quorum stays broken until
       the last chain settles — ≈ ``(√(2k) + 2)``·D for EQ-ASO.
       Baselines under the same adversary measure whatever they measure
       (several are insensitive to chains; EXPERIMENTS.md discusses it).
    """
    cluster, scenario = staircase_cluster(
        factory, k, match_for_writer=match_for_writer, fast=fast
    )
    args = ("victim-value",) if kind == "update" else ()
    victim_op = cluster.invoke_at(2.0, scenario.victim, kind, *args)
    cluster.run_until_complete([victim_op])
    return victim_op.latency / cluster.D


def staircase_cluster(
    factory,
    k: int,
    *,
    match_for_writer: Callable[[int], Callable[[Any], bool]] | None = None,
    fast: float = 0.05,
):
    """Build the full staircase scenario (chains + delay adversary + tag
    pumps + doomed updates scheduled) and return ``(cluster, scenario)``.
    The caller invokes the victim's operation(s) from t ≈ 2.0 onward."""
    from repro.net.delays import AdversarialDelay
    from repro.runtime.cluster import Cluster

    value_writers = factory.value_writers
    make_match = match_for_writer or value_match(value_writers)
    scenario = chain_staircase(k, match_for_writer=make_match)
    faulty = set(scenario.crash_plan.planned_nodes())
    writers = frozenset(scenario.writers)
    correct_spares = [
        node
        for node in range(scenario.n - 1, -1, -1)
        if node not in faulty and node != scenario.victim
    ]
    if len(correct_spares) < 2:
        raise ValueError("scenario needs two spare correct nodes")
    aux1, aux2 = correct_spares[0], correct_spares[1]

    # doomedness depends only on the payload, and a broadcast asks once
    # per destination with the identical payload object — memoize the
    # last payload (held by strong reference, so the identity test is
    # safe against id reuse)
    memo_payload: Any = None
    memo_delay = float(fast)

    def delays(src: int, dst: int, payload: Any, now: float) -> float | None:
        nonlocal memo_payload, memo_delay
        if payload is memo_payload:
            return memo_delay
        memo_payload = payload
        # a payload is doomed when it carries a chain writer's value
        memo_delay = fast if writers.isdisjoint(value_writers(payload)) else 1.0
        return memo_delay

    cluster = Cluster(
        factory,
        n=scenario.n,
        f=scenario.f,
        delay_model=AdversarialDelay(1.0, delays),
        crash_plan=scenario.crash_plan,
    )
    cluster.invoke_at(0.0, aux1, "update", "pump-1")
    for writer in scenario.writers:
        cluster.invoke_at(1.0, writer, "update", f"doomed{writer}")
    cluster.invoke_at(1.2, aux2, "update", "pump-2")
    return cluster, scenario


def interference_schedule(
    n: int,
    victim: int,
    *,
    updates_per_writer: int,
    stagger: float = 1.0,
) -> list[tuple[int, list[tuple[str, tuple[Any, ...]]], float]]:
    """Per-node op chains for the concurrency adversary: every node except
    the victim issues ``updates_per_writer`` back-to-back updates, with
    writer ``i`` starting ``i·stagger`` later than its predecessor.

    The staggering is what makes the pull-based baselines pay linearly: a
    fresh write lands every ``stagger`` time units for ``≈ n·stagger``
    total, and each landing invalidates one confirmation/double-collect
    round — so a [19]- or [12]-style scan only completes once the wave has
    passed, ``Θ(n·D)`` later.  Returns ``(node, ops, start)`` triples for
    :meth:`Cluster.chain_ops`.
    """
    schedule: list[tuple[int, list[tuple[str, tuple[Any, ...]]], float]] = []
    position = 0
    for node in range(n):
        if node == victim:
            continue
        ops = [
            ("update", (f"w{node}.{i}",)) for i in range(updates_per_writer)
        ]
        schedule.append((node, ops, position * stagger))
        position += 1
    return schedule


__all__ = [
    "ChainScenario",
    "chain_staircase",
    "interference_schedule",
    "max_chains_for_budget",
]
