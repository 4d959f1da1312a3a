"""Regeneration of Table I — the paper's central comparison.

For each Table-I row of the algorithm registry
(:data:`repro.chaos.algos.TABLE1`) we measure, in units of ``D``:

- **worst-case UPDATE / SCAN**: the larger of the latency of a victim
  operation under (i) the failure-chain staircase adversary
  (:func:`repro.harness.adversary.chain_staircase`) and (ii) the
  concurrency/interference adversary (all other nodes streaming updates);
- **amortized UPDATE / SCAN**: mean per-op latency of a long back-to-back
  sequence at the victim under the chain adversary (the chains fire once,
  then their crashed nodes can no longer delay anything — the paper's
  second observation in Sec. III-F — so the mean converges to O(D)).

The *shape* (who wins, how entries grow with ``k`` and ``n``) is the
reproducible content; absolute constants depend on the substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.chaos.algos import TABLE1
from repro.harness.adversary import (
    interference_schedule,
    staircase_cluster,
    staircase_victim_latency,
)
from repro.harness.metrics import collect_registry
from repro.runtime.cluster import Cluster


@dataclass(slots=True)
class Table1Row:
    algorithm: str
    update_worst: float
    update_amortized: float
    scan_worst: float
    scan_amortized: float

    def as_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "update_worst_D": round(self.update_worst, 2),
            "update_amortized_D": round(self.update_amortized, 2),
            "scan_worst_D": round(self.scan_worst, 2),
            "scan_amortized_D": round(self.scan_amortized, 2),
        }


def _victim_latency_under_chains(factory, kind: str, k: int) -> float:
    """Latency of one victim operation while the staircase fires."""
    return staircase_victim_latency(factory, kind, k)


def _victim_latency_under_interference(
    factory, kind: str, *, n: int = 9, updates_per_writer: int = 3, seed: int = 42
) -> float:
    """Worst latency of an op of ``kind`` while a staggered wave of
    updates is in flight (seeded random delays — lockstep constant delays
    hide the pull-based retry cost, see
    :func:`repro.harness.scaling.interference_scan`)."""
    from repro.net.delays import UniformDelay
    from repro.sim.rng import SeededRng

    f = (n - 1) // 2
    rng = SeededRng(seed)
    cluster = Cluster(
        factory, n=n, f=f, delay_model=UniformDelay(1.0, rng.child("d"), lo=0.25)
    )
    victim = 0
    wave = []
    for node, ops, start in interference_schedule(
        n, victim, updates_per_writer=updates_per_writer
    ):
        wave.extend(cluster.chain_ops(node, ops, start=start))
    args = ("victim-value",) if kind == "update" else ()
    victim_op = cluster.invoke_at(2.5, victim, kind, *args)
    cluster.run_until_complete(wave + [victim_op])
    worst = victim_op.latency / cluster.D
    if kind == "update":
        worst = max(worst, max(h.latency / cluster.D for h in wave if h.done))
    return worst


def _amortized(factory, kind: str, k: int, ops: int) -> float:
    """Mean per-op latency of a long victim sequence under the chains."""
    cluster, scenario = staircase_cluster(factory, k)
    if kind == "update":
        chain = [("update", (f"vic{i}",)) for i in range(ops)]
    else:
        chain = [("scan", ())] * ops
    handles = cluster.chain_ops(scenario.victim, chain, start=2.0)
    cluster.run_until_complete(handles)
    registry = collect_registry(handles, cluster.D)
    return registry.histogram(f"latency_D.{kind}").mean


def run_table1(
    *,
    k: int = 10,
    amortized_ops: int = 25,
    interference_n: int = 9,
    seed: int = 42,
    interference: bool = True,
) -> list[Table1Row]:
    """Measure all four Table I columns for all eight algorithms.

    ``seed`` drives the interference wave's delay model (via
    :mod:`repro.sim.rng`); the chain/staircase columns are adversarial
    schedules and take no randomness.

    ``interference=False`` restricts the worst-case columns to the
    failure-chain staircase (the lockstep, constant-delay adversary).
    ``python -m repro.bench`` uses this mode for its ``table1`` case so
    the lockstep substrate benchmark is not diluted by the random-delay
    interference column, which the dedicated ``interference`` bench case
    measures on its own.
    """
    rows: list[Table1Row] = []
    for profile in TABLE1:
        factory = profile.factory
        upd_worst = _victim_latency_under_chains(factory, "update", k)
        scan_worst = _victim_latency_under_chains(factory, "scan", k)
        if interference:
            upd_worst = max(
                upd_worst,
                _victim_latency_under_interference(
                    factory, "update", n=interference_n, seed=seed
                ),
            )
            scan_worst = max(
                scan_worst,
                _victim_latency_under_interference(
                    factory, "scan", n=interference_n, seed=seed
                ),
            )
        rows.append(
            Table1Row(
                algorithm=profile.label,
                update_worst=upd_worst,
                update_amortized=_amortized(factory, "update", k, amortized_ops),
                scan_worst=scan_worst,
                scan_amortized=_amortized(factory, "scan", k, amortized_ops),
            )
        )
    return rows


def format_table1(rows: Sequence[Table1Row]) -> str:
    header = (
        f"{'Algorithm':30s} {'UPDATE worst':>13s} {'UPDATE amort':>13s} "
        f"{'SCAN worst':>11s} {'SCAN amort':>11s}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.algorithm:30s} {row.update_worst:>12.2f}D "
            f"{row.update_amortized:>12.2f}D {row.scan_worst:>10.2f}D "
            f"{row.scan_amortized:>10.2f}D"
        )
    return "\n".join(lines)


__all__ = ["Table1Row", "run_table1", "format_table1"]
