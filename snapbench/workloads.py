"""The benchmark's three workloads.

Each workload turns ``--seed`` into a fixed list of *units* (short,
independent calls into the program's public entry points) during
set-up, and runs one unit at a time through :meth:`run_unit`.  Only the
program call itself is timed: the ``timed`` argument is a callable
``timed(fn, *args, **kw) -> (result, cpu_ns)`` supplied by the runner.
Everything else a unit does — building chains, digesting outputs,
collecting latency samples — is untimed glue.

A unit returns a :class:`UnitResult`.  Its ``digest`` covers every
output the unit produced (histories, shard fingerprints, composite
cuts, latency samples, failure verdicts), so the runner can require
byte-identical repeats.

Why these three workloads is in ``README.md``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.chaos import runner as chaos_runner
from repro.chaos.algos import all_profiles
from repro.chaos.gen import generate_plan
from repro.core import EqAso
from repro.net.delays import UniformDelay
from repro.runtime.cluster import Cluster
from repro.shard.service import ShardConfig, ShardedSnapshotService
from repro.shard.workload import GLOBAL_SCAN, WorkloadSpec, generate_arrivals
from repro.sim.rng import SeededRng, derive_seed
from repro.spec.history import History
from repro.spec.order import order_check

Timed = Callable[..., tuple[Any, int]]


class BenchError(RuntimeError):
    """The benchmark itself failed (non-determinism, a checker
    disagreement, a broken invariant) — distinct from operation failures,
    which are counted, not raised."""


@dataclass
class UnitResult:
    """What one run of one unit produced."""

    cpu_ns: int  #: CPU time inside the unit's timed program calls
    digest: str  #: sha256 over every output of the unit
    attempted: int  #: operations the unit's inputs ask for
    ok_ops: int  #: operations completed in histories that passed the checker
    failed: int = 0  #: operations in histories the checker rejected
    crash_aborted: int = 0  #: operations aborted because their node crashed
    op_latency: list[float] = field(default_factory=list)  #: D, per op
    scan_latency: list[float] = field(default_factory=list)  #: D, widest reads
    layer: dict[str, Any] = field(default_factory=dict)  #: per-layer facts


def _sha(*parts: Any) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def history_digest(history: History) -> str:
    """Canonical digest of a recorded history: every op's identity,
    arguments, observer timestamps and result."""
    return _sha(
        [
            (op.op_id, op.node, op.kind, op.args, op.useq, op.t_inv, op.t_resp, op.result)
            for op in history.ops
        ]
    )


class Workload:
    """Pass hooks; the defaults suit workloads of independent sessions,
    whose histories are checked inside the timed call."""

    def starts_fresh(self, unit: Any) -> bool:
        """Whether ``unit`` starts from fresh program state (no cluster
        or cache carried over from the unit before it)."""
        return True

    def growth_quarter(self, unit: Any) -> int | None:
        """Quarter (0-3) of its history that ``unit`` belongs to for
        ``cost_growth``.  None: units are independent sessions, and the
        runner measures growth by replaying the first quarter of a pass
        at its end."""
        return None

    def end_pass(self) -> str:
        return ""

    def verify(self) -> bool:
        return True


class HistoryLong(Workload):
    """EQ-ASO objects (n=5, f=2) whose histories grow batch by batch.

    A unit is one batch of one history: each of the five nodes issues a
    closed-loop chain of ``ops_per_node`` operations (80% UPDATE, 20%
    SCAN) through :meth:`Cluster.chain_ops`, and the batch is timed as
    one :meth:`Cluster.run_until_complete` call.  A pass grows
    ``histories`` independent histories of ``batches`` batches each, one
    after the other; repeats of a batch are that batch in every pass.
    Several histories per pass average out how much one seeded schedule
    happens to grow the view plane.
    """

    name = "history_long"

    def __init__(
        self, seed: int, *, histories: int = 4, batches: int = 12, ops_per_node: int = 20
    ) -> None:
        self.n, self.f = 5, 2
        self.delay_seeds = [derive_seed(seed, "history_long", h, "delays") for h in range(histories)]
        self.batches: dict[tuple[int, int], list[list[tuple[str, tuple[Any, ...]]]]] = {}
        for h in range(histories):
            rng = SeededRng(derive_seed(seed, "history_long", h, "ops"))
            for b in range(batches):
                chains = []
                for node in range(self.n):
                    # exactly one op in five is a scan, at seeded positions,
                    # so every seed grows the same amount of state
                    scans = set(rng.sample(range(ops_per_node), ops_per_node // 5))
                    chains.append(
                        [
                            ("scan", ()) if i in scans else ("update", (f"v{node}.{b}.{i}",))
                            for i in range(ops_per_node)
                        ]
                    )
                self.batches[(h, b)] = chains
        self.last_batch = batches - 1
        self.cluster: Cluster | None = None
        self.histories: list[History] = []

    def units(self) -> list[tuple[int, int]]:
        return list(self.batches)

    def starts_fresh(self, unit: tuple[int, int]) -> bool:
        return unit[1] == 0

    def growth_quarter(self, unit: tuple[int, int]) -> int:
        return unit[1] * 4 // (self.last_batch + 1)

    def run_unit(self, unit: tuple[int, int], timed: Timed) -> UnitResult:
        h, b = unit
        if b == 0:
            if h == 0:
                self.histories = []
            delays = UniformDelay(1.0, SeededRng(self.delay_seeds[h]))
            self.cluster = Cluster(EqAso, self.n, self.f, delay_model=delays)
        cluster = self.cluster
        assert cluster is not None
        handles = []
        for node, ops in enumerate(self.batches[unit]):
            handles += cluster.chain_ops(node, ops, start=cluster.sim.now)
        _, cpu = timed(cluster.run_until_complete, handles)
        lat, scans, rows = [], [], []
        for handle in handles:
            if not handle.done:
                raise BenchError(f"history_long: {handle.kind} at node {handle.node} did not complete")
            lat.append(handle.latency)
            if handle.kind == "scan":
                scans.append(handle.latency)
            rec = handle.record
            rows.append((rec.op_id, rec.node, rec.kind, rec.args, rec.t_inv, rec.t_resp, rec.result))
        if b == self.last_batch:
            # keep the history for verify(), drop the cluster: a pass
            # never holds two grown clusters at once
            self.histories.append(cluster.history)
            self.cluster = None
        return UnitResult(
            cpu_ns=cpu,
            digest=_sha(rows),
            attempted=len(handles),
            ok_ops=len(handles),
            op_latency=lat,
            scan_latency=scans,
        )

    def end_pass(self) -> str:
        """Digest of the pass's whole histories."""
        return _sha([history_digest(h) for h in self.histories])

    def verify(self) -> bool:
        """Untimed: every history of the last pass is linearizable."""
        return all(order_check(h, real_time=True).ok for h in self.histories)


#: shard_bursty traffic shape: bursts at 1.5 ops/D for ~5 D, lulls at
#: 0.1 ops/D for ~5 D, Zipf-1.1 keys, 70% reads of which 10% are global.
#: Short bursts keep the latency tail an average over many bursts (with
#: 20 D bursts the op p99 moved by +-10% from seed to seed).
SHARD_SPEC = dict(
    keys=256,
    zipf_theta=1.1,
    read_ratio=0.7,
    global_scan_ratio=0.1,
    rate=1.5,
    off_rate=0.1,
    mean_on=5.0,
    mean_off=5.0,
)


class ShardBursty(Workload):
    """Many short sharded sessions: 4 shards × EQ-ASO (n=3, f=1).

    A unit is one independent session: its open-loop arrivals are
    generated in set-up, and the unit times one
    :meth:`ShardedSnapshotService.run_arrivals` call with ``check=True``
    (the per-shard consistency checker runs inside the timed call).
    """

    name = "shard_bursty"

    def __init__(self, seed: int, *, sessions: int = 64, ops: int = 200) -> None:
        self.service = ShardedSnapshotService(
            ShardConfig(shards=4, nodes_per_shard=3, f=1, algo="eq_aso")
        )
        self.spec = WorkloadSpec(ops=ops, **SHARD_SPEC)
        self.seeds = [derive_seed(seed, "shard_bursty", i) for i in range(sessions)]
        self.sessions = [generate_arrivals(self.spec, s) for s in self.seeds]

    def units(self) -> list[int]:
        return list(range(len(self.sessions)))

    def run_unit(self, i: int, timed: Timed) -> UnitResult:
        arrivals = self.sessions[i]
        report, cpu = timed(
            self.service.run_arrivals,
            arrivals,
            spec=self.spec,
            seed=self.seeds[i],
            check=True,
        )
        waits = [o.t_dispatch - o.t_arrival for o in report.outcomes if o.t_dispatch is not None]
        lat = [o.latency for o in report.outcomes if o.lane == "local" and not o.aborted]
        scans = [c.latency for c in report.composites if c.latency is not None]
        partial = sum(1 for c in report.composites if not c.complete)
        done = len(lat) + len(report.composites) - partial
        lat += scans
        attempted = len(arrivals)
        if sum(1 for a in arrivals if a.kind == GLOBAL_SCAN) != len(report.composites):
            raise BenchError("shard_bursty: composite count does not match arrivals")
        passed = report.order_ok is True
        digest = _sha(
            report.per_shard_fingerprints,
            [(c.index, c.cut, [repr(p) for p in c.parts]) for c in report.composites],
            lat,
            report.order_ok,
        )
        return UnitResult(
            cpu_ns=cpu,
            digest=digest,
            attempted=attempted,
            ok_ops=done if passed else 0,
            # no crashes here: an aborted or partial op is a failure too
            failed=attempted - done if passed else attempted,
            op_latency=lat,
            scan_latency=scans,
            layer={
                "queue_waits": waits,
                "imbalance": report.routed_imbalance,
                "composites": len(report.composites),
                "partial_composites": partial,
            },
        )


def chaos_profiles() -> list[str]:
    """Every non-mutant chaos profile, in registry order: the healthy
    crash-fault sweep plus the two Byzantine variants."""
    return [name for name, p in all_profiles().items() if p.mutant_of is None]


class ChaosMix(Workload):
    """Thousands of tiny adversarial clusters, one per chaos plan.

    Plans are generated in set-up (:func:`generate_plan`); a unit is a
    group of ``plans_per_unit`` plans of one profile, each timed as one
    :func:`repro.chaos.runner.run_plan` call (execution plus the
    polynomial checker, plus brute force on small histories).  Units are
    ordered group-major, so every profile appears in every quarter of a
    pass.
    """

    name = "chaos_mix"

    def __init__(
        self,
        seed: int,
        *,
        profiles: list[str] | None = None,
        groups: int = 4,
        plans_per_unit: int = 32,
    ) -> None:
        names = chaos_profiles() if profiles is None else profiles
        by_name = all_profiles()
        self.plans: dict[tuple[int, str], list[Any]] = {}
        for g in range(groups):
            for name in names:
                self.plans[(g, name)] = [
                    generate_plan(
                        by_name[name],
                        derive_seed(seed, "chaos_mix", name, g * plans_per_unit + i),
                    )
                    for i in range(plans_per_unit)
                ]

    def units(self) -> list[tuple[int, str]]:
        return list(self.plans)

    def run_unit(self, key: tuple[int, str], timed: Timed) -> UnitResult:
        out = UnitResult(cpu_ns=0, digest="", attempted=0, ok_ops=0)
        rows = []
        failed_plans = 0
        for plan in self.plans[key]:
            result, cpu = timed(chaos_runner.run_plan, plan)
            out.cpu_ns += cpu
            handles = result.handles
            aborted = sum(1 for h in handles if h.aborted)
            out.attempted += len(handles)
            out.crash_aborted += aborted
            if result.failure is None:
                out.ok_ops += sum(1 for h in handles if h.done)
            else:
                failed_plans += 1
                out.failed += len(handles) - aborted
            lat = [h.latency for h in handles if h.done]
            out.op_latency += lat
            out.scan_latency += [h.latency for h in handles if h.done and h.kind == "scan"]
            rows.append(
                (
                    plan.seed,
                    None if result.history is None else history_digest(result.history),
                    None if result.failure is None else result.failure.to_dict(),
                    [(h.done, h.aborted) for h in handles],
                    lat,
                    result.cross_validated,
                )
            )
        out.digest = _sha(rows)
        out.layer = {"failed_plans": failed_plans}
        return out


WORKLOADS: dict[str, type] = {
    "history_long": HistoryLong,
    "shard_bursty": ShardBursty,
    "chaos_mix": ChaosMix,
}
