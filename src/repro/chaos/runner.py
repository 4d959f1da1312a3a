"""Execute one chaos plan and check its history online.

The runner is the bridge between plan data and the existing stack: it
materializes the live cluster (fresh crash plan, fresh delay streams,
Byzantine shells where the plan says so), drives the workload, and then
applies the specification machinery:

- **safety** — the exact polynomial checker of :mod:`repro.spec.order`,
  at the algorithm's specification level (linearizability for atomic
  algorithms, sequential consistency for the sequential-snapshot
  family);
- **cross-validation** — on small histories (≤ :data:`BRUTE_LIMIT`
  effective ops) the Wing&Gong-style exponential checker of
  :mod:`repro.spec.brute` must agree with the polynomial verdict; a
  disagreement is a bug in the *checkers*, not a campaign finding, and
  raises :class:`CheckerMismatch` immediately;
- **liveness** — a drained event queue with parked operations
  (:class:`~repro.runtime.cluster.StuckError`) and operations that
  neither completed nor crashed are failures too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.chaos.algos import (
    LINEARIZABLE,
    AlgoProfile,
    get_profile,
    make_behaviour,
    value_match_for,
)
from repro.chaos.plan import ChaosPlan, build_crash_plan, build_delay_model
from repro.net.byzantine import byzantine_factory
from repro.runtime.cluster import Cluster, OpHandle, StuckError
from repro.spec.brute import (
    brute_force_linearizable,
    brute_force_sequentially_consistent,
)
from repro.spec.history import History
from repro.spec.order import effective_ops, order_check

#: brute-force cross-validation bound (effective ops)
BRUTE_LIMIT = 9


class CheckerMismatch(AssertionError):
    """The polynomial and brute-force checkers disagreed on one history —
    a specification-layer bug that must surface immediately."""


@dataclass(slots=True)
class Failure:
    """One detected violation."""

    kind: str  #: "atomicity" | "liveness"
    detail: str

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "detail": self.detail}


@dataclass(slots=True)
class ExecutionResult:
    """Outcome of one executed plan."""

    plan: ChaosPlan
    history: History | None
    failure: Failure | None
    effective_op_count: int
    cross_validated: bool
    handles: list[OpHandle]

    @property
    def ok(self) -> bool:
        return self.failure is None


def build_cluster(plan: ChaosPlan, *, tracer: Any = None) -> Cluster:
    """Materialize the cluster a plan describes (fresh per call)."""
    profile = get_profile(plan.algo)
    factory = profile.factory
    if plan.byzantine:
        behaviours = {
            spec.node: make_behaviour(spec.behaviour) for spec in plan.byzantine
        }
        factory = byzantine_factory(factory, behaviours)
    crash_plan = build_crash_plan(plan, value_match_for(profile))
    return Cluster(
        factory,
        n=plan.n,
        f=plan.f,
        delay_model=build_delay_model(plan),
        crash_plan=crash_plan,
        tracer=tracer,
    )


def run_plan(
    plan: ChaosPlan, *, tracer: Any = None, cross_validate: bool = True
) -> ExecutionResult:
    """Run one plan to completion and check the resulting history."""
    profile = get_profile(plan.algo)
    cluster = build_cluster(plan, tracer=tracer)
    handles: list[OpHandle] = []
    for chain in plan.workload:
        handles.extend(
            cluster.chain_ops(
                chain.node,
                [
                    (kind, () if value is None else (value,))
                    for kind, value in chain.ops
                ],
                start=chain.start,
                gap=chain.gap,
            )
        )
    try:
        cluster.run_until_complete(handles)
    except StuckError as exc:
        return ExecutionResult(
            plan=plan,
            history=cluster.history,
            failure=Failure("liveness", str(exc)),
            effective_op_count=0,
            cross_validated=False,
            handles=handles,
        )

    # ops at never-crashed nodes must have completed (aborts are only
    # legitimate for nodes the crash adversary actually killed)
    crashed = cluster.crash_plan.crashed_nodes
    for handle in handles:
        if handle.node not in crashed and not handle.done:
            return ExecutionResult(
                plan=plan,
                history=cluster.history,
                failure=Failure(
                    "liveness",
                    f"node {handle.node} {handle.kind}{handle.args!r} did "
                    "not complete although the node never crashed",
                ),
                effective_op_count=0,
                cross_validated=False,
                handles=handles,
            )

    return check_history(
        plan, cluster.history, handles=handles, cross_validate=cross_validate
    )


def check_history(
    plan: ChaosPlan,
    history: History,
    *,
    handles: list[OpHandle] | None = None,
    cross_validate: bool = True,
) -> ExecutionResult:
    """Apply the safety checkers to a recorded history."""
    profile = get_profile(plan.algo)
    real_time = profile.factory.CONSISTENCY == LINEARIZABLE
    result = order_check(history, real_time=real_time)
    eff = len(effective_ops(history))

    validated = False
    if cross_validate and eff <= BRUTE_LIMIT:
        brute = (
            brute_force_linearizable(history, max_ops=BRUTE_LIMIT)
            if real_time
            else brute_force_sequentially_consistent(history, max_ops=BRUTE_LIMIT)
        )
        if brute != result.ok:
            raise CheckerMismatch(
                f"checker disagreement on {plan.algo} seed {plan.seed}: "
                f"polynomial={result.ok} brute={brute} "
                f"({eff} effective ops, real_time={real_time})"
            )
        validated = True

    failure = None
    if not result.ok:
        level = "linearizable" if real_time else "sequentially consistent"
        failure = Failure(
            "atomicity",
            f"history is not {level}; violating cycle op_ids={result.cycle}",
        )
    return ExecutionResult(
        plan=plan,
        history=history,
        failure=failure,
        effective_op_count=eff,
        cross_validated=validated,
        handles=handles or [],
    )


def profile_for(plan: ChaosPlan) -> AlgoProfile:
    return get_profile(plan.algo)


__all__ = [
    "BRUTE_LIMIT",
    "CheckerMismatch",
    "ExecutionResult",
    "Failure",
    "build_cluster",
    "check_history",
    "run_plan",
]
