"""Chaos campaigns: seed-swept adversarial schedules with online
atomicity checking and counterexample shrinking.

The standing robustness loop over the whole stack:

1. :mod:`repro.chaos.gen` draws random adversarial executions — crash
   plans mixing timed halts, Definition-11 mid-broadcast truncations and
   failure chains, three delay adversaries, Byzantine behaviours
   (including equivocation) where the algorithm supports them, and
   randomized concurrent UPDATE/SCAN workloads — as pure-data
   :class:`~repro.chaos.plan.ChaosPlan` values;
2. :mod:`repro.chaos.runner` executes a plan against any registered
   algorithm and checks the recorded history with the exact polynomial
   checkers (cross-validated against the brute-force reference on small
   histories);
3. :mod:`repro.chaos.shrink` delta-debugs a failing plan down to a
   minimal failing seed, and :mod:`repro.chaos.export` writes the
   replayable counterexample bundle (plan + history + obs trace);
4. :mod:`repro.chaos.campaign` sweeps derived seeds per algorithm and
   emits a schema-validated report.

CLI: ``python -m repro.chaos --algo all --seeds 25``  (see ``--help``).
"""

from repro.chaos.algos import HEALTHY, REGISTRY, AlgoProfile, all_profiles, get_profile
from repro.chaos.campaign import (
    CampaignReport,
    FailureRecord,
    campaign_seed,
    run_campaign,
)
from repro.chaos.export import export_counterexample
from repro.chaos.gen import generate_plan
from repro.chaos.plan import (
    BcastCrashSpec,
    ByzSpec,
    ChainCrashSpec,
    ChaosPlan,
    DelaySpec,
    OpChainSpec,
    TimedCrashSpec,
)
from repro.chaos.runner import (
    CheckerMismatch,
    ExecutionResult,
    Failure,
    check_history,
    run_plan,
)
from repro.chaos.shrink import ShrinkResult, shrink_plan


def __getattr__(name: str):
    # Lazy re-export: the whole-shard crash campaign lives with the
    # sharded service (repro.shard.chaos) but is part of the chaos
    # surface.  Importing it eagerly would pull the shard stack into
    # every chaos import, so resolve it on first attribute access.
    if name == "shard_crash_campaign":
        from repro.shard.chaos import shard_crash_campaign

        return shard_crash_campaign
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AlgoProfile",
    "BcastCrashSpec",
    "ByzSpec",
    "CampaignReport",
    "ChainCrashSpec",
    "ChaosPlan",
    "CheckerMismatch",
    "DelaySpec",
    "ExecutionResult",
    "Failure",
    "FailureRecord",
    "HEALTHY",
    "OpChainSpec",
    "REGISTRY",
    "ShrinkResult",
    "TimedCrashSpec",
    "all_profiles",
    "campaign_seed",
    "check_history",
    "export_counterexample",
    "generate_plan",
    "get_profile",
    "run_campaign",
    "run_plan",
    "shard_crash_campaign",
    "shrink_plan",
]
