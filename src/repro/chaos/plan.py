"""Chaos plans — serializable descriptions of one adversarial execution.

A :class:`ChaosPlan` is *data*, not live objects: crash specs are plain
frozen records (no predicate closures), delays are a named distribution,
the workload is a tuple of per-node op chains.  This buys three things
the campaign depends on:

1. **Replayability** — a plan round-trips through JSON, so a failing
   seed is a complete, shareable repro (``plan.json`` in the exported
   counterexample).
2. **Shrinkability** — delta-debugging works on values: dropping a crash
   record or an op is a pure function from plan to plan.
3. **No cross-run aliasing** — the live :class:`~repro.net.faults.CrashPlan`
   (whose ``_fired`` / ``_crashed`` sets are per-execution state) is
   rebuilt *fresh* by :func:`build_crash_plan` for every run, so a fired
   crash can never leak between executions of a sweep (the bug class the
   ``CrashPlan.copy()`` satellite addresses).

Predicates are reconstructed from data at build time:
:class:`BcastCrashSpec` counts the node's broadcasts (``nth``), and
:class:`ChainCrashSpec` keys every hop on the chain head's value via the
algorithm's ``value_writers`` declaration
(:func:`~repro.net.faults.value_match`), using the per-hop ``matches``
form of :func:`~repro.net.faults.chain_crash_plan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.net.delays import (
    AdversarialDelay,
    ConstantDelay,
    DelayModel,
    UniformDelay,
)
from repro.net.faults import BroadcastCrash, CrashAtTime, CrashPlan
from repro.sim.rng import SeededRng, derive_seed


@dataclass(frozen=True, slots=True)
class TimedCrashSpec:
    """Halt ``node`` at absolute time ``time``."""

    node: int
    time: float

    def to_dict(self) -> dict[str, Any]:
        return {"type": "timed", "node": self.node, "time": self.time}


@dataclass(frozen=True, slots=True)
class BcastCrashSpec:
    """Crash ``node`` on its ``nth`` broadcast (1-based), delivering only
    to ``deliver_to`` (Definition 11 truncation).  Counting broadcasts —
    rather than closing over payload predicates — keeps the spec pure
    data; the countdown state lives in a closure built fresh per run."""

    node: int
    deliver_to: tuple[int, ...]
    nth: int = 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "bcast",
            "node": self.node,
            "deliver_to": list(self.deliver_to),
            "nth": self.nth,
        }


@dataclass(frozen=True, slots=True)
class ChainCrashSpec:
    """A Definition-11 failure chain: every hop crashes while forwarding
    the chain head's value, delivering it only to the next hop; the last
    element stays correct.  Consumes ``len(chain) - 1`` crashes."""

    chain: tuple[int, ...]

    def to_dict(self) -> dict[str, Any]:
        return {"type": "chain", "chain": list(self.chain)}


CrashLike = TimedCrashSpec | BcastCrashSpec | ChainCrashSpec


@dataclass(frozen=True, slots=True)
class ByzSpec:
    """Run ``node`` as a Byzantine shell with the named behaviour (one of
    :data:`repro.chaos.algos.BYZ_BEHAVIOURS`)."""

    node: int
    behaviour: str

    def to_dict(self) -> dict[str, Any]:
        return {"node": self.node, "behaviour": self.behaviour}


@dataclass(frozen=True, slots=True)
class DelaySpec:
    """The delay adversary, as data.

    kinds:
        ``constant``  — every message takes exactly D (lockstep);
        ``uniform``   — i.i.d. uniform in ``[lo, 1]·D``, seeded from the
                        plan seed (stream label ``chaos/delays``);
        ``targeted``  — messages *from* ``slow_sources`` take the full D,
                        everything else takes ``lo`` (the adversary slows
                        exactly the traffic it wants exposed late).
    """

    kind: str = "constant"
    lo: float = 0.05
    slow_sources: tuple[int, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "lo": self.lo,
            "slow_sources": list(self.slow_sources),
        }


@dataclass(frozen=True, slots=True)
class OpChainSpec:
    """Back-to-back client ops at one node: ``ops`` entries are
    ``("update", value)`` or ``("scan", None)``."""

    node: int
    ops: tuple[tuple[str, Any], ...]
    start: float = 0.0
    gap: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "node": self.node,
            "ops": [list(op) for op in self.ops],
            "start": self.start,
            "gap": self.gap,
        }


@dataclass(frozen=True, slots=True)
class ChaosPlan:
    """One fully described adversarial execution."""

    algo: str
    n: int
    f: int
    seed: int
    delay: DelaySpec = field(default_factory=DelaySpec)
    crashes: tuple[CrashLike, ...] = ()
    workload: tuple[OpChainSpec, ...] = ()
    byzantine: tuple[ByzSpec, ...] = ()

    # -- derived sizes -------------------------------------------------
    @property
    def crash_count(self) -> int:
        """Planned crash-fault count (the paper's ``k``, crash part)."""
        total = 0
        for spec in self.crashes:
            if isinstance(spec, ChainCrashSpec):
                total += len(spec.chain) - 1
            else:
                total += 1
        return total

    @property
    def op_count(self) -> int:
        return sum(len(chain.ops) for chain in self.workload)

    def size(self) -> tuple[int, int, int]:
        """Shrink-ordering key: (ops, faults, delay-complexity)."""
        return (
            self.op_count,
            self.crash_count + len(self.byzantine),
            0 if self.delay.kind == "constant" else 1,
        )

    # -- (de)serialization --------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "algo": self.algo,
            "n": self.n,
            "f": self.f,
            "seed": self.seed,
            "delay": self.delay.to_dict(),
            "crashes": [spec.to_dict() for spec in self.crashes],
            "workload": [chain.to_dict() for chain in self.workload],
            "byzantine": [spec.to_dict() for spec in self.byzantine],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ChaosPlan":
        crashes: list[CrashLike] = []
        for spec in data.get("crashes", ()):
            kind = spec["type"]
            if kind == "timed":
                crashes.append(TimedCrashSpec(spec["node"], spec["time"]))
            elif kind == "bcast":
                crashes.append(
                    BcastCrashSpec(
                        spec["node"], tuple(spec["deliver_to"]), spec["nth"]
                    )
                )
            elif kind == "chain":
                crashes.append(ChainCrashSpec(tuple(spec["chain"])))
            else:
                raise ValueError(f"unknown crash spec type {kind!r}")
        delay = data.get("delay", {})
        return cls(
            algo=data["algo"],
            n=int(data["n"]),
            f=int(data["f"]),
            seed=int(data["seed"]),
            delay=DelaySpec(
                kind=delay.get("kind", "constant"),
                lo=delay.get("lo", 0.05),
                slow_sources=tuple(delay.get("slow_sources", ())),
            ),
            crashes=tuple(crashes),
            workload=tuple(
                OpChainSpec(
                    node=chain["node"],
                    ops=tuple((k, v) for k, v in chain["ops"]),
                    start=chain.get("start", 0.0),
                    gap=chain.get("gap", 0.0),
                )
                for chain in data.get("workload", ())
            ),
            byzantine=tuple(
                ByzSpec(spec["node"], spec["behaviour"])
                for spec in data.get("byzantine", ())
            ),
        )


def build_crash_plan(
    plan: ChaosPlan,
    value_match_for_writer: Callable[[int], Callable[[Any], bool]],
) -> CrashPlan:
    """Materialize a *fresh* live :class:`CrashPlan` from plan data.

    Called once per execution: the returned plan (and every predicate
    closure inside it) carries no state from previous runs.
    ``value_match_for_writer`` is the algorithm's payload predicate
    factory (chain hops crash on the chain head's value).
    """
    live = CrashPlan()
    for spec in plan.crashes:
        if isinstance(spec, TimedCrashSpec):
            live.add(spec.node, CrashAtTime(spec.time))
        elif isinstance(spec, BcastCrashSpec):
            countdown = {"left": spec.nth}

            def nth_match(payload: Any, countdown=countdown) -> bool:
                countdown["left"] -= 1
                return countdown["left"] <= 0

            live.add(
                spec.node,
                BroadcastCrash(deliver_to=spec.deliver_to, match=nth_match),
            )
        elif isinstance(spec, ChainCrashSpec):
            head = spec.chain[0]
            hop_match = value_match_for_writer(head)
            hops = len(spec.chain) - 1
            from repro.net.faults import chain_crash_plan

            sub = chain_crash_plan(spec.chain, matches=[hop_match] * hops)
            for node in spec.chain[:-1]:
                live.add(node, sub.spec_for(node))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown crash spec {spec!r}")
    return live


def build_delay_model(plan: ChaosPlan) -> DelayModel:
    """Materialize the delay adversary (fresh rng stream per execution)."""
    spec = plan.delay
    if spec.kind == "constant":
        return ConstantDelay(1.0)
    if spec.kind == "uniform":
        rng = SeededRng(derive_seed(plan.seed, "chaos", "delays"))
        return UniformDelay(1.0, rng, lo=spec.lo)
    if spec.kind == "targeted":
        slow = frozenset(spec.slow_sources)
        fast = spec.lo

        def schedule(src: int, dst: int, payload: Any, now: float) -> float:
            return 1.0 if src in slow else fast

        return AdversarialDelay(1.0, schedule)
    raise ValueError(f"unknown delay kind {spec.kind!r}")


def flatten_delay(plan: ChaosPlan) -> ChaosPlan:
    """The shrink move for delays: the lockstep constant-D schedule."""
    return replace(plan, delay=DelaySpec(kind="constant"))


__all__ = [
    "BcastCrashSpec",
    "ByzSpec",
    "ChainCrashSpec",
    "ChaosPlan",
    "CrashLike",
    "DelaySpec",
    "OpChainSpec",
    "TimedCrashSpec",
    "build_crash_plan",
    "build_delay_model",
    "flatten_delay",
]
