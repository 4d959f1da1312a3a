"""The algorithm registry: one :class:`AlgoProfile` per runnable
snapshot implementation, keyed by a short CLI-friendly name.

:data:`REGISTRY` is the only place algorithm classes are enumerated.
Its order is Table-I order — the literature rows, then the paper's —
followed by the two Byzantine variants (``n > 3f``; the generator may
also replace up to ``f`` nodes with adversarial behaviours, including
equivocation, from :mod:`repro.net.byzantine`) and the quorum-weakened
mutants of :mod:`repro.chaos.mutants`.  Everything else is derived from
it: the ``--algo all`` sweep (:data:`HEALTHY`), Table I and the
contender race (:data:`TABLE1`), the shard service's resolver and the
trace replayer's level lookup.

An entry holds only what the class cannot say about itself.  The class
declares its specification level (``CONSISTENCY``) and which payloads
carry a writer's value (``value_writers``); see
:class:`repro.runtime.protocol.ProtocolNode`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.baselines import (
    BfkAso,
    DelporteAso,
    ImprRegisterAso,
    LatticeAso,
    ScdAso,
    StoreCollectAso,
)
from repro.chaos.mutants import (
    BfkWeakStoreQuorum,
    DelporteWeakScanQuorum,
    DelporteWeakWriteQuorum,
    ImprWeakCollectQuorum,
)
from repro.core import ByzantineAso, ByzantineSso, EqAso, SsoFastScan
from repro.core.tags import Timestamp, ValueTs
from repro.net.byzantine import (
    AckForger,
    ByzantineBehavior,
    Equivocator,
    FakeGoodLA,
    Silent,
    TagFlooder,
)
from repro.net.faults import value_match
from repro.runtime.protocol import LINEARIZABLE, SEQUENTIAL, ProtocolNode


@dataclass(frozen=True, slots=True)
class AlgoProfile:
    """What the registry knows about one algorithm beyond its class."""

    name: str
    factory: type[ProtocolNode]
    #: cluster size and fault threshold of chaos plans
    n: int = 5
    f: int = 2
    supports_byzantine: bool = False
    #: for mutants: the healthy profile this one weakens (None = healthy)
    mutant_of: str | None = None
    #: Table-I row label (empty: not a Table-I row) and the paper's
    #: (UPDATE, SCAN) bounds for that row
    label: str = ""
    claims: tuple[str, ...] = ()
    #: raced head-to-head in :mod:`repro.harness.contenders`
    contender: bool = False


REGISTRY: tuple[AlgoProfile, ...] = (
    AlgoProfile(
        "delporte",
        DelporteAso,
        label="Delporte et al. [19]",
        claims=("O(D)", "O(n·D)"),
        contender=True,
    ),
    AlgoProfile(
        "store_collect",
        StoreCollectAso,
        label="Store-collect [12]",
        claims=("O(n·D)", "O(n·D)"),
    ),
    AlgoProfile(
        "scd", ScdAso, label="SCD-broadcast [29]", claims=("O(k·D)*", "O(k·D)*")
    ),
    AlgoProfile(
        "la_based",
        LatticeAso,
        label="LA-based [41,42]+[11]",
        claims=("O(log n·D)", "O(log n·D)"),
    ),
    AlgoProfile(
        "bfk",
        BfkAso,
        label="BFK fast snapshot [2408.02562]",
        claims=("O(D)", "O(c·D)†"),
        contender=True,
    ),
    AlgoProfile(
        "impr",
        ImprRegisterAso,
        label="IMPR registers [1702.08176]",
        claims=("O(D)", "O(c·D)"),
        contender=True,
    ),
    AlgoProfile(
        "eq_aso",
        EqAso,
        label="EQ-ASO [this paper]",
        claims=("O(√k·D)", "O(√k·D)"),
        contender=True,
    ),
    AlgoProfile(
        "sso_fast_scan",
        SsoFastScan,
        label="SSO-Fast-Scan [this paper]",
        claims=("O(√k·D)", "O(1)"),
    ),
    AlgoProfile("byz_aso", ByzantineAso, n=4, f=1, supports_byzantine=True),
    AlgoProfile("byz_sso", ByzantineSso, n=4, f=1, supports_byzantine=True),
    AlgoProfile(
        "mut-delporte-weak-write", DelporteWeakWriteQuorum, mutant_of="delporte"
    ),
    AlgoProfile(
        "mut-delporte-weak-scan", DelporteWeakScanQuorum, mutant_of="delporte"
    ),
    AlgoProfile("mut-bfk-weak-store", BfkWeakStoreQuorum, mutant_of="bfk"),
    AlgoProfile("mut-impr-weak-collect", ImprWeakCollectQuorum, mutant_of="impr"),
)

_BY_NAME: dict[str, AlgoProfile] = {p.name: p for p in REGISTRY}

#: the healthy crash-model sweep (``--algo all`` / ``--smoke``): every
#: entry that is neither a mutant nor a Byzantine variant
HEALTHY: tuple[str, ...] = tuple(
    p.name for p in REGISTRY if p.mutant_of is None and not p.supports_byzantine
)

#: the Table-I rows, in table order
TABLE1: tuple[AlgoProfile, ...] = tuple(p for p in REGISTRY if p.label)


def _equivocator() -> ByzantineBehavior:
    """Equivocation attack: conflicting value/timestamp pairs for the
    same (writer, useq) identity, sent to different halves of the
    cluster (the Bracha-RBC defeat case)."""

    def payloads(shell: Any) -> tuple[Any, Any]:
        me = shell.node_id
        return (
            ValueTs("equiv-A", Timestamp(1, me), 1),
            ValueTs("equiv-B", Timestamp(1, me), 1),
        )

    return Equivocator(payloads)


#: Byzantine behaviour constructors the generator may draw from
BYZ_BEHAVIOURS: dict[str, Callable[[], ByzantineBehavior]] = {
    "silent": Silent,
    "tag-flooder": TagFlooder,
    "ack-forger": AckForger,
    "fake-goodLA": FakeGoodLA,
    "equivocator": _equivocator,
}


def make_behaviour(name: str) -> ByzantineBehavior:
    try:
        return BYZ_BEHAVIOURS[name]()
    except KeyError:
        raise KeyError(
            f"unknown Byzantine behaviour {name!r}; "
            f"choose from {sorted(BYZ_BEHAVIOURS)}"
        ) from None


def all_profiles() -> dict[str, AlgoProfile]:
    """Every runnable profile by name, in registry order."""
    return dict(_BY_NAME)


def get_profile(name: str) -> AlgoProfile:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; choose from {sorted(_BY_NAME)}"
        ) from None


def value_match_for(profile: AlgoProfile) -> Callable[[int], Callable[[Any], bool]]:
    """The algorithm's payload predicate factory for failure chains
    (hop crashes keyed on the chain head's value)."""
    return value_match(profile.factory.value_writers)


__all__ = [
    "AlgoProfile",
    "BYZ_BEHAVIOURS",
    "HEALTHY",
    "LINEARIZABLE",
    "REGISTRY",
    "SEQUENTIAL",
    "TABLE1",
    "all_profiles",
    "get_profile",
    "make_behaviour",
    "value_match_for",
]
