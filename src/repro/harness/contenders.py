"""Head-to-head contender race: BFK, IMPR, Delporte and EQ-ASO under the
workloads where their analytical bounds differ.

The literature rows of Table I are point measurements; this experiment
races the direct contenders over the *shape-revealing* axes:

- **failure-free latency** — a lone UPDATE and a lone SCAN on a quiet
  lockstep cluster: every contender's UPDATE is one round trip except
  EQ-ASO's tag phase, and the scan constants differ (IMPR pays the
  double-collect 2× layering constant);
- **SCAN vs ``c`` concurrent updaters** — a staggered lockstep wave of
  writers: each landing store invalidates one confirmation /
  double-collect round, so the pull-based contenders climb ``O(c · D)``
  while EQ-ASO's push-based equivalence quorums stay flat (the
  ``O(√k · D)`` side of the trade needs crashes, not concurrency);
- **staircase worst case** — the failure-chain adversary of Sec. III-F
  pointed at each contender (the axis where EQ-ASO's bound is proved
  optimal);
- **fault-tolerance envelope** — the largest ``f`` each construction
  accepts per ``n``, probed against the declared resilience guards
  (everything here is ``n > 2f``; the column exists so a future
  contender with a different bound is caught by the bench fingerprint).

Everything is lockstep-deterministic (constant delays, no RNG), so the
whole experiment doubles as the ``contender_latency`` bench case with a
byte-stable fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.chaos.algos import TABLE1
from repro.harness.adversary import staircase_victim_latency
from repro.runtime.cluster import Cluster


@dataclass(slots=True)
class ContenderRow:
    """One contender's measurements across the race's axes."""

    algorithm: str
    update_free: float  #: lone UPDATE latency, in D
    scan_free: float  #: lone SCAN latency, in D
    scan_vs_c: dict[int, float]  #: SCAN latency (D) per updater count c
    update_staircase: float  #: UPDATE under the √k chain adversary, in D
    scan_staircase: float  #: SCAN under the √k chain adversary, in D
    max_f: dict[int, int]  #: fault envelope: largest accepted f per n

    def as_dict(self) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "update_free_D": round(self.update_free, 2),
            "scan_free_D": round(self.scan_free, 2),
            "scan_vs_c_D": {
                str(c): round(v, 2) for c, v in sorted(self.scan_vs_c.items())
            },
            "update_staircase_D": round(self.update_staircase, 2),
            "scan_staircase_D": round(self.scan_staircase, 2),
            "max_f": {str(n): f for n, f in sorted(self.max_f.items())},
        }


def _failure_free(factory, kind: str, *, n: int, f: int) -> float:
    cluster = Cluster(factory, n=n, f=f)
    args = ("v",) if kind == "update" else ()
    h = cluster.invoke_at(0.0, 0, kind, *args)
    cluster.run_until_complete([h])
    return h.latency / cluster.D


def _scan_under_updaters(
    factory,
    c: int,
    *,
    n: int,
    f: int,
    updates_per_writer: int = 2,
    stagger: float = 1.7,
) -> float:
    """SCAN latency at node 0 while nodes ``1..c`` stream staggered
    updates.  The stagger places each store *inside* a different
    confirmation / double-collect round even on the lockstep substrate,
    so every landing write costs the pull-based scanners one more
    round (1.7 ≠ the 2·D round length, so landings never sync up with
    round boundaries)."""
    if c >= n:
        raise ValueError(f"need c < n updaters (c={c}, n={n})")
    cluster = Cluster(factory, n=n, f=f)
    wave = []
    for i in range(1, c + 1):
        wave.extend(
            cluster.chain_ops(
                i,
                [("update", (f"w{i}.{j}",)) for j in range(updates_per_writer)],
                start=stagger * (i - 1),
            )
        )
    sc = cluster.invoke_at(0.5, 0, "scan")
    cluster.run_until_complete(wave + [sc])
    return sc.latency / cluster.D


def _max_f(factory, n: int) -> int:
    """Largest ``f`` the construction's resilience guard accepts."""
    best = -1
    for f in range(n):
        try:
            factory(0, n, f)
        except ValueError:
            break
        best = f
    return best


def contender_latency(
    *,
    n: int = 9,
    c_values: Sequence[int] = (1, 2, 4, 8),
    k: int = 6,
    envelope_ns: Sequence[int] = (3, 5, 7, 9),
) -> list[ContenderRow]:
    """Race every contender across all four axes (lockstep, seedless).

    The racers are the registry's Table-I rows flagged ``contender``: the
    two new literature contenders bracketed by the incumbent pull-based
    baseline and the paper's algorithm."""
    f = (n - 1) // 2
    rows: list[ContenderRow] = []
    for profile in TABLE1:
        if not profile.contender:
            continue
        factory = profile.factory
        rows.append(
            ContenderRow(
                algorithm=profile.label,
                update_free=_failure_free(factory, "update", n=n, f=f),
                scan_free=_failure_free(factory, "scan", n=n, f=f),
                scan_vs_c={
                    c: _scan_under_updaters(factory, c, n=n, f=f)
                    for c in c_values
                },
                update_staircase=staircase_victim_latency(factory, "update", k),
                scan_staircase=staircase_victim_latency(factory, "scan", k),
                max_f={m: _max_f(factory, m) for m in envelope_ns},
            )
        )
    return rows


def format_contenders(rows: Sequence[ContenderRow]) -> list[str]:
    header = (
        f"{'Algorithm':30s} {'UPD free':>9s} {'SCAN free':>10s} "
        f"{'SCAN vs c':>24s} {'UPD √k':>8s} {'SCAN √k':>8s}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        ramp = " ".join(
            f"c{c}:{v:.1f}" for c, v in sorted(row.scan_vs_c.items())
        )
        lines.append(
            f"{row.algorithm:30s} {row.update_free:>8.2f}D {row.scan_free:>9.2f}D "
            f"{ramp:>24s} {row.update_staircase:>7.2f}D "
            f"{row.scan_staircase:>7.2f}D"
        )
    envelope = rows[0].max_f if rows else {}
    if envelope and all(r.max_f == envelope for r in rows):
        pairs = ", ".join(f"n={n}→f≤{f}" for n, f in sorted(envelope.items()))
        lines.append(f"fault envelope (all contenders, n > 2f): {pairs}")
    else:
        for row in rows:
            pairs = ", ".join(f"n={n}→f≤{f}" for n, f in sorted(row.max_f.items()))
            lines.append(f"fault envelope {row.algorithm}: {pairs}")
    return lines


__all__ = ["ContenderRow", "contender_latency", "format_contenders"]
