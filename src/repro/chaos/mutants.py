"""Deliberately broken algorithm variants ("mutants").

A chaos campaign that never fires is indistinguishable from one that
cannot see: these mutants are the injected faults that prove the loop —
generator → checker → shrinker → exported counterexample — actually
closes.  Each weakens exactly one guard of a healthy algorithm behind its
own :mod:`repro.chaos.algos` registry entry (reachable only by its
explicit ``mut-…`` name, never from the ``--algo all`` sweep), so tests
and the CLI can demonstrate that a weakened quorum check is caught and
shrunk to a minimal failing seed.

- :class:`DelporteWeakWriteQuorum` — UPDATE's ``n − f`` write-ack quorum
  weakened to 1: the writer's own zero-delay self-ack completes the
  update instantly, before any replica stores the value.  A scan whose
  confirmation quorum misses the (still in-flight) write then returns a
  snapshot that omits a *completed* update — a real-time (new/old
  inversion) violation.  Needs delay jitter or crash interference to
  surface: exactly what the campaign sweeps.

- :class:`DelporteWeakScanQuorum` — SCAN's identical-view confirmation
  quorum weakened from ``n − f`` to 1: the scanner's own zero-delay ack
  always confirms the first collect round, so the scan degenerates to a
  local read.  Two concurrent local scans at different nodes can return
  *incomparable* views (each missing the other side's in-flight write) —
  violating even sequential consistency.  Fires under plain concurrency,
  so it is caught fast and shrinks small.

- :class:`BfkWeakStoreQuorum` — the BFK contender's UPDATE store quorum
  weakened to 1 (the writer's own self-ack): an update "completes"
  before any replica stores it, so a later scan can miss a completed
  update — the same new/old inversion as the Delporte weak write, now
  proving the checkers keep their teeth on the new algorithm.

- :class:`ImprWeakCollectQuorum` — the IMPR contender's register-read
  quorum weakened to 1: the reader's own zero-delay reply makes every
  collect a unanimous local read, the double collect trivially agrees,
  and the scan degenerates to a local view — concurrent scans at
  different nodes return incomparable views.
"""

from __future__ import annotations

from typing import Any

from repro.baselines.bfk import BfkAso, MStoreB
from repro.baselines.delporte import DelporteAso, MCollect, MWrite
from repro.baselines.impr import ImprRegisterAso, MRegRead, RegArray, _merge
from repro.runtime.protocol import OpGen, WaitUntil


class DelporteWeakWriteQuorum(DelporteAso):
    """[mutant] write-ack quorum n−f → 1 (see module docstring)."""

    def update(self, value: Any) -> OpGen:
        self._seq += 1
        seq = self._seq
        key = (self.node_id, seq)
        self._write_acks[key] = set()
        self.phase_enter("write")
        self.broadcast(MWrite(self.node_id, seq, value))
        # mutation: any single ack — in practice the writer's own
        # zero-delay self-ack — releases the update
        yield WaitUntil(
            lambda: len(self._write_acks[key]) >= 1,
            f"weakened write ack quorum (seq {seq})",
        )
        self.phase_exit("write")
        del self._write_acks[key]
        return "ACK"


class DelporteWeakScanQuorum(DelporteAso):
    """[mutant] identical-view confirmation quorum n−f → 1."""

    def scan(self) -> OpGen:
        self.phase_enter("stable-collect")
        self.collect_rounds += 1
        reqid = next(self._reqids)
        acks: dict[int, Any] = {}
        self._collect_acks[reqid] = acks
        query_view = self.reg
        self.broadcast(MCollect(reqid, query_view))
        # mutation: one ack (the scanner's own) "confirms" the view, so
        # the stable-collect loop degenerates to a local read
        yield WaitUntil(
            lambda: len(acks) >= 1,
            f"weakened collect quorum (req {reqid})",
        )
        del self._collect_acks[reqid]
        self.phase_exit("stable-collect")
        return self._to_snapshot(query_view)


class BfkWeakStoreQuorum(BfkAso):
    """[mutant] BFK UPDATE store quorum n−f → 1 (see module docstring)."""

    def update(self, value: Any) -> OpGen:
        self._seq += 1
        seq = self._seq
        key = (self.node_id, seq)
        self._store_acks[key] = set()
        self.phase_enter("store")
        self.broadcast(MStoreB(self.node_id, seq, value))
        # mutation: any single ack — in practice the writer's own
        # zero-delay self-ack — releases the update
        yield WaitUntil(
            lambda: len(self._store_acks[key]) >= 1,
            f"weakened bfk store quorum (seq {seq})",
        )
        self.phase_exit("store")
        del self._store_acks[key]
        return "ACK"


class ImprWeakCollectQuorum(ImprRegisterAso):
    """[mutant] IMPR register-read quorum n−f → 1."""

    def collect(self) -> OpGen:
        reqid = next(self._reqids)
        acks: dict[int, RegArray] = {}
        self._read_acks[reqid] = acks
        self.phase_enter("reg-read")
        self.broadcast(MRegRead(reqid))
        # mutation: one reply (the reader's own) settles the read, so
        # every collect is a unanimous local read and the double collect
        # degenerates to a local view
        yield WaitUntil(
            lambda: len(acks) >= 1,
            f"weakened impr read quorum (req {reqid})",
        )
        self.phase_exit("reg-read")
        del self._read_acks[reqid]
        merged = next(iter(acks.values()))
        for arr in acks.values():
            merged = _merge(merged, arr)
        self.regs = _merge(self.regs, merged)
        return merged


__all__ = [
    "BfkWeakStoreQuorum",
    "DelporteWeakScanQuorum",
    "DelporteWeakWriteQuorum",
    "ImprWeakCollectQuorum",
]
