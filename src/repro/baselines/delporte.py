"""Baseline [19]: Delporte-Gallet, Fauconnier, Rajsbaum & Raynal (TPDS'18),
"Implementing snapshot objects on top of crash-prone asynchronous
message-passing systems" — the first *direct* message-passing ASO.

Structure (faithful to their design, constants simplified):

- every node replicates the segment array ``REG[j] = (seq, value)``;
- **UPDATE(v)**: increment the own sequence number, broadcast the write,
  wait for ``n − f`` acknowledgements — one round trip, ``O(D)``;
- **SCAN**: repeated *collects* — broadcast a query, each replica answers
  with its entire ``REG`` (after merging the scanner's current view, which
  makes replica state monotone); the scan returns when ``n − f`` replicas
  answer with a state **identical** to the scanner's current merged view.
  This identical-quorum confirmation is the pull-based counterpart of the
  equivalence quorum and is what makes the returned views of any two
  scans comparable: the two confirmation quorums intersect in a replica
  whose state is monotone, so one view is a prefix of the other.

Each concurrent UPDATE can invalidate a confirmation round, so a scan
takes up to ``O(c)`` rounds with ``c`` concurrent updates — the paper's
``O(n·D)`` worst case (``c ≤ n`` with sequential nodes).  The contrast
with EQ-ASO is the paper's motivating observation (Sec. III-C): pull-based
double-collect pays per-interference rounds; push-based forwarding does
not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from repro.core.tags import Snapshot, Timestamp, ValueTs
from repro.runtime.protocol import OpGen, ProtocolNode, WaitUntil

# a replica's segment array: tuple of (seq, value) with seq 0 = ⊥
SegArray = tuple[tuple[int, Any], ...]


@dataclass(frozen=True, slots=True)
class MWrite:
    writer: int
    seq: int
    value: Any


@dataclass(frozen=True, slots=True)
class MWriteAckD:
    writer: int
    seq: int


@dataclass(frozen=True, slots=True)
class MCollect:
    """Scanner's query; carries the scanner's merged view so replicas
    converge toward it (keeps replica state monotone and confirmable)."""

    reqid: int
    view: SegArray


@dataclass(frozen=True, slots=True)
class MCollectAck:
    reqid: int
    view: SegArray


def _merge(a: SegArray, b: SegArray) -> SegArray:
    """Pointwise max-by-seq merge of two segment arrays."""
    return tuple(x if x[0] >= y[0] else y for x, y in zip(a, b))


class DelporteAso(ProtocolNode):
    """Crash-tolerant ASO in the style of [19] (``n > 2f``)."""

    @staticmethod
    def value_writers(payload: Any) -> tuple[int, ...]:
        return (payload.writer,) if type(payload) is MWrite else ()

    def __init__(self, node_id: int, n: int, f: int) -> None:
        super().__init__(node_id, n, f)
        if n <= 2 * f:
            raise ValueError(f"Delporte ASO requires n > 2f (n={n}, f={f})")
        self.reg: SegArray = tuple((0, None) for _ in range(n))
        self._seq = 0
        self._reqids = itertools.count(1)
        self._write_acks: dict[tuple[int, int], set[int]] = {}
        self._collect_acks: dict[int, dict[int, SegArray]] = {}
        self.collect_rounds = 0  # instrumentation: scan round count

    # ------------------------------------------------------------------
    def update(self, value: Any) -> OpGen:
        """UPDATE(v): one write round trip — O(D)."""
        self._seq += 1
        seq = self._seq
        key = (self.node_id, seq)
        self._write_acks[key] = set()
        self.phase_enter("write")
        self.broadcast(MWrite(self.node_id, seq, value))
        yield WaitUntil(
            lambda: len(self._write_acks[key]) >= self.quorum_size,
            f"delporte write ack quorum (seq {seq})",
        )
        self.phase_exit("write")
        del self._write_acks[key]
        return "ACK"

    def scan(self) -> OpGen:
        """SCAN(): collect until n−f replicas confirm the exact view."""
        self.phase_enter("stable-collect")
        while True:
            self.collect_rounds += 1
            reqid = next(self._reqids)
            acks: dict[int, SegArray] = {}
            self._collect_acks[reqid] = acks
            query_view = self.reg
            self.broadcast(MCollect(reqid, query_view))
            yield WaitUntil(
                lambda: len(acks) >= self.quorum_size,
                f"delporte collect quorum (req {reqid})",
            )
            del self._collect_acks[reqid]
            confirmations = sum(1 for v in acks.values() if v == query_view)
            # merge everything we learned (monotone local view)
            for v in acks.values():
                self.reg = _merge(self.reg, v)
            if confirmations >= self.quorum_size and self.reg == query_view:
                self.phase_exit("stable-collect")
                return self._to_snapshot(query_view)
            # else: a concurrent update moved the object; go around again

    def _to_snapshot(self, view: SegArray) -> Snapshot:
        meta = []
        values = []
        for j, (seq, value) in enumerate(view):
            if seq == 0:
                meta.append(None)
                values.append(None)
            else:
                meta.append(ValueTs(value, Timestamp(seq, j), useq=seq))
                values.append(value)
        return Snapshot(values=tuple(values), meta=tuple(meta))

    # ------------------------------------------------------------------
    def on_message(self, src: int, payload: Any) -> None:
        match payload:
            case MWrite(writer, seq, value):
                if seq > self.reg[writer][0]:
                    reg = list(self.reg)
                    reg[writer] = (seq, value)
                    self.reg = tuple(reg)
                self.send(src, MWriteAckD(writer, seq))
            case MWriteAckD(writer, seq):
                acks = self._write_acks.get((writer, seq))
                if acks is not None:
                    acks.add(src)
            case MCollect(reqid, view):
                self.reg = _merge(self.reg, view)
                self.send(src, MCollectAck(reqid, self.reg))
            case MCollectAck(reqid, view):
                acks = self._collect_acks.get(reqid)
                if acks is not None:
                    acks[src] = view
            case _:
                raise TypeError(f"Delporte ASO got unknown message {payload!r}")


__all__ = ["DelporteAso"]
