"""View vectors, views and the equivalence-quorum predicate (Definition 6).

Node ``i`` maintains ``V[1..n]`` where ``V[j]`` is the set of values
(value–timestamp pairs) received from node ``j``.  Because channels are
FIFO and each node forwards every value exactly once, ``V_i[j]`` is ``i``'s
view of what ``j`` has learned (Sec. III-C), which yields the comparability
property of Observation 1.

``EQ(V, i)`` holds iff at least ``n − f`` rows (an *equivalence quorum*)
equal row ``i`` (the *equivalence set*).  The multi-shot algorithm checks
the predicate on the tag-restricted vector ``V^{≤r}``.

A **view** (a row, a tag-restricted row, an equivalence set, a good
lattice operation's view) is a value owned by the data plane that made
it; only this module knows its format.  Algorithms hold views, store
them, and hand them back to the plane: :meth:`ViewVector.extract` (the
paper's ``extract``, Algorithm 1 lines 31–34), :meth:`ViewVector.join`,
:meth:`ViewVector.values` (the frozenset, built only at the spec, test
and wire boundaries) and :meth:`ViewVector.view_of` (the reverse).

Two interchangeable **data planes** implement the structure, mirroring the
fast/slow simulation substrate of :mod:`repro.sim.fastpath`:

- :class:`BitsetViewVector` (the default): every distinct value is
  interned into a dense integer id by a per-node :class:`ValueInterner`,
  a row — and every view — is a Python int used as a bitset
  (``row |= 1 << id``), and the tag restriction ``V[j]^{≤r}`` is
  ``row & mask_at_most(r)``.  The interner keeps one mask per writer, so
  ``extract`` reads each writer's newest value as the top bit of
  ``view & writer_mask[j]``: O(n) big-int operations, never a walk over
  the history a view has accumulated.  ``EQ(V^{≤r}, i)`` is
  **incremental** masked integer equality: the runtime re-polls the
  predicate after *every* delivery while a lattice operation waits, so
  the plane tracks which rows changed since the last poll and maintains
  a bitmask of rows matching row ``i`` — a delivery that touched no row
  re-checks nothing, and a typical delivery re-checks exactly one row.
  Incremental match state is kept for up to :data:`MAX_EQ_STATES`
  distinct ``(i, r)`` predicates simultaneously, and one pass over the
  dirty rows refreshes *every* pending predicate's match mask (the
  batched-EQ evaluation): a lattice operation returning to a tag it
  polled before — phase-0 at ``r`` followed by a renewal, or the
  three-attempt renewal loop — answers from its kept mask instead of
  re-scanning all ``n`` rows.  ``STATS.eq_batched_scans`` counts the
  piggybacked refreshes.
- :class:`ReferenceViewVector`: the original frozenset-per-row
  implementation, whose views are frozensets, kept as the behavioural
  oracle.

``ViewVector(n)`` consults :func:`repro.sim.fastpath.fast_path_enabled`
at construction time, exactly like the simulation substrate: flipping the
switch never affects a live object, randomized differential tests drive
both planes through identical operation interleavings, and every run of
``python -m repro.bench`` asserts the two planes produce byte-identical
paper-facing metrics before reporting a speedup.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Any, Hashable, Iterable

from repro.core import tags
from repro.core.tags import Snapshot, ValueTs, snapshot_of, tag_of
from repro.sim.fastpath import STATS, fast_path_enabled

#: A view: opaque outside this module.  An int bitmask on the bitset
#: plane, a frozenset of values on the reference plane; only the plane
#: that made a view may interpret it.
View = Any

#: Upper bound on concurrently-tracked incremental EQ states per vector.
#: A node polls EQ for its own row at the current read tag plus the
#: handful of renewal tags a lattice operation revisits, so a small
#: bound captures every live predicate; eviction is least-recently-
#: queried (re-querying an evicted state just pays one full rescan).
MAX_EQ_STATES = 8

#: A state not re-queried within this many evaluations is dropped at the
#: next dirty flush instead of refreshed: batched upkeep is a bet that
#: the predicate will be polled again soon, and a stale state would
#: otherwise tax every flush until `prune_below` retires its tag.
MAX_EQ_IDLE = 64


class ValueInterner:
    """Per-vector table assigning each distinct value a dense integer id.

    The id is the value's bit position in every row bitset.  Kept up to
    date at intern time, all append-only:

    - per distinct tag, the mask of ids carrying that tag, plus the
      ascending list of those tags (:meth:`mask_at_most`);
    - per writer of a timestamped value, the mask of that writer's ids
      and whether they were interned in timestamp order (:meth:`newest`).
    """

    __slots__ = (
        "_ids",
        "_values",
        "_tags",
        "_tag_masks",
        "_writer_masks",
        "_unordered",
    )

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}
        self._values: list[Any] = []
        self._tags: list[int] = []
        self._tag_masks: dict[int, int] = {}
        self._writer_masks: dict[int, int] = {}
        #: writers with an id interned after one of larger tag (a relay
        #: can outrun the writer's own channel, and a Byzantine origin
        #: can RBC-deliver a lower tag after a higher one)
        self._unordered: set[int] = set()

    def __len__(self) -> int:
        return len(self._values)

    def intern(self, value: Hashable) -> int:
        """The id of ``value``, assigning the next free one if new."""
        idx = self._ids.get(value)
        if idx is None:
            idx = len(self._values)
            self._ids[value] = idx
            self._values.append(value)
            bit = 1 << idx
            tag = tag_of(value)
            tag_mask = self._tag_masks.get(tag)
            if tag_mask is None:
                insort(self._tags, tag)
                self._tag_masks[tag] = bit
            else:
                self._tag_masks[tag] = tag_mask | bit
            ts = getattr(value, "ts", None)
            if ts is not None:
                writer = ts.writer
                mine = self._writer_masks.get(writer, 0)
                # while a writer's ids are in timestamp order its top id
                # holds its largest tag
                if mine and self._values[mine.bit_length() - 1].ts.tag > ts.tag:
                    self._unordered.add(writer)
                self._writer_masks[writer] = mine | bit
            STATS.values_interned += 1
        return idx

    def id_of(self, value: Hashable) -> int | None:
        """The id of ``value`` if it has been interned, else ``None``."""
        return self._ids.get(value)

    def mask_at_most(self, r: int) -> int:
        """Bitmask of every interned value with tag ≤ ``r``: everything
        minus the tags above ``r``.  Queried tags sit near the top of the
        tag list, so the loop is short."""
        known = self._tags
        universe = (1 << len(self._values)) - 1
        if not known or known[-1] <= r:
            return universe
        tag_masks = self._tag_masks
        above = 0
        for k in range(bisect_right(known, r), len(known)):
            above |= tag_masks[known[k]]
        return universe ^ above

    def newest(self, mask: int, n: int) -> list[ValueTs | None]:
        """Per writer ``j < n``, the value in ``mask`` written by ``j``
        with the largest timestamp (None if there is none): the top bit
        of ``mask & writer_mask[j]``, or a scan of just those bits for a
        writer whose ids were not interned in timestamp order."""
        values = self._values
        writer_masks = self._writer_masks
        unordered = self._unordered
        best: list[ValueTs | None] = [None] * n
        for j in range(n):
            m = mask & writer_masks.get(j, 0)
            if not m:
                continue
            if j not in unordered:
                best[j] = values[m.bit_length() - 1]
                continue
            top: ValueTs | None = None
            while m:
                low = m & -m
                vt: ValueTs = values[low.bit_length() - 1]
                if top is None or vt.ts > top.ts:
                    top = vt
                m ^= low
            best[j] = top
        return best

    def unpack(self, mask: int) -> frozenset:
        """The set of values whose bits are set in ``mask``."""
        values = self._values
        out = []
        m = mask
        while m:
            low = m & -m
            out.append(values[low.bit_length() - 1])
            m ^= low
        return frozenset(out)

    def mask_stats(self) -> dict[str, int]:
        """Diagnostics: table sizes (read by ``cache_stats``/benchmarks)."""
        return {
            "interned": len(self._values),
            "tag_masks": len(self._tag_masks),
            "unordered_writers": len(self._unordered),
        }


class ViewVector:
    """The vector ``V[0..n-1]`` of value sets at one node.

    Constructing ``ViewVector(n)`` returns the active data plane:
    :class:`BitsetViewVector` under the fast path (the default),
    :class:`ReferenceViewVector` under ``repro.sim.slow_path()``.  The
    public API below is identical for both planes — algorithms never
    observe the representation, which is what makes the planes (and the
    bench's byte-identity guarantee) interchangeable.
    """

    __slots__ = ()

    def __new__(cls, n: int) -> "ViewVector":
        if cls is ViewVector:
            impl = BitsetViewVector if fast_path_enabled() else ReferenceViewVector
            return object.__new__(impl)
        return object.__new__(cls)

    # -- mutation -------------------------------------------------------
    def add(self, j: int, vt: ValueTs) -> bool:
        """Add ``vt`` to row ``j``; returns True if it was new to that row."""
        raise NotImplementedError

    # -- row access -----------------------------------------------------
    def row(self, j: int) -> View:
        """Row ``j`` as a view (the full, unrestricted row)."""
        raise NotImplementedError

    def row_size(self, j: int) -> int:
        raise NotImplementedError

    def contains(self, j: int, vt: ValueTs) -> bool:
        raise NotImplementedError

    def restricted_row(self, j: int, r: int) -> View:
        """``V[j]^{≤r}`` as a view — the values in row ``j`` with tag at
        most ``r``."""
        raise NotImplementedError

    def matching_restricted_rows(self, r: int, ids: frozenset[ValueTs]) -> int:
        """How many rows satisfy ``V[j]^{≤r} == ids``.

        This is the verifier's side of the Byzantine row-verified borrow
        (DESIGN.md §3.3): the caller compares the count against its
        ``n − f`` quorum.  ``ids`` is a claim in its wire form; the bitset
        plane answers with one mask comparison per row and interns
        nothing.
        """
        raise NotImplementedError

    # -- views ----------------------------------------------------------
    def extract(self, view: View) -> Snapshot:
        """The paper's ``extract`` (Algorithm 1, lines 31–34) of a view:
        per writer, its value with the largest timestamp."""
        raise NotImplementedError

    def join(self, a: View, b: View) -> View:
        """The view holding the values of both ``a`` and ``b``."""
        raise NotImplementedError

    def values(self, view: View) -> frozenset:
        """The values of ``view`` as a frozenset — for checkers, tests and
        wire messages, never the EQ-ASO hot path."""
        raise NotImplementedError

    def view_of(self, values: Iterable[Hashable]) -> View:
        """The view holding exactly ``values`` (the inverse of
        :meth:`values`; the bitset plane interns unseen values)."""
        raise NotImplementedError

    # -- whole-vector diagnostics --------------------------------------
    def all_values(self) -> frozenset[ValueTs]:
        """Union of all rows (every value this node has ever seen).

        Maintained incrementally by :meth:`add` — feeds per-op harness
        diagnostics, never the algorithm.
        """
        raise NotImplementedError

    def max_value_tag(self) -> int:
        """Largest tag among received values (0 if none).

        Note this is *not* the algorithm's ``maxTag`` variable: per the
        paper (Sec. III-D, "Message Handlers"), ``maxTag`` is updated only
        by writeTag/echoTag messages — a dedicated test pins that rule.
        This helper only feeds diagnostics and is maintained incrementally
        by :meth:`add`.
        """
        raise NotImplementedError

    # -- the predicate --------------------------------------------------
    def eq_predicate(
        self, i: int, f: int, r: int | None = None
    ) -> tuple[tuple[int, ...], View] | None:
        """Evaluate ``EQ(V^{≤r}, i)`` (Definition 6).

        Args:
            i: the node evaluating the predicate.
            f: fault threshold; the quorum size is ``n − f``.
            r: tag bound; ``None`` means the unrestricted predicate
               (one-shot algorithm, Sec. III-C).

        Returns:
            ``(quorum, equivalence_set)`` if the predicate holds — the
            quorum is the sorted tuple of *all* matching rows (a superset
            of some ``n − f``-quorum), the equivalence set a view — else
            ``None``.
        """
        raise NotImplementedError

    # -- memory management ---------------------------------------------
    def prune_below(self, r: int) -> None:
        """Evict per-tag cached state below ``r`` (the bitset plane's EQ
        match states, the reference plane's restricted rows).

        Called by :meth:`repro.core.eq_aso.EqAso._gc_old_tags` with the
        ``gc_tag_window`` cutoff: restrictions at pruned tags can no
        longer be requested by future lattice operations (read tags are
        non-decreasing), so evicting them bounds cache growth on
        long-lived deployments.  Caches only — never affects results.
        """
        raise NotImplementedError

    def cache_stats(self) -> dict[str, int | str]:
        """Diagnostics: plane name and cache/table sizes (tests and the
        ``views`` macro-benchmark read this; algorithms never do)."""
        raise NotImplementedError


class BitsetViewVector(ViewVector):
    """The interned-bitset data plane with incremental EQ (the default)."""

    __slots__ = (
        "n",
        "_interner",
        "_rows",
        "_dirty",
        "_eq_states",
        "_eq_tick",
        "_union_mask",
        "_max_seen_tag",
    )

    def __init__(self, n: int) -> None:
        self.n = n
        self._interner = ValueInterner()
        self._rows: list[int] = [0] * n
        #: bitmask of rows changed since the last eq_predicate evaluation
        self._dirty = 0
        #: (i, r) -> mutable [target bits, match bitmask, last-queried
        #: tick]; insertion order is least-recently-queried (each hit
        #: reinserts its key), bounded at MAX_EQ_STATES by evicting the
        #: front, with idle states expired after MAX_EQ_IDLE evals
        self._eq_states: dict[tuple[int, int | None], list[int]] = {}
        #: eq_predicate call counter (the idle-expiry clock)
        self._eq_tick = 0
        self._union_mask = 0
        self._max_seen_tag = 0

    def add(self, j: int, vt: ValueTs) -> bool:
        bit = 1 << self._interner.intern(vt)
        row = self._rows[j]
        if row & bit:
            return False
        self._rows[j] = row | bit
        self._dirty |= 1 << j
        if not self._union_mask & bit:
            self._union_mask |= bit
            tag = tag_of(vt)
            if tag > self._max_seen_tag:
                self._max_seen_tag = tag
        return True

    def row(self, j: int) -> int:
        return self._rows[j]

    def row_size(self, j: int) -> int:
        return self._rows[j].bit_count()

    def contains(self, j: int, vt: ValueTs) -> bool:
        idx = self._interner.id_of(vt)
        return idx is not None and (self._rows[j] >> idx) & 1 == 1

    def restricted_row(self, j: int, r: int) -> int:
        return self._rows[j] & self._interner.mask_at_most(r)

    def matching_restricted_rows(self, r: int, ids: frozenset[ValueTs]) -> int:
        id_of = self._interner.id_of
        claim = 0
        for vt in ids:
            idx = id_of(vt)
            if idx is None:
                return 0  # a value no row here has ever seen: no row matches
            claim |= 1 << idx
        mask = self._interner.mask_at_most(r)
        if claim & ~mask:
            return 0  # some claimed value has tag > r: no restriction matches
        return sum(1 for row in self._rows if row & mask == claim)

    def extract(self, view: int) -> Snapshot:
        return snapshot_of(self._interner.newest(view, self.n))

    def join(self, a: int, b: int) -> int:
        return a | b

    def values(self, view: int) -> frozenset:
        return self._interner.unpack(view)

    def view_of(self, values: Iterable[Hashable]) -> int:
        intern = self._interner.intern
        mask = 0
        for value in values:
            mask |= 1 << intern(value)
        return mask

    def all_values(self) -> frozenset[ValueTs]:
        return self._interner.unpack(self._union_mask)

    def max_value_tag(self) -> int:
        return self._max_seen_tag

    def eq_predicate(
        self, i: int, f: int, r: int | None = None
    ) -> tuple[tuple[int, ...], int] | None:
        STATS.eq_evals += 1
        rows = self._rows
        n = self.n
        interner = self._interner
        key = (i, r)
        states = self._eq_states
        state = states.get(key)
        dirty = self._dirty
        tick = self._eq_tick = self._eq_tick + 1
        if dirty:
            # one pass over the dirty rows refreshes EVERY pending
            # predicate's match mask (the batched-EQ evaluation), so a
            # predicate re-queried later answers incrementally instead
            # of paying a full rescan for rows that changed "while it
            # was away".  A new value interned since a state's last
            # refresh can widen its mask, but an unchanged row cannot
            # contain the new bit (setting a row bit marks the row
            # dirty), so clean rows keep their masked value — and their
            # match status — as-is; the mask is re-derived fresh per
            # state for exactly this reason.  eq_rows_scanned/saved keep
            # their PR-4 meaning (row work for the *queried* predicate);
            # piggybacked refreshes are accounted in eq_batched_scans.
            expired = None
            for k, st in states.items():
                if k != key and tick - st[2] > MAX_EQ_IDLE:
                    if expired is None:
                        expired = [k]
                    else:
                        expired.append(k)
                    continue
                k_mask = -1 if k[1] is None else interner.mask_at_most(k[1])
                if (dirty >> k[0]) & 1:
                    # the state's own target row changed: recompute the
                    # full match mask (n integer compares).
                    k_target = rows[k[0]] & k_mask
                    k_matches = 0
                    bit = 1
                    for j in range(n):
                        if rows[j] & k_mask == k_target:
                            k_matches |= bit
                        bit <<= 1
                    st[0] = k_target
                    st[1] = k_matches
                    if k == key:
                        STATS.eq_rows_scanned += n
                else:
                    k_target = st[0]
                    k_matches = st[1]
                    scanned = 0
                    d = dirty
                    while d:
                        low = d & -d
                        if rows[low.bit_length() - 1] & k_mask == k_target:
                            k_matches |= low
                        else:
                            k_matches &= ~low
                        d ^= low
                        scanned += 1
                    st[1] = k_matches
                    if k == key:
                        STATS.eq_rows_scanned += scanned
                        STATS.eq_rows_saved += n - scanned
                if k != key:
                    STATS.eq_batched_scans += 1
            if expired is not None:
                for k in expired:
                    del states[k]
            self._dirty = 0
        if state is None:
            # first evaluation of this (i, r) (or it was evicted):
            # full scan, then register it for incremental upkeep.
            mask = -1 if r is None else interner.mask_at_most(r)
            target = rows[i] & mask
            matches = 0
            bit = 1
            for j in range(n):
                if rows[j] & mask == target:
                    matches |= bit
                bit <<= 1
            STATS.eq_rows_scanned += n
            if len(states) >= MAX_EQ_STATES:
                del states[next(iter(states))]
            state = [target, matches, tick]
        else:
            if not dirty:
                STATS.eq_rows_saved += n
            target, matches = state[0], state[1]
            state[2] = tick
            del states[key]  # reinsert below: move to most-recent
        states[key] = state
        if matches.bit_count() >= n - f:
            quorum = tuple(j for j in range(n) if (matches >> j) & 1)
            return quorum, target
        return None

    def prune_below(self, r: int) -> None:
        for eq_key in [
            k for k in self._eq_states if k[1] is not None and k[1] < r
        ]:
            del self._eq_states[eq_key]

    def cache_stats(self) -> dict[str, int | str]:
        return {
            "plane": "bitset",
            "eq_states": len(self._eq_states),
            **self._interner.mask_stats(),
        }


class ReferenceViewVector(ViewVector):
    """The original set-based data plane — the behavioural oracle.

    Rows only ever grow; the class exploits that to cache tag-restricted
    rows (the EQ predicate is re-evaluated after every delivery while a
    lattice operation waits, and most rows are unchanged between checks).
    """

    __slots__ = ("n", "_rows", "_filter_cache", "_union_values", "_max_seen_tag")

    def __init__(self, n: int) -> None:
        self.n = n
        self._rows: list[set[ValueTs]] = [set() for _ in range(n)]
        #: (j, r) -> (row size at filter time, materialized frozenset)
        self._filter_cache: dict[tuple[int, int], tuple[int, frozenset[ValueTs]]] = {}
        self._union_values: set[ValueTs] = set()
        self._max_seen_tag = 0

    def add(self, j: int, vt: ValueTs) -> bool:
        row = self._rows[j]
        if vt in row:
            return False
        row.add(vt)
        if vt not in self._union_values:
            self._union_values.add(vt)
            tag = tag_of(vt)
            if tag > self._max_seen_tag:
                self._max_seen_tag = tag
        return True

    def row(self, j: int) -> frozenset[ValueTs]:
        return frozenset(self._rows[j])

    def row_size(self, j: int) -> int:
        return len(self._rows[j])

    def contains(self, j: int, vt: ValueTs) -> bool:
        return vt in self._rows[j]

    def restricted_row(self, j: int, r: int) -> frozenset[ValueTs]:
        key = (j, r)
        size = len(self._rows[j])
        hit = self._filter_cache.get(key)
        if hit is not None and hit[0] == size:
            return hit[1]
        filtered = frozenset(vt for vt in self._rows[j] if tag_of(vt) <= r)
        self._filter_cache[key] = (size, filtered)
        return filtered

    def matching_restricted_rows(self, r: int, ids: frozenset[ValueTs]) -> int:
        target = ids if isinstance(ids, frozenset) else frozenset(ids)
        return sum(1 for j in range(self.n) if self.restricted_row(j, r) == target)

    def extract(self, view: frozenset[ValueTs]) -> Snapshot:
        return tags.extract(view, self.n)

    def join(self, a: frozenset[ValueTs], b: frozenset[ValueTs]) -> frozenset[ValueTs]:
        return a if b <= a else a | b

    def values(self, view: frozenset[ValueTs]) -> frozenset:
        return view

    def view_of(self, values: Iterable[Hashable]) -> frozenset:
        return frozenset(values)

    def all_values(self) -> frozenset[ValueTs]:
        return frozenset(self._union_values)

    def max_value_tag(self) -> int:
        return self._max_seen_tag

    def eq_predicate(
        self, i: int, f: int, r: int | None = None
    ) -> tuple[tuple[int, ...], frozenset[ValueTs]] | None:
        STATS.eq_evals += 1
        n = self.n
        need = n - f
        if r is None:
            target: frozenset[ValueTs] = self.row(i)
            rows = [self.row(j) for j in range(n)]
        else:
            target = self.restricted_row(i, r)
            rows = [self.restricted_row(j, r) for j in range(n)]
        STATS.eq_rows_scanned += n
        quorum = tuple(j for j in range(n) if rows[j] == target)
        if len(quorum) >= need:
            return quorum, target
        return None

    def prune_below(self, r: int) -> None:
        for key in [k for k in self._filter_cache if k[1] < r]:
            del self._filter_cache[key]

    def cache_stats(self) -> dict[str, int | str]:
        return {
            "plane": "reference",
            "filter_cache": len(self._filter_cache),
            "eq_states": 0,
        }


def eq_predicate(
    V: ViewVector, i: int, f: int, r: int | None = None
) -> tuple[tuple[int, ...], View] | None:
    """Evaluate ``EQ(V^{≤r}, i)`` (Definition 6).

    Thin functional wrapper over :meth:`ViewVector.eq_predicate`, kept
    for API stability (tests and notebooks call the Definition by name).
    """
    return V.eq_predicate(i, f, r)


__all__ = [
    "MAX_EQ_IDLE",
    "MAX_EQ_STATES",
    "BitsetViewVector",
    "ReferenceViewVector",
    "ValueInterner",
    "View",
    "ViewVector",
    "eq_predicate",
]
