"""Randomized differential test: bitset plane vs frozenset reference.

Drives both :class:`~repro.core.views.BitsetViewVector` and
:class:`~repro.core.views.ReferenceViewVector` through identical
adversarial operation interleavings and asserts every observable answer
is identical.  This is the micro-level version of the bench's
``metrics_identical`` guarantee: the representation (interned bitsets +
incremental EQ vs frozensets) must never be observable through the
``ViewVector`` API.  Views are plane-owned, so every view is compared
through :meth:`~repro.core.views.ViewVector.values` or
:meth:`~repro.core.views.ViewVector.extract`.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.core import tags
from repro.core.tags import Timestamp, ValueTs
from repro.core.views import BitsetViewVector, ReferenceViewVector

N = 4
MAX_TAG = 6

#: a fixed universe of values: every (tag, writer, useq) combination
POOL = [
    ValueTs(f"v{w}.{t}.{u}", Timestamp(t, w), u)
    for t in range(1, MAX_TAG + 1)
    for w in range(N)
    for u in (1, 2)
]

_node = st.integers(0, N - 1)
_tag = st.integers(0, MAX_TAG)
_value = st.integers(0, len(POOL) - 1)


def answer(plane, hit):
    """An EQ answer with its view as values (comparable across planes)."""
    return None if hit is None else (hit[0], plane.values(hit[1]))


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _node, _value),
        st.tuples(st.just("restricted"), _node, _tag),
        st.tuples(st.just("eq"), _node, st.integers(0, N - 1), st.none() | _tag),
        st.tuples(st.just("match"), _tag, st.frozensets(_value, max_size=4)),
        st.tuples(st.just("prune"), _tag),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(OPS)
def test_planes_agree_on_every_observation(ops):
    fast = BitsetViewVector(N)
    slow = ReferenceViewVector(N)
    for op in ops:
        match op:
            case ("add", j, vi):
                assert fast.add(j, POOL[vi]) == slow.add(j, POOL[vi])
            case ("restricted", j, r):
                assert fast.values(fast.restricted_row(j, r)) == slow.values(
                    slow.restricted_row(j, r)
                )
            case ("eq", i, f, r):
                assert answer(fast, fast.eq_predicate(i, f, r)) == answer(
                    slow, slow.eq_predicate(i, f, r)
                )
            case ("match", r, vis):
                ids = frozenset(POOL[k] for k in vis)
                assert fast.matching_restricted_rows(
                    r, ids
                ) == slow.matching_restricted_rows(r, ids)
            case ("prune", r):
                fast.prune_below(r)  # caches only: results must not move
                slow.prune_below(r)
    for j in range(N):
        assert fast.values(fast.row(j)) == slow.values(slow.row(j))
        assert fast.extract(fast.row(j)) == slow.extract(slow.row(j))
        assert fast.row_size(j) == slow.row_size(j)
        assert fast.contains(j, POOL[0]) == slow.contains(j, POOL[0])
        assert fast.contains(j, POOL[-1]) == slow.contains(j, POOL[-1])
    assert fast.all_values() == slow.all_values()
    assert fast.max_value_tag() == slow.max_value_tag()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_node, _value), max_size=40),
    _node,
    st.integers(0, N - 1),
    _tag,
)
def test_incremental_eq_matches_reference_under_repolling(adds, i, f, r):
    """The EQ hot path: one fixed (i, f, r) predicate re-polled after
    every single add — exactly what the runtime does while a lattice
    operation waits.  The incremental matcher must track the reference
    at every step, including polls where nothing changed."""
    fast = BitsetViewVector(N)
    slow = ReferenceViewVector(N)

    def agree() -> None:
        assert answer(fast, fast.eq_predicate(i, f, r)) == answer(
            slow, slow.eq_predicate(i, f, r)
        )

    agree()
    for j, vi in adds:
        fast.add(j, POOL[vi])
        slow.add(j, POOL[vi])
        agree()
        agree()  # a second poll with no delivery in between must agree too


#: the values of POOL with distinct timestamps (a writer never reuses a
#: timestamp, which is what makes "the newest value of a writer" unique)
UNIQUE = [v for v in POOL if v.useq == 1]
_unique = st.integers(0, len(UNIQUE) - 1)

#: (row, UNIQUE index) adds interning writer 0's tag-3 value before its
#: tag-1 value — the out-of-order arrival a relay overtaking the writer's
#: own channel (or a Byzantine origin) produces
OUT_OF_ORDER = [(0, 2 * N), (1, 1), (0, 0)]


@settings(max_examples=150, deadline=None)
@example(adds=OUT_OF_ORDER, picks=[0, 1, 2], r=2)
@given(
    st.lists(st.tuples(_node, _unique), max_size=40),
    st.lists(_unique, max_size=12),
    _tag,
)
def test_extract_matches_the_set_extract_on_both_planes(adds, picks, r):
    """The plane's ``extract(view)`` (per-writer newest bit on the bitset
    plane) equals :func:`repro.core.tags.extract` of the view's values,
    on rows, restrictions, EQ views, joins and ``view_of`` views — also
    for writers whose values were interned out of timestamp order."""
    fast = BitsetViewVector(N)
    slow = ReferenceViewVector(N)
    for j, vi in adds:
        fast.add(j, UNIQUE[vi])
        slow.add(j, UNIQUE[vi])
    picked = [UNIQUE[k] for k in picks]
    for plane in (fast, slow):
        views = [plane.row(j) for j in range(N)]
        views += [plane.restricted_row(j, r) for j in range(N)]
        hit = plane.eq_predicate(0, 1, r)
        if hit is not None:
            views.append(hit[1])
        views.append(plane.join(views[0], views[1]))
        views.append(plane.view_of(picked))
        views.append(plane.join(plane.view_of(picked), views[-2]))
        for view in views:
            assert plane.extract(view) == tags.extract(plane.values(view), N)
    assert fast.values(fast.view_of(picked)) == frozenset(picked)
    assert fast.extract(fast.view_of(picked)) == slow.extract(slow.view_of(picked))


def test_out_of_order_interning_is_tracked_per_writer():
    """The example above really exercises the unordered-writer path."""
    fast = BitsetViewVector(N)
    for j, vi in OUT_OF_ORDER:
        fast.add(j, UNIQUE[vi])
    assert UNIQUE[2 * N].ts == Timestamp(3, 0) and UNIQUE[0].ts == Timestamp(1, 0)
    assert fast.cache_stats()["unordered_writers"] == 1
    newest = fast.extract(fast.row(0)).meta[0]
    assert newest is not None and newest.tag == 3
