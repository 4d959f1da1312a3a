"""The paper's lemmas, instrumented and tested on live executions.

Rather than trusting the correctness proof transitively (via the A1–A4
checker), these tests observe the *internal* invariants the proof is
built from:

- **Observation 1**: for any nodes ``i, j, s``, the rows ``V_i[s]`` and
  ``V_j[s]`` are comparable at any pair of times.
- **Lemma 2**: the views of any pair of good lattice operations are
  comparable (and ordered by tag).
- **Non-skipping tags** (termination argument, Sec. III-E): the tags of
  good lattice operations across the cluster form a contiguous range —
  every tag has a good lattice operation.
- The cross-validation of the polynomial checkers against brute force on
  *algorithm-generated* (not synthetic) histories.
"""

import itertools

import pytest

from repro.core.eq_aso import EqAso
from repro.core.sso import SsoFastScan
from repro.harness.workloads import random_workload
from repro.net.delays import UniformDelay
from repro.runtime.cluster import Cluster
from repro.sim.rng import SeededRng


class RecordingEqAso(EqAso):
    """EQ-ASO that also keeps ``(tag, values)`` of every good lattice
    operation it completes — the raw material for the Lemma 2 tests.
    Views are node-local, so each is kept as its values."""

    def __init__(self, node_id: int, n: int, f: int) -> None:
        super().__init__(node_id, n, f)
        self.good_views: list[tuple[int, frozenset]] = []

    def _record_good_la(self, tag, view):
        super()._record_good_la(tag, view)
        self.good_views.append((tag, self.V.values(view)))


def run_instrumented(seed: int, *, n=4, f=1, ops_per_node=3, probe_every=0.8):
    """Random workload with periodic row probes."""
    rng = SeededRng(seed)
    cluster = Cluster(
        RecordingEqAso,
        n=n,
        f=f,
        delay_model=UniformDelay(1.0, rng.child("d"), lo=0.05),
    )
    row_samples: list[tuple[int, int, frozenset]] = []  # (observer, s, rows)

    def probe():
        for i in range(n):
            for s in range(n):
                V = cluster.node(i).V
                row_samples.append((i, s, V.values(V.row(s))))

    for tick in range(1, 40):
        cluster.sim.schedule_at(tick * probe_every, probe)
    handles = random_workload(
        cluster, rng.child("w"), ops_per_node=ops_per_node, scan_prob=0.4
    )
    cluster.run_until_complete(handles)
    probe()  # final state
    return cluster, row_samples


@pytest.mark.parametrize("seed", range(5))
def test_observation_1_row_comparability(seed):
    """V_i[s] at time t and V_j[s] at time t' are always comparable."""
    _, samples = run_instrumented(seed)
    by_source: dict[int, list[frozenset]] = {}
    for _, s, rows in samples:
        by_source.setdefault(s, []).append(rows)
    for s, observed in by_source.items():
        for a, b in itertools.combinations(observed, 2):
            assert a <= b or b <= a, f"rows for source {s} incomparable"


@pytest.mark.parametrize("seed", range(5))
def test_lemma_2_good_views_comparable(seed):
    """Views of good lattice operations are pairwise comparable, and
    tag order refines view inclusion."""
    cluster, _ = run_instrumented(seed)
    all_views = [
        (tag, view)
        for node in cluster.nodes
        for (tag, view) in node.good_views
    ]
    for (t1, v1), (t2, v2) in itertools.combinations(all_views, 2):
        assert v1 <= v2 or v2 <= v1, f"good views at tags {t1},{t2} incomparable"
        if t1 < t2:
            assert v1 <= v2, "a later-tag good view must contain earlier ones"
        elif t2 < t1:
            assert v2 <= v1


@pytest.mark.parametrize("seed", range(5))
def test_nonskipping_tags_have_good_ops(seed):
    """Every tag in use has a good lattice operation somewhere (the
    liveness argument behind line 29's termination)."""
    cluster, _ = run_instrumented(seed)
    good_tags = {
        tag for node in cluster.nodes for (tag, _) in node.good_views
    }
    if not good_tags:
        pytest.skip("workload performed no lattice operations")
    assert good_tags == set(range(min(good_tags), max(good_tags) + 1))


@pytest.mark.parametrize("algo", [EqAso, SsoFastScan], ids=lambda a: a.__name__)
@pytest.mark.parametrize("seed", range(3))
def test_algorithm_histories_validate_against_brute_force(algo, seed):
    """Tiny live executions cross-checked with exhaustive search — the
    polynomial checkers and the algorithms agree end to end."""
    from repro.spec.brute import (
        brute_force_linearizable,
        brute_force_sequentially_consistent,
    )
    from repro.spec.order import order_check

    rng = SeededRng(seed)
    cluster = Cluster(
        algo, n=3, f=1, delay_model=UniformDelay(1.0, rng.child("d"), lo=0.1)
    )
    handles = random_workload(
        cluster, rng.child("w"), ops_per_node=2, scan_prob=0.5
    )
    cluster.run_until_complete(handles)
    h = cluster.history
    assert order_check(h, real_time=True).ok == brute_force_linearizable(h)
    assert (
        order_check(h, real_time=False).ok
        == brute_force_sequentially_consistent(h)
    )
    if algo is EqAso:
        assert brute_force_linearizable(h)
    else:
        assert brute_force_sequentially_consistent(h)
