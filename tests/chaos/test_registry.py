"""The algorithm registry: every algorithm declares the payloads that
carry its values, and the Table-I view keeps its rows, claims and
contender order."""

from __future__ import annotations

import pytest

from repro.chaos.algos import REGISTRY, TABLE1
from repro.runtime.cluster import Cluster
from repro.runtime.protocol import LINEARIZABLE, SEQUENTIAL

#: failure chains key on ``value_writers``; these two classes inherit
#: EQ-ASO's ``MValue`` match but send their values inside RBC
#: ``RInit``/``REcho``/``RReady`` and ``MHave``, so their chains never fire
_BYZANTINE_GAP = pytest.mark.xfail(
    strict=True,
    reason="value_writers misses the RBC/MHave value messages: chain head "
    "crashed in 0/57 byz_aso and 0/45 byz_sso chain plans "
    "(88/88 eq_aso, 113/113 delporte)",
)


def _healthy_params():
    for p in REGISTRY:
        if p.mutant_of is None:
            marks = [_BYZANTINE_GAP] if p.supports_byzantine else []
            yield pytest.param(p, id=p.name, marks=marks)


@pytest.mark.parametrize("profile", _healthy_params())
def test_update_broadcasts_a_payload_its_class_recognises(profile):
    """A class that forgets ``value_writers`` silently disables its
    failure chains and the staircase adversary's doomed delays."""
    cls = profile.factory
    cluster = Cluster(cls, n=profile.n, f=profile.f, record_net_trace=True)
    op = cluster.invoke_at(0.0, 0, "update", "probe")
    cluster.run_until_complete([op])
    payloads = [rec.payload for rec in cluster.network.trace]
    assert payloads, "the update sent nothing"
    assert any(0 in cls.value_writers(p) for p in payloads)


def test_consistency_is_declared_by_the_class():
    levels = {p.name: p.factory.CONSISTENCY for p in REGISTRY}
    assert {name for name, level in levels.items() if level == SEQUENTIAL} == {
        "sso_fast_scan",
        "byz_sso",
    }
    assert set(levels.values()) == {LINEARIZABLE, SEQUENTIAL}


def test_table1_rows_and_claims():
    assert [(p.label, p.claims) for p in TABLE1] == [
        ("Delporte et al. [19]", ("O(D)", "O(n·D)")),
        ("Store-collect [12]", ("O(n·D)", "O(n·D)")),
        ("SCD-broadcast [29]", ("O(k·D)*", "O(k·D)*")),
        ("LA-based [41,42]+[11]", ("O(log n·D)", "O(log n·D)")),
        ("BFK fast snapshot [2408.02562]", ("O(D)", "O(c·D)†")),
        ("IMPR registers [1702.08176]", ("O(D)", "O(c·D)")),
        ("EQ-ASO [this paper]", ("O(√k·D)", "O(√k·D)")),
        ("SSO-Fast-Scan [this paper]", ("O(√k·D)", "O(1)")),
    ]


def test_contender_order():
    assert [p.label for p in TABLE1 if p.contender] == [
        "Delporte et al. [19]",
        "BFK fast snapshot [2408.02562]",
        "IMPR registers [1702.08176]",
        "EQ-ASO [this paper]",
    ]
