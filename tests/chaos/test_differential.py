"""Differential check: polynomial checkers vs brute force on fuzzed histories.

The chaos fuzzer is also a checker-validation engine: every history it
produces with ≤ :data:`~repro.chaos.runner.BRUTE_LIMIT` effective ops is
run through both the polynomial checker (:mod:`repro.spec.order`) and
the Wing&Gong-style brute-force reference (:mod:`repro.spec.brute`), and
the verdicts must agree — in *both* directions: healthy algorithms give
positive instances, the quorum-weakened mutants give negative ones.
"""

from __future__ import annotations

import pytest

from repro.chaos.algos import HEALTHY, LINEARIZABLE, get_profile
from repro.chaos.campaign import campaign_seed
from repro.chaos.gen import generate_plan
from repro.chaos.runner import BRUTE_LIMIT, run_plan
from repro.spec.brute import (
    brute_force_linearizable,
    brute_force_sequentially_consistent,
)
from repro.spec.order import effective_ops, order_check


#: per-mutant campaign-index windows (master seed 0, max 2 ops/node)
#: known to contain at least one checker rejection; pinned so the
#: negative direction stays fast and deterministic
MUTANT_WINDOWS: dict[str, range] = {
    "mut-delporte-weak-write": range(40),
    "mut-delporte-weak-scan": range(40),
    "mut-bfk-weak-store": range(100, 150),
    "mut-impr-weak-collect": range(90),
}


def _small_histories(algo: str, indices: range):
    """(history, real_time) for fuzzed executions small enough to brute."""
    profile = get_profile(algo)
    real_time = profile.factory.CONSISTENCY == LINEARIZABLE
    out = []
    for index in indices:
        seed = campaign_seed(0, algo, index)
        plan = generate_plan(profile, seed, max_ops_per_node=2)
        result = run_plan(plan, cross_validate=False)
        if result.history is None or result.failure is not None and (
            result.failure.kind == "liveness"
        ):
            continue
        if len(effective_ops(result.history)) <= BRUTE_LIMIT:
            out.append((result.history, real_time))
    return out


@pytest.mark.parametrize("algo", sorted(HEALTHY))
def test_checkers_agree_on_healthy_histories(algo):
    """Positive direction: chaos histories of correct algorithms satisfy
    both checkers (and in particular the polynomial one is not too strict)."""
    histories = _small_histories(algo, range(12))
    assert histories, "fuzzer produced no brute-checkable histories"
    for history, real_time in histories:
        poly = order_check(history, real_time=real_time).ok
        brute = (
            brute_force_linearizable(history, max_ops=BRUTE_LIMIT)
            if real_time
            else brute_force_sequentially_consistent(history, max_ops=BRUTE_LIMIT)
        )
        assert poly is True
        assert brute is True


@pytest.mark.parametrize("algo", sorted(MUTANT_WINDOWS))
def test_checkers_agree_on_violating_histories(algo):
    """Negative direction: on mutant histories the polynomial verdict —
    including every rejection — matches brute force exactly."""
    histories = _small_histories(algo, MUTANT_WINDOWS[algo])
    assert histories
    rejections = 0
    for history, real_time in histories:
        poly = order_check(history, real_time=real_time).ok
        brute = brute_force_linearizable(history, max_ops=BRUTE_LIMIT)
        assert poly == brute
        rejections += not poly
    assert rejections >= 1, "mutant window produced no violations"
