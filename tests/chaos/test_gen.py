"""Plan generator: determinism and adversary-budget invariants."""

from __future__ import annotations

import pytest

from repro.chaos.algos import HEALTHY, all_profiles, get_profile
from repro.chaos.gen import generate_plan
from repro.chaos.plan import ChainCrashSpec

PROFILES = sorted(all_profiles())


@pytest.mark.parametrize("name", PROFILES)
def test_same_seed_same_plan(name):
    profile = get_profile(name)
    for seed in (0, 1, 99):
        assert generate_plan(profile, seed) == generate_plan(profile, seed)


def test_different_seeds_differ():
    profile = get_profile("eq_aso")
    plans = {generate_plan(profile, seed).to_dict().__repr__() for seed in range(20)}
    assert len(plans) > 1


@pytest.mark.parametrize("name", PROFILES)
@pytest.mark.parametrize("seed", range(30))
def test_fault_budget_never_exceeds_f(name, seed):
    profile = get_profile(name)
    plan = generate_plan(profile, seed)
    assert plan.crash_count + len(plan.byzantine) <= profile.f
    assert plan.n == profile.n and plan.f == profile.f


@pytest.mark.parametrize("seed", range(30))
def test_byzantine_only_where_supported(seed):
    for name in PROFILES:
        profile = get_profile(name)
        plan = generate_plan(profile, seed)
        if not profile.supports_byzantine:
            assert plan.byzantine == ()
        else:
            assert name not in HEALTHY


@pytest.mark.parametrize("seed", range(30))
def test_workload_covers_honest_non_byzantine_nodes(seed):
    profile = get_profile("byz_aso")
    plan = generate_plan(profile, seed)
    byz_nodes = {spec.node for spec in plan.byzantine}
    workload_nodes = {chain.node for chain in plan.workload}
    assert workload_nodes == set(range(plan.n)) - byz_nodes
    for chain in plan.workload:
        assert 1 <= len(chain.ops) <= 3


@pytest.mark.parametrize("seed", range(60))
def test_chain_heads_broadcast_a_doomed_update(seed):
    """Failure chains only crawl if the head actually sends its value."""
    plan = generate_plan(get_profile("delporte"), seed)
    heads = {
        spec.chain[0]
        for spec in plan.crashes
        if isinstance(spec, ChainCrashSpec)
    }
    for chain in plan.workload:
        if chain.node in heads:
            kind, value = chain.ops[0]
            assert kind == "update" and value == f"doom{chain.node}"


@pytest.mark.parametrize("seed", range(60))
def test_crash_victims_are_disjoint(seed):
    """No node is claimed by two fault specs (or a fault and Byzantium)."""
    plan = generate_plan(get_profile("scd"), seed)
    victims: list[int] = [spec.node for spec in plan.byzantine]
    for spec in plan.crashes:
        if isinstance(spec, ChainCrashSpec):
            victims.extend(spec.chain[:-1])
        else:
            victims.append(spec.node)
    assert len(victims) == len(set(victims))
