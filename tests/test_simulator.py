"""Trajectory sampling, cost estimation, the martingale identity, spaced impulses."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from impulsive_ctmdp import (
    ValueFunction,
    dynkin_check,
    estimate_cost,
    extract_policy,
    replication_rng,
    simulate_spaced,
    simulate_trajectory,
    solve,
)
from impulsive_ctmdp.bellman import StationaryPolicy
from impulsive_ctmdp.simulate import BLOCK, _block_rng
from impulsive_ctmdp.testing import random_model

from conftest import geometric_model, improper_policy, two_state, zero_cost_model


def solved(model):
    report = solve(model)
    return report, extract_policy(model, report.V)


def test_absorbing_zero_cost_start():
    m = two_state()
    _, policy = solved(m)
    traj = simulate_trajectory(m, policy, "0", replication_rng(0, 0))
    assert traj.natural_jump_count == 0
    assert traj.total_cost == 0.0
    assert traj.truncation_time == math.inf


def test_gradual_mean_matches_closed_form():
    m = two_state()
    _, policy = solved(m)
    est = estimate_cost(m, policy, "1", 2_000, seed=42)
    assert abs(est.mean - 0.5) <= 3 * est.std_error
    assert est.std_error > 0


def test_initial_chain_pays_exactly_the_impulse_cost():
    m = two_state(lam=0.3)
    _, policy = solved(m)
    traj = simulate_trajectory(m, policy, "1", replication_rng(3, 0))
    assert traj.total_cost == 0.3
    assert traj.discounted_impulse_cost == 0.3
    assert traj.truncation_time == math.inf
    chain_epochs = [ep for ep in traj.epochs if ep.chain is not None]
    assert len(chain_epochs) == 1 and chain_epochs[0].time == 0.0
    assert chain_epochs[0].post_state == "0"


def test_zero_cost_estimate_is_exactly_zero():
    m = zero_cost_model()
    _, policy = solved(m)
    est = estimate_cost(m, policy, "0", 50, seed=1)
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_estimate_is_thread_count_invariant():
    m = two_state()
    _, policy = solved(m)
    one = estimate_cost(m, policy, "1", 400, seed=9, threads=1)
    two = estimate_cost(m, policy, "1", 400, seed=9, threads=2)
    assert one.mean == two.mean
    assert one.std_error == two.std_error


def test_estimate_is_thread_count_invariant_across_blocks():
    # Work splits at block boundaries; the last block is a partial one.
    m = two_state()
    _, policy = solved(m)
    runs = [estimate_cost(m, policy, "1", BLOCK + 7, seed=9, threads=k) for k in (1, 2, 3)]
    assert len({(r.mean, r.std_error) for r in runs}) == 1
    assert abs(runs[0].mean - 0.5) <= 4 * runs[0].std_error


def test_block_streams_differ_from_replication_streams():
    # Block 0 of the batched estimate and the single path of replication 0
    # (the CLI's trajectory0.csv) used to draw the same numbers.
    for seed in (0, 12345):
        assert not np.array_equal(_block_rng(seed, 0).random(8), replication_rng(seed, 0).random(8))
    assert np.array_equal(_block_rng(7, 3).random(8), _block_rng(7, 3).random(8))


def test_policy_is_read_only():
    # The simulator caches its tables on the policy object, so the policy
    # must not change under it: neither through its fields nor through the
    # containers it was built from.
    m = two_state(lam=0.3)
    _, policy = solved(m)
    before = estimate_cost(m, policy, "1", 200, seed=3)
    assert abs(before.mean - 0.3) < 1e-12
    with pytest.raises(AttributeError):
        policy.phi_i.clear()
    with pytest.raises(TypeError):
        policy.phi_i[1] = 0
    assert estimate_cost(m, policy, "1", 200, seed=3).mean == before.mean
    flags = np.array([False, True, False])
    passed = dict(policy.phi_i)
    copy = StationaryPolicy(impulsive=flags[:2], phi_g=policy.phi_g, phi_i=passed)
    assert estimate_cost(m, copy, "1", 200, seed=3).mean == before.mean
    flags[1] = False
    passed.clear()
    assert copy.impulsive.tolist() == [False, True]
    assert copy.phi_i == policy.phi_i == {1: 0}
    assert estimate_cost(m, copy, "1", 200, seed=3).mean == before.mean


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_estimate_matches_value_on_random_models(seed):
    m = random_model(seed)
    report, policy = solved(m)
    # The first state where the policy waits under an action that jumps.
    moving = [k for k, s in enumerate(m.states.labels)
              if not policy.impulsive[k] and m.rates.total_rate(s, policy.gradual_action(m, s)) > 0]
    assume(moving)
    x0 = m.states.labels[moving[0]]
    est = estimate_cost(m, policy, x0, 2_000, seed=seed)
    assert abs(est.mean - report.V[moving[0]]) <= 4 * est.std_error + report.gap


def test_long_proper_chains_are_simulated():
    # Chains of 1,000 impulses on average; analyze_chains gives 700.
    m = geometric_model(p_stay=0.999)
    est = estimate_cost(m, improper_policy(m), "x", 100, seed=1)
    assert abs(est.mean - 700.0) <= 4 * est.std_error


def test_trajectory_is_reproducible():
    m = two_state()
    _, policy = solved(m)
    a = simulate_trajectory(m, policy, "1", replication_rng(7, 3))
    b = simulate_trajectory(m, policy, "1", replication_rng(7, 3))
    assert a.total_cost == b.total_cost
    assert [ep.time for ep in a.epochs] == [ep.time for ep in b.epochs]
    assert [ep.post_state for ep in a.epochs] == [ep.post_state for ep in b.epochs]


def test_epoch_times_strictly_increase():
    m = two_state()
    _, policy = solved(m)
    for rep in range(20):
        traj = simulate_trajectory(m, policy, "1", replication_rng(11, rep))
        times = [ep.time for ep in traj.epochs]
        assert all(a < b for a, b in zip(times, times[1:]))


def test_argument_validation():
    m = two_state()
    _, policy = solved(m)
    with pytest.raises(ValueError):
        simulate_trajectory(m, policy, "1", replication_rng(0, 0), tail_tol=0.0)
    with pytest.raises(ValueError):
        estimate_cost(m, policy, "1", 1, seed=0)
    with pytest.raises(ValueError):
        dynkin_check(m, policy, ValueFunction(np.zeros(2)), "1", 0.0, 10, 0)
    with pytest.raises(ValueError):
        simulate_spaced(m, policy, "1", replication_rng(0, 0), [-0.1])


def test_dynkin_zero_function_is_exact():
    m = two_state()
    _, policy = solved(m)
    res = dynkin_check(m, policy, ValueFunction(np.zeros(2)), "1", 1.0, 100, 0)
    assert res.lhs == 0.0 and res.rhs == 0.0 and res.diff == 0.0


def test_dynkin_constant_function_telescopes():
    # With W constant and no impulses the jump flux cancels and the identity
    # reduces to e^{-t} = 1 - eta * integral, exact up to float rounding.
    m = two_state()
    _, policy = solved(m)
    res = dynkin_check(m, policy, ValueFunction(np.ones(2)), "1", 1.0, 200, 3)
    assert abs(res.diff) <= 1e-12


def test_dynkin_solved_value_within_three_sigma():
    m = two_state()
    report, policy = solved(m)
    res = dynkin_check(m, policy, report.V, "1", 1.0, 4_000, 9)
    assert abs(res.diff) <= 3 * res.std_error


def test_spaced_with_zero_waits_matches_plain_path():
    m = two_state(lam=0.3)
    _, policy = solved(m)
    for rep in range(10):
        plain = simulate_trajectory(m, policy, "1", replication_rng(13, rep))
        spaced = simulate_spaced(m, policy, "1", replication_rng(13, rep), [0.0, 0.0])
        assert spaced.total_cost == plain.total_cost
        assert spaced.discounted_impulse_cost == plain.discounted_impulse_cost
        assert spaced.truncation_time == plain.truncation_time


def test_spaced_deterministic_schedule_closed_form():
    # State 1 has zero jump rate, so the single wait d is never interrupted:
    # cost = running cost over [0, d] plus the discounted impulse.
    m = two_state(lam=0.3, rate1=0.0)
    _, policy = solved(m)
    d = 0.05
    traj = simulate_spaced(m, policy, "1", replication_rng(1, 0), [d])
    expected = (1.0 - math.exp(-d)) + 0.3 * math.exp(-d)
    assert abs(traj.total_cost - expected) <= 1e-14
    assert traj.truncation_time == math.inf


def test_spaced_interruption_switches_to_gradual_only():
    # Huge wait: the natural jump at rate 1 lands inside it almost surely,
    # after which no impulse is ever applied.
    m = two_state(lam=0.3)
    _, policy = solved(m)
    interrupted = 0
    for rep in range(50):
        traj = simulate_spaced(m, policy, "1", replication_rng(17, rep), [50.0])
        if traj.discounted_impulse_cost == 0.0:
            interrupted += 1
            chains = [ep.chain for ep in traj.epochs if ep.chain is not None]
            assert all(len(c.steps) == 0 for c in chains)
    assert interrupted >= 45  # P(jump < 50) is essentially 1


def test_natural_jump_count_bounded_by_uniform_rate():
    m = two_state()
    _, policy = solved(m)
    t_cap = 1.0
    counts = []
    for rep in range(500):
        traj = simulate_trajectory(m, policy, "1", replication_rng(19, rep))
        counts.append(sum(1 for ep in traj.epochs if 0.0 < ep.time <= t_cap))
    counts = np.array(counts, dtype=float)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert counts.mean() <= m.K * t_cap + 3 * se
