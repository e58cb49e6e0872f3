"""Intervention chains: sampling, expected cost, landing distributions."""

import math
from dataclasses import replace

import numpy as np
import pytest

from impulsive_ctmdp import (
    ImproperChainError,
    analyze_chains,
    evaluate_policy,
    extract_policy,
    sample_chain,
    solve,
)
from impulsive_ctmdp.intervention import chain_guard, expected_landing_value
from impulsive_ctmdp.simulate import _prepare, replication_rng
from impulsive_ctmdp.testing import random_model
from impulsive_ctmdp.model import (
    ActionCatalog,
    CostModel,
    CtmdpModel,
    ImpulseKernel,
    RateKernel,
    StateSpace,
    StationaryPolicy,
)

from conftest import geometric_model, improper_model, improper_policy, two_state


def flag_all(model):
    return improper_policy(model)


def two_step_chain_model():
    """Deterministic impulses x -> y -> z with z gradual."""
    return CtmdpModel(
        states=StateSpace(("x", "y", "z")),
        actions=ActionCatalog(gradual={s: ("wait",) for s in ("x", "y", "z")},
                              impulsive={"x": ("go",), "y": ("go",), "z": ()}),
        rates=RateKernel(rows={(s, "wait"): () for s in ("x", "y", "z")}, K_rate=1.0),
        impulses=ImpulseKernel(rows={("x", "go"): (("y", 1.0),),
                                     ("y", "go"): (("z", 1.0),)}),
        costs=CostModel(gradual_cost={(s, "wait"): 0.0 for s in ("x", "y", "z")},
                        impulse_cost={("x", "go"): 0.4, ("y", "go"): 0.6},
                        eta=1.0, K_cost=1.0, c_lower=0.4),
    )


def bernoulli_landing_model():
    return CtmdpModel(
        states=StateSpace(("x", "y", "z")),
        actions=ActionCatalog(gradual={s: ("wait",) for s in ("x", "y", "z")},
                              impulsive={"x": ("j",), "y": (), "z": ()}),
        rates=RateKernel(rows={(s, "wait"): () for s in ("x", "y", "z")}, K_rate=1.0),
        impulses=ImpulseKernel(rows={("x", "j"): (("y", 0.5), ("z", 0.5))}),
        costs=CostModel(gradual_cost={(s, "wait"): 0.0 for s in ("x", "y", "z")},
                        impulse_cost={("x", "j"): 0.5},
                        eta=1.0, K_cost=1.0, c_lower=0.5),
    )


def test_single_deterministic_impulse():
    m = two_state(lam=0.3)
    report = solve(m)
    policy = extract_policy(m, report.V)
    chain = sample_chain(m, policy, "1", replication_rng(0, 0))
    assert chain.steps == (("1", "reset"),)
    assert chain.landing == "0"
    assert chain.total_cost == 0.3


def test_sample_chain_requires_flagged_state():
    m = two_state(lam=0.3)
    policy = extract_policy(m, solve(m).V)
    with pytest.raises(ValueError):
        sample_chain(m, policy, "0", replication_rng(0, 0))


def test_bernoulli_landing_frequency():
    m = bernoulli_landing_model()
    policy = flag_all(m)
    rng = replication_rng(6, 0)
    n = 10_000
    hits = sum(sample_chain(m, policy, "x", rng).landing == "y" for _ in range(n))
    sigma = math.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) <= 3 * sigma


def test_improper_cycle_trips_the_guard():
    m = improper_model()
    policy = improper_policy(m)
    with pytest.raises(ImproperChainError) as err:
        sample_chain(m, policy, "x", replication_rng(0, 0))
    assert err.value.state in ("x", "y")
    with pytest.raises(ImproperChainError):
        analyze_chains(m, policy)


def test_leaky_impulse_cycle_is_improper():
    # Rows short of one by 1e-13 pass validation, so I - M is not exactly
    # singular, yet chains almost never leave the cycle.
    m = improper_model()
    m = replace(m, impulses=ImpulseKernel(rows={("x", "swap"): (("y", 1.0 - 1e-13),),
                                                ("y", "swap"): (("x", 1.0 - 1e-13),)}))
    policy = improper_policy(m)
    with pytest.raises(ImproperChainError):
        analyze_chains(m, policy)
    with pytest.raises(ImproperChainError):
        expected_landing_value(m, policy, np.zeros(2))
    # Contract change: evaluate_policy asks the same chain system, so it no
    # longer raises NonConvergenceError here.
    with pytest.raises(ImproperChainError):
        evaluate_policy(m, policy)


def test_expected_cost_is_solved_once():
    # analyze_chains solved (I - M)^-1 c on each call, and the simulator's
    # tables solved it again for their chain-cost bound.
    m = geometric_model()
    policy = flag_all(m)
    W = analyze_chains(m, policy).expected_cost
    assert not W.flags.writeable
    assert analyze_chains(m, StationaryPolicy(policy.phi_g, policy.phi_i)).expected_cost is W
    assert _prepare(m, policy).chain_cost_bound == float(np.max(W)) == W[0]


def test_analyze_deterministic_one_step():
    m = two_state(lam=0.3)
    policy = extract_policy(m, solve(m).V)
    ana = analyze_chains(m, policy)
    assert ana.states == ("1",)
    assert abs(ana.expected_cost[0] - 0.3) <= 1e-9
    assert np.allclose(ana.landing_row(0), [1.0, 0.0], atol=1e-9)


def test_analyze_two_step_path_sums_costs():
    m = two_step_chain_model()
    policy = flag_all(m)
    ana = analyze_chains(m, policy)
    costs = dict(zip(ana.states, ana.expected_cost))
    assert abs(costs["x"] - 1.0) <= 1e-9   # 0.4 + 0.6
    assert abs(costs["y"] - 0.6) <= 1e-9
    chain = sample_chain(m, policy, "x", replication_rng(1, 0))
    assert chain.steps == (("x", "go"), ("y", "go"))
    assert chain.landing == "z"


def test_analyze_geometric_series():
    m = geometric_model()
    policy = flag_all(m)
    ana = analyze_chains(m, policy)
    assert abs(ana.expected_cost[0] - 1.4) <= 1e-8   # 0.7 * sum 0.5^k
    assert np.allclose(ana.landing_row(0), [0.0, 1.0], atol=1e-8)


def test_long_proper_chain_is_solved_exactly():
    # Chains end with probability one but take 1,000 impulses on average.
    m = geometric_model(p_stay=0.999)
    policy = flag_all(m)
    assert abs(analyze_chains(m, policy).expected_cost[0] - 700.0) <= 1e-9
    assert abs(evaluate_policy(m, policy)[0] - 700.0) <= 1e-9


@pytest.mark.parametrize("seed", [2, 3, 6, 9, 10])
def test_policy_value_decomposes_on_random_models(seed):
    # Multi-action models whose optimal policy flags states with full-support impulse rows.
    m = random_model(seed)
    V = solve(m).V
    policy = extract_policy(m, V)
    assert np.max(np.abs(evaluate_policy(m, policy).values - V.values)) <= 1e-8
    ana = analyze_chains(m, policy)
    assert ana.states
    for k, x in enumerate(ana.states):
        recomposed = ana.expected_cost[k] + ana.landing_row(k) @ V.values
        assert abs(recomposed - V[m.states.index[x]]) <= 1e-8


def test_sampled_cost_matches_expected_cost():
    m = geometric_model()
    policy = flag_all(m)
    rng = replication_rng(5, 0)
    costs = np.array([sample_chain(m, policy, "x", rng).total_cost
                      for _ in range(10_000)])
    se = costs.std(ddof=1) / math.sqrt(costs.size)
    assert abs(costs.mean() - 1.4) <= 3 * se


def test_chain_length_expectation_bound():
    m = geometric_model()
    policy = flag_all(m)
    rng = replication_rng(8, 0)
    lengths = np.array([len(sample_chain(m, policy, "x", rng).steps)
                        for _ in range(10_000)])
    bound = 1.4 / m.costs.c_lower  # W(x) / c_lower
    se = lengths.std(ddof=1) / math.sqrt(lengths.size)
    assert lengths.mean() <= bound + 3 * se


def test_value_decomposes_through_chain():
    # On flagged states V = W + landing_row . V.
    m = two_state(lam=0.3)
    report = solve(m)
    policy = extract_policy(m, report.V)
    ana = analyze_chains(m, policy)
    recomposed = ana.expected_cost[0] + ana.landing_row(0) @ report.V.values
    assert abs(recomposed - report.V[1]) <= 1e-9


def test_chain_guard_formula():
    # ceil(40 e m), with m the largest expected number of impulses of a chain.
    m = two_state(lam=0.3)   # one deterministic impulse
    assert chain_guard(m, extract_policy(m, solve(m).V)) == math.ceil(40 * math.e * 1)
    g = geometric_model()    # two impulses on average
    assert chain_guard(g, flag_all(g)) == math.ceil(40 * math.e * 2)


def test_long_proper_chains_pass_the_guard():
    # 1,000 impulses on average: far past any bound that ignores the policy.
    m = geometric_model(p_stay=0.999)
    policy = flag_all(m)
    rng = replication_rng(4, 0)
    lengths = [len(sample_chain(m, policy, "x", rng).steps) for _ in range(1_000)]
    assert max(lengths) > 2_000


def test_expected_landing_value_identity_on_gradual():
    m = two_state(lam=0.3)
    policy = extract_policy(m, solve(m).V)
    W = np.array([2.0, 5.0])
    out = expected_landing_value(m, policy, W)
    assert out[0] == 2.0          # gradual state untouched
    assert abs(out[1] - 2.0) <= 1e-9   # deterministic landing at state 0


def test_empty_flag_set_yields_empty_analysis():
    m = two_state()
    policy = extract_policy(m, solve(m).V)
    ana = analyze_chains(m, policy)
    assert ana.states == ()
    assert ana.expected_cost.size == 0
    assert ana.guard == 0 and analyze_chains(m, policy) is ana


def test_sure_chains_agree_with_the_chain_system(desk_solved):
    # Immunizing one susceptible relocates to one state, so every desk chain is sure.
    m, policy = desk_solved["model"], desk_solved["report"].policy
    prep, ana = _prepare(m, policy), analyze_chains(m, policy)
    flagged = np.flatnonzero(policy.impulsive)
    assert flagged.size == len(ana.states) > 0
    land, length = prep.sure_land[flagged], prep.sure_len[flagged]
    assert (land >= 0).all() and not policy.impulsive[land].any()
    assert np.all(np.abs(prep.sure_cost[flagged] - ana.expected_cost) <= 1e-12)
    for k in range(flagged.size):
        row = ana.landing_row(k)
        row[land[k]] -= 1.0
        assert np.abs(row).max() <= 1e-12
    assert length.min() >= 1 and length.max() <= chain_guard(m, policy) / (40 * math.e)
    gradual = ~policy.impulsive
    assert (prep.sure_land[gradual] == -1).all() and (prep.sure_len[gradual] == -1).all()


def test_a_chain_with_a_two_target_row_is_not_sure():
    m = geometric_model(p_stay=0.999)
    prep = _prepare(m, flag_all(m))
    assert prep.sure_land.tolist() == prep.sure_len.tolist() == [-1, -1]
