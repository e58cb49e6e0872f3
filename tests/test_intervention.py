"""Intervention chains: sampling, expected cost, landing distributions."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impulsive_ctmdp import (
    ImproperChainError,
    analyze_chains,
    build_epidemic_model,
    evaluate_policy,
    extract_policy,
    sample_chain,
    solve,
)
from impulsive_ctmdp import intervention
from impulsive_ctmdp.intervention import expected_landing_value
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

from conftest import (
    desk_params,
    geometric_model,
    impulse_chain_model,
    improper_model,
    improper_policy,
    mixed_chains,
    one_target_rows,
    two_state,
)


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
    assert analyze_chains(m, extract_policy(m, solve(m).V)).guard == math.ceil(40 * math.e * 1)
    g = geometric_model()    # two impulses on average
    assert analyze_chains(g, flag_all(g)).guard == math.ceil(40 * math.e * 2)


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


def test_expected_landing_value_rejects_a_bad_value_vector():
    # An all-NaN W came back as NaNs, and a W of N + 1 values failed inside
    # scipy ("matmul: dimension mismatch").
    m = two_state(lam=0.3)
    policy = extract_policy(m, solve(m).V)
    for bad in (np.full(2, math.nan), np.zeros(3)):
        with pytest.raises(ValueError, match=r"^W must hold one finite value per state \(2\)$"):
            expected_landing_value(m, policy, bad)


def test_chain_tables_are_read_only():
    # The analysis is kept per policy and shared by every equal policy, and
    # the simulator charges and lands sure chains from these very arrays.
    m, policy = mixed_chains()
    ana = analyze_chains(m, policy)
    prep = _prepare(m, policy)
    assert prep.sure_land is ana.land and prep.sure_cost is ana.w
    assert ana.R is not None  # c's chain draws
    sparse = [getattr(mat, a) for mat in (ana.S, ana.R) for a in ("data", "indices", "indptr")]
    for table in (ana.land, ana.w, ana.expected_cost, ana.flagged, ana.draws, *sparse):
        with pytest.raises(ValueError):
            table[0] = 1


def test_a_shared_shortcut_matrix_cannot_be_scaled():
    # Scaling S in place once moved expected_landing_value of an equal, freshly
    # built policy by up to 3.0 at the solved V of the desk model.
    m = build_epidemic_model(desk_params())
    report = solve(m)
    V, policy = report.V.values, report.policy
    before = expected_landing_value(m, policy, V)
    with pytest.raises(ValueError):
        analyze_chains(m, policy).S.data[:] *= 0.5
    fresh = StationaryPolicy(policy.phi_g.copy(), policy.phi_i.copy())
    assert np.array_equal(expected_landing_value(m, fresh, V), before)


def test_empty_flag_set_yields_empty_analysis():
    m = two_state()
    policy = extract_policy(m, solve(m).V)
    ana = analyze_chains(m, policy)
    assert ana.states == ()
    assert ana.expected_cost.size == 0
    assert ana.guard == 0 and analyze_chains(m, policy) is ana


def dense_system(model, policy):
    """The policy system V = B V + c as dense arrays, read from the model's rows."""
    N, K, eta, index = model.states.N, model.K, model.costs.eta, model.states.index
    B, c = np.zeros((N, N)), np.zeros(N)
    for k, x in enumerate(model.states.labels):
        if policy.impulsive[k]:
            a = model.actions.impulsive[x][policy.phi_i[k]]
            rows, c[k] = model.impulses.rows[(x, a)], model.costs.impulse_cost[(x, a)]
        else:
            a = model.actions.gradual[x][policy.phi_g[k]]
            rows = [(y, r / (K + eta)) for y, r in model.rates.rows[(x, a)]]
            B[k, k] = (K - sum(r for _, r in model.rates.rows[(x, a)])) / (K + eta)
            c[k] = model.costs.gradual_cost[(x, a)] / (K + eta)
        for y, w in rows:
            B[k, index[y]] += w
    return B, c


def dense_chains(model, policy):
    """W = (I - M)^-1 c, the landing rows (I - M)^-1 R and the expected chain
    lengths (I - M)^-1 1 over all flagged states; None when the spectral
    radius of M is 1, so that some chain never lands."""
    B, c = dense_system(model, policy)
    flagged = np.flatnonzero(policy.impulsive)
    M = B[np.ix_(flagged, flagged)]
    if np.max(np.abs(np.linalg.eigvals(M)), initial=0.0) >= 1.0 - 1e-9:
        return None
    R = B[flagged].copy()
    R[:, flagged] = 0.0
    inv = np.linalg.inv(np.eye(flagged.size) - M)
    return inv @ c[flagged], inv @ R, inv @ np.ones(flagged.size)


def close(a, ref) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))))


def assert_matches_dense_reference(model, policy):
    """Chain quantities and the policy's value against dense solves over all
    flagged states; an improper policy must raise in both."""
    dense = dense_chains(model, policy)
    if dense is None:
        with pytest.raises(ImproperChainError):
            analyze_chains(model, policy)
        with pytest.raises(ImproperChainError):
            evaluate_policy(model, policy)
        return
    W, landing, length = dense
    ana = analyze_chains(model, policy)
    assert close(ana.expected_cost, W)
    assert ana.guard == math.ceil(40 * math.e * float(np.max(length, initial=0.0)))
    for k in range(len(ana.states)):
        assert close(ana.landing_row(k), landing[k])
    v = np.linspace(-1.0, 2.0, model.states.N)
    out = v.copy()
    out[policy.impulsive] = landing @ v
    assert close(expected_landing_value(model, policy, v), out)
    B, c = dense_system(model, policy)
    assert close(evaluate_policy(model, policy).values, np.linalg.solve(np.eye(model.states.N) - B, c))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), st.data())
def test_chains_and_values_match_a_dense_reference(seed, data):
    # Random models whose impulse rows partly collapse to one target, under
    # the solved policy and under the policy that flags every impulse-capable
    # state: sure chains, sampled chains and sure steps into sampled rows,
    # and closed cycles of one-target rows that never land.
    m, report, _ = one_target_rows(seed, data)
    for policy in (report.policy, flag_all(m)):
        assert_matches_dense_reference(m, policy)


def test_mixed_chains_match_a_dense_reference():
    for shared_landing in (False, True):
        m, policy = mixed_chains(shared_landing)
        ana = analyze_chains(m, policy)
        assert [ana.states[k] for k in ana.draws] == ["c", "d"]
        assert_matches_dense_reference(m, policy)


@st.composite
def chain_graphs(draw) -> CtmdpModel:
    """A model whose impulse rows form a random chain graph.  Each flagged
    state's row has one to three targets, drawn either downstream (waiting
    states and the flagged states before it), which makes acyclic chains, or
    from every state, which makes self-loops and cycles with acyclic states
    downstream and upstream of them, and now and then a closed cycle."""
    n_wait, n_flag = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    labels = tuple(f"g{k}" for k in range(n_wait)) + tuple(f"f{k}" for k in range(n_flag))
    rows = {}
    for k, x in enumerate(labels[n_wait:]):
        pool = draw(st.sampled_from([labels[:n_wait + k], labels]))
        targets = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        weights = [draw(st.integers(1, 4)) for _ in targets]
        rows[(x, "go")] = tuple((y, w / sum(weights)) for y, w in zip(targets, weights))
    n = len(labels)
    return CtmdpModel(
        states=StateSpace(labels),
        actions=ActionCatalog(gradual={x: ("wait",) for x in labels},
                              impulsive={x: ("go",) if x[0] == "f" else () for x in labels}),
        rates=RateKernel(rows={(x, "wait"): ((labels[(k + 1) % n], 0.5),) for k, x in enumerate(labels)}, K_rate=1.0),
        impulses=ImpulseKernel(rows=rows),
        costs=CostModel(gradual_cost={(x, "wait"): 0.5 for x in labels},
                        impulse_cost={key: 0.3 + 0.1 * k for k, key in enumerate(rows)},
                        eta=1.0, K_cost=1.0, c_lower=0.3),
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(chain_graphs())
def test_the_chain_solver_matches_a_dense_reference(m):
    # W, the guard (from the lengths), every landing row (the transposed
    # solve) and expected_landing_value (the plain solve) against dense
    # solves; a closed cycle must raise.
    assert_matches_dense_reference(m, flag_all(m))


def drawing_ladders(depth: int, width: int) -> CtmdpModel:
    """``width`` ladders of ``depth`` flagged rungs each.  A bottom rung's
    impulse lands at g0 or g1, any other rung's steps one rung down or lands
    at g0, so every chain draws and none can revisit a state: the chain
    system has ``depth * width`` rows."""
    rungs = [[f"f{k}_{j}" for j in range(width)] for k in range(depth)]
    labels = ("g0", "g1", *(x for rung in rungs for x in rung))
    rows = {(x, "go"): ((rungs[k - 1][j], 0.5) if k else ("g1", 0.5), ("g0", 0.5))
            for k, rung in enumerate(rungs) for j, x in enumerate(rung)}
    n = len(labels)
    return CtmdpModel(
        states=StateSpace(labels),
        actions=ActionCatalog(gradual={x: ("wait",) for x in labels},
                              impulsive={x: ("go",) if x[0] == "f" else () for x in labels}),
        rates=RateKernel(rows={(x, "wait"): ((labels[(k + 1) % n], 0.5),) for k, x in enumerate(labels)}, K_rate=1.0),
        impulses=ImpulseKernel(rows=rows),
        costs=CostModel(gradual_cost={(x, "wait"): 0.5 for x in labels},
                        impulse_cost={key: 0.3 + 0.01 * k for k, key in enumerate(rows)},
                        eta=1.0, K_cost=1.0, c_lower=0.3),
    )


def test_small_chain_systems_are_inverted_and_large_ones_factored(monkeypatch):
    # The chain system I - M over the d drawing chains is inverted by numpy
    # up to DENSE_MAX rows, with or without a cycle, and factored above.
    calls = []
    factor = intervention.factor
    monkeypatch.setattr(intervention, "factor", lambda A, system: calls.append(A.shape[0]) or factor(A, system))
    cases = [(impulse_chain_model(cycle=False), False), (impulse_chain_model(cycle=True), False),
             (drawing_ladders(3, 3), False), (drawing_ladders(60, 1), False), (drawing_ladders(60, 5), True)]
    for m, factored in cases:
        policy = solve(m).policy if m.states.N == 3 else flag_all(m)
        calls.clear()
        d = analyze_chains(m, policy).draws.size
        assert calls == ([d] if factored else []) and 0 < d and (d > intervention.DENSE_MAX) == factored
        assert_matches_dense_reference(m, policy)
    # A deep ladder, checked against its recursion W_k = c_k + W_{k-1} / 2
    # rather than dense solves over its 3,000 rungs.
    m = drawing_ladders(3000, 1)
    calls.clear()
    W = analyze_chains(m, flag_all(m)).expected_cost
    assert calls == [3000]
    ref = np.zeros(3000)
    for k in range(3000):
        ref[k] = 0.3 + 0.01 * k + (ref[k - 1] / 2 if k else 0.0)
    assert close(W, ref)


def test_a_near_unit_one_target_weight_certifies():
    # A sure chain's mass is the product of its one-target weights: here
    # 1 - 1e-12, which validation accepts and the landing check allows.
    m = replace(two_state(lam=0.3), impulses=ImpulseKernel(rows={("1", "reset"): (("0", 1.0 - 1e-12),)}))
    report = solve(m)
    assert report.gap <= 1e-10 and report.policy.impulsive.tolist() == [False, True]
    ana = analyze_chains(m, report.policy)
    assert ana.land.tolist() == [0, 0] and ana.S[1, 0] == 1.0 - 1e-12 and ana.lu is None
    assert_matches_dense_reference(m, report.policy)
    # Over two such steps the systems, and so the sampler's lookup, weigh the
    # second cost by the first weight, while a recorded chain adds both costs.
    w = 1.0 - 1e-12
    m = replace(two_step_chain_model(), impulses=ImpulseKernel(rows={("x", "go"): (("y", w),), ("y", "go"): (("z", w),)}))
    policy = flag_all(m)
    assert _prepare(m, policy).sure_cost[0] == 0.4 + w * 0.6 == analyze_chains(m, policy).expected_cost[0]
    assert sample_chain(m, policy, "x", replication_rng(0, 0)).total_cost == 0.4 + 0.6
    assert_matches_dense_reference(m, policy)


def test_sure_chains_agree_with_the_chain_system(desk_solved):
    # Immunizing one susceptible relocates to one state, so every desk chain
    # is sure.  The simulator's table and the chain analysis come from the
    # same walk; both are checked against the dense (I - M)^-1.
    m, policy = desk_solved["model"], desk_solved["report"].policy
    prep, ana = _prepare(m, policy), analyze_chains(m, policy)
    flagged = np.flatnonzero(policy.impulsive)
    assert flagged.size == len(ana.states) > 0
    W, landing, length = dense_chains(m, policy)
    land = prep.sure_land[flagged]
    assert (land != flagged).all() and not policy.impulsive[land].any()
    wait = np.flatnonzero(~policy.impulsive)
    assert (prep.sure_land[wait] == wait).all()
    hit = np.zeros_like(landing)
    hit[np.arange(flagged.size), land] = 1.0
    assert np.abs(landing - hit).max() <= 1e-12
    assert np.abs(prep.sure_cost[flagged] - W).max() <= 1e-12 and np.abs(ana.expected_cost - W).max() <= 1e-12
    for k in range(flagged.size):
        row = ana.landing_row(k)
        assert np.abs(row - landing[k]).max() <= 1e-12 and np.abs(row - hit[k]).max() <= 1e-12
    assert length.min() >= 1 and ana.guard == math.ceil(40 * math.e * float(length.max()))


def test_a_chain_with_a_two_target_row_is_not_sure():
    m = geometric_model(p_stay=0.999)
    prep = _prepare(m, flag_all(m))
    assert prep.sure_land.tolist() == [0, 1]
