"""Optimality operator, monotone iterations, policy extraction and evaluation."""

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from impulsive_ctmdp import (
    Direction,
    ImproperChainError,
    NonConvergenceError,
    ValueFunction,
    bellman_apply,
    bellman_residual,
    evaluate_policy,
    extract_policy,
    solve,
    uniformized_row,
    value_iterate,
)
from impulsive_ctmdp import _ops, bellman, cli, intervention
from impulsive_ctmdp._ops import (
    apply_embedded,
    apply_operator,
    check_policy,
    compile_model,
    embedded_branch,
    gradual_branch,
    impulsive_branch,
)
from impulsive_ctmdp.epidemic import (
    analytic_value,
    build_epidemic_model,
    enumerate_states,
    lambda_star,
    solve_carrier_equation,
)
from impulsive_ctmdp.intervention import analyze_chains
from impulsive_ctmdp.io import load_epidemic_params
from impulsive_ctmdp.model import (
    ActionCatalog,
    CostModel,
    CtmdpModel,
    ImpulseKernel,
    RateKernel,
    StateSpace,
    StationaryPolicy,
)
from impulsive_ctmdp.testing import model_document, random_model, random_value_vector

from conftest import MODELS_DIR, desk_params, improper_model, improper_policy, two_state, zero_cost_model
from test_model import one_state_model


def test_apply_single_state_scales_by_contraction_factor():
    # P-tilde is the identity, so BF = (K/(K+eta)) * c with zero cost.
    m = one_state_model()
    out = bellman_apply(m, ValueFunction(np.array([0.8])))
    assert abs(out[0] - 0.5 * 0.8) < 1e-15


def test_apply_two_state_from_zero():
    m = two_state()
    out = bellman_apply(m, ValueFunction(np.zeros(2)))
    assert np.allclose(out.values, [0.0, 1.0 / (m.K + 1.0)], atol=1e-15)


def test_apply_impulsive_branch_wins():
    m = two_state(lam=0.3)
    out = bellman_apply(m, ValueFunction(np.zeros(2)))
    assert abs(out[1] - 0.3) < 1e-15


def test_value_iterate_zero_cost_reaches_zero_from_both_sides():
    m = zero_cost_model()
    for direction in Direction:
        V, _ = value_iterate(m, direction)
        assert np.max(np.abs(V.values)) < 1e-9


def test_value_iterate_closed_form_absorbing_chain():
    m = two_state()
    V, _ = value_iterate(m, Direction.FROM_BELOW)
    assert abs(V[1] - 0.5) < 1e-9
    assert abs(V[0]) < 1e-9


def test_value_iterate_impulse_takes_cheaper_branch():
    m = two_state(lam=0.3)
    V, _ = value_iterate(m, Direction.FROM_ABOVE)
    assert abs(V[1] - min(0.5, 0.3)) < 1e-9


def test_value_iterate_rejects_bad_arguments():
    m = two_state()
    with pytest.raises(ValueError):
        value_iterate(m, Direction.FROM_BELOW, tol=0.0)
    with pytest.raises(ValueError):
        value_iterate(m, Direction.FROM_BELOW, max_iter=0)
    policy = solve(m).policy
    for bad in (0.0, float("nan"), -1.0):
        with pytest.raises(ValueError, match="tol"):
            value_iterate(m, Direction.FROM_ABOVE, tol=bad)
        with pytest.raises(ValueError, match="tol"):
            solve(m, tol=bad)
        # evaluate_policy raised NonConvergenceError("defect 0.0 exceeds tol=-1.0") and took tol=0.
        with pytest.raises(ValueError, match="^tol must be > 0$"):
            evaluate_policy(m, policy, tol=bad)


@pytest.mark.parametrize("tol_set", [float("nan"), -1.0, -math.inf])
def test_extract_policy_rejects_a_bad_tol_set(tol_set):
    m = two_state(lam=0.3)
    with pytest.raises(ValueError, match="^tol_set must be >= 0$"):
        extract_policy(m, solve(m).V, tol_set=tol_set)


def test_value_iterate_nonconvergence_carries_state():
    m = two_state()
    with pytest.raises(NonConvergenceError) as err:
        value_iterate(m, Direction.FROM_ABOVE, tol=1e-12, max_iter=3)
    assert err.value.iterations == 3
    assert err.value.step > 0
    assert err.value.last.shape == (2,)


def test_residual_zero_on_zero_cost_fixed_point():
    m = zero_cost_model()
    assert bellman_residual(m, ValueFunction(np.zeros(3))) == 0.0


def test_residual_matches_single_application():
    m = two_state()
    V = ValueFunction(np.full(2, m.K / m.eta))
    applied = bellman_apply(m, V)
    expected = float(np.max(np.abs(applied.values - V.values)))
    assert bellman_residual(m, V) == expected


def test_residual_small_after_solve():
    m = two_state(lam=0.3)
    report = solve(m, tol=1e-10)
    assert report.residual <= 1e-9


def test_extract_policy_zero_cost_all_gradual():
    m = zero_cost_model()
    V, _ = value_iterate(m, Direction.FROM_BELOW)
    policy = extract_policy(m, V)
    assert not policy.impulsive.any()


def test_extract_policy_flags_cheap_impulse():
    m = two_state(lam=0.3)
    report = solve(m)
    policy = extract_policy(m, report.V)
    assert policy.impulsive[1] and not policy.impulsive[0]
    assert policy.impulse_action(m, "1") == "reset"
    assert policy.gradual_action(m, "0") == "wait"


def test_extract_policy_prefers_gradual_on_expensive_impulse():
    m = two_state(lam=0.9)  # 0.9 > 1/(eta+mu) = 0.5
    report = solve(m)
    policy = extract_policy(m, report.V)
    assert not policy.impulsive.any()
    assert abs(report.V[1] - 0.5) < 1e-9


def test_evaluate_policy_optimal_matches_value():
    m = two_state(lam=0.3)
    report = solve(m)
    policy = extract_policy(m, report.V)
    W = evaluate_policy(m, policy)
    assert np.max(np.abs(W.values - report.V.values)) <= 1e-9


def test_operator_and_evaluation_match_dense_rows(desk_solved):
    # The operator and evaluate_policy read the rate rows J; here the same
    # quantities are built densely from uniformized_row and the impulse rows.
    cases = [(m, solve(m).policy) for m in map(random_model, range(30))]
    cases.append((desk_solved["model"], desk_solved["report"].policy))
    for seed, (m, policy) in enumerate(cases):
        K, eta, N = m.K, m.costs.eta, m.states.N
        idx = m.states.index

        def impulse_row(x, b):
            row = np.zeros(N)
            for y, p in m.impulses.rows[(x, b)]:
                row[idx[y]] += p
            return row

        V = random_value_vector(seed, m)
        TV = np.empty(N)
        A = np.eye(N)  # I - B for the policy
        c = np.empty(N)
        for k, x in enumerate(m.states.labels):
            g = [((K / (K + eta)) * uniformized_row(m, x, a), m.costs.gradual_cost[(x, a)] / (K + eta))
                 for a in m.actions.gradual[x]]
            i = [(impulse_row(x, b), m.costs.impulse_cost[(x, b)]) for b in m.actions.impulsive[x]]
            TV[k] = min(row @ V + cost for row, cost in g + i)
            row, c[k] = i[policy.phi_i[k]] if policy.impulsive[k] else g[policy.phi_g[k]]
            A[k] -= row
        ulp = np.spacing(K / eta)
        assert np.max(np.abs(bellman_apply(m, ValueFunction(V)).values - TV)) <= 8 * ulp
        assert np.max(np.abs(evaluate_policy(m, policy).values - np.linalg.solve(A, c))) <= 8 * ulp


def test_solve_returns_the_policy_it_certified(desk_solved):
    # After an evaluation, V is report.policy's value bit for bit.  Stated
    # change: a swept report (no evaluation) has V an upper iterate and the
    # policy greedy at V, so that policy's value lies in [V - gap, V] up to
    # roundoff.  extract_policy applies solve's greedy rule, so at V it gives
    # back that same policy either way.  The evaluation runs on a copy of the
    # model, whose compiled form and evaluations are its own, so it does not
    # read back solve's.
    cases = [(desk_solved["model"], desk_solved["report"])]
    cases += [(m, solve(m, tol=tol)) for m in map(random_model, range(60)) for tol in (1e-10, 1e-6)]
    assert {report.evaluations > 0 for _, report in cases} == {True, False}
    for m, report in cases:
        copy = dataclasses.replace(m)
        assert compile_model(copy) is not compile_model(m)
        value = evaluate_policy(copy, report.policy).values
        if report.evaluations:
            assert np.array_equal(value, report.V.values)
        else:
            assert extract_policy(m, report.V, tol_set=0.0) == report.policy  # T's argmin at V
            assert np.all(value <= report.V.values + 1e-12 * (1.0 + m.K / m.eta))
            assert np.all(report.V.values - value <= report.gap)
        policy = extract_policy(m, report.V)
        assert np.array_equal(policy.impulsive, report.policy.impulsive)
        assert np.array_equal(policy.phi_g, report.policy.phi_g)
        assert np.array_equal(policy.phi_i, report.policy.phi_i)


def test_extract_policy_is_greedy_at_any_value_vector():
    # Contract change: the rule used to compare the gradual branch with V(x)
    # and raised PolicyExtractionError where a state without an impulse
    # rejected it, which happens at most V that are not fixed points.
    tol_set = bellman.DEFAULT_TOL_SET
    for seed in range(60):
        m = random_model(seed)
        V = random_value_vector(seed, m)
        policy = extract_policy(m, ValueFunction(V))
        check_policy(m, policy)
        comp = compile_model(m)
        TV = bellman_apply(m, ValueFunction(V)).values
        g = gradual_branch(comp, V)[comp.g_ptr[:-1] + policy.phi_g]
        flagged = np.flatnonzero(policy.impulsive)
        slot = m.impulse_pairs.ptr[flagged] + policy.phi_i[flagged]
        assert np.all(impulsive_branch(comp, V)[slot] == TV[flagged])
        assert np.all(g[flagged] > TV[flagged] + tol_set)
        assert np.all(g[~policy.impulsive] <= TV[~policy.impulsive] + tol_set)


def test_extract_policy_rejects_a_non_finite_value_vector():
    m = two_state(lam=0.3)
    # A V of the wrong length failed inside numpy ("operands could not be broadcast").
    for bad in (np.array([0.0, math.nan]), np.array([0.0, math.inf]), np.zeros(1), np.zeros(3), np.zeros((2, 1))):
        with pytest.raises(ValueError, match=r"^V must hold one finite value per state \(2\)$"):
            extract_policy(m, ValueFunction(bad))


def test_evaluate_policy_forced_gradual_is_costlier():
    m = two_state(lam=0.3)
    forced = StationaryPolicy(phi_g=np.zeros(2, dtype=np.int64), phi_i=[-1, -1])
    W = evaluate_policy(m, forced)
    assert abs(W[1] - 0.5) < 1e-9
    report = solve(m)
    assert W[1] > report.V[1]


def test_evaluate_policy_impulsive_cycle_diverges():
    # Contract change: the chain system decides properness for the evaluation,
    # which used to raise NonConvergenceError.  A failed evaluation stores
    # nothing, so it is raised on every call.
    m = improper_model()
    policy = improper_policy(m)
    for _ in range(2):
        with pytest.raises(ImproperChainError, match="never reach a gradual state"):
            evaluate_policy(m, policy)
    assert not compile_model(m).derived.get(policy)


def counting_splu(monkeypatch) -> list:
    """Shapes of the matrices factored from now on."""
    factored = []
    splu = scipy.sparse.linalg.splu

    def counting(A, *args, **kwargs):
        factored.append(A.shape)
        return splu(A, *args, **kwargs)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
    return factored


@pytest.mark.parametrize("leak, first", [pytest.param(0.0, None, id="0.0"), pytest.param(1e-13, None, id="1e-13"),
                                         pytest.param(0.0, "z", id="sure"), pytest.param(0.0, "x", id="tail")])
def test_an_improper_policy_fails_on_its_chain_factor(monkeypatch, leak, first):
    # The 2-cycle of improper_model, exact and leaking 1e-13 per impulse,
    # plus a third state that waits, and with ``first`` a first state whose
    # one-target row goes there: only the chain system of the drawing chains
    # is factored, never the policy system, and the error names the lowest
    # flagged state whose chain draws.  A sure chain into z lands and is not
    # named; a tail into the cycle is never resolved, so it draws too.  A
    # chain system this small is inverted by numpy, so the size rule is set
    # to factor every one.
    monkeypatch.setattr(intervention, "DENSE_MAX", 0)
    base = improper_model()
    extra = ("a",) if first else ()
    m = dataclasses.replace(
        base,
        states=StateSpace(extra + ("x", "y", "z")),
        actions=ActionCatalog(gradual={**base.actions.gradual, "z": ("wait",), **{a: ("wait",) for a in extra}},
                              impulsive={**base.actions.impulsive, "z": (), **{a: ("go",) for a in extra}}),
        rates=RateKernel(rows={**base.rates.rows, ("z", "wait"): (), **{(a, "wait"): () for a in extra}}, K_rate=1.0),
        impulses=ImpulseKernel(rows={("x", "swap"): (("y", 1.0 - leak),), ("y", "swap"): (("x", 1.0 - leak),),
                                     **{(a, "go"): ((first, 1.0),) for a in extra}}),
        costs=dataclasses.replace(base.costs, gradual_cost={**base.costs.gradual_cost, ("z", "wait"): 0.0,
                                                            **{(a, "wait"): 0.0 for a in extra}},
                                  impulse_cost={**base.costs.impulse_cost, **{(a, "go"): 0.5 for a in extra}}),
    )
    policy = StationaryPolicy(phi_g=[0] * m.states.N, phi_i=[0] * len(extra) + [0, 0, -1])
    factored = counting_splu(monkeypatch)
    with pytest.raises(ImproperChainError) as info:
        evaluate_policy(m, policy)
    assert info.value.state == ("a" if first == "x" else "x")
    assert factored == [(3, 3) if first == "x" else (2, 2)]


def test_policies_compare_by_their_decisions():
    a = StationaryPolicy(phi_g=[0, 1, 0], phi_i=[-1, -1, 2])
    same = StationaryPolicy(phi_g=np.array([0.0, 1.0, 0.0]), phi_i=np.array([-1, -1, 2], dtype=np.int32))
    assert a == same and hash(a) == hash(same) and len({a, same}) == 1
    others = [StationaryPolicy(phi_g=[0, 0, 0], phi_i=[-1, -1, 2]),
              StationaryPolicy(phi_g=[0, 1, 0], phi_i=[-1, 0, 2]),
              StationaryPolicy(phi_g=[0, 1], phi_i=[-1, -1])]
    for other in others:
        assert a != other and other != a
    assert len({a, *others}) == 4
    assert a != (a.phi_g, a.phi_i) and a != "policy"


def test_pipeline_factors_each_system_once(monkeypatch):
    # solve -> extract_policy -> evaluate_policy -> analyze_chains: the policy
    # extracted at solve's V equals solve's policy, so the evaluation solve
    # made serves it, and so does the chain analysis it made first to check
    # the policy's properness.  Stated change: every desk chain is sure, so
    # its chain system is not factored and the policy system keeps only the
    # 553 waiting states (2,728 states, 2,175 flagged).  The random model's
    # impulse rows have full support, so no chain is sure and both systems
    # keep their full size.  Stated change: solve certifies the random model
    # by sweeps and factors nothing, so its two systems are factored by the
    # first evaluation, once each.  The size rule is set to factor every chain
    # system, which numpy would otherwise invert.
    monkeypatch.setattr(intervention, "DENSE_MAX", 0)
    factored = counting_splu(monkeypatch)
    desk = build_epidemic_model(load_epidemic_params(str(MODELS_DIR / "epidemic_desk.yaml")))
    for m in (desk, random_model(2)):
        factored.clear()
        report = solve(m)
        assert report.evaluations == (1 if m is desk else 0)
        assert factored == ([(553, 553)] if m is desk else [])
        policy = extract_policy(m, report.V)
        assert policy == report.policy and policy is not report.policy
        value = evaluate_policy(m, policy)
        assert evaluate_policy(m, report.policy) is value
        assert (value is report.V) == (m is desk)
        chains = analyze_chains(m, policy)
        n, N = len(chains.states), m.states.N
        assert n > 0
        assert factored == ([(553, 553)] if m is desk else [(n, n), (N, N)])


def test_a_cached_evaluation_checks_each_tol():
    m = random_model(3)
    policy = solve(m).policy
    V = evaluate_policy(m, policy)
    for _ in range(2):
        with pytest.raises(NonConvergenceError, match="exceeds tol=1e-300") as info:
            evaluate_policy(m, StationaryPolicy(policy.phi_g, policy.phi_i), tol=1e-300)
        assert 1e-300 < info.value.step <= bellman.DEFAULT_TOL
        assert np.array_equal(info.value.last, V.values)
    assert evaluate_policy(m, policy, tol=info.value.step) is V


def factored_document(tmp_path) -> tuple[str, int]:
    """A model document that solve certifies by a factor, and its policy system's size.

    The desk model at price 0.05 and C_max = 4 (440 states): its chains are
    all sure, so the policy system holds the waiting states only.
    """
    m = build_epidemic_model(desk_params(lam=0.05, c_max=4))
    report = solve(m)
    assert report.evaluations >= 1
    doc = tmp_path / "factored.yaml"
    doc.write_text(model_document(m), encoding="utf-8")
    return str(doc), int(np.count_nonzero(~report.policy.impulsive))


@pytest.mark.parametrize("failure", [SystemError("Can't expand MemType 1"), MemoryError()])
def test_lu_memory_failures_are_non_convergence(monkeypatch, capsys, tmp_path, failure):
    # SuperLU out of memory ended in a traceback with exit 1.  Stated change:
    # the chain system is factored only where chains draw, as on the random
    # model's full-support impulse rows, not on the desk model's sure chains.
    # Stated change: the CLI leg solves a model that solve factors; the
    # two-state model is certified by sweeps.  The size rule is set to factor
    # every chain system, which numpy would otherwise invert.
    monkeypatch.setattr(intervention, "DENSE_MAX", 0)
    drawing = random_model(2)
    policy = solve(drawing).policy  # solved before the failure is armed
    doc, n_wait = factored_document(tmp_path)

    def out_of_memory(*args, **kwargs):
        raise failure
    monkeypatch.setattr(scipy.sparse.linalg, "splu", out_of_memory)
    flagged = int(np.count_nonzero(policy.impulsive))
    assert flagged > 0
    # solve factors nothing here; analyze_chains on a fresh copy factors the
    # chain system under the armed failure.
    with pytest.raises(NonConvergenceError, match=f"{flagged} x {flagged} chain system ran out of memory"):
        analyze_chains(dataclasses.replace(drawing), policy)
    m = build_epidemic_model(desk_params(lam=0.05, c_max=4))
    n = m.states.N
    wait = StationaryPolicy(phi_g=np.zeros(n, dtype=np.int64), phi_i=np.full(n, -1))
    with pytest.raises(NonConvergenceError, match=f"{n} x {n} policy system ran out of memory") as info:
        evaluate_policy(m, wait)
    assert isinstance(info.value.__cause__, type(failure))
    assert cli.run(["solve", "--model", doc]) == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["code"] == 4 and f"{n_wait} x {n_wait} policy system ran out of memory" in err["message"]


def test_solve_certifies_at_the_critical_price():
    # At lambda* waiting and immunizing tie analytically; the roundoff slack
    # kept a decision about 5e-13 worse, and its gap (2.9e-10) failed tol.
    # The intervene region need not settle at a tie, so the warm start ends
    # on a sub-tol step and started policy iteration from the greedy policy
    # there: 5 and 6 evaluations at S = 10 and 20.  Stated change: a few more
    # sweeps certify both, with no evaluation.
    for S, most in ((10, 5), (20, 6)):
        params = dataclasses.replace(desk_params(), S=S)
        params = dataclasses.replace(params, immunization_cost=lambda_star(params))
        m = build_epidemic_model(params)
        report = solve(m)
        assert report.gap <= 1e-10
        assert report.evaluations <= most
        if not report.evaluations:
            assert extract_policy(m, report.V, tol_set=0.0) == report.policy
        cv = solve_carrier_equation(params)
        ref = np.array([analytic_value(params, cv, s, c, i) for s, c, i in enumerate_states(params)])
        assert np.max(np.abs(report.V.values - ref)) <= report.gap + 1e-12


def test_all_wait_lattice_certifies_by_sweeps():
    # At price 0.5 every state waits, so the policy system is the whole
    # lattice, whose LU fills; at S = 60 and 80 the factored value's gap
    # stayed above the default tol.  The warm start's sweeps, continued,
    # certify V* with no factor.
    params = dataclasses.replace(desk_params(lam=0.5), S=40)
    report = solve(build_epidemic_model(params))
    assert report.evaluations == 0 and report.gap <= 1e-10
    assert not report.policy.impulsive.any()
    cv = solve_carrier_equation(params)
    ref = np.array([analytic_value(params, cv, s, c, i) for s, c, i in enumerate_states(params)])
    assert np.max(np.abs(report.V.values - ref)) <= report.gap + 1e-12


@pytest.mark.parametrize("seed", [35, 99, 188])
def test_solve_improves_a_policy_that_is_not_optimal(seed):
    # At eta = 0.1 these models (7, 48 and 22 states) predict more sweeps than
    # a factor costs, and the first greedy policy is not optimal: the descent
    # jumps 2, 3 and 3 times and ends on the last evaluation.
    m = random_model(seed, eta=0.1)
    report = solve(m)
    assert report.evaluations >= 2 and report.gap <= 1e-10
    assert np.array_equal(evaluate_policy(dataclasses.replace(m), report.policy).values, report.V.values)
    V_below, _ = value_iterate(m, Direction.FROM_BELOW)
    V_above, _ = value_iterate(m, Direction.FROM_ABOVE)
    assert np.all(V_below.values - report.gap <= report.V.values)
    assert np.all(report.V.values <= V_above.values + report.gap)


@pytest.mark.parametrize("worth", [0, 5])
@pytest.mark.parametrize("S, most", [(10, 5), (20, 6)])
def test_solve_certifies_ties_on_a_small_factor_budget(S, most, worth):
    # At lambda* the roundoff slack keeps a tie decision whose gap fails tol,
    # so the descent improves at slack 0.  A budget this small jumps where the
    # default one sweeps; no more evaluations than the 5 and 6 policy
    # iteration took.  Stated change: sweeps can end a report after an
    # evaluation, with the swept checks of
    # test_solve_returns_the_policy_it_certified.
    params = dataclasses.replace(desk_params(), S=S)
    params = dataclasses.replace(params, immunization_cost=lambda_star(params))
    m = build_epidemic_model(params)
    with mock.patch.object(bellman, "FACTOR_WORTH", worth):
        report = solve(m)
    assert report.gap <= 1e-10
    assert 1 <= report.evaluations <= most
    cv = solve_carrier_equation(params)
    ref = np.array([analytic_value(params, cv, s, c, i) for s, c, i in enumerate_states(params)])
    assert np.max(np.abs(report.V.values - ref)) <= report.gap + 1e-12
    value = evaluate_policy(dataclasses.replace(m), report.policy).values
    if not np.array_equal(value, report.V.values):
        assert extract_policy(m, report.V, tol_set=0.0) == report.policy
        assert np.all(value <= report.V.values + 1e-12 * (1.0 + m.K / m.eta))
        assert np.all(report.V.values - value <= report.gap)


def test_sweeps_left_predicts_at_the_fastest_warm_check_rate():
    left = bellman._sweeps_left
    halving = [0.5 ** k for k in range(12)]
    assert left(1e-3, 1e-3, halving) == 0 and left(1e-4, 1e-3, [1.0]) == 0
    # No rate below one: a single step, steps that stall, steps that grow.
    for steps in ([1.0], [1.0] * 12, [1.0, 2.0, 4.0]):
        assert left(1.0, 1e-3, steps) == math.inf
    # 2^-10 < 1e-3 < 2^-9, so ten halvings bring 1 under 1e-3 and nine do not,
    # over WARM_CHECK steps or over all of fewer.
    assert left(1.0, 1e-3, halving) == 10
    assert left(1.0, 1e-3, halving[:3]) == 10
    # A slow stretch, then eight halvings and a quartering: the fastest window
    # of WARM_CHECK ratios is seven halvings and the quartering, 2^(-9/8) a
    # sweep, not the last ratio nor the rate over all steps.
    assert bellman.WARM_CHECK == 8
    slow = [0.99 ** k for k in range(20)]
    steps = slow + [slow[-1] * 0.5 ** k for k in range(1, 9)] + [slow[-1] * 0.5 ** 8 * 0.25]
    assert left(1.0, 1e-3, steps) == math.ceil(math.log(1e3) / (9 / 8 * math.log(2))) == 9


def test_check_policy_rejects_infeasible_flags():
    m = two_state()  # no impulses anywhere
    bad = StationaryPolicy(phi_g=np.zeros(2, dtype=np.int64), phi_i=[-1, 0])
    with pytest.raises(ValueError):
        check_policy(m, bad)
    wrong_shape = StationaryPolicy(phi_g=np.zeros(3, dtype=np.int64), phi_i=[-1, -1, -1])
    with pytest.raises(ValueError):
        check_policy(m, wrong_shape)


def test_check_policy_names_the_first_bad_state():
    m = zero_cost_model(3)   # one gradual action per state, no impulses
    flagged_late = StationaryPolicy(phi_g=np.array([0, 0, 5]), phi_i=[-1, 0, -1])
    with pytest.raises(ValueError, match=r"^state '1' flagged for intervention but has no impulsive action$"):
        check_policy(m, flagged_late)
    bad_actions = StationaryPolicy(phi_g=np.array([0, -1, 7]), phi_i=[-1, -1, -1])
    with pytest.raises(ValueError, match=r"^phi_g out of range at state '1'$"):
        check_policy(m, bad_actions)
    m = two_state(lam=0.3)
    for phi_i in ([-1, 1], [-1, -2]):
        with pytest.raises(ValueError, match=r"^phi_i out of range at state '1'$"):
            check_policy(m, StationaryPolicy(phi_g=np.zeros(2, dtype=np.int64), phi_i=phi_i))


def test_policy_rejects_non_integral_actions():
    # Contract change: these used to be truncated to [0, 1] and to 0.
    with pytest.raises(ValueError, match=r"^phi_g must hold integers$"):
        StationaryPolicy(phi_g=[0.7, 1.9], phi_i=[-1, -1])
    for phi_i in ([-1, 0.6], [-1, np.nan], [-1, np.inf], {1: 0}):
        with pytest.raises(ValueError, match=r"^phi_i must hold integers$"):
            StationaryPolicy(phi_g=[0, 0], phi_i=phi_i)
    assert StationaryPolicy(phi_g=[0.0, 1.0], phi_i=[-1.0, 0.0]).phi_i.tolist() == [-1, 0]


def test_solve_two_state_gap_tiny():
    m = two_state()
    report = solve(m, tol=1e-10)
    assert report.gap <= 2e-10
    assert abs(report.V[1] - 0.5) < 1e-9


def test_solve_zero_cost_converges_to_zero():
    # Every policy costs nothing, so policy iteration returns V = 0 with a
    # zero residual, and the certificate is 0 up to roundoff.
    report = solve(zero_cost_model(), tol=1e-10)
    assert report.gap <= 2e-10
    assert report.V.sup_norm() <= 1e-10


def test_solve_random_model_gap_and_residual():
    m = random_model(7)
    report = solve(m, tol=1e-10)
    assert report.gap <= 1e-9
    assert report.residual <= 1e-9


def test_iterates_respect_value_bound():
    for seed in range(5):
        m = random_model(seed)
        V, _ = value_iterate(m, Direction.FROM_ABOVE, tol=1e-8)
        assert V.sup_norm() <= m.K / m.eta + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_solve_certificate_brackets_value_iteration(seed):
    # Iterates from below stay below V* and iterates from above stay above
    # it, so a V within gap of V* sits inside the widened bracket.
    m = random_model(seed)
    report = solve(m)
    V_below, _ = value_iterate(m, Direction.FROM_BELOW)
    V_above, _ = value_iterate(m, Direction.FROM_ABOVE)
    assert report.iterations_below == 0
    assert np.max(np.abs(V_above.values - V_below.values)) <= 1e-9
    assert np.all(V_below.values - report.gap <= report.V.values)
    assert np.all(report.V.values <= V_above.values + report.gap)


def test_value_iteration_limits_meet_and_hold_the_solution():
    # On the fifty models of criterion 02, the two monotone limits must meet
    # (uniqueness of the bounded fixed point), and solve's V must sit in their
    # bracket widened by its certificate.  V_below stops on its step size, so
    # it may sit up to step*K/eta below V*; only the bracket, not tol, bounds
    # |V - V_below|.
    for seed in range(50):
        m = random_model(seed)
        report = solve(m, tol=1e-10)
        V_below, _ = value_iterate(m, Direction.FROM_BELOW, 1e-10)
        V_above, _ = value_iterate(m, Direction.FROM_ABOVE, 1e-10)
        assert np.max(np.abs(V_above.values - V_below.values)) <= 1e-9, seed
        assert np.all(V_below.values - report.gap <= report.V.values), seed
        assert np.all(report.V.values <= V_above.values + report.gap), seed


def test_solve_raises_when_an_evaluation_fails(monkeypatch, capsys, tmp_path):
    # Contract change: solve runs policy iteration only, so a failed
    # evaluation reaches the caller instead of starting a second algorithm.
    # Stated change: both legs solve a model that solve factors, since a
    # swept solve evaluates nothing.
    failure = NonConvergenceError("singular", np.zeros(1), np.inf, 0)
    doc, _ = factored_document(tmp_path)

    def boom(model, policy, tol):
        raise failure
    monkeypatch.setattr(bellman, "evaluate_policy", boom)
    with pytest.raises(NonConvergenceError) as info:
        solve(build_epidemic_model(desk_params(lam=0.05, c_max=4)))
    assert info.value is failure
    assert cli.run(["solve", "--model", doc]) == 4
    assert '"code": 4' in capsys.readouterr().err


def test_solve_below_the_roundoff_floor_raises(desk_solved):
    # The desk model's certified gap sits near 1e-12, the roundoff floor of
    # its policy value; a tighter tol raises with that policy's V and gap
    # rather than returning an uncertified answer.
    m, report = desk_solved["model"], desk_solved["report"]
    assert report.gap > 1e-12
    with pytest.raises(NonConvergenceError, match="exceeds tol") as info:
        solve(m, tol=1e-12)
    assert info.value.step == report.gap
    assert np.array_equal(info.value.last, report.V.values)


def test_desk_warm_start_converges_within_one_block():
    # The embedded chain contracts at each state's own rate q/(eta+q), so its
    # warm start ends in fewer sweeps than ceil((K+eta)/eta), the uniformized
    # chain's contraction time, where the uniformized chain needed 420 sweeps.
    m = build_epidemic_model(load_epidemic_params(str(MODELS_DIR / "epidemic_desk.yaml")))
    report = solve(m)
    assert report.iterations_above < math.ceil((m.K + m.eta) / m.eta)
    assert report.evaluations == 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_embedded_iterates_are_supersolutions(seed):
    # Iterates of the embedded-chain operator from +K/eta decrease and stay
    # above T; solve's V is its fixed point too.
    m = random_model(seed)
    comp = compile_model(m)
    slack = 1e-12 * (1.0 + m.K / m.eta)
    V = np.full(comp.N, m.K / m.eta)
    for _ in range(200):
        Vn = apply_embedded(comp, V)
        assert np.all(Vn <= V + slack)
        assert np.all(bellman_apply(m, ValueFunction(Vn)).values <= Vn + slack)
        if np.array_equal(Vn, V):
            break
        V = Vn
    # After an evaluation V is T_e's fixed point, as before.  Stated change:
    # a swept V is an upper iterate.  At a supersolution each gradual pair's
    # embedded defect is its uniformized one times (K+eta)/(eta+q) <=
    # (K+eta)/eta, so T_e's defect is at most that factor times the residual.
    # Most seeds sweep, so each is also solved with the factor always chosen.
    for worth in (bellman.FACTOR_WORTH, 0):
        with mock.patch.object(bellman, "FACTOR_WORTH", worth):
            report = solve(dataclasses.replace(m))
        defect = np.max(np.abs(apply_embedded(comp, report.V.values) - report.V.values))
        if report.evaluations:
            assert defect <= slack
        else:
            assert defect <= (m.K + m.eta) / m.eta * report.residual + slack


@pytest.mark.parametrize("eta, most", [(1.0, 40), (0.1, 64)])
def test_desk_warm_start_stops_once_its_region_settles(eta, most):
    # The embedded operator's intervene region settles long before its
    # sweeps reach a sub-tol step, and its decisions there are already
    # optimal.  Stated change: 79 -> 32 sweeps at eta = 1, 543 -> 24 at 0.1.
    params = dataclasses.replace(load_epidemic_params(str(MODELS_DIR / "epidemic_desk.yaml")), eta=eta)
    report = solve(build_epidemic_model(params))
    assert report.evaluations == 1
    assert report.iterations_above <= most
    assert report.gap <= 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_embedded_argmin_policies_have_no_closed_impulse_class(seed):
    # Each iterate V from +K/eta has T_e V <= V, so a flagged state's chosen
    # impulse has V(x) >= (Q V)(x) + c(x) >= (Q V)(x) + c_lower: no class of
    # flagged states can be closed under the chosen impulses.
    m = random_model(seed)
    comp = compile_model(m)
    V = np.full(comp.N, m.K / m.eta)
    for sweep in range(1, 201):
        Vn = apply_embedded(comp, V)
        if np.array_equal(Vn, V):
            break
        V = Vn
        if not sweep % bellman.WARM_CHECK:
            pick, TV = bellman._greedy(comp, V, g=embedded_branch(comp, V))
            assert np.array_equal(TV, apply_embedded(comp, V))
            analyze_chains(m, bellman._as_policy(comp, pick))  # raises on a closed impulse class


def _reduceat_state_min(comp, g, F):
    out = np.minimum.reduceat(g, comp.g_ptr[:-1])
    if comp.i_cost.size:
        np.minimum.at(out, comp.i_states, np.minimum.reduceat(impulsive_branch(comp, F), comp.i_ptr[:-1]))
    return out


def _reduceat_segment_argmin(values, ptr):
    lo = ptr[:-1]
    least = np.repeat(np.minimum.reduceat(values, lo), np.diff(ptr))
    first = np.minimum.reduceat(np.where(values == least, np.arange(values.size), values.size), lo)
    return values[first], first - lo


def _two_impulse_model() -> CtmdpModel:
    """State a has two gradual actions and two impulses, b one of each; c absorbs."""
    return CtmdpModel(
        states=StateSpace(("a", "b", "c")),
        actions=ActionCatalog(gradual={"a": ("slow", "fast"), "b": ("wait",), "c": ("wait",)},
                              impulsive={"a": ("to_b", "to_c"), "b": ("to_c",), "c": ()}),
        rates=RateKernel(rows={("a", "slow"): (("b", 0.5),), ("a", "fast"): (("b", 1.0), ("c", 0.5)),
                               ("b", "wait"): (("c", 1.0),), ("c", "wait"): ()}, K_rate=2.0),
        impulses=ImpulseKernel(rows={("a", "to_b"): (("b", 1.0),), ("a", "to_c"): (("b", 0.4), ("c", 0.6)),
                                     ("b", "to_c"): (("c", 1.0),)}),
        costs=CostModel(gradual_cost={("a", "slow"): 1.0, ("a", "fast"): 0.5, ("b", "wait"): 0.8,
                                      ("c", "wait"): 0.0},
                        impulse_cost={("a", "to_b"): 0.4, ("a", "to_c"): 0.6, ("b", "to_c"): 0.3},
                        eta=1.0, K_cost=1.0, c_lower=0.3),
    )


def test_width_one_segments_match_the_reduceat_reference(monkeypatch):
    # A model whose segments all have width one skips the reduceat; the
    # operators and the greedy step must not notice.
    desk = build_epidemic_model(load_epidemic_params(str(MODELS_DIR / "epidemic_desk.yaml")))
    models = [desk] + [random_model(seed, max_states=60) for seed in range(8)] + [_two_impulse_model()] * 8
    comps = [compile_model(m) for m in models]
    width_one = [(c.g_cost.size == c.N, c.i_cost.size == c.i_states.size) for c in comps]
    assert width_one[0] == (True, True)
    assert not any(g for g, _ in width_one[1:]) and not any(i for _, i in width_one[-8:])
    cases = []
    for k, (m, comp) in enumerate(zip(models, comps)):
        keep = bellman._greedy(comp, random_value_vector(k + 100, m))[0]
        cases.append((comp, random_value_vector(k, m), keep))

    def outputs():
        got = []
        for comp, V, keep in cases:
            F = V.copy()
            got += [apply_operator(comp, F), apply_embedded(comp, F), *bellman._greedy(comp, F),
                    *bellman._greedy(comp, F, keep, slack=0.01)]
            assert np.array_equal(F, V)
        return got

    fast = outputs()
    monkeypatch.setattr(_ops, "_state_min", _reduceat_state_min)
    monkeypatch.setattr(bellman, "segment_argmin", _reduceat_segment_argmin)
    reference = outputs()
    assert len(fast) == len(reference)
    for a, b in zip(fast, reference):
        assert a.dtype == b.dtype and np.array_equal(a, b)
