"""End-to-end acceptance suite.

Ten numbered checks, each printing one PASS/FAIL line with the measured
quantities.  Tolerances and runtime budgets are asserted, not just reported.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from impulsive_ctmdp import (
    Direction,
    bellman_apply,
    build_epidemic_model,
    dynkin_check,
    estimate_cost,
    extract_policy,
    lambda_star,
    simulate_spaced,
    simulate_trajectory,
    solve,
    solve_carrier_equation,
    threshold_policy,
    value_iterate,
)
from impulsive_ctmdp.bellman import ValueFunction
from impulsive_ctmdp.intervention import analyze_chains
from impulsive_ctmdp.model import CostModel, CtmdpModel
from impulsive_ctmdp.epidemic import enumerate_states, state_label
from impulsive_ctmdp.simulate import replication_rng
from impulsive_ctmdp.testing import random_model, random_value_vector

from conftest import desk_params, two_state

X0 = state_label(10, 2, 2)


def report_line(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_closed_form_micro_models(capsys):
    t0 = time.perf_counter()
    plain = solve(two_state())
    err_plain = abs(plain.V[1] - 0.5)
    withimp = solve(two_state(lam=0.3))
    err_imp = abs(withimp.V[1] - 0.3)
    flagged = bool(extract_policy(two_state(lam=0.3), withimp.V).impulsive[1])
    elapsed = time.perf_counter() - t0
    ok = err_plain <= 1e-9 and err_imp <= 1e-9 and flagged and elapsed < 1.0
    report_line(capsys, 1, "closed-form micro-models", ok,
                f"|V(1)-0.5|={err_plain:.2e}, |V(1)-0.3|={err_imp:.2e}, "
                f"flagged={flagged}, {elapsed:.2f}s")


def test_criterion_02_two_sided_uniqueness(capsys):
    t0 = time.perf_counter()
    worst_gap = worst_res = 0.0
    for seed in range(50):
        rep = solve(random_model(seed), tol=1e-10)
        worst_gap = max(worst_gap, rep.gap)
        worst_res = max(worst_res, rep.residual)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-9 and worst_res <= 1e-9 and elapsed < 30.0
    report_line(capsys, 2, "two-sided uniqueness on 50 random models", ok,
                f"max gap={worst_gap:.2e}, max residual={worst_res:.2e}, {elapsed:.1f}s")


def test_criterion_03_separability(capsys, desk_solved):
    from impulsive_ctmdp import analytic_value
    p, m = desk_solved["params"], desk_solved["model"]
    V, cv = desk_solved["report"].V, desk_solved["cv"]
    worst = max(abs(V[m.states.index[state_label(s, c, i)]] - analytic_value(p, cv, s, c, i))
                for s, c, i in enumerate_states(p) if c <= 15)
    elapsed = desk_solved["elapsed"]
    ok = worst <= 1e-6 and elapsed < 60.0
    report_line(capsys, 3, "epidemic value separability", ok,
                f"max |V - s*v(c) - i/(eta+kr)| = {worst:.2e} for c<=15, solve {elapsed:.1f}s")


def test_criterion_04_threshold_partition(capsys, desk_solved):
    p, cv, generic = desk_solved["params"], desk_solved["cv"], desk_solved["policy"]
    c_star = cv.c_star
    mismatches = sum(
        1 for k, (s, c, i) in enumerate(enumerate_states(p))
        if c <= 15 and bool(generic.impulsive[k]) != (s >= 1 and c >= c_star))
    p_hi = desk_params(lam=0.5)
    rep_hi = solve(build_epidemic_model(p_hi))
    pol_hi = extract_policy(build_epidemic_model(p_hi), rep_hi.V)
    flagged_hi = sum(1 for k, (s, c, i) in enumerate(enumerate_states(p_hi))
                     if c <= 15 and pol_hi.impulsive[k])
    ok = mismatches == 0 and flagged_hi == 0 and c_star is not None
    report_line(capsys, 4, "threshold partition structure", ok,
                f"lam=0.2: partition == {{s>=1, c>=c*={c_star}}} with {mismatches} mismatches "
                f"(c<=15); lam=0.5: {flagged_hi} flagged states")


def test_criterion_05_critical_price_invariance(capsys):
    base = desk_params()
    ls = lambda_star(base)
    bit_identical = True
    classification_stable = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        p = replace(base,
                    rho_b=(0.0,) + tuple(rng.uniform(0.1, 3.0, 30)),
                    rho_d=(0.0,) + tuple(rng.uniform(0.1, 3.0, 30)))
        bit_identical &= lambda_star(p) == ls
        below = solve_carrier_equation(replace(p, immunization_cost=ls - 1e-3))
        above = solve_carrier_equation(replace(p, immunization_cost=ls + 1e-3))
        classification_stable &= below.c_star is not None and above.c_star is None
    ok = bit_identical and classification_stable
    report_line(capsys, 5, "critical price invariance", ok,
                f"lambda*={ls!r} bit-identical over 10 rho perturbations: {bit_identical}; "
                f"finite/infinite split at lambda*+-1e-3 stable: {classification_stable}")


def test_criterion_06_monte_carlo_consistency(capsys, desk_solved):
    t0 = time.perf_counter()
    p, m = desk_solved["params"], desk_solved["model"]
    policy = threshold_policy(p, desk_solved["cv"])
    v0 = desk_solved["report"].V[m.states.index[X0]]
    est = estimate_cost(m, policy, X0, 10_000, seed=42)
    elapsed = time.perf_counter() - t0
    dev = abs(est.mean - v0)
    ok = dev <= 3 * est.std_error and elapsed < 60.0
    report_line(capsys, 6, "Monte Carlo cost consistency", ok,
                f"mean={est.mean:.4f}, V(x0)={v0:.4f}, |diff|={dev:.4f} "
                f"<= 3*SE={3 * est.std_error:.4f}, {elapsed:.1f}s")


def test_criterion_07_martingale_identity(capsys, desk_solved):
    m2 = two_state()
    rep2 = solve(m2)
    pol2 = extract_policy(m2, rep2.V)
    r_small = dynkin_check(m2, pol2, rep2.V, "1", 1.0, 10_000, 9)
    r_epi = dynkin_check(desk_solved["model"], desk_solved["policy"],
                         desk_solved["report"].V, X0, 1.0, 10_000, 7)
    ok_small = abs(r_small.diff) <= 3 * r_small.std_error
    ok_epi = abs(r_epi.diff) <= 3 * r_epi.std_error
    ok = ok_small and ok_epi
    report_line(capsys, 7, "discounted martingale identity at t=1", ok,
                f"2-state |diff|={abs(r_small.diff):.2e} (3SE={3 * r_small.std_error:.2e}); "
                f"epidemic |diff|={abs(r_epi.diff):.2e} (3SE={3 * r_epi.std_error:.2e})")


def scaled_costs(model: CtmdpModel, kappa: float) -> CtmdpModel:
    c = model.costs
    return CtmdpModel(
        states=model.states, actions=model.actions, rates=model.rates,
        impulses=model.impulses,
        costs=CostModel(
            gradual_cost={k: kappa * v for k, v in c.gradual_cost.items()},
            impulse_cost={k: kappa * v for k, v in c.impulse_cost.items()},
            eta=c.eta, K_cost=kappa * c.K_cost, c_lower=kappa * c.c_lower,
        ),
    )


def test_criterion_08_operator_property_suite(capsys):
    n = 100
    bad_mono = bad_range = bad_dir = bad_scale = 0
    for seed in range(n):
        m = random_model(seed, max_states=15)
        bound = m.K / m.eta
        rng = np.random.default_rng(seed + 1000)
        f1 = random_value_vector(seed, m)
        f2 = np.minimum(f1 + rng.uniform(0.0, 0.5, f1.size), bound)
        b1 = bellman_apply(m, ValueFunction(f1)).values
        b2 = bellman_apply(m, ValueFunction(f2)).values
        if np.min(b2 - b1) < -1e-12:
            bad_mono += 1
        if np.max(np.abs(b1)) > bound + 1e-9:
            bad_range += 1
        try:
            # Direction monotonicity of the iterates is asserted inside.
            value_iterate(m, Direction.FROM_ABOVE, tol=1e-8)
            value_iterate(m, Direction.FROM_BELOW, tol=1e-8)
        except AssertionError:
            bad_dir += 1
        # Doubling all costs doubles V and leaves the decisions unchanged.
        rep1 = solve(m, tol=1e-10)
        rep2 = solve(scaled_costs(m, 2.0), tol=1e-10)
        pol1 = extract_policy(m, rep1.V)
        pol2 = extract_policy(scaled_costs(m, 2.0), rep2.V)
        same = (np.array_equal(pol1.impulsive, pol2.impulsive)
                and np.array_equal(pol1.phi_g, pol2.phi_g)
                and np.array_equal(pol1.phi_i, pol2.phi_i)
                and np.max(np.abs(rep2.V.values - 2.0 * rep1.V.values)) <= 1e-8)
        if not same:
            bad_scale += 1
    ok = bad_mono == bad_range == bad_dir == bad_scale == 0
    report_line(capsys, 8, f"operator properties over {n} seeded instances", ok,
                f"violations: monotone={bad_mono}, range={bad_range}, "
                f"direction={bad_dir}, cost-scaling={bad_scale}")


def test_criterion_09_non_explosion(capsys, desk_solved):
    t_cap = 1.0
    results = []
    guard_hits = 0
    for model, policy, x0, n, seed in (
        (desk_solved["model"], desk_solved["policy"], X0, 200, 21),
        (two_state(lam=0.3), None, "1", 500, 19),
    ):
        if policy is None:
            policy = extract_policy(model, solve(model).V)
        guard = analyze_chains(model, policy).guard
        counts = []
        for rep in range(n):
            traj = simulate_trajectory(model, policy, x0, replication_rng(seed, rep))
            counts.append(sum(1 for ep in traj.epochs if 0.0 < ep.time <= t_cap))
            for ep in traj.epochs:
                if ep.chain is not None and len(ep.chain.steps) >= guard:
                    guard_hits += 1
        counts = np.array(counts, dtype=float)
        se = counts.std(ddof=1) / math.sqrt(n) if counts.std(ddof=1) > 0 else 0.0
        results.append((counts.mean(), model.K * t_cap + 3 * se))
    ok = guard_hits == 0 and all(mean <= limit for mean, limit in results)
    report_line(capsys, 9, "non-explosion mechanics", ok,
                "; ".join(f"mean jumps on [0,1] {m:.2f} <= {l:.2f}" for m, l in results)
                + f"; chain-guard hits: {guard_hits}")


def test_criterion_10_spaced_impulses(capsys):
    m = two_state(lam=0.3)
    rep = solve(m)
    policy = extract_policy(m, rep.V)
    v0 = rep.V[1]
    slack = 4.0 * (m.K + m.K ** 2 / m.eta)   # per unit of total wait
    details = []
    ok = True
    for D in (0.01, 0.001):
        costs = np.array([
            simulate_spaced(m, policy, "1", replication_rng(11, r), [D]).total_cost
            for r in range(4_000)])
        se = costs.std(ddof=1) / math.sqrt(costs.size)
        lo, hi = v0 - 3 * se, v0 + slack * D + 3 * se
        ok &= lo <= costs.mean() <= hi
        details.append(f"D={D}: mean={costs.mean():.5f} in [{lo:.5f}, {hi:.5f}]")
    report_line(capsys, 10, "impulses spaced by positive waits", ok, "; ".join(details))
