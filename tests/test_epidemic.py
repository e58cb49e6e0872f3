"""Epidemic-with-carriers instance: builder, carrier fixed point, thresholds."""

import math
from dataclasses import replace

import numpy as np
import pytest

from impulsive_ctmdp import (
    EpidemicParams,
    NonConvergenceError,
    analytic_value,
    build_epidemic_model,
    extract_policy,
    lambda_star,
    sample_chain,
    solve,
    solve_carrier_equation,
    threshold_policy,
    validate_model,
)
from impulsive_ctmdp import epidemic
from impulsive_ctmdp.epidemic import (
    carrier_residual,
    coefficient_monotonicity_violations,
    enumerate_states,
    state_label,
)
from impulsive_ctmdp.simulate import replication_rng

from conftest import desk_params, rho_free_params


def test_params_reject_nonvanishing_rates_at_zero():
    with pytest.raises(ValueError):
        desk = desk_params()
        replace(desk, rho_b=(0.5,) + desk.rho_b[1:])
    with pytest.raises(ValueError):
        desk = desk_params()
        replace(desk, kappa_i=(1.0,) + desk.kappa_i[1:])


def test_params_reject_bad_scalars():
    with pytest.raises(ValueError):
        replace(desk_params(), eta=0.0)
    with pytest.raises(ValueError):
        replace(desk_params(), immunization_cost=0.0)
    with pytest.raises(ValueError):
        replace(desk_params(), c0=99)


SMALL = EpidemicParams(S=1, I=0, c0=0, C_max=2, eta=1.0, kappa_r=0.5, immunization_cost=0.2,
                       rho_b=(0.0, 1.0, 1.0), rho_d=(0.0, 1.0), kappa_i=(0.0, 1.0, 1.0))


@pytest.mark.parametrize("field, value", [
    ("rho_b", (0.0, math.nan, 1.0)), ("rho_d", (0.0, math.nan)), ("kappa_i", (0.0, 1.0, math.nan)),
    ("rho_b", (0.0, math.inf)), ("rho_d", (0.0, 1.0, math.inf)), ("kappa_i", (0.0, math.inf)),
    ("eta", math.nan), ("eta", math.inf), ("kappa_r", math.nan), ("kappa_r", math.inf),
    ("immunization_cost", math.nan), ("immunization_cost", math.inf),
])
def test_params_reject_non_finite_numbers(field, value):
    # A NaN rate used to pass the sign check, and the model builder dropped its jump;
    # an infinite one made the carrier iteration step NaN until its cap.
    with pytest.raises(ValueError):
        replace(SMALL, **{field: value})


@pytest.mark.parametrize("name", ["rho_b", "rho_d", "kappa_i"])
def test_params_reject_an_empty_rate_table(name):
    # An empty table used to raise IndexError where it is padded to C_max+1.
    with pytest.raises(ValueError, match=f"^{name} table is empty$"):
        replace(SMALL, **{name: ()})


def test_carrier_equation_checks_its_tolerance():
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError, match="tol"):
            solve_carrier_equation(desk_params(), tol=bad)


def test_carrier_equation_stops_at_an_exact_fixed_point():
    # tol * (1 - d) underflows to 0, and a step of 0 still stops the iteration.
    p = desk_params()
    cv = solve_carrier_equation(p, tol=5e-324)
    assert carrier_residual(p, cv) == 0.0
    assert cv.c_star == solve_carrier_equation(p).c_star


def test_a_slow_contraction_factor_still_converges():
    # The bound step_k <= step_1 d^(k-1) would ask for about 2.3e7 steps at d = 1 - 1e-6,
    # past the cap; the walk is killed at c = 0, so the iteration stops after about 2e4.
    p = replace(desk_params(), eta=1e-6, kappa_i=(0.0, 1e-6))
    assert carrier_residual(p, solve_carrier_equation(p)) <= 1e-12
    # At d = 1 - 1e-7 the value saturates at the price after one step, and the next stops.
    q = EpidemicParams(S=10, I=2, c0=2, C_max=3, eta=1e-7, kappa_r=0.0, immunization_cost=0.1,
                       rho_b=(0.0, 1.0), rho_d=(0.0, 1.0), kappa_i=(0.0, 1e-7))
    cv = solve_carrier_equation(q)
    assert cv.v.tolist() == [0.0, 0.1, 0.1, 0.1] and cv.c_star == 1


def test_the_carrier_iteration_cap_raises(monkeypatch):
    # Frozen carriers contract at once (d = 0), so the cap alone stops the first step.
    monkeypatch.setattr(epidemic, "CARRIER_ITERATIONS", 1)
    with pytest.raises(NonConvergenceError, match="in 1 steps") as err:
        solve_carrier_equation(rho_free_params())
    assert err.value.iterations == 1 and err.value.step > 0
    monkeypatch.setattr(epidemic, "CARRIER_ITERATIONS", 2)
    assert carrier_residual(rho_free_params(), solve_carrier_equation(rho_free_params())) == 0.0


def test_rate_tables_pad_as_constant():
    p = desk_params()
    assert len(p.rho_b) == 31
    assert p.rho_b[-1] == 1.0 and p.kappa_i[-1] == 10.0


def test_desk_model_is_valid_and_closed():
    p = desk_params()
    m = build_epidemic_model(p)
    assert validate_model(m) == []
    # Triangle s + i <= S + I, all carrier levels.
    assert m.states.N == sum(13 - s for s in range(11)) * 31
    # Uniform bound dominates both rates and running costs.
    assert m.K >= p.S + p.I
    for (x, a), row in m.rates.rows.items():
        assert sum(r for _, r in row) <= m.rates.K_rate + 1e-12


def test_no_susceptibles_means_no_impulses_and_linear_value():
    p = replace(desk_params(), S=0, C_max=5,
                rho_b=(0.0, 1.0), rho_d=(0.0, 1.0), kappa_i=(0, 1, 2, 3, 4, 5))
    m = build_epidemic_model(p)
    assert all(not m.actions.impulsive[s] for s in m.states.labels)
    report = solve(m)
    for c in range(6):
        for i in range(3):
            k = m.states.index[state_label(0, c, i)]
            assert abs(report.V[k] - i / (p.eta + p.kappa_r)) < 1e-8


def test_no_infection_pressure_never_immunizes():
    p = replace(desk_params(), C_max=5, kappa_i=(0.0, 0.0),
                rho_b=(0.0, 1.0), rho_d=(0.0, 1.0))
    cv = solve_carrier_equation(p)
    assert np.max(np.abs(cv.v)) == 0.0
    assert cv.c_star is None
    assert cv.lambda_star == 0.0


def test_frozen_carriers_closed_form():
    # Without carrier births/deaths the fixed point is pointwise:
    # v(c) = min{ (kappa_i(c)/2) / (1 + kappa_i(c)), lambda }.
    p = rho_free_params(lam=0.2)
    cv = solve_carrier_equation(p)
    for c in range(31):
        ki = min(c, 10)
        assert abs(cv.v[c] - min((ki / 2.0) / (1.0 + ki), 0.2)) <= 1e-10
    assert cv.c_star == 1  # v-candidate at c=1 is 0.25 > 0.2


def test_frozen_carriers_above_critical_price_never_intervene():
    cv = solve_carrier_equation(rho_free_params(lam=0.5))
    assert cv.lambda_star == 5.0 / 11.0
    assert cv.c_star is None


def test_lambda_star_formula_and_invariance():
    p = desk_params()
    assert lambda_star(p) == (10.0 / 2.0) / (1.0 + 10.0)
    doubled = replace(p, rho_b=tuple(2 * r for r in p.rho_b),
                      rho_d=tuple(2 * r for r in p.rho_d))
    assert lambda_star(doubled) == lambda_star(p)


def test_desk_carrier_solution(desk_solved):
    cv = desk_solved["cv"]
    assert cv.c_star == 2
    assert abs(cv.v[1] - 0.175) <= 1e-9
    assert abs(cv.v[2] - 0.2) <= 1e-9
    assert carrier_residual(desk_solved["params"], cv) <= 1e-11
    # Monotone and capped by the price.
    assert np.all(np.diff(cv.v) >= -1e-12)
    assert cv.v.min() >= 0.0 and cv.v.max() <= 0.2 + 1e-12


def test_desk_instance_reports_monotonicity_warnings():
    # The normalized coefficients of the desk instance are not monotone near
    # c = 1; this is informational, not fatal.
    bad = coefficient_monotonicity_violations(desk_params())
    assert 2 in bad


def test_truncation_is_inert_in_the_safe_zone():
    cv30 = solve_carrier_equation(desk_params())
    cv60 = solve_carrier_equation(desk_params(c_max=60))
    assert np.max(np.abs(cv30.v[:16] - cv60.v[:16])) < 1e-8


def test_analytic_value_reductions():
    p = desk_params()
    cv = solve_carrier_equation(p)
    assert analytic_value(p, cv, 0, 7, 2) == 2 / 2.0
    assert analytic_value(p, cv, 1, 5, 0) == cv.v[5]
    assert abs(analytic_value(p, cv, 10, 5, 2) - (10 * cv.v[5] + 1.0)) <= 1e-15
    with pytest.raises(ValueError):
        analytic_value(p, cv, 99, 0, 0)


def test_threshold_policy_without_threshold_is_all_gradual():
    p = desk_params(lam=0.5)
    cv = solve_carrier_equation(p)
    policy = threshold_policy(p, cv)
    assert not policy.impulsive.any()


def test_threshold_chain_immunizes_everyone(desk_solved):
    p, cv = desk_solved["params"], desk_solved["cv"]
    m, policy = desk_solved["model"], threshold_policy(p, cv)
    chain = sample_chain(m, policy, state_label(3, cv.c_star, 1), replication_rng(0, 0))
    assert len(chain.steps) == 3
    assert abs(chain.total_cost - 3 * 0.2) <= 1e-15
    assert chain.landing == state_label(0, cv.c_star, 1)


def test_threshold_policy_matches_generic_partition(desk_solved):
    p, cv = desk_solved["params"], desk_solved["cv"]
    generic = desk_solved["policy"]
    threshold = threshold_policy(p, cv)
    for k, (s, c, i) in enumerate(enumerate_states(p)):
        if c <= 15:
            assert generic.impulsive[k] == threshold.impulsive[k], (s, c, i)


def test_desk_solve_is_within_its_certificate(desk_solved):
    p, cv, m = desk_solved["params"], desk_solved["cv"], desk_solved["model"]
    report = desk_solved["report"]
    exact = np.array([analytic_value(p, cv, s, c, i) for s, c, i in enumerate_states(p)])
    assert np.max(np.abs(report.V.values - exact)) <= report.gap <= 1e-10


def test_desk_policy_at_loose_tolerance_is_the_threshold_policy(desk_solved):
    # At tol=1e-6 value iteration's error passed extract_policy's tol_set.
    p, cv, m = desk_solved["params"], desk_solved["cv"], desk_solved["model"]
    policy = extract_policy(m, solve(m, tol=1e-6).V)
    threshold = threshold_policy(p, cv)
    assert np.array_equal(policy.impulsive, threshold.impulsive)
    assert np.array_equal(policy.phi_g, threshold.phi_g)
    assert np.array_equal(policy.phi_i, threshold.phi_i)


def test_state_enumeration_closed_under_dynamics():
    p = desk_params()
    states = set(enumerate_states(p))
    m = build_epidemic_model(p)
    for (x, _), row in m.rates.rows.items():
        for target, _ in row:
            s, c, i = map(int, target.split(","))
            assert (s, c, i) in states
