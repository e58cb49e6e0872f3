"""Epidemic-with-carriers instance: builder, carrier fixed point, thresholds."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impulsive_ctmdp import (
    CarrierContractionError,
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


@pytest.mark.parametrize("changes", [
    {"rho_b": (0.0, 1.0e308), "rho_d": (0.0, 1.0e308)},   # eta + rho_b + rho_d + kappa_i overflows
    {"kappa_i": (0.0, 1.0e300), "eta": 1.0e-10},          # kappa_i / (eta + kappa_r) overflows
])
def test_params_reject_rates_that_overflow(changes):
    # Each entry is finite, but the carrier coefficients used to come out NaN, and the
    # carrier iteration stepped NaN until a timeout killed it.
    with pytest.raises(ValueError, match="must be finite"):
        replace(SMALL, kappa_r=0.0, **changes)


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
    # The smallest positive tol passes: the exact solve leaves the desk model no residual.
    p = desk_params()
    cv = solve_carrier_equation(p, tol=5e-324)
    assert carrier_residual(p, cv) == 0.0
    assert cv.c_star == solve_carrier_equation(p).c_star


def test_a_slow_contraction_factor_still_converges():
    # The exact solve's rounds do not depend on d = 1 - 1e-6: the stop set only shrinks,
    # so there are at most C_max + 1 solves.
    p = replace(desk_params(), eta=1e-6, kappa_i=(0.0, 1e-6))
    with mock.patch.object(epidemic, "_thomas", wraps=epidemic._thomas) as thomas:
        assert carrier_residual(p, solve_carrier_equation(p)) <= 1e-15
    assert thomas.call_count <= p.C_max + 1
    # At d = 1 - 1e-7 waiting costs more than the price wherever carriers infect.
    q = EpidemicParams(S=10, I=2, c0=2, C_max=3, eta=1e-7, kappa_r=0.0, immunization_cost=0.1,
                       rho_b=(0.0, 1.0), rho_d=(0.0, 1.0), kappa_i=(0.0, 1e-7))
    cv = solve_carrier_equation(q)
    assert cv.v.tolist() == [0.0, 0.1, 0.1, 0.1] and cv.c_star == 1


def test_a_carrier_equation_that_does_not_contract_raises():
    # Unit birth and death rates with eta and the infection rate at 1e-20:
    # sup(alpha1 + alpha2) = 2 / (2 + 2e-20) rounds to 1.0.
    p = replace(desk_params(), eta=1e-20, kappa_i=(0.0, 1e-20))
    with pytest.raises(CarrierContractionError, match=r"sup\(alpha1 \+ alpha2\) = 1\.0 >= 1"):
        solve_carrier_equation(p)


def test_a_tol_below_the_roundoff_floor_raises():
    # Just below the critical price the exact solve leaves a residual of about one ulp of v,
    # 1.1e-16; a tol below that raises exit 4's error, carrying the residual as its step.
    p = replace(desk_params(), immunization_cost=0.431818181818)
    cv = solve_carrier_equation(p)
    residual = carrier_residual(p, cv)
    assert 0.0 < residual <= 1e-15
    with pytest.raises(NonConvergenceError, match="exceeds tol=1e-20") as err:
        solve_carrier_equation(p, tol=1e-20)
    assert err.value.step == residual and np.array_equal(err.value.last, cv.v)


@pytest.mark.parametrize("eta, lam, tol", [(1e-4, 2e4, 1e-12), (1e-6, 2e6, 1e-10)])
def test_a_large_price_solves_at_the_default_tols(eta, lam, tol):
    # v comes near lambda_star (about 1e4 and 1e6), and the exact solve's residual of a
    # few ulps of it (1.8e-12, 2.3e-10) exceeds the library's and the CLI's default tol;
    # tol is relative to max(1, lambda), so both solve.
    p = replace(desk_params(), eta=eta, kappa_r=0.0, immunization_cost=lam)
    cv = solve_carrier_equation(p, tol=tol)
    assert tol < carrier_residual(p, cv) <= tol * lam and cv.c_star is None


def _value_iteration(p: EpidemicParams) -> np.ndarray:
    """Carrier value by plain value iteration in extended precision, from below (0)
    and from above (the price), which bracket it, until the bracket is below 1e-14
    or neither end moves."""
    rb, rd, ki = (np.array(t, dtype=np.longdouble) for t in (p.rho_b, p.rho_d, p.kappa_i))
    rb[-1] = 0  # no births at the truncation
    denom = p.eta + rb + rd + ki
    lam = p.immunization_cost

    def step(w):
        up, down = np.append(w[1:], w[-1]), np.append(w[0], w[:-1])
        return np.minimum((rb * up + rd * down + ki / (p.eta + p.kappa_r)) / denom, lam)

    lo, hi = np.zeros(p.C_max + 1, dtype=np.longdouble), np.full(p.C_max + 1, lam, dtype=np.longdouble)
    for _ in range(10 ** 6):
        new = step(lo), step(hi)
        if np.max(hi - lo) <= 1e-14 or (np.array_equal(new[0], lo) and np.array_equal(new[1], hi)):
            return (lo + hi) / 2
        lo, hi = new
    raise AssertionError("reference value iteration did not close its bracket")


# Rates up to 1 against eta down to 1e-3 give contraction factors up to 1 - 5e-4, so the
# bracket, which shrinks at least by that factor per step, closes within 7e4 steps.
RATE = st.one_of(st.just(0.0), st.floats(0.01, 1.0))


@st.composite
def carrier_problems(draw):
    c_max = draw(st.integers(1, 60))
    tables = [(0.0,) + tuple(draw(st.lists(RATE, min_size=0, max_size=c_max))) for _ in range(3)]
    return EpidemicParams(S=1, I=0, c0=0, C_max=c_max, eta=draw(st.sampled_from([1e-3, 0.1, 1.0, 5.0])),
                          kappa_r=draw(st.floats(0.0, 2.0)), immunization_cost=draw(st.floats(0.01, 1.0)),
                          rho_b=tables[0], rho_d=tables[1], kappa_i=tables[2])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(carrier_problems())
def test_carrier_solve_matches_value_iteration(p):
    # Random tables, with zero and non-monotone entries.  The reference's bracket is
    # within 1e-14 of the value; 1e-13 leaves room for the solve's roundoff, which a
    # contraction factor near 1 amplifies.
    with mock.patch.object(epidemic, "_thomas", wraps=epidemic._thomas) as thomas:
        cv = solve_carrier_equation(p)
    assert thomas.call_count <= p.C_max + 1
    ref = _value_iteration(p)
    assert np.max(np.abs(cv.v - ref)) <= 1e-13
    assert carrier_residual(p, cv) <= 1e-15
    waiting = epidemic._carrier_map(epidemic._alphas(p, truncated=True), ref)
    above = np.flatnonzero(waiting > p.immunization_cost + 1e-12)
    assert cv.c_star == (int(above[0]) if above.size else None)


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


def test_analytic_value_takes_integer_counts():
    # s=1.5 gave 0.3 and i=0.5 gave 0.45; c=2.5 failed as an IndexError.
    p = desk_params()
    cv = solve_carrier_equation(p)
    for name, state in (("s", (1.5, 5, 0)), ("i", (1, 5, 0.5)), ("c", (1, 2.5, 0)), ("s", (True, 5, 0))):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0"):
            analytic_value(p, cv, *state)
    assert analytic_value(p, cv, np.int64(1), np.int32(5), np.int8(0)) == analytic_value(p, cv, 1, 5, 0) == cv.v[5]


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


@pytest.mark.parametrize("S, I, c_max", [(0, 0, 1), (0, 3, 1), (2, 0, 1), (3, 9, 12), (11, 1, 2)])
def test_built_labels_are_the_state_labels(S, I, c_max):
    # The builder formats each count once; a count of 10 or more has two digits.
    p = EpidemicParams(S=S, I=I, c0=0, C_max=c_max, eta=1.0, kappa_r=1.0, immunization_cost=0.2,
                       rho_b=(0.0, 1.0), rho_d=(0.0, 1.0), kappa_i=(0.0, 1.0))
    states = build_epidemic_model(p).states
    assert states.labels == tuple(state_label(*x) for x in enumerate_states(p))
    assert len(states.index) == states.N and all(states.index[x] == k for k, x in enumerate(states.labels))


def test_state_enumeration_closed_under_dynamics():
    p = desk_params()
    states = set(enumerate_states(p))
    m = build_epidemic_model(p)
    for (x, _), row in m.rates.rows.items():
        for target, _ in row:
            s, c, i = map(int, target.split(","))
            assert (s, c, i) in states
