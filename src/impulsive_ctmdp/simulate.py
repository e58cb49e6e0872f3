"""Monte Carlo simulation of the controlled jump process.

Trajectories follow a stationary policy of the sufficient class:
interventions fire at time zero and immediately after natural jumps.
Sojourns are exponential at the state's total gradual rate, running cost is
integrated in closed form between epochs, and sampling stops once the
discounted tail is provably below ``tail_tol``.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._ops import CompiledModel, compile_model
from .bellman import StationaryPolicy, ValueFunction, check_policy
from .intervention import (
    ImproperChainError,
    InterventionChain,
    _step,
    analyze_chains,
    chain_guard,
    expected_landing_value,
)
from .model import CtmdpModel

DEFAULT_TAIL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Epoch:
    time: float
    pre_jump_state: str
    natural_target: str
    chain: InterventionChain | None
    post_state: str


@dataclass(frozen=True, eq=False)
class Trajectory:
    epochs: tuple[Epoch, ...]
    discounted_gradual_cost: float
    discounted_impulse_cost: float
    truncation_time: float  # inf when the path was absorbed (no truncation bias)

    @property
    def total_cost(self) -> float:
        return self.discounted_gradual_cost + self.discounted_impulse_cost

    @property
    def natural_jump_count(self) -> int:
        return max(0, len(self.epochs) - 1)


@dataclass(frozen=True, eq=False)
class CostEstimate:
    mean: float
    std_error: float
    n_replications: int
    confidence_level: float = 0.997  # three-sigma convention


@dataclass(frozen=True, eq=False)
class DynkinReport:
    lhs: float
    rhs: float
    diff: float
    std_error: float
    n_replications: int


@dataclass(frozen=True, eq=False)
class _Prep:
    """Per-(model, policy) simulation tables."""

    comp: CompiledModel
    policy: StationaryPolicy
    total_rate: np.ndarray   # (N,) jump rate under phi_g
    run_cost: np.ndarray     # (N,) running cost under phi_g
    targets: list            # per state: jump target indices under phi_g
    cum: list                # per state: cumulative jump probabilities
    guard: int
    chain_cost_bound: float  # max expected chain cost (properness witness)

    def horizon(self, tail_tol: float) -> float:
        bound = 3.0 * self.comp.K / self.comp.eta + self.chain_cost_bound
        if bound <= tail_tol:
            return 0.0
        return math.log(bound / tail_tol) / self.comp.eta


@lru_cache(maxsize=32)
def _prepare(model: CtmdpModel, policy: StationaryPolicy) -> _Prep:
    check_policy(model, policy)
    comp = compile_model(model)
    pairs = comp.g_ptr[:-1] + policy.phi_g
    analysis = analyze_chains(model, policy)
    bound = float(np.max(analysis.expected_cost)) if analysis.expected_cost.size else 0.0
    return _Prep(
        comp=comp,
        policy=policy,
        total_rate=comp.g_total_rate[pairs],
        run_cost=comp.g_cost[pairs],
        targets=[comp.g_targets[int(p)] for p in pairs],
        cum=[comp.g_cum[int(p)] for p in pairs],
        guard=chain_guard(model),
        chain_cost_bound=bound,
    )


def _draw_target(prep: _Prep, x: int, rng: np.random.Generator) -> int:
    tgt = prep.targets[x]
    if len(tgt) == 1:
        return int(tgt[0])
    return int(tgt[np.searchsorted(prep.cum[x], rng.random(), side="right")])


def _chain_fast(prep: _Prep, x: int, rng: np.random.Generator) -> tuple[int, float]:
    cost = 0.0
    steps = 0
    while prep.policy.impulsive[x]:
        if steps >= prep.guard:
            raise ImproperChainError("chain guard hit during simulation",
                                     prep.comp.model.states.labels[x])
        _, x, c = _step(prep.comp, prep.policy, x, rng)
        cost += c
        steps += 1
    return x, cost


def _chain_recorded(prep: _Prep, x: int, rng: np.random.Generator) -> tuple[int, InterventionChain]:
    labels = prep.comp.model.states.labels
    model = prep.comp.model
    steps: list[tuple[str, str]] = []
    cost = 0.0
    while prep.policy.impulsive[x]:
        if len(steps) >= prep.guard:
            raise ImproperChainError("chain guard hit during simulation", labels[x])
        a, nxt, c = _step(prep.comp, prep.policy, x, rng)
        steps.append((labels[x], model.actions.impulsive[labels[x]][a]))
        cost += c
        x = nxt
    return x, InterventionChain(steps=tuple(steps), landing=labels[x], total_cost=cost)


def _run(prep: _Prep, x0: int, rng: np.random.Generator, horizon: float,
         record: bool) -> tuple[float, float, list[Epoch] | None, float]:
    """Core trajectory loop; returns (gradual cost, impulse cost, epochs, truncation)."""
    eta = prep.comp.eta
    labels = prep.comp.model.states.labels
    epochs: list[Epoch] | None = [] if record else None
    cost_g = 0.0
    cost_i = 0.0
    x = x0
    if prep.policy.impulsive[x]:
        if record:
            pre = labels[x]
            x, chain = _chain_recorded(prep, x, rng)
            epochs.append(Epoch(0.0, pre, pre, chain, labels[x]))
            cost_i += chain.total_cost
        else:
            x, c = _chain_fast(prep, x, rng)
            cost_i += c
    elif record:
        epochs.append(Epoch(0.0, labels[x], labels[x], None, labels[x]))
    t = 0.0
    while True:
        rate = prep.total_rate[x]
        if rate == 0.0:
            # Absorbed: remaining discounted running cost in closed form.
            cost_g += prep.run_cost[x] * math.exp(-eta * t) / eta
            return cost_g, cost_i, epochs, math.inf
        t_next = t + rng.standard_exponential() / rate
        if t_next > horizon:
            cost_g += prep.run_cost[x] * (math.exp(-eta * t) - math.exp(-eta * horizon)) / eta
            return cost_g, cost_i, epochs, horizon
        cost_g += prep.run_cost[x] * (math.exp(-eta * t) - math.exp(-eta * t_next)) / eta
        z = _draw_target(prep, x, rng)
        if prep.policy.impulsive[z]:
            if record:
                pre = labels[x]
                post, chain = _chain_recorded(prep, z, rng)
                epochs.append(Epoch(t_next, pre, labels[z], chain, labels[post]))
                cost_i += chain.total_cost * math.exp(-eta * t_next)
                z = post
            else:
                post, c = _chain_fast(prep, z, rng)
                cost_i += c * math.exp(-eta * t_next)
                z = post
        elif record:
            epochs.append(Epoch(t_next, labels[x], labels[z], None, labels[z]))
        x = z
        t = t_next


def simulate_trajectory(model: CtmdpModel, policy: StationaryPolicy, x0: str,
                        rng: np.random.Generator, tail_tol: float = DEFAULT_TAIL_TOL) -> Trajectory:
    """Sample one trajectory from ``x0``, recording every epoch."""
    if tail_tol <= 0:
        raise ValueError("tail_tol must be > 0")
    prep = _prepare(model, policy)
    cost_g, cost_i, epochs, trunc = _run(
        prep, model.states.index[x0], rng, prep.horizon(tail_tol), record=True)
    return Trajectory(tuple(epochs), cost_g, cost_i, trunc)


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """Independent substream for one replication, deterministic in (seed, rep)."""
    return np.random.default_rng(np.random.SeedSequence((seed, rep)))


def _replication_costs(model: CtmdpModel, policy: StationaryPolicy, x0: str,
                       seed: int, start: int, stop: int, tail_tol: float) -> np.ndarray:
    prep = _prepare(model, policy)
    x0i = model.states.index[x0]
    horizon = prep.horizon(tail_tol)
    out = np.empty(stop - start)
    for rep in range(start, stop):
        cg, ci, _, _ = _run(prep, x0i, replication_rng(seed, rep), horizon, record=False)
        out[rep - start] = cg + ci
    return out


def estimate_cost(model: CtmdpModel, policy: StationaryPolicy, x0: str, n_reps: int,
                  seed: int, tail_tol: float = DEFAULT_TAIL_TOL, threads: int = 1) -> CostEstimate:
    """Mean discounted cost over independent replications.

    Replication ``i`` always uses the substream derived from (seed, i), so
    the estimate is identical for any ``threads`` setting.
    """
    if n_reps < 2:
        raise ValueError("n_reps must be >= 2")
    if threads > 1:
        bounds = np.linspace(0, n_reps, threads + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(
                _replication_costs,
                [model] * threads, [policy] * threads, [x0] * threads,
                [seed] * threads, bounds[:-1].tolist(), bounds[1:].tolist(),
                [tail_tol] * threads,
            ))
        costs = np.concatenate(parts)
    else:
        costs = _replication_costs(model, policy, x0, seed, 0, n_reps, tail_tol)
    return CostEstimate(
        mean=float(np.mean(costs)),
        std_error=float(np.std(costs, ddof=1) / math.sqrt(n_reps)),
        n_replications=n_reps,
    )


def dynkin_check(model: CtmdpModel, policy: StationaryPolicy, W: ValueFunction,
                 x0: str, t: float, n_reps: int, seed: int) -> DynkinReport:
    """Estimate both sides of the discounted martingale identity at horizon t.

    The left side is the discounted value of ``W`` at the state occupied at
    time t; the right side is the initial post-intervention value plus the
    closed-form drift integral along the same trajectory.  Both sides share
    common random numbers, so the reported standard error is that of the
    paired difference.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    prep = _prepare(model, policy)
    comp = prep.comp
    eta = comp.eta
    Wv = W.values
    Wbar = expected_landing_value(model, policy, Wv)
    # Per-state drift rate: discounting decay plus jump-and-intervene flux.
    # K * P_unif row = q-bar row + (K - rate) * delta_x, so peel the diagonal off.
    pairs = comp.g_ptr[:-1] + policy.phi_g
    flux = (comp.P_unif[pairs] @ Wbar) * comp.K - (comp.K - prep.total_rate) * Wbar
    gvec = -eta * Wv + flux - Wv * prep.total_rate

    x0i = model.states.index[x0]
    lhs = np.empty(n_reps)
    rhs = np.empty(n_reps)
    for rep in range(n_reps):
        rng = replication_rng(seed, rep)
        x = x0i
        if prep.policy.impulsive[x]:
            x, _ = _chain_fast(prep, x, rng)
        rhs_j = float(Wv[x])
        tau = 0.0
        while True:
            rate = prep.total_rate[x]
            t_next = tau + rng.standard_exponential() / rate if rate > 0 else math.inf
            seg_end = min(t_next, t)
            rhs_j += gvec[x] * (math.exp(-eta * tau) - math.exp(-eta * seg_end)) / eta
            if t_next >= t:
                break
            z = _draw_target(prep, x, rng)
            if prep.policy.impulsive[z]:
                z, _ = _chain_fast(prep, z, rng)
            x = z
            tau = t_next
        lhs[rep] = math.exp(-eta * t) * Wv[x]
        rhs[rep] = rhs_j
    d = lhs - rhs
    return DynkinReport(
        lhs=float(np.mean(lhs)),
        rhs=float(np.mean(rhs)),
        diff=float(np.mean(d)),
        std_error=float(np.std(d, ddof=1) / math.sqrt(n_reps)),
        n_replications=n_reps,
    )


def simulate_spaced(model: CtmdpModel, policy: StationaryPolicy, x0: str,
                    rng: np.random.Generator, deltas: list[float],
                    tail_tol: float = DEFAULT_TAIL_TOL) -> Trajectory:
    """Trajectory with impulses separated by small waits instead of fired instantly.

    Each impulse of a chain is preceded by the next wait from ``deltas``
    (zero once the list is exhausted), during which the gradual control of
    the current state applies.  If a natural jump lands during a wait, the
    rest of the trajectory runs under gradual control only, with no further
    interventions.  With all-zero waits the sampled path coincides, draw for
    draw, with :func:`simulate_trajectory`.
    """
    if tail_tol <= 0:
        raise ValueError("tail_tol must be > 0")
    if any(d < 0 for d in deltas):
        raise ValueError("waits must be nonnegative")
    prep = _prepare(model, policy)
    comp = prep.comp
    eta = comp.eta
    labels = comp.model.states.labels
    horizon = prep.horizon(tail_tol)
    delta_iter = iter(deltas)

    epochs: list[Epoch] = []
    cost_g = 0.0
    cost_i = 0.0

    def accrue(x: int, a: float, b: float) -> None:
        nonlocal cost_g
        cost_g += prep.run_cost[x] * (math.exp(-eta * a) - math.exp(-eta * b)) / eta

    def gradual_only(x: int, t: float) -> float:
        """Finish the path without interventions; returns truncation time."""
        nonlocal cost_g
        while True:
            rate = prep.total_rate[x]
            if rate == 0.0:
                cost_g += prep.run_cost[x] * math.exp(-eta * t) / eta
                return math.inf
            t_next = t + rng.standard_exponential() / rate
            if t_next > horizon:
                accrue(x, t, horizon)
                return horizon
            accrue(x, t, t_next)
            z = _draw_target(prep, x, rng)
            epochs.append(Epoch(t_next, labels[x], labels[z], None, labels[z]))
            x = z
            t = t_next

    def spaced_chain(x: int, t: float) -> tuple[int, float, bool]:
        """Apply the chain at ``x`` with waits; returns (state, time, interrupted)."""
        nonlocal cost_i
        steps: list[tuple[str, str]] = []
        chain_cost = 0.0
        start_pre = labels[x]
        while prep.policy.impulsive[x]:
            if len(steps) >= prep.guard:
                raise ImproperChainError("chain guard hit during simulation", labels[x])
            d = next(delta_iter, 0.0)
            if d > 0.0:
                rate = prep.total_rate[x]
                jump_at = t + rng.standard_exponential() / rate if rate > 0 else math.inf
                wait_end = t + d
                if jump_at < wait_end:
                    if jump_at > horizon:
                        accrue(x, t, horizon)
                        epochs.append(Epoch(t, start_pre, start_pre,
                                            InterventionChain(tuple(steps), labels[x], chain_cost), labels[x]))
                        return x, horizon, True
                    accrue(x, t, jump_at)
                    z = _draw_target(prep, x, rng)
                    epochs.append(Epoch(t, start_pre, start_pre,
                                        InterventionChain(tuple(steps), labels[x], chain_cost), labels[x]))
                    epochs.append(Epoch(jump_at, labels[x], labels[z], None, labels[z]))
                    trunc = gradual_only(z, jump_at)
                    return z, trunc, True
                if wait_end > horizon:
                    accrue(x, t, horizon)
                    epochs.append(Epoch(t, start_pre, start_pre,
                                        InterventionChain(tuple(steps), labels[x], chain_cost), labels[x]))
                    return x, horizon, True
                accrue(x, t, wait_end)
                t = wait_end
            a, nxt, c = _step(comp, prep.policy, x, rng)
            steps.append((labels[x], comp.model.actions.impulsive[labels[x]][a]))
            cost_i += c * math.exp(-eta * t)
            chain_cost += c
            x = nxt
        epochs.append(Epoch(t, start_pre, start_pre,
                            InterventionChain(tuple(steps), labels[x], chain_cost), labels[x]))
        return x, t, False

    x = model.states.index[x0]
    t = 0.0
    if prep.policy.impulsive[x]:
        x, t, interrupted = spaced_chain(x, 0.0)
        if interrupted:
            return Trajectory(tuple(epochs), cost_g, cost_i, t)
    else:
        epochs.append(Epoch(0.0, labels[x], labels[x], None, labels[x]))
    while True:
        rate = prep.total_rate[x]
        if rate == 0.0:
            cost_g += prep.run_cost[x] * math.exp(-eta * t) / eta
            return Trajectory(tuple(epochs), cost_g, cost_i, math.inf)
        t_next = t + rng.standard_exponential() / rate
        if t_next > horizon:
            accrue(x, t, horizon)
            return Trajectory(tuple(epochs), cost_g, cost_i, horizon)
        accrue(x, t, t_next)
        z = _draw_target(prep, x, rng)
        if prep.policy.impulsive[z]:
            epochs.append(Epoch(t_next, labels[x], labels[z], None, labels[z]))
            z, t_land, interrupted = spaced_chain(z, t_next)
            if interrupted:
                return Trajectory(tuple(epochs), cost_g, cost_i, t_land)
            x, t = z, t_land
        else:
            epochs.append(Epoch(t_next, labels[x], labels[z], None, labels[z]))
            x, t = z, t_next
