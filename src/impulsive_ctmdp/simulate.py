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
from functools import lru_cache, partial

import numpy as np

from ._ops import CompiledModel, compile_model, policy_pairs, sample_row, sample_rows
from .bellman import StationaryPolicy, ValueFunction
from .intervention import (
    ImproperChainError,
    InterventionChain,
    analyze_chains,
    chain_guard,
    expected_landing_value,
)
from .model import CtmdpModel

DEFAULT_TAIL_TOL = 1e-8
BLOCK = 1024  # replications advanced together; Monte Carlo streams are keyed by (seed, block)


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
    """Per-(model, policy) simulation tables; each array has one entry per state."""

    comp: CompiledModel
    policy: StationaryPolicy
    g_rows: np.ndarray       # gradual pair under phi_g
    total_rate: np.ndarray   # jump rate under phi_g
    run_cost: np.ndarray     # running cost under phi_g
    jump_lo: np.ndarray      # bounds of the row of comp.J under phi_g
    jump_hi: np.ndarray
    imp_lo: np.ndarray       # bounds of the row of comp.Q_imp under phi_i (0 off the flagged set)
    imp_hi: np.ndarray
    imp_cost: np.ndarray     # impulse cost under phi_i (0 off the flagged set)
    guard: int
    chain_cost_bound: float  # max expected chain cost (properness witness)

    def horizon(self, tail_tol: float) -> float:
        bound = 3.0 * self.comp.K / self.comp.eta + self.chain_cost_bound
        if bound <= tail_tol:
            return 0.0
        return math.log(bound / tail_tol) / self.comp.eta


@lru_cache(maxsize=32)
def _prepare(model: CtmdpModel, policy: StationaryPolicy) -> _Prep:
    analysis = analyze_chains(model, policy)  # checks the policy and its properness
    comp = compile_model(model)
    g_rows, flagged, i_rows = policy_pairs(comp, policy)
    imp_lo = np.zeros(comp.N, dtype=np.int64)
    imp_hi = np.zeros(comp.N, dtype=np.int64)
    imp_cost = np.zeros(comp.N)
    imp_lo[flagged] = comp.Q_imp.indptr[i_rows]
    imp_hi[flagged] = comp.Q_imp.indptr[i_rows + 1]
    imp_cost[flagged] = comp.i_cost[i_rows]
    return _Prep(
        comp=comp,
        policy=policy,
        g_rows=g_rows,
        total_rate=comp.g_total_rate[g_rows],
        run_cost=comp.g_cost[g_rows],
        jump_lo=comp.J.indptr[g_rows],
        jump_hi=comp.J.indptr[g_rows + 1],
        imp_lo=imp_lo,
        imp_hi=imp_hi,
        imp_cost=imp_cost,
        guard=chain_guard(model, policy),
        chain_cost_bound=float(np.max(analysis.expected_cost)) if analysis.expected_cost.size else 0.0,
    )


def _guard_error(prep: _Prep, x: int) -> ImproperChainError:
    return ImproperChainError(
        f"chain exceeded the {prep.guard}-step guard without reaching a gradual state",
        prep.comp.model.states.labels[x],
    )


def _jump(prep: _Prep, x: int, rng: np.random.Generator) -> int:
    """Target of a natural jump from ``x`` under phi_g."""
    comp = prep.comp
    return int(comp.J.indices[sample_row(comp.J_cum, prep.jump_lo[x], prep.jump_hi[x], rng)])


def _impulse(prep: _Prep, x: int, rng: np.random.Generator) -> int:
    """Landing of one impulse at flagged state ``x`` under phi_i."""
    comp = prep.comp
    return int(comp.Q_imp.indices[sample_row(comp.Q_cum, prep.imp_lo[x], prep.imp_hi[x], rng)])


def _chain_recorded(prep: _Prep, x: int, rng: np.random.Generator) -> tuple[int, InterventionChain]:
    labels = prep.comp.model.states.labels
    actions = prep.comp.model.actions.impulsive
    steps: list[tuple[str, str]] = []
    cost = 0.0
    while prep.policy.impulsive[x]:
        if len(steps) >= prep.guard:
            raise _guard_error(prep, x)
        steps.append((labels[x], actions[labels[x]][prep.policy.phi_i[x]]))
        cost += float(prep.imp_cost[x])
        x = _impulse(prep, x, rng)
    return x, InterventionChain(steps=tuple(steps), landing=labels[x], total_cost=cost)


def sample_chain(model: CtmdpModel, policy: StationaryPolicy, x: str, rng: np.random.Generator) -> InterventionChain:
    """Sample one intervention chain started at a flagged state."""
    k = model.states.index[x]
    if not policy.impulsive[k]:
        raise ValueError(f"state {x!r} is not flagged for intervention under this policy")
    return _chain_recorded(_prepare(model, policy), k, rng)[1]


def simulate_trajectory(model: CtmdpModel, policy: StationaryPolicy, x0: str,
                        rng: np.random.Generator, tail_tol: float = DEFAULT_TAIL_TOL) -> Trajectory:
    """Sample one trajectory from ``x0``, recording every epoch."""
    if tail_tol <= 0:
        raise ValueError("tail_tol must be > 0")
    prep = _prepare(model, policy)
    horizon = prep.horizon(tail_tol)
    eta = prep.comp.eta
    labels = model.states.labels
    epochs: list[Epoch] = []
    cost_g = 0.0
    cost_i = 0.0
    x = model.states.index[x0]
    if prep.policy.impulsive[x]:
        pre = labels[x]
        x, chain = _chain_recorded(prep, x, rng)
        epochs.append(Epoch(0.0, pre, pre, chain, labels[x]))
        cost_i += chain.total_cost
    else:
        epochs.append(Epoch(0.0, labels[x], labels[x], None, labels[x]))
    t = 0.0
    while True:
        rate = prep.total_rate[x]
        if rate == 0.0:
            # Absorbed: remaining discounted running cost in closed form.
            cost_g += prep.run_cost[x] * math.exp(-eta * t) / eta
            return Trajectory(tuple(epochs), cost_g, cost_i, math.inf)
        t_next = t + rng.standard_exponential() / rate
        if t_next > horizon:
            cost_g += prep.run_cost[x] * (math.exp(-eta * t) - math.exp(-eta * horizon)) / eta
            return Trajectory(tuple(epochs), cost_g, cost_i, horizon)
        cost_g += prep.run_cost[x] * (math.exp(-eta * t) - math.exp(-eta * t_next)) / eta
        z = _jump(prep, x, rng)
        if prep.policy.impulsive[z]:
            post, chain = _chain_recorded(prep, z, rng)
            epochs.append(Epoch(t_next, labels[x], labels[z], chain, labels[post]))
            cost_i += chain.total_cost * math.exp(-eta * t_next)
            z = post
        else:
            epochs.append(Epoch(t_next, labels[x], labels[z], None, labels[z]))
        x = z
        t = t_next


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """Independent substream for one replication, deterministic in (seed, rep)."""
    return np.random.default_rng(np.random.SeedSequence((seed, rep)))


def _block_rng(seed: int, block: int) -> np.random.Generator:
    """Stream of one block of the batched engine, deterministic in (seed, block).

    Its spawn key sets it apart from ``replication_rng(seed, block)``, so the
    single paths that stream seeds do not replay the estimate's replications.
    """
    return np.random.default_rng(np.random.SeedSequence((seed, block), spawn_key=(1,)))


# ---------------------------------------------------------------------------
# Batched engine: a block of replications advances together, one event at a
# time.  Policies of the sufficient class intervene only at time zero and
# right after natural jumps, so every path repeats the same step: a sojourn,
# a natural jump, then the impulse chain if the jump lands in the flagged set.


def _chains(prep: _Prep, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Run the impulse chains of a batch of paths; ``x`` ends at the landings.

    Returns each path's undiscounted chain cost (0 where it starts unflagged).
    """
    comp = prep.comp
    flagged = prep.policy.impulsive
    cost = np.zeros(x.size)
    act = np.flatnonzero(flagged[x])
    steps = 0
    while act.size:
        if steps >= prep.guard:
            raise _guard_error(prep, int(x[act[0]]))
        at = x[act]
        cost[act] += prep.imp_cost[at]
        pos = sample_rows(comp.Q_cum, prep.imp_lo[at], prep.imp_hi[at], rng.random(act.size))
        x[act] = comp.Q_imp.indices[pos]
        act = act[flagged[x[act]]]
        steps += 1
    return cost


def _advance(prep: _Prep, x: np.ndarray, rng: np.random.Generator, horizon: float,
             flow_rate: np.ndarray, absorbed_end: float) -> tuple[np.ndarray, np.ndarray]:
    """Advance a batch of paths from time 0 to ``horizon``; ``x`` ends at their final states.

    ``x`` starts outside the flagged set.  Returns, per path, the discounted
    integral of ``flow_rate`` (a rate per state) and the discounted impulse
    cost.  A path at a state without jumps integrates up to ``absorbed_end``.
    """
    comp = prep.comp
    eta = comp.eta
    flow = np.zeros(x.size)
    impulses = np.zeros(x.size)
    live = np.arange(x.size)
    t = np.zeros(x.size)
    while live.size:
        at = x[live]
        rate = prep.total_rate[at]
        moves = rate > 0.0
        wait = np.divide(rng.standard_exponential(live.size), rate, out=np.full(live.size, np.inf), where=moves)
        t_next = t + wait
        end = np.where(moves, np.minimum(t_next, horizon), absorbed_end)
        flow[live] += flow_rate[at] * (np.exp(-eta * t) - np.exp(-eta * end)) / eta
        go = moves & (t_next <= horizon)
        live, at, t = live[go], at[go], t_next[go]
        pos = sample_rows(comp.J_cum, prep.jump_lo[at], prep.jump_hi[at], rng.random(live.size))
        z = comp.J.indices[pos]
        hit = prep.policy.impulsive[z]
        if hit.any():
            landed = z[hit]
            impulses[live[hit]] += _chains(prep, landed, rng) * np.exp(-eta * t[hit])
            z[hit] = landed
        x[live] = z
    return flow, impulses


def _block_start(prep: _Prep, x0: int, seed: int, block: int,
                 n_reps: int) -> tuple[np.random.Generator, np.ndarray, np.ndarray]:
    """Stream of a block and its paths after the chain at time 0: (rng, states, chain costs)."""
    rng = _block_rng(seed, block)
    x = np.full(min(BLOCK, n_reps - block * BLOCK), x0, dtype=np.int64)
    return rng, x, _chains(prep, x, rng)


def _replication_costs(model: CtmdpModel, policy: StationaryPolicy, x0: str, seed: int,
                       n_reps: int, tail_tol: float, blocks: range) -> np.ndarray:
    prep = _prepare(model, policy)
    horizon = prep.horizon(tail_tol)
    costs = []
    for b in blocks:
        rng, x, first = _block_start(prep, model.states.index[x0], seed, b, n_reps)
        flow, impulses = _advance(prep, x, rng, horizon, prep.run_cost, math.inf)
        costs.append(first + flow + impulses)
    return np.concatenate(costs)


def estimate_cost(model: CtmdpModel, policy: StationaryPolicy, x0: str, n_reps: int,
                  seed: int, tail_tol: float = DEFAULT_TAIL_TOL, threads: int = 1) -> CostEstimate:
    """Mean discounted cost over independent replications.

    Replications run in blocks of ``BLOCK``; block ``b`` draws from the
    stream derived from (seed, b), and ``threads`` worker processes split
    the work at block boundaries, so the estimate is identical for any
    ``threads`` setting.
    """
    if n_reps < 2:
        raise ValueError("n_reps must be >= 2")
    n_blocks = -(-n_reps // BLOCK)
    run = partial(_replication_costs, model, policy, x0, seed, n_reps, tail_tol)
    workers = min(threads, n_blocks)
    if workers > 1:
        cuts = np.linspace(0, n_blocks, workers + 1, dtype=int).tolist()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            costs = np.concatenate(list(pool.map(run, [range(a, b) for a, b in zip(cuts, cuts[1:])])))
    else:
        costs = run(range(n_blocks))
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
    paired difference.  Replications run in blocks as in :func:`estimate_cost`.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    prep = _prepare(model, policy)
    comp = prep.comp
    eta = comp.eta
    Wv = W.values
    Wbar = expected_landing_value(model, policy, Wv)
    # Per-state drift rate: discounting decay plus jump-and-intervene flux.
    flux = comp.J[prep.g_rows] @ Wbar
    gvec = -eta * Wv + flux - Wv * prep.total_rate

    x0i = model.states.index[x0]
    lhs = np.empty(n_reps)
    rhs = np.empty(n_reps)
    for b in range(-(-n_reps // BLOCK)):
        rng, x, _ = _block_start(prep, x0i, seed, b, n_reps)
        span = slice(b * BLOCK, b * BLOCK + x.size)
        start = Wv[x]
        drift, _ = _advance(prep, x, rng, t, gvec, t)
        lhs[span] = math.exp(-eta * t) * Wv[x]
        rhs[span] = start + drift
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
            z = _jump(prep, x, rng)
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
                raise _guard_error(prep, x)
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
                    z = _jump(prep, x, rng)
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
            c = float(prep.imp_cost[x])
            steps.append((labels[x], comp.model.actions.impulsive[labels[x]][prep.policy.phi_i[x]]))
            cost_i += c * math.exp(-eta * t)
            chain_cost += c
            x = _impulse(prep, x, rng)
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
        z = _jump(prep, x, rng)
        if prep.policy.impulsive[z]:
            epochs.append(Epoch(t_next, labels[x], labels[z], None, labels[z]))
            z, t_land, interrupted = spaced_chain(z, t_next)
            if interrupted:
                return Trajectory(tuple(epochs), cost_g, cost_i, t_land)
            x, t = z, t_land
        else:
            epochs.append(Epoch(t_next, labels[x], labels[z], None, labels[z]))
            x, t = z, t_next
