"""Monte Carlo simulation of the controlled jump process.

Trajectories follow a stationary policy of the sufficient class:
interventions fire at time zero and immediately after natural jumps.  So
every path repeats one step: an exponential sojourn at the state's gradual
rate, a natural jump, then the impulse chain if the jump lands in the
flagged set.  One engine runs that step for a batch of paths: :func:`_chains`
applies the chains and :func:`_advance` the sojourns and jumps.  Running
cost is integrated in closed form between epochs, and sampling stops once
the discounted tail is provably below ``tail_tol``.

:func:`estimate_cost` and :func:`dynkin_check` run blocks of ``BLOCK``
paths, each block on its own stream.  Up to ``BATCH`` blocks advance
together as one batch; each block still draws what it draws alone, so the
draws do not depend on the batching.  An impulse draws a uniform only from a
relocation row with two or more targets; on a one-target row the path moves
and draws nothing.  So a sure chain (each row on it has one target) draws
nothing, and a batch lands every path by a lookup in the policy's chain
table from :func:`~impulsive_ctmdp.intervention.analyze_chains`, whose cost
is the chain's weighted cost, the one the policy evaluation uses.  An
:class:`ImproperChainError` names the state of the lowest-index path of the
batch still in a chain.

:func:`simulate_trajectory`, :func:`sample_chain` and
:func:`simulate_spaced` record one path, epoch by epoch, impulse by impulse.
It walks on scalars (:func:`_walk`) and makes exactly the draws, sums and
discount factors of a one-path batch, which is its reference.
:func:`simulate_spaced` adds a wait before each impulse, a sojourn with a
deadline.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._ops import CompiledModel, check_state_values, compile_model, per_policy, policy_pairs, sample_rows
from .bellman import ValueFunction
from .errors import DEFAULT_TAIL_TOL, ImproperChainError, check_integer
from .intervention import ChainAnalysis, InterventionChain, analyze_chains, expected_landing_value
from .model import CtmdpModel, StationaryPolicy

BLOCK = 1024  # replications per stream; Monte Carlo streams are keyed by (seed, block)
BATCH = 64    # blocks advanced together at most, which bounds the memory of a call


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


@dataclass(frozen=True, eq=False)
class DynkinReport:
    lhs: float
    rhs: float
    diff: float
    std_error: float
    n_replications: int


@dataclass(frozen=True, eq=False)
class _Prep:
    """Per-(model, policy) simulation tables; each array has one entry per state.
    It holds the policy's arrays, not the policy, so :func:`per_policy` can keep it."""

    comp: CompiledModel
    labels: tuple[str, ...]  # state labels, for messages
    impulsive: np.ndarray    # the policy's intervene region
    g_rows: np.ndarray       # gradual pair under phi_g
    total_rate: np.ndarray   # jump rate under phi_g
    run_cost: np.ndarray     # running cost under phi_g
    jump_lo: np.ndarray      # bounds of the row of comp.J under phi_g
    jump_hi: np.ndarray
    imp_lo: np.ndarray       # bounds of the row of comp.Q_imp under phi_i (0 off the flagged set)
    imp_hi: np.ndarray
    imp_cost: np.ndarray     # impulse cost under phi_i (0 off the flagged set)
    chains: ChainAnalysis    # its chain table (land, w), guard and expected chain costs

    def horizon(self, tail_tol: float) -> float:
        """Time after which the discounted tail of any path is below ``tail_tol``."""
        if not 0 < tail_tol < math.inf:
            raise ValueError("tail_tol must be finite and > 0")
        bound = 3.0 * self.comp.K / self.comp.eta + float(np.max(self.chains.expected_cost, initial=0.0))
        if bound <= tail_tol:
            return 0.0
        return math.log(bound / tail_tol) / self.comp.eta


@per_policy
def _prepare(model: CtmdpModel, policy: StationaryPolicy) -> _Prep:
    chains = analyze_chains(model, policy)  # checks the policy and its properness
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
        labels=model.states.labels,
        impulsive=policy.impulsive,
        g_rows=g_rows,
        total_rate=comp.g_total_rate[g_rows],
        run_cost=comp.g_cost[g_rows],
        jump_lo=comp.J.indptr[g_rows],
        jump_hi=comp.J.indptr[g_rows + 1],
        imp_lo=imp_lo,
        imp_hi=imp_hi,
        imp_cost=imp_cost,
        chains=chains,
    )


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
# The engine.  A batch of paths advances one event at a time.


def _draw(rngs: list[np.random.Generator], method: str, ids: np.ndarray) -> np.ndarray:
    """One number from ``method`` for each path ``ids`` (ascending batch indices).

    Path ``i`` draws from ``rngs[i // BLOCK]``, so each block asks its own
    stream for the draws it asks for when it runs alone.  A block with no
    path here draws nothing.  With one stream only the number of paths counts.
    """
    if len(rngs) == 1:
        return getattr(rngs[0], method)(ids.size)
    cuts = ids.searchsorted(np.arange(len(rngs) + 1) * BLOCK).tolist()
    return np.concatenate([getattr(rng, method)(b - a) for rng, a, b in zip(rngs, cuts, cuts[1:]) if b > a]
                          or [np.empty(0)])


def _chains(prep: _Prep, x: np.ndarray, rngs: list[np.random.Generator], ids: np.ndarray) -> np.ndarray:
    """Run the impulse chains of a batch of paths; ``x`` ends at the landings.

    ``ids`` are the paths' batch indices, ascending.  Returns each path's
    undiscounted chain cost (0 where it starts unflagged).  Every path first
    moves by the chain table; those still flagged then step, each step
    drawing a uniform for the paths on a row with two or more targets only.
    """
    comp, chains, flagged = prep.comp, prep.chains, prep.impulsive
    cost, x[:] = chains.w[x], chains.land[x]
    act = np.flatnonzero(flagged[x])
    steps = 0
    while act.size:
        if steps >= chains.guard:
            raise ImproperChainError(f"chain exceeded the {chains.guard}-step guard without reaching a gradual state",
                                     prep.labels[x[act[0]]])
        at = x[act]
        cost[act] += prep.imp_cost[at]
        pos, hi = prep.imp_lo[at], prep.imp_hi[at]
        many = np.flatnonzero(hi - pos > 1)
        pos[many] = sample_rows(comp.Q_cum, pos[many], hi[many], _draw(rngs, "random", ids[act[many]]))
        x[act] = comp.Q_imp.indices[pos]
        act = act[flagged[x[act]]]
        steps += 1
    return cost


def _advance(prep: _Prep, x: np.ndarray, rngs: list[np.random.Generator], horizon: float,
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
        wait = np.divide(_draw(rngs, "standard_exponential", live), rate, out=np.full(live.size, np.inf), where=moves)
        t_next = t + wait
        end = np.where(moves, np.minimum(t_next, horizon), absorbed_end)
        flow[live] += flow_rate[at] * (np.exp(-eta * t) - np.exp(-eta * end)) / eta
        go = moves & (t_next <= horizon)
        live, at, t = live[go], at[go], t_next[go]
        pos = sample_rows(comp.J_cum, prep.jump_lo[at], prep.jump_hi[at], _draw(rngs, "random", live))
        z = comp.J.indices[pos]
        hit = prep.impulsive[z]
        if hit.any():
            landed, ids = z[hit], live[hit]
            impulses[ids] += _chains(prep, landed, rngs, ids) * np.exp(-eta * t[hit])
            z[hit] = landed
        x[live] = z
    return flow, impulses


def _state_index(model: CtmdpModel, x0: str) -> int:
    try:
        return model.states.index[x0]
    except KeyError:
        raise ValueError(f"x0 {x0!r} is not a state of the model") from None


def _walk(model: CtmdpModel, policy: StationaryPolicy, x0: str, rng: np.random.Generator,
          tail_tol: float | None, deltas: list[float] | None = None) -> Trajectory:
    """Record one path from ``x0``; without ``tail_tol`` it stops after the chain at time 0.

    The path walks on scalars and makes the draws of a one-path batch of
    :func:`_advance`.  With ``deltas``, a chain stops before an impulse whose
    wait is positive, and the path sojourns at that flagged state against
    the wait's deadline: if the deadline comes first, the chain resumes
    there; if a natural jump comes first, the path jumps and intervenes no
    more.  The guard counts the steps of each stretch of a chain.
    """
    prep = _prepare(model, policy)
    horizon = None if tail_tol is None else prep.horizon(tail_tol)
    comp, chains, labels, eta, flagged = prep.comp, prep.chains, prep.labels, prep.comp.eta, prep.impulsive
    x = _state_index(model, x0)
    waits = None if deltas is None else [float(d) for d in reversed(deltas)]  # next wait last
    epochs = [(0.0, x, x, [] if flagged[x] else None)]  # time, pre-jump state, target, the chain's impulses

    def chain(start):
        """Impulses from ``start`` until the path lands or pauses; where it stops,
        and their cost: the table's, for a stretch from a sure start that lands."""
        x, cost, steps = start, 0.0, 0
        while flagged[x] and not (waits and waits[-1] > 0.0):
            if steps >= chains.guard:
                raise ImproperChainError(
                    f"chain exceeded the {chains.guard}-step guard without reaching a gradual state", labels[x])
            cost += prep.imp_cost[x]
            epochs[-1][3].append(x)
            if waits:
                waits.pop()
            pos, hi = prep.imp_lo[x], prep.imp_hi[x]
            if hi - pos > 1:
                pos = bisect.bisect_right(comp.Q_cum, rng.random(), pos, hi - 1)
            x = comp.Q_imp.indices[pos]
            steps += 1
        return x, chains.w[start] if x == chains.land[start] != start else cost

    x, first = chain(x)
    flow = impulses = t = 0.0
    end, intervene = math.inf, True  # end: where the path stopped, the horizon or inf once absorbed
    while horizon is not None:
        rate, e = prep.total_rate[x], rng.standard_exponential()  # drawn also where nothing jumps
        t_next = t + e / rate if rate > 0.0 else math.inf
        paused = intervene and flagged[x]
        resume = paused and t + waits[-1] < t_next
        if resume:
            t_next = t + waits[-1]
        moves = rate > 0.0 or resume
        end = min(t_next, horizon) if moves else math.inf
        flow += prep.run_cost[x] * (np.exp(-eta * t) - np.exp(-eta * end)) / eta
        if not (moves and t_next <= horizon):
            break
        t, z = t_next, x
        if resume:  # the wait is served and the chain resumes in place
            waits[-1] = 0.0
        else:
            if paused:  # a natural jump came first: the path intervenes no more
                intervene = False
            z = comp.J.indices[bisect.bisect_right(comp.J_cum, rng.random(), prep.jump_lo[x], prep.jump_hi[x] - 1)]
            epochs.append((float(t), x, z, [] if intervene and flagged[z] else None))
        x = z
        if intervene and flagged[z]:
            x, cost = chain(z)
            impulses += cost * np.exp(-eta * t)
    actions = model.actions.impulsive
    posts = [pre for _, pre, _, _ in epochs[1:]] + [x]  # where each chain left the path
    return Trajectory(tuple(
        Epoch(time, labels[pre], labels[target], None if steps is None else InterventionChain(
            steps=tuple((labels[s], actions[labels[s]][policy.phi_i[s]]) for s in steps),
            landing=labels[post], total_cost=sum((float(prep.imp_cost[s]) for s in steps), 0.0)), labels[post])
        for (time, pre, target, steps), post in zip(epochs, posts)), float(flow), float(first + impulses), float(end))


def sample_chain(model: CtmdpModel, policy: StationaryPolicy, x: str, rng: np.random.Generator) -> InterventionChain:
    """Sample one intervention chain started at a flagged state."""
    if not policy.impulsive[_state_index(model, x)]:
        raise ValueError(f"state {x!r} is not flagged for intervention under this policy")
    return _walk(model, policy, x, rng, None).epochs[0].chain


def simulate_trajectory(model: CtmdpModel, policy: StationaryPolicy, x0: str,
                        rng: np.random.Generator, tail_tol: float = DEFAULT_TAIL_TOL) -> Trajectory:
    """Sample one trajectory from ``x0``, recording every epoch."""
    return _walk(model, policy, x0, rng, tail_tol)


def simulate_spaced(model: CtmdpModel, policy: StationaryPolicy, x0: str,
                    rng: np.random.Generator, deltas: list[float],
                    tail_tol: float = DEFAULT_TAIL_TOL) -> Trajectory:
    """Trajectory with impulses separated by small waits instead of fired instantly.

    The path's impulse n is preceded by the wait ``deltas[n]`` (zero once the
    list is exhausted), during which the gradual control of the current state
    applies.  If a natural jump lands during a wait, the rest of the
    trajectory runs under gradual control only, with no further
    interventions.  A zero wait draws nothing, so with all-zero waits the
    sampled path coincides, draw for draw, with :func:`simulate_trajectory`.
    """
    if not all(d >= 0 for d in deltas):
        raise ValueError("waits must be nonnegative")
    return _walk(model, policy, x0, rng, tail_tol, deltas)


def _blocks(prep: _Prep, x0: int, seed: int, n_reps: int, blocks: range, horizon: float,
            flow_rate: np.ndarray, absorbed_end: float):
    """Run blocks of paths from state ``x0`` in batches of at most ``BATCH``
    blocks, each block on its own stream: the chain at time 0, then
    :func:`_advance`.  Yields per batch the slice of its replications, the
    states after that chain, the chain's cost, the two integrals of
    :func:`_advance` and the final states."""
    for a in range(blocks.start, blocks.stop, BATCH):
        batch = range(a, min(a + BATCH, blocks.stop))
        rngs = [_block_rng(seed, b) for b in batch]
        span = slice(batch.start * BLOCK, min(batch.stop * BLOCK, n_reps))
        x = np.full(span.stop - span.start, x0, dtype=np.int64)
        first = _chains(prep, x, rngs, np.arange(x.size))
        start = x.copy()
        flow, impulses = _advance(prep, x, rngs, horizon, flow_rate, absorbed_end)
        yield span, start, first, flow, impulses, x


def _replication_costs(model: CtmdpModel, policy: StationaryPolicy, x0: str, seed: int,
                       n_reps: int, tail_tol: float, blocks: range) -> np.ndarray:
    prep = _prepare(model, policy)
    runs = _blocks(prep, _state_index(model, x0), seed, n_reps, blocks,
                   prep.horizon(tail_tol), prep.run_cost, math.inf)
    return np.concatenate([first + flow + impulses for _, _, first, flow, impulses, _ in runs])


def estimate_cost(model: CtmdpModel, policy: StationaryPolicy, x0: str, n_reps: int,
                  seed: int, tail_tol: float = DEFAULT_TAIL_TOL, threads: int = 1) -> CostEstimate:
    """Mean discounted cost over independent replications.

    Replications run in blocks of ``BLOCK``; block ``b`` draws from the
    stream derived from (seed, b), and ``threads`` worker processes split
    the work at block boundaries, so the estimate is identical for any
    ``threads`` setting.
    """
    check_integer("n_reps", n_reps, 2)
    check_integer("seed", seed, 0)
    check_integer("threads", threads, 1)
    _state_index(model, x0)  # before any worker starts
    n_blocks = -(-n_reps // BLOCK)
    run = partial(_replication_costs, model, policy, x0, seed, n_reps, tail_tol)
    workers = min(threads, n_blocks)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # a one-worker run never loads the pool

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
    ``W`` must hold one finite value per state.
    """
    if not 0 < t < math.inf:
        raise ValueError("t must be finite and > 0")
    check_integer("n_reps", n_reps, 2)
    check_integer("seed", seed, 0)
    k = _state_index(model, x0)
    Wv = W.values
    check_state_values(model, "W", Wv)
    prep = _prepare(model, policy)
    eta = prep.comp.eta
    # Per-state drift rate: discounting decay plus jump-and-intervene flux.
    flux = prep.comp.J[prep.g_rows] @ expected_landing_value(model, policy, Wv)
    gvec = -eta * Wv + flux - Wv * prep.total_rate

    lhs = np.empty(n_reps)
    rhs = np.empty(n_reps)
    blocks = range(-(-n_reps // BLOCK))
    for span, start, _, drift, _, x in _blocks(prep, k, seed, n_reps, blocks, t, gvec, t):
        lhs[span] = math.exp(-eta * t) * Wv[x]
        rhs[span] = Wv[start] + drift
    d = lhs - rhs
    return DynkinReport(
        lhs=float(np.mean(lhs)),
        rhs=float(np.mean(rhs)),
        diff=float(np.mean(d)),
        std_error=float(np.std(d, ddof=1) / math.sqrt(n_reps)),
        n_replications=n_reps,
    )
