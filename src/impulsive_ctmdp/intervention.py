"""A policy's impulse chains: properness, expected cost, landing distribution and step guard.

At an intervention instant, the policy applies impulses repeatedly until the
process lands in a state where it waits under gradual control.  A chain is
the recorded sequence of (state, action) steps; a policy is proper when
every chain terminates with probability one.  :func:`analyze_chains` decides
that and solves the chain quantities once per (model, policy); the policy
evaluation in :mod:`bellman`, the simulator and the readers here share it.

A chain that cannot revisit a state has finitely many impulses, so one
backward pass from the landings sums its mass, cost and length.  A chain is
sure when every relocation row on it has one target: its start fixes where
it lands, so the chain is one relocation, a row of the sparse shortcut
matrix S, by which a product folds the sure states out of a linear system.
The chains that draw are solved over the pass's frontiers; only the core
of states on or upstream of an impulse cycle, or too deep to replay, is
left to an LU factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np
import scipy.sparse as sp

from ._ops import CompiledModel, check_policy, check_state_values, compile_model, factor, per_policy, policy_pairs
from .errors import ImproperChainError
from .model import CtmdpModel, StationaryPolicy

LANDING_ROW_TOL = 1e-10  # accepted |1 - mass| of a proper policy's chain exits


@dataclass(frozen=True, eq=False)
class InterventionChain:
    steps: tuple[tuple[str, str], ...]  # (state, impulsive action) per impulse
    landing: str
    total_cost: float


@dataclass(frozen=True, eq=False)
class ChainAnalysis:
    """A proper policy's impulse chains, split into sure chains and chains that draw.

    ``states`` lists the flagged state labels in model order, ``expected_cost``
    the expected total impulse cost W = (I - M)^-1 c of a chain started at
    each; M is the relocation kernel from flagged to flagged states.
    ``guard`` is the step cap of a sampled chain, ceil(40 e m) with m
    the largest expected number of impulses of a chain, (I - M)^-1 1: from
    any flagged state a chain outlives e m steps with probability at most 1/e
    (Markov), and restarting the bound k times gives P(length > k e m) <=
    e^-k, so a proper chain trips the cap with probability at most e^-40; 0
    when nothing is flagged.  ``landing_row(k)`` is the landing distribution
    of the chain started at ``states[k]``: a probability vector over all
    states with support in the gradual region.

    Per state, ``land`` and ``w`` are the landing of the sure chain started
    there and its cost weighted as (I - M)^-1 weighs it, which the sampler
    charges; a state that waits or whose chain draws lands on
    itself at cost 0.  Row x of the N x N shortcut matrix ``S`` holds the
    chain's mass, the product of its one-target weights, at ``land[x]``.
    ``lu`` solves with I - M (a :class:`ChainSolver`) and ``R`` holds the
    relocation rows into the gradual region, both over the flagged states
    whose chains draw (``draws``, positions in ``states``) with the sure
    states folded out by ``S``; both are None when no chain draws.  Every
    array here, those of ``S`` and ``R`` too, is read-only: equal policies
    share the analysis.
    """

    states: tuple[str, ...]
    expected_cost: np.ndarray
    guard: int
    flagged: np.ndarray = field(repr=False)    # (m,) flagged state indices
    land: np.ndarray = field(repr=False)       # (N,)
    w: np.ndarray = field(repr=False)          # (N,)
    S: sp.csr_matrix = field(repr=False)       # (N, N)
    draws: np.ndarray = field(repr=False)      # (d,) ascending positions in ``states``
    R: sp.csr_matrix | None = field(repr=False)  # (d, N), zero on flagged columns
    lu: ChainSolver | None = field(repr=False)

    def landing_row(self, k: int) -> np.ndarray:
        x = self.flagged[k]
        if self.land[x] != x:
            return self.S[x].toarray().ravel()
        e = np.zeros(self.draws.size)
        e[np.searchsorted(self.draws, k)] = 1.0
        return self.R.T @ self.lu.solve(e, trans="T")


class ChainSolver:
    """Solves with I - M, or its transpose, over the d flagged states whose chains draw.

    M is their relocation kernel among themselves.  A chain that cannot
    revisit a state resolves in the frontier order of the backward pass
    (``level``, -1 where it is not resolved), so each frontier is one product
    with its rows of M, which reach only the frontiers before it.  Only the
    core, the states on or upstream of an impulse cycle or past the frontiers
    the pass replays, is left to ``lu``, an LU factor of its block of I - M
    (None when the core is empty).
    """

    def __init__(self, M: sp.csr_matrix, level: np.ndarray, lu):
        self.order = np.argsort(level, kind="stable")  # the core, then frontier by frontier
        ends = np.cumsum(np.bincount(level + 1))
        self.core, self.lu = self.order[:ends[0]], lu
        self.frontiers = [(a, b) for a, b in zip(ends[:-1].tolist(), ends[1:].tolist()) if a < b]
        self.M, self.MT = M[self.order], M.T.tocsr()[self.order]  # rows in that order

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        x = np.array(b, dtype=np.float64)
        order, core = self.order, self.core
        if trans == "T":
            if core.size:
                x[core] = self.lu.solve(x[core], trans="T")
            for lo, hi in reversed(self.frontiers):
                x[order[lo:hi]] += self.MT[lo:hi] @ x
        else:
            for lo, hi in self.frontiers:
                x[order[lo:hi]] += self.M[lo:hi] @ x
            if core.size:
                rhs, x[core] = x[core], 0.0
                x[core] = self.lu.solve(rhs + self.M[:core.size] @ x)
        return x


def _spans(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The positions lo[k], ..., lo[k] + n[k] - 1, for each k in turn."""
    return np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())


def _sure_chains(comp: CompiledModel, impulsive: np.ndarray, flagged: np.ndarray, i_rows: np.ndarray):
    """Per state: the landing of its chain where it is sure, the chain's mass,
    cost and length weighted as (I - M)^-1 weighs them, and the frontier it
    resolves in; a waiting state lands on itself (mass 1, the rest 0, frontier 0).

    Resolved backward from the landings: the waiting states are the first
    frontier, and each next one holds the rows whose last target was in the
    frontier just before.  A row sums over its targets, as w(x) = c(x) +
    sum_y p(x, y) w(y), each term added as its target resolves; on a
    one-target row that is the one term.  Each row is read once.  A chain is
    sure where every row on it has one target; a chain that draws lands on
    itself.  A row on or upstream of an impulse cycle never resolves (frontier
    -1) and holds its terms from the targets that did: the right-hand side of
    the system left over it.  So do the rows that draw of a frontier that
    would make the chains that draw span more than sqrt(r) frontiers, r the
    rows they would then hold: :class:`ChainSolver` replays each frontier, a
    step that a deep graph would repeat once per row, so that goes to the
    factor instead.
    """
    N, Q = comp.N, comp.Q_imp
    lo, n = Q.indptr[i_rows], Q.indptr[i_rows + 1] - Q.indptr[i_rows]
    several = bool((n != 1).any())  # else each entry is a row, resolved with its target, and none draws
    if several:
        at, src = _spans(lo, n), np.repeat(flagged, n)
        left, sole = np.zeros(N, dtype=np.int64), np.full(N, N)  # sole N: the row draws
        left[flagged], sole[flagged[n == 1]] = n, Q.indices[lo[n == 1]]
    else:
        at, src = lo, flagged
    order = np.argsort(Q.indices[at], kind="stable")  # the entries, by target
    at = at[order]
    src, to, p = src[order], Q.indices[at], Q.data[at]
    ptr = np.concatenate(([0], np.cumsum(np.bincount(to, minlength=N))))
    land, level = np.append(np.arange(N), -1), np.where(impulsive, -1, 0)  # land[N]: a chain that draws
    mass, cost, length = np.where(impulsive, 0.0, 1.0), np.zeros(N), impulsive.astype(np.float64)
    cost[flagged] = comp.i_cost[i_rows]
    y, k, spans, rows = np.flatnonzero(~impulsive), 0, 0, 0  # the chains that draw: frontiers and rows
    while y.size:
        e = _spans(ptr[y], ptr[y + 1] - ptr[y])  # the entries into y
        x, z, q = src[e], to[e], p[e]
        np.add.at(mass, x, q * mass[z])
        np.add.at(cost, x, q * cost[z])
        np.add.at(length, x, q * length[z])
        if several:  # a row resolves with its last target; a row listed twice keeps one of its marks
            np.subtract.at(left, x, 1)
            x = x[left[x] == 0]
            left[x] = mark = np.arange(-1, -1 - x.size, -1)
            x = x[left[x] == mark]
            z = sole[x]
            draw = land[z] < 0
            d = int(np.count_nonzero(draw))
            if d and (spans + 1) ** 2 > rows + d:  # too deep to replay: left to the factor
                x, z = x[~draw], z[~draw]
            elif d:
                spans, rows = spans + 1, rows + d
        k += 1
        land[x], level[x], y = land[z], k, x
    land = land[:N]
    return np.where(land < 0, np.arange(N), land), mass, cost, length, level


@per_policy
def analyze_chains(model: CtmdpModel, policy: StationaryPolicy) -> ChainAnalysis:
    """Check the policy, resolve its chains backward, factorise I - M over the
    core of chains that never resolve and solve W, the landing masses and the
    guard; kept per (model, policy) while both live.

    The backward pass gives the chains that cannot revisit a state, over at
    most sqrt(r) frontiers for the r rows that draw; the core, the flagged
    states on or upstream of an impulse cycle or past those frontiers, takes
    an LU factor, so a policy whose chains that draw are acyclic and shallow
    for their number loads no SuperLU.  Raises
    ValueError for an infeasible policy, :class:`ImproperChainError` when
    the core's block of I - M is singular (naming its lowest state) or some
    chain fails to land with probability one (its landing mass must be 1
    within ``LANDING_ROW_TOL``), and :class:`NonConvergenceError` when
    SuperLU runs out of memory.
    """
    check_policy(model, policy)
    comp = compile_model(model)
    _, flagged, i_rows = policy_pairs(comp, policy)
    labels = model.states.labels
    land, mass, cost, length, level = _sure_chains(comp, policy.impulsive, flagged, i_rows)
    draws = np.flatnonzero(land[flagged] == flagged)
    core = draws[level[flagged[draws]] < 0]
    hits, W, steps = mass[flagged], cost[flagged], length[flagged]
    R = lu = None
    if core.size:
        # I - M over the core, whose terms into resolved states the pass summed.
        x = flagged[core]
        lu = factor(sp.identity(core.size, format="csr") - comp.Q_imp[i_rows[core]][:, x], "chain system")
        if lu is None:
            raise ImproperChainError(
                "impulse chains never reach a gradual state (I - M is singular)", labels[int(x[0])])
        hits[core], W[core], steps[core] = lu.solve(np.column_stack([hits[core], W[core], steps[core]])).T
    x = flagged[draws]
    mass[x], cost[x] = 1.0, 0.0  # a chain that draws is no shortcut
    S = sp.csr_matrix((mass, land, np.arange(comp.N + 1)), shape=(comp.N, comp.N))
    if draws.size:
        # Rows of the chains that draw, with each entry into a sure chain moved to its landing.
        Q = (comp.Q_imp[i_rows[draws]] @ S).sorted_indices()
        # M before R: R shares Q's index arrays, and R.eliminate_zeros() rewrites them in place.
        lu = ChainSolver(Q[:, x], level[x], lu)
        R = sp.csr_matrix((Q.data * ~policy.impulsive[Q.indices], Q.indices, Q.indptr), shape=Q.shape)
        R.eliminate_zeros()
    bad = np.flatnonzero(~(np.abs(hits - 1.0) <= LANDING_ROW_TOL))
    if bad.size:
        raise ImproperChainError(
            f"landing distribution row sums to {hits[bad[0]]}; chains leak mass", labels[int(flagged[bad[0]])])
    for table in (W, land, cost, flagged, draws, *(
            getattr(mat, a) for mat in (S, R) if mat is not None for a in ("data", "indices", "indptr"))):
        table.flags.writeable = False
    return ChainAnalysis(states=tuple(compress(labels, policy.impulsive)), expected_cost=W,
                         guard=math.ceil(40.0 * math.e * float(np.max(steps, initial=0.0))), flagged=flagged,
                         land=land, w=cost, S=S, draws=draws, R=R, lu=lu)


def expected_landing_value(model: CtmdpModel, policy: StationaryPolicy, W: np.ndarray) -> np.ndarray:
    """Expected value of ``W`` at the post-intervention state, per state.

    Identity on gradual states; on flagged states, W averaged over the
    chain's landing distribution, (I - M)^-1 R W: one solve for the chains
    that draw, then the shortcut ``S`` for the sure chains.  Raises ValueError
    unless ``W`` holds one finite value per state, and
    :class:`ImproperChainError` for an improper policy.
    """
    out = np.array(W, dtype=np.float64)
    check_state_values(model, "W", out)
    chains = analyze_chains(model, policy)
    if chains.lu is not None:
        out[chains.flagged[chains.draws]] = chains.lu.solve(chains.R @ out)
    return chains.S @ out
