"""A policy's impulse chains: properness, expected cost, landing distribution and step guard.

At an intervention instant, the policy applies impulses repeatedly until the
process lands in a state where it waits under gradual control.  A chain is
the recorded sequence of (state, action) steps; a policy is proper when
every chain terminates with probability one.  :func:`analyze_chains` decides
that and solves the chain quantities once per (model, policy); the policy
evaluation in :mod:`bellman`, the simulator and the readers here share it.

A chain is sure when every relocation row on it has one target: its start
fixes where it lands.  One backward pass from the landings gives each sure
chain's landing, mass, cost and length, so the chain is one relocation: a
row of the sparse shortcut matrix S, by which a product folds the sure
states out of a linear system.  Only the chains that draw are left to a
linear system, I - M over their states: inverted dense when it is small,
else an LU factor.
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
# Largest chain system inverted by numpy rather than factored by SuperLU, whose
# import alone takes 49-82 ms after scipy.sparse; np.linalg.inv takes 0.04 ms
# at 32 rows, 0.6 ms at 128, 3 ms at 256 and 17-35 ms at 512 (2-core Xeon).
DENSE_MAX = 256


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
    ``lu`` solves with I - M (``lu.solve(b, trans=)``; its dense inverse up
    to ``DENSE_MAX`` rows, else its SuperLU factor) and ``R`` holds the
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
    lu: object = field(repr=False)

    def landing_row(self, k: int) -> np.ndarray:
        x = self.flagged[k]
        if self.land[x] != x:
            return self.S[x].toarray().ravel()
        e = np.zeros(self.draws.size)
        e[np.searchsorted(self.draws, k)] = 1.0
        return self.R.T @ self.lu.solve(e, trans="T")


class _Inverse:
    """I - M held as its dense inverse; ``solve(b, trans=)`` as SuperLU's factor."""

    def __init__(self, inv: np.ndarray):
        self.inv = inv
        inv.flags.writeable = False

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        return (self.inv.T if trans == "T" else self.inv) @ b


def _chain_solver(A: sp.csr_matrix):
    """Inverts I - M, dense up to ``DENSE_MAX`` rows, else as a SuperLU factor; None where singular."""
    if A.shape[0] > DENSE_MAX:
        return factor(A, "chain system")
    try:
        return _Inverse(np.linalg.inv(A.toarray()))
    except np.linalg.LinAlgError:  # "Singular matrix"
        return None


def _sure_chains(comp: CompiledModel, impulsive: np.ndarray, flagged: np.ndarray, i_rows: np.ndarray):
    """Per state: the landing of its sure chain, and its mass, cost and length
    weighted as (I - M)^-1 weighs them; any other state lands on itself (mass 1, the rest 0).

    Resolved backward from the landings: the waiting states are the first
    frontier, and each next one holds the one-target rows into the states
    just resolved, each w(x) = c(x) + p(x) w(next(x)).  Each row is read
    once; a row into a closed cycle of one-target rows, or into a row with
    two or more targets, is never resolved and is not sure.
    """
    N, Q = comp.N, comp.Q_imp
    lo = Q.indptr[i_rows]
    pos = np.flatnonzero(Q.indptr[i_rows + 1] - lo == 1)
    x, to, p, c = flagged[pos], Q.indices[lo[pos]], Q.data[lo[pos]], comp.i_cost[i_rows[pos]]
    order = np.argsort(to, kind="stable")
    ptr = np.concatenate(([0], np.cumsum(np.bincount(to, minlength=N))))
    land, mass, cost, length = np.arange(N), np.ones(N), np.zeros(N), np.zeros(N)
    y = np.flatnonzero(~impulsive)
    while y.size:
        at, n = ptr[y], ptr[y + 1] - ptr[y]  # the rows into y: order[at:at + n], per y
        rows = order[np.repeat(at - np.cumsum(n) + n, n) + np.arange(n.sum())]
        y, z, q = x[rows], to[rows], p[rows]
        land[y], mass[y], cost[y], length[y] = land[z], q * mass[z], c[rows] + q * cost[z], 1.0 + q * length[z]
    return land, mass, cost, length


@per_policy
def analyze_chains(model: CtmdpModel, policy: StationaryPolicy) -> ChainAnalysis:
    """Check the policy, resolve its sure chains, invert I - M over the
    chains that draw and solve W, the landing masses and the guard; kept per
    (model, policy) while both live.

    A chain system of at most ``DENSE_MAX`` rows is inverted by numpy, so
    only a larger one loads SuperLU.  Raises ValueError for an infeasible
    policy, :class:`ImproperChainError` when I - M is singular (naming the
    lowest flagged state whose chain draws) or some chain fails to land with
    probability one (its landing mass must be 1 within ``LANDING_ROW_TOL``),
    and :class:`NonConvergenceError` when SuperLU runs out of memory.
    """
    check_policy(model, policy)
    comp = compile_model(model)
    _, flagged, i_rows = policy_pairs(comp, policy)
    labels = model.states.labels
    land, mass, cost, length = _sure_chains(comp, policy.impulsive, flagged, i_rows)
    S = sp.csr_matrix((mass, land, np.arange(comp.N + 1)), shape=(comp.N, comp.N))
    draws = np.flatnonzero(land[flagged] == flagged)
    hits, W, steps = mass[flagged], cost[flagged], length[flagged]
    R = lu = None
    if draws.size:
        # Rows of the chains that draw, with each entry into a sure chain moved to its landing.
        Q = comp.Q_imp[i_rows[draws]]
        c_in, steps_in = Q @ cost, Q @ length
        Q = (Q @ S).sorted_indices()
        # M before R: R shares Q's index arrays, and R.eliminate_zeros() rewrites them in place.
        lu = _chain_solver(sp.identity(draws.size, format="csr") - Q[:, flagged[draws]])
        if lu is None:
            raise ImproperChainError(
                "impulse chains never reach a gradual state (I - M is singular)", labels[int(flagged[draws[0]])])
        R = sp.csr_matrix((Q.data * ~policy.impulsive[Q.indices], Q.indices, Q.indptr), shape=Q.shape)
        R.eliminate_zeros()
        hits[draws], W[draws], steps[draws] = lu.solve(np.column_stack(
            [np.asarray(R.sum(axis=1)).ravel(), comp.i_cost[i_rows[draws]] + c_in, 1.0 + steps_in])).T
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
