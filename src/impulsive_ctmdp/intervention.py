"""A policy's impulse chains: properness, expected cost, landing distribution and step guard.

At an intervention instant, the policy applies impulses repeatedly until the
process lands in a state where it waits under gradual control.  A chain is
the recorded sequence of (state, action) steps; a policy is proper when
every chain terminates with probability one.  :func:`analyze_chains` decides
that and solves the chain quantities once per (model, policy); the policy
evaluation in :mod:`bellman`, the simulator and the readers here share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ._ops import check_policy, compile_model, factor, per_policy, policy_pairs
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
    """A proper policy's relocation rows split at the flagged region: M (flagged
    to flagged), kept only as the LU factor ``lu`` of I - M, and R (flagged to
    gradual); both None when nothing is flagged.

    ``states`` lists the flagged state labels in model order, ``expected_cost``
    the expected total impulse cost W = (I - M)^-1 c of a chain started at
    each (read-only) and ``guard`` the step cap of a sampled chain.
    ``landing_row(k)`` is the landing distribution of the chain started at
    ``states[k]``: a probability vector over all states with support in the
    gradual region, computed on demand by one solve.
    """

    states: tuple[str, ...]
    expected_cost: np.ndarray
    guard: int
    flagged: np.ndarray = field(repr=False)  # (m,) flagged state indices
    R: sp.csr_matrix | None = field(repr=False)  # (m, N), zero on flagged columns
    lu: object = field(repr=False)

    def landing_row(self, k: int) -> np.ndarray:
        e = np.zeros(len(self.states))
        e[k] = 1.0
        return self.R.T @ self.lu.solve(e, trans="T")


def chain_guard(model: CtmdpModel, policy: StationaryPolicy) -> int:
    """Step cap of a sampled chain under a proper policy: ceil(40 e m), where
    m is the largest expected number of impulses of a chain, (I - M)^-1 1.

    From any flagged state a chain outlives e m steps with probability at
    most 1/e (Markov), and restarting the bound k times gives
    P(length > k e m) <= e^-k; so a proper chain trips the cap with
    probability at most e^-40.  0 when nothing is flagged.
    """
    return analyze_chains(model, policy).guard


@per_policy
def analyze_chains(model: CtmdpModel, policy: StationaryPolicy) -> ChainAnalysis:
    """Check the policy, split its impulse rows, factorise I - M and solve W
    and the guard with that factor; kept per (model, policy) while both live.

    Raises ValueError for an infeasible policy, :class:`ImproperChainError`
    when I - M is singular or some chain fails to land with probability one
    ((I - M) s = R 1 must give s = 1 within ``LANDING_ROW_TOL``), and
    :class:`NonConvergenceError` when SuperLU runs out of memory.
    """
    check_policy(model, policy)
    comp = compile_model(model)
    _, flagged, i_rows = policy_pairs(comp, policy)
    if not flagged.size:
        W = np.empty(0)
        W.flags.writeable = False
        return ChainAnalysis(states=(), expected_cost=W, guard=0, flagged=flagged, R=None, lu=None)
    Q, m, labels = comp.Q_imp[i_rows], flagged.size, model.states.labels
    to_flagged = policy.impulsive[Q.indices]
    M = sp.csr_matrix((Q.data * to_flagged, Q.indices, Q.indptr), shape=Q.shape)[:, flagged]
    R = sp.csr_matrix((Q.data * ~to_flagged, Q.indices, Q.indptr), shape=Q.shape)
    M.eliminate_zeros()
    R.eliminate_zeros()
    lu = factor(sp.identity(m, format="csr") - M, "chain system")
    if lu is None:
        raise ImproperChainError(
            "impulse chains never reach a gradual state (I - M is singular)", labels[int(flagged[0])])
    mass = lu.solve(np.asarray(R.sum(axis=1)).ravel())
    bad = np.flatnonzero(~(np.abs(mass - 1.0) <= LANDING_ROW_TOL))
    if bad.size:
        raise ImproperChainError(
            f"landing distribution row sums to {mass[bad[0]]}; chains leak mass", labels[int(flagged[bad[0]])])
    W = lu.solve(comp.i_cost[i_rows])
    W.flags.writeable = False
    steps = float(np.max(lu.solve(np.ones(m))))
    return ChainAnalysis(states=tuple(map(labels.__getitem__, flagged.tolist())), expected_cost=W,
                         guard=math.ceil(40.0 * math.e * steps), flagged=flagged, R=R, lu=lu)


def expected_landing_value(model: CtmdpModel, policy: StationaryPolicy, W: np.ndarray) -> np.ndarray:
    """Expected value of ``W`` at the post-intervention state, per state.

    Identity on gradual states; on flagged states, W averaged over the
    chain's landing distribution, (I - M)^-1 R W.  Raises
    :class:`ImproperChainError` for an improper policy.
    """
    out = np.array(W, dtype=np.float64)
    chains = analyze_chains(model, policy)
    if chains.states:
        out[chains.flagged] = chains.lu.solve(chains.R @ out)
    return out
