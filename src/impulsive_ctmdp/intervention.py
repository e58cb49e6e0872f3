"""Finite impulse chains: expected cost, landing distribution, and step guard.

At an intervention instant, the policy applies impulses repeatedly until the
process lands in a state where it waits under gradual control.  A chain is
the recorded sequence of (state, action) steps; a policy is proper when
every chain terminates with probability one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from ._ops import compile_model, policy_rows
from .bellman import LANDING_ROW_TOL, StationaryPolicy, check_policy
from .model import CtmdpModel


@dataclass(frozen=True, eq=False)
class InterventionChain:
    steps: tuple[tuple[str, str], ...]  # (state, impulsive action) per impulse
    landing: str
    total_cost: float


@dataclass(frozen=True, eq=False)
class _ChainSystem:
    """A proper policy's relocation rows split at the flagged region.

    M (flagged -> flagged) is kept only as the LU factor of I - M; R
    (flagged -> gradual) is the mass that lands in one step.
    """

    flagged: np.ndarray      # (m,) flagged state indices
    cost: np.ndarray         # (m,) impulse cost per flagged state
    R: sp.csr_matrix         # (m, N), zero on flagged columns
    lu: object               # SuperLU of I - M
    guard: int               # step cap of a sampled chain


@dataclass(frozen=True, eq=False)
class ChainAnalysis:
    """Expected chain cost and landing distribution per flagged state.

    ``states`` lists the flagged state labels in model order and
    ``expected_cost`` the expected total impulse cost of a chain started at
    each.  ``landing_row(k)`` is the landing distribution of the chain
    started at ``states[k]``: a probability vector over all states with
    support in the gradual region, computed on demand by one solve.
    """

    states: tuple[str, ...]
    expected_cost: np.ndarray
    _system: _ChainSystem | None = field(default=None, repr=False)

    def landing_row(self, k: int) -> np.ndarray:
        e = np.zeros(len(self.states))
        e[k] = 1.0
        return self._system.R.T @ self._system.lu.solve(e, trans="T")


class ImproperChainError(RuntimeError):
    """Impulse chains fail to reach the gradual region.

    Raised when a sampled chain exceeds the guard, or when the chain system
    of a policy is singular or its landing mass differs from one.
    """

    def __init__(self, message: str, state: str):
        super().__init__(message)
        self.state = state


def chain_guard(model: CtmdpModel, policy: StationaryPolicy) -> int:
    """Step cap of a sampled chain under a proper policy: ceil(40 e m), where
    m is the largest expected number of impulses of a chain, (I - M)^-1 1.

    From any flagged state a chain outlives e m steps with probability at
    most 1/e (Markov), and restarting the bound k times gives
    P(length > k e m) <= e^-k; so a proper chain trips the cap with
    probability at most e^-40.  0 when nothing is flagged.
    """
    system = _chain_system(model, policy)
    return 0 if system is None else system.guard


@lru_cache(maxsize=32)
def _chain_system(model: CtmdpModel, policy: StationaryPolicy) -> _ChainSystem | None:
    """Split the policy's impulse rows and factorise I - M; None when nothing is flagged.

    Cached per (model, policy), so the chain analysis, landing values, the
    guard and the simulator share one factor.

    Raises :class:`ImproperChainError` when I - M is singular or some chain
    fails to land with probability one ((I - M) s = R 1 must give s = 1).
    """
    check_policy(model, policy)
    rows = policy_rows(compile_model(model), policy)
    flagged, Q = rows.flagged, rows.Q
    m = flagged.size
    if m == 0:
        return None
    labels = model.states.labels
    to_flagged = policy.impulsive[Q.indices]
    M = sp.csr_matrix((Q.data * to_flagged, Q.indices, Q.indptr), shape=Q.shape)[:, flagged]
    R = sp.csr_matrix((Q.data * ~to_flagged, Q.indices, Q.indptr), shape=Q.shape)
    M.eliminate_zeros()
    R.eliminate_zeros()
    try:
        lu = sp.linalg.splu((sp.identity(m, format="csr") - M).tocsc())
    except RuntimeError as exc:
        raise ImproperChainError(
            "impulse chains never reach a gradual state (I - M is singular)", labels[int(flagged[0])]) from exc
    mass = lu.solve(np.asarray(R.sum(axis=1)).ravel())
    bad = np.flatnonzero(~(np.abs(mass - 1.0) <= LANDING_ROW_TOL))
    if bad.size:
        raise ImproperChainError(
            f"landing distribution row sums to {mass[bad[0]]}; chains leak mass", labels[int(flagged[bad[0]])])
    steps = float(np.max(lu.solve(np.ones(m))))
    return _ChainSystem(flagged, rows.i_cost, R, lu, math.ceil(40.0 * math.e * steps))


def analyze_chains(model: CtmdpModel, policy: StationaryPolicy) -> ChainAnalysis:
    """Expected chain cost and landing distribution, by one sparse LU factor.

    With M the flagged -> flagged part of the policy's relocation rows, the
    expected chain cost is W = (I - M)^-1 c.  An improper policy (a singular
    I - M, or a landing distribution whose mass differs from one by more
    than ``LANDING_ROW_TOL``) raises :class:`ImproperChainError`.
    """
    system = _chain_system(model, policy)
    if system is None:
        return ChainAnalysis(states=(), expected_cost=np.empty(0))
    return ChainAnalysis(
        states=tuple(model.states.labels[int(x)] for x in system.flagged),
        expected_cost=system.lu.solve(system.cost),
        _system=system,
    )


def expected_landing_value(model: CtmdpModel, policy: StationaryPolicy, W: np.ndarray) -> np.ndarray:
    """Expected value of ``W`` at the post-intervention state, per state.

    Identity on gradual states; on flagged states, W averaged over the
    chain's landing distribution, (I - M)^-1 R W.  Raises
    :class:`ImproperChainError` for an improper policy.
    """
    out = np.array(W, dtype=np.float64)
    system = _chain_system(model, policy)
    if system is not None:
        out[system.flagged] = system.lu.solve(system.R @ out)
    return out
