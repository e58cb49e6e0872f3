"""Finite impulse chains: sampling, expected cost, and landing distribution.

At an intervention instant, the policy applies impulses repeatedly until the
process lands in a state where it waits under gradual control.  A chain is
the recorded sequence of (state, action) steps; a policy is proper when
every chain terminates with probability one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ._ops import CompiledModel, compile_model, policy_rows
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


def chain_guard(model: CtmdpModel) -> int:
    """Step guard: expected chain length is at most 2K/(eta*c_lower), so a
    chain exceeding ten times that (plus slack) flags an improper policy."""
    bound = 2.0 * model.K / (model.eta * model.costs.c_lower)
    return math.ceil(bound) * 10 + 100


def _step(comp: CompiledModel, policy: StationaryPolicy, x: int, rng: np.random.Generator) -> tuple[int, int, float]:
    """One impulse at flagged state ``x``: (action index, new state, cost)."""
    a = policy.phi_i[x]
    p = comp.i_pair(x, a)
    tgt = comp.i_targets[p]
    if len(tgt) == 1:
        z = int(tgt[0])
    else:
        z = int(tgt[np.searchsorted(comp.i_cum[p], rng.random(), side="right")])
    return a, z, float(comp.i_cost[p])


def sample_chain(model: CtmdpModel, policy: StationaryPolicy, x: str, rng: np.random.Generator) -> InterventionChain:
    """Sample one intervention chain started at a flagged state."""
    comp = compile_model(model)
    k = model.states.index[x]
    if not policy.impulsive[k]:
        raise ValueError(f"state {x!r} is not flagged for intervention under this policy")
    guard = chain_guard(model)
    steps: list[tuple[str, str]] = []
    cost = 0.0
    while policy.impulsive[k]:
        if len(steps) >= guard:
            raise ImproperChainError(
                f"chain exceeded the {guard}-step guard without reaching a gradual state",
                model.states.labels[k],
            )
        a, nxt, c = _step(comp, policy, k, rng)
        steps.append((model.states.labels[k], model.actions.impulsive[model.states.labels[k]][a]))
        cost += c
        k = nxt
    return InterventionChain(steps=tuple(steps), landing=model.states.labels[k], total_cost=cost)


def _chain_system(model: CtmdpModel, policy: StationaryPolicy) -> _ChainSystem | None:
    """Split the policy's impulse rows and factorise I - M; None when nothing is flagged.

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
    return _ChainSystem(flagged, rows.i_cost, R, lu)


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
