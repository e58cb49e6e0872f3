"""Finite impulse chains: expected cost, landing distribution, and step guard.

At an intervention instant, the policy applies impulses repeatedly until the
process lands in a state where it waits under gradual control.  A chain is
the recorded sequence of (state, action) steps; a policy is proper when
every chain terminates with probability one.  The functions here read the
policy's chain system, which lives in :mod:`bellman` because the evaluation
asks it first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bellman import StationaryPolicy, _chain_system, _ChainSystem
from .errors import ImproperChainError  # re-exported; _chain_system raises it
from .model import CtmdpModel


@dataclass(frozen=True, eq=False)
class InterventionChain:
    steps: tuple[tuple[str, str], ...]  # (state, impulsive action) per impulse
    landing: str
    total_cost: float


@dataclass(frozen=True, eq=False)
class ChainAnalysis:
    """Expected chain cost and landing distribution per flagged state.

    ``states`` lists the flagged state labels in model order and
    ``expected_cost`` the expected total impulse cost of a chain started at
    each (read-only, shared by equal policies).  ``landing_row(k)`` is the
    landing distribution of the chain started at ``states[k]``: a probability
    vector over all states with support in the gradual region, computed on
    demand by one solve.
    """

    states: tuple[str, ...]
    expected_cost: np.ndarray
    _system: _ChainSystem | None = field(default=None, repr=False)

    def landing_row(self, k: int) -> np.ndarray:
        e = np.zeros(len(self.states))
        e[k] = 1.0
        return self._system.R.T @ self._system.lu.solve(e, trans="T")


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


def analyze_chains(model: CtmdpModel, policy: StationaryPolicy) -> ChainAnalysis:
    """Expected chain cost and landing distribution, from the policy's chain system.

    With M the flagged -> flagged part of the policy's relocation rows, the
    expected chain cost is W = (I - M)^-1 c, solved once with that factor.
    An improper policy (a singular I - M, or a landing distribution whose
    mass differs from one by more than ``LANDING_ROW_TOL``) raises
    :class:`ImproperChainError`.
    """
    system = _chain_system(model, policy)
    if system is None:
        return ChainAnalysis(states=(), expected_cost=np.empty(0))
    return ChainAnalysis(
        states=tuple(map(model.states.labels.__getitem__, system.flagged.tolist())),
        expected_cost=system.expected_cost,
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
