"""Compiled array form of a model, shared by the solver and the simulator.

Models are immutable, so the index maps, sparse uniformized kernel, and
per-pair jump tables are built once per model object and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
import scipy.sparse as sp

from .model import CtmdpModel

if TYPE_CHECKING:
    from .bellman import StationaryPolicy


@dataclass(frozen=True, eq=False)
class CompiledModel:
    model: CtmdpModel
    N: int
    K: float
    eta: float
    # Gradual pairs, grouped contiguously per state.
    g_ptr: np.ndarray          # (N+1,) slice bounds into gradual pair arrays
    g_cost: np.ndarray         # (n_g,) running cost per pair
    g_total_rate: np.ndarray   # (n_g,) total jump rate per pair
    P_unif: sp.csr_matrix      # (n_g, N) uniformized one-step kernel
    g_targets: list            # per pair: int array of jump targets
    g_cum: list                # per pair: cumulative jump probabilities
    # Impulsive pairs, compacted over states that have any.
    i_states: np.ndarray       # (m,) state indices with nonempty impulsive set
    i_ptr: np.ndarray          # (m+1,) slice bounds into impulsive pair arrays
    i_cost: np.ndarray         # (n_i,) impulse cost per pair
    Q_imp: sp.csr_matrix       # (n_i, N) relocation kernel
    i_targets: list            # per pair: int array of relocation targets
    i_cum: list                # per pair: cumulative relocation probabilities
    has_impulse: np.ndarray    # (N,) bool

    def g_pair(self, x: int, a: int) -> int:
        return int(self.g_ptr[x]) + a

    def i_slot(self, x: int) -> int:
        """Position of state ``x`` inside the compacted impulsive arrays."""
        pos = int(np.searchsorted(self.i_states, x))
        if pos >= len(self.i_states) or self.i_states[pos] != x:
            raise KeyError(f"state index {x} has no impulsive actions")
        return pos

    def i_pair(self, x: int, a: int) -> int:
        return int(self.i_ptr[self.i_slot(x)]) + a


@lru_cache(maxsize=64)
def compile_model(model: CtmdpModel) -> CompiledModel:
    st = model.states
    N = st.N
    K = model.K
    labels = st.labels
    idx = st.index

    g_ptr = np.zeros(N + 1, dtype=np.int64)
    g_cost: list[float] = []
    g_total: list[float] = []
    g_targets: list[np.ndarray] = []
    g_cum: list[np.ndarray] = []
    data: list[float] = []
    cols: list[int] = []
    indptr = [0]
    for x, s in enumerate(labels):
        acts = model.actions.gradual[s]
        g_ptr[x + 1] = g_ptr[x] + len(acts)
        for a in acts:
            row = model.rates.rows[(s, a)]
            g_cost.append(model.costs.gradual_cost[(s, a)])
            tgt = np.array([idx[t] for t, _ in row], dtype=np.int64)
            rates = np.array([r for _, r in row], dtype=np.float64)
            total = float(rates.sum())
            g_total.append(total)
            g_targets.append(tgt)
            g_cum.append(np.cumsum(rates) / total if total > 0 else rates)
            # Uniformized row: q-bar mass over K plus leftover on the diagonal.
            for t, r in zip(tgt, rates):
                cols.append(int(t))
                data.append(r / K)
            cols.append(x)
            data.append((K - total) / K)
            indptr.append(len(data))
    P_unif = sp.csr_matrix(
        (np.asarray(data), np.asarray(cols, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(len(g_cost), N),
    )

    i_states: list[int] = []
    i_ptr = [0]
    i_cost: list[float] = []
    i_targets: list[np.ndarray] = []
    i_cum: list[np.ndarray] = []
    qdata: list[float] = []
    qcols: list[int] = []
    qindptr = [0]
    has_imp = np.zeros(N, dtype=bool)
    for x, s in enumerate(labels):
        acts = model.actions.impulsive.get(s, ())
        if not acts:
            continue
        has_imp[x] = True
        i_states.append(x)
        for a in acts:
            row = model.impulses.rows[(s, a)]
            i_cost.append(model.costs.impulse_cost[(s, a)])
            tgt = np.array([idx[t] for t, _ in row], dtype=np.int64)
            probs = np.array([p for _, p in row], dtype=np.float64)
            i_targets.append(tgt)
            i_cum.append(np.cumsum(probs))
            for t, p in zip(tgt, probs):
                qcols.append(int(t))
                qdata.append(p)
            qindptr.append(len(qdata))
        i_ptr.append(len(i_cost))
    Q_imp = sp.csr_matrix(
        (np.asarray(qdata), np.asarray(qcols, dtype=np.int64), np.asarray(qindptr, dtype=np.int64)),
        shape=(len(i_cost), N),
    )

    return CompiledModel(
        model=model,
        N=N,
        K=K,
        eta=model.costs.eta,
        g_ptr=g_ptr,
        g_cost=np.asarray(g_cost),
        g_total_rate=np.asarray(g_total),
        P_unif=P_unif,
        g_targets=g_targets,
        g_cum=g_cum,
        i_states=np.asarray(i_states, dtype=np.int64),
        i_ptr=np.asarray(i_ptr, dtype=np.int64),
        i_cost=np.asarray(i_cost),
        Q_imp=Q_imp,
        i_targets=i_targets,
        i_cum=i_cum,
        has_impulse=has_imp,
    )


def gradual_branch(comp: CompiledModel, F: np.ndarray) -> np.ndarray:
    """Per-pair value of the gradual branch of the optimality operator."""
    K, eta = comp.K, comp.eta
    return (K / (K + eta)) * (comp.P_unif @ F) + comp.g_cost / (K + eta)


def impulsive_branch(comp: CompiledModel, F: np.ndarray) -> np.ndarray:
    """Per-pair value of the impulsive branch of the optimality operator."""
    return comp.Q_imp @ F + comp.i_cost


def apply_operator(comp: CompiledModel, F: np.ndarray) -> np.ndarray:
    """One application of the optimality operator to a value vector."""
    g = gradual_branch(comp, F)
    out = np.minimum.reduceat(g, comp.g_ptr[:-1])
    if comp.i_cost.size:
        iv = impulsive_branch(comp, F)
        imin = np.minimum.reduceat(iv, comp.i_ptr[:-1])
        np.minimum.at(out, comp.i_states, imin)
    return out


def segment_argmin(values: np.ndarray, ptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum of each nonempty segment ``values[ptr[k]:ptr[k+1]]`` and the
    offset of its first attainment inside the segment (ties go to the lowest)."""
    seg = np.repeat(np.arange(ptr.size - 1), np.diff(ptr))
    first = np.lexsort((values, seg))[ptr[:-1]]
    return values[first], first - ptr[:-1]


def uniformized_row(model: CtmdpModel, x: str, a: str) -> np.ndarray:
    """Uniformized one-step distribution for a gradual pair.

    The rate row spread over the dominating rate K, with the leftover mass
    (K - total rate) on the current state, so the result is always a
    probability vector.  Raises KeyError for pairs not in the catalog.
    """
    acts = model.actions.gradual[x]
    if a not in acts:
        raise KeyError((x, a))
    comp = compile_model(model)
    return comp.P_unif[comp.g_pair(model.states.index[x], acts.index(a))].toarray().ravel()


class PolicyRows(NamedTuple):
    """Kernel rows and costs a stationary policy selects."""

    P: sp.csr_matrix        # (N, N) uniformized kernel under phi_g
    g_cost: np.ndarray      # (N,) running cost under phi_g
    flagged: np.ndarray     # (m,) flagged state indices, ascending
    Q: sp.csr_matrix        # (m, N) relocation rows under phi_i
    i_cost: np.ndarray      # (m,) impulse cost under phi_i


def policy_rows(comp: CompiledModel, policy: StationaryPolicy) -> PolicyRows:
    """Select the policy's rows; the policy must have passed ``check_policy``."""
    g_rows = comp.g_ptr[:-1] + policy.phi_g
    flagged = np.flatnonzero(policy.impulsive)
    phi_i = np.array([policy.phi_i[int(x)] for x in flagged], dtype=np.int64)
    i_rows = comp.i_ptr[np.searchsorted(comp.i_states, flagged)] + phi_i
    return PolicyRows(comp.P_unif[g_rows], comp.g_cost[g_rows], flagged, comp.Q_imp[i_rows], comp.i_cost[i_rows])
