"""Compiled array form of a model, shared by the solver and the simulator.

The model already stores its kernels as pair-ordered CSR arrays (one
``model.PairTable`` per control kind).  :func:`compile_model` adds the jump
rates ``J`` (the only gradual kernel: :func:`gradual_branch` uniformizes its
rows at K), the relocation kernel ``Q_imp`` and the derived tables: row
totals, running probabilities for sampling, and the index of the states that
have impulses.  It loops over row width, never over rows, and keeps the
result for as long as the model lives.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import wraps

import numpy as np
import scipy.sparse as sp

from .errors import NonConvergenceError
from .model import CtmdpModel, StationaryPolicy, row_sums


@dataclass(frozen=True, eq=False)
class CompiledModel:
    """Array form of one model; it holds no reference to the model."""

    N: int
    K: float
    eta: float
    # Gradual pairs, grouped contiguously per state.
    g_ptr: np.ndarray          # (N+1,) slice bounds into gradual pair arrays
    g_cost: np.ndarray         # (n_g,) running cost per pair
    g_total_rate: np.ndarray   # (n_g,) total jump rate per pair
    J: sp.csr_matrix           # (n_g, N) jump rates
    J_cum: np.ndarray          # (nnz(J),) row-wise cumulative jump probabilities
    i_first: np.ndarray        # (N,) each state's first impulsive pair
    # Impulsive pairs, compacted over states that have any.
    i_states: np.ndarray       # (m,) state indices with nonempty impulsive set
    i_ptr: np.ndarray          # (m+1,) slice bounds into impulsive pair arrays
    i_cost: np.ndarray         # (n_i,) impulse cost per pair
    Q_imp: sp.csr_matrix       # (n_i, N) relocation kernel
    Q_cum: np.ndarray          # (nnz(Q_imp),) row-wise cumulative relocation probabilities
    # per_policy results, keyed weakly by the policy.
    derived: weakref.WeakKeyDictionary = field(default_factory=weakref.WeakKeyDictionary, repr=False)


_COMPILED = weakref.WeakKeyDictionary()  # each live model's CompiledModel


def compile_model(model: CtmdpModel) -> CompiledModel:
    if model not in _COMPILED:
        _COMPILED[model] = _compile(model)
    return _COMPILED[model]


def per_policy(build):
    """Memoise ``build(model, policy)`` for as long as the model and the policy live.

    Results sit in the model's compiled form, keyed weakly by the policy, so
    they must not refer to the policy or the model.  Policies compare by
    their decisions, so an entry serves every policy equal to the one it was
    built for, and dies with that one.  A build that raises stores nothing.
    """
    @wraps(build)
    def cached(model: CtmdpModel, policy: StationaryPolicy):
        memo = compile_model(model).derived.setdefault(policy, {})
        if build not in memo:
            memo[build] = build(model, policy)
        return memo[build]
    return cached


def _compile(model: CtmdpModel) -> CompiledModel:
    if model.defects:
        raise ValueError(f"model has structural defects: {min(model.defects, key=lambda d: d[0])[1]}")
    N = model.states.N
    g, im = model.gradual_pairs, model.impulse_pairs
    n_g = len(g.names)
    # copy=True: scipy may canonicalise a matrix in place, and the model's arrays are read-only.
    J = sp.csr_matrix((g.weights, g.cols, g.row_ptr), shape=(n_g, N), copy=True)
    cum, total = row_sums(g.row_ptr, g.weights)
    per_entry = np.repeat(total, np.diff(g.row_ptr))
    J_cum = np.divide(cum, per_entry, out=cum, where=per_entry > 0)
    i_states = np.flatnonzero(np.diff(im.ptr))
    return CompiledModel(
        N=N,
        K=model.K,
        eta=model.costs.eta,
        g_ptr=g.ptr,
        g_cost=g.cost,
        g_total_rate=total,
        J=J,
        J_cum=J_cum,
        i_first=im.ptr[:-1],
        i_states=i_states,
        i_ptr=np.append(im.ptr[i_states], im.ptr[-1]),
        i_cost=im.cost,
        Q_imp=sp.csr_matrix((im.weights, im.cols, im.row_ptr), shape=(len(im.names), N), copy=True),
        Q_cum=row_sums(im.row_ptr, im.weights)[0],
    )


def gradual_branch(comp: CompiledModel, F: np.ndarray) -> np.ndarray:
    """Per-pair value of the gradual branch of the optimality operator, (J F + (K - q) F(x) + c)/(K + eta)."""
    stay = (comp.K - comp.g_total_rate) * np.repeat(F, np.diff(comp.g_ptr))
    return (comp.J @ F + stay + comp.g_cost) / (comp.K + comp.eta)


def impulsive_branch(comp: CompiledModel, F: np.ndarray) -> np.ndarray:
    """Per-pair value of the impulsive branch of the optimality operator."""
    return comp.Q_imp @ F + comp.i_cost


def apply_operator(comp: CompiledModel, F: np.ndarray) -> np.ndarray:
    """One application of the optimality operator to a value vector."""
    return _state_min(comp, gradual_branch(comp, F), F)


def embedded_branch(comp: CompiledModel, F: np.ndarray) -> np.ndarray:
    """Per-pair value (J F + c)/(eta + q) of the gradual branch on the embedded
    jump chain: no self-loop, so a pair contracts at its own rate q/(eta+q).
    The uniformized pair value is a convex mix of F(x) and this one, so it
    lies below F(x) exactly when this one does."""
    return (comp.J @ F + comp.g_cost) / (comp.eta + comp.g_total_rate)


def apply_embedded(comp: CompiledModel, F: np.ndarray, region: np.ndarray | None = None) -> np.ndarray:
    """One application of the optimality operator on the embedded jump chain: it has
    that operator's fixed point, and its iterates from above are supersolutions of it.
    A given ``region`` (one bool per state, all False) is set True where an
    impulse is strictly least: the intervene region of the operator's argmin at ``F``."""
    return _state_min(comp, embedded_branch(comp, F), F, region)


def _state_min(comp: CompiledModel, g: np.ndarray, F: np.ndarray, region: np.ndarray | None = None) -> np.ndarray:
    """Each state's least gradual pair value ``g`` or impulsive branch value at ``F``,
    and, into a given ``region``, the states where an impulse is strictly least.

    A segment of width one is its own minimum, so a table with one pair per
    segment skips the ``reduceat``; ``g`` may be overwritten.
    """
    out = g if g.size == comp.N else np.minimum.reduceat(g, comp.g_ptr[:-1])
    if comp.i_cost.size:
        iv = impulsive_branch(comp, F)
        imin = iv if iv.size == comp.i_states.size else np.minimum.reduceat(iv, comp.i_ptr[:-1])
        gmin = out[comp.i_states]
        if region is not None:
            region[comp.i_states] = imin < gmin
        out[comp.i_states] = np.minimum(gmin, imin)  # i_states holds no repeats
    return out


def segment_argmin(values: np.ndarray, ptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum of each segment ``values[ptr[k]:ptr[k+1]]`` (none may be empty) and
    the offset of its first attainment inside the segment (ties go to the lowest).
    The minima are a new array even where every segment has width one."""
    lo = ptr[:-1]
    if values.size == lo.size:
        return values.copy(), np.zeros_like(lo)
    least = np.repeat(np.minimum.reduceat(values, lo), np.diff(ptr))
    first = np.minimum.reduceat(np.where(values == least, np.arange(values.size), values.size), lo)
    return values[first], first - lo


def uniformized_row(model: CtmdpModel, x: str, a: str) -> np.ndarray:
    """Uniformized one-step distribution for a gradual pair.

    The rate row spread over the dominating rate K, with the leftover mass
    (K - total rate) on the current state, so the result is always a
    probability vector.  Raises KeyError for pairs not in the catalog.
    """
    acts = model.actions.gradual[x]
    if a not in acts:
        raise KeyError((x, a))
    comp, k = compile_model(model), model.states.index[x]
    p = comp.g_ptr[k] + acts.index(a)
    row = comp.J[p].toarray().ravel() / comp.K
    row[k] += (comp.K - comp.g_total_rate[p]) / comp.K
    return row


def factor(A: sp.spmatrix, system: str):
    """SuperLU factor of the square matrix ``A``, or None where it is exactly singular.
    SuperLU running out of memory (``SystemError`` or ``MemoryError``) raises
    :class:`NonConvergenceError` naming the system and its size.  SuperLU is
    imported here, on the first factor, so a process that factors nothing
    never loads ``scipy.sparse.linalg``.

    ``relax=1, panel_size=1`` turn off SuperLU's relaxed supernodes, which pay
    on denser factors than these.  Median of 5-15 (2-core Xeon), with the fill
    nnz(L + U)/nnz(A) under the default column ordering:

    ============================  ======  =====  ========  =======
    system                        rows    fill   default   relax=1
    ============================  ======  =====  ========  =======
    desk policy (S=10)               553   3.4x   0.89 ms  0.69 ms
    S=20 policy                    1,213   3.8x   2.0 ms   1.4 ms
    S=40 policy                    3,133   4.6x   6.3 ms   3.9 ms
    S=20 all-wait lattice          8,463    25x   159 ms   81 ms
    S=40 all-wait lattice         29,233    37x   2.1 s    0.73 s
    generic document, N = 4,000    4,000    13x   53 ms    19 ms
    ============================  ======  =====  ========  =======
    """
    from scipy.sparse.linalg import splu

    try:
        return splu(A.tocsc(), relax=1, panel_size=1)
    except (SystemError, MemoryError) as exc:
        n = A.shape[0]
        raise NonConvergenceError(
            f"sparse LU of the {n} x {n} {system} ran out of memory ({exc})", np.full(n, np.nan), np.inf, 0,
        ) from exc
    except RuntimeError:  # "Factor is exactly singular"
        return None


def check_policy(model: CtmdpModel, policy: StationaryPolicy) -> None:
    """Raise ValueError if the policy is infeasible for the model, naming the
    first offending state in model order."""
    st = model.states
    if policy.phi_i.shape != (st.N,) or policy.phi_g.shape != (st.N,):
        raise ValueError("policy arrays do not match the state count")
    comp = compile_model(model)
    n_imp = np.diff(model.impulse_pairs.ptr)
    bad_g = ~((policy.phi_g >= 0) & (policy.phi_g < np.diff(comp.g_ptr)))
    bad_i = (policy.phi_i < -1) | (policy.phi_i >= n_imp)
    bad = np.flatnonzero(bad_g | bad_i)
    if not bad.size:
        return
    x = int(bad[0])
    s = st.labels[x]
    if bad_g[x]:
        raise ValueError(f"phi_g out of range at state {s!r}")
    if policy.impulsive[x] and n_imp[x] == 0:
        raise ValueError(f"state {s!r} flagged for intervention but has no impulsive action")
    raise ValueError(f"phi_i out of range at state {s!r}")


def check_state_values(model: CtmdpModel, name: str, values: np.ndarray) -> None:
    """Raise ValueError, naming ``name``, unless ``values`` holds one finite value per state."""
    if values.shape != (model.states.N,) or not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must hold one finite value per state ({model.states.N})")


def policy_pairs(comp: CompiledModel, policy: StationaryPolicy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each state's gradual pair, the flagged states (ascending), and their
    impulse pairs; the policy must have passed ``check_policy``."""
    g_rows = comp.g_ptr[:-1] + policy.phi_g
    flagged = np.flatnonzero(policy.impulsive)
    i_rows = comp.i_first[flagged] + policy.phi_i[flagged]
    return g_rows, flagged, i_rows


def row_entries(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the entries of ``rows`` in a table of row bounds ``ptr`` (as
    CSR's ``indptr``), row after row, and each row's entry count."""
    at, n = ptr[rows], ptr[rows + 1] - ptr[rows]
    return np.repeat(at - np.cumsum(n) + n, n) + np.arange(n.sum()), n


def sample_rows(cum: np.ndarray, lo: np.ndarray, hi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Where each uniform ``u`` falls in its row ``cum[lo:hi]`` of running probabilities.

    Returns the position of the first entry above ``u`` (``searchsorted``
    with ``side="right"``); the last entry of a nonempty row takes the
    rounding remainder.  A bisection on each row's ``[lo, hi-1]``, so it costs
    log2 of the widest row and compares every ``u`` with its row's own
    probabilities.  A settled row is a fixed point of the step, except that a
    remainder draw pushes ``lo`` one past ``hi``; the ``minimum`` takes it back.
    """
    hi = hi - 1
    while (lo < hi).any():
        mid = (lo + hi) >> 1
        right = cum[mid] <= u
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
    return np.minimum(lo, hi)

