"""Epidemic-with-carriers instance: model builder and analytic solution.

The population holds s susceptibles, c carriers, and i infectives.  Carriers
follow an uncontrolled birth-death process, each susceptible gets infected
at rate kappa_i(c), infectives recover at rate kappa_r, and the running cost
is the number of infectives.  The single impulse immunizes one susceptible
at price ``immunization_cost``; "immunize everyone" is realized as a chain
of single immunizations.

The value separates as V(s, c, i) = s * v(c) + i / (eta + kappa_r), where v
solves a one-dimensional contraction fixed point over the carrier count.
The optimal strategy is a threshold in c: immunize all susceptibles once the
carrier count reaches c_star, never if the price is at least the critical
price lambda_star.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CtmdpModel, PairTable, StationaryPolicy

WAIT = "wait"
IMMUNIZE = "immunize"


class CarrierContractionError(ValueError):
    """The carrier fixed point is not a contraction (sup(alpha1+alpha2) >= 1)."""


@dataclass(frozen=True, eq=False)
class EpidemicParams:
    S: int
    I: int
    c0: int
    C_max: int
    eta: float
    kappa_r: float
    immunization_cost: float
    rho_b: tuple[float, ...]    # carrier birth rate, tabulated on 0..C_max
    rho_d: tuple[float, ...]    # carrier death rate
    kappa_i: tuple[float, ...]  # per-susceptible infection rate

    def __post_init__(self) -> None:
        n = self.C_max + 1
        for name in ("rho_b", "rho_d", "kappa_i"):
            tab = tuple(float(v) for v in getattr(self, name))
            if len(tab) < n:
                # Rate functions are constant past their tabulated saturation point.
                tab = tab + (tab[-1],) * (n - len(tab))
            if len(tab) != n:
                raise ValueError(f"{name} table longer than C_max+1={n}")
            if not all(v >= 0 for v in tab):
                raise ValueError(f"{name} must be nonnegative")
            object.__setattr__(self, name, tab)
        if self.rho_b[0] != 0 or self.rho_d[0] != 0:
            raise ValueError("carrier birth/death rates must vanish at c=0")
        if self.kappa_i[0] != 0:
            raise ValueError("infection rate must vanish at c=0")
        if self.S < 0 or self.I < 0 or not 0 <= self.c0 <= self.C_max:
            raise ValueError("population counts out of range")
        if self.C_max < 1:
            raise ValueError("C_max must be >= 1")
        if not (0 < self.eta < math.inf and 0 <= self.kappa_r < math.inf):
            raise ValueError("eta must be finite and > 0, and kappa_r finite and >= 0")
        if not 0 < self.immunization_cost < math.inf:
            raise ValueError("immunization cost must be finite and > 0")


@dataclass(frozen=True, eq=False)
class CarrierValue:
    """Solution of the carrier fixed point with its threshold.

    ``c_star`` is None when no carrier count up to C_max makes intervening
    strictly cheaper than waiting (in particular whenever the price is at or
    above ``lambda_star``).
    """

    v: np.ndarray
    c_star: int | None
    lambda_star: float

    def __post_init__(self) -> None:
        v = np.asarray(self.v, dtype=np.float64)
        v.flags.writeable = False
        object.__setattr__(self, "v", v)


def _alphas(params: EpidemicParams, truncated: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rb = np.asarray(params.rho_b, dtype=np.float64).copy()
    if truncated:
        rb[params.C_max] = 0.0  # reflecting carrier boundary
    rd = np.asarray(params.rho_d)
    ki = np.asarray(params.kappa_i)
    denom = params.eta + rb + rd + ki
    a1 = rb / denom
    a2 = rd / denom
    a3 = (ki / (params.eta + params.kappa_r)) / denom
    return a1, a2, a3


def _carrier_map(alphas: tuple[np.ndarray, np.ndarray, np.ndarray], w: np.ndarray) -> np.ndarray:
    """Per-susceptible cost of waiting, a1 w(c+1) + a2 w(c-1) + a3, with w
    clamped at the ends, where a1 (at C_max) and a2 (at 0) vanish."""
    a1, a2, a3 = alphas
    return a1 * np.append(w[1:], w[-1]) + a2 * np.append(w[0], w[:-1]) + a3


def coefficient_monotonicity_violations(params: EpidemicParams) -> list[int]:
    """Carrier counts where a normalized coefficient fails to be nondecreasing.

    The threshold analysis assumes all three coefficients increase with c;
    the fixed point itself only needs the contraction bound, so violations
    are reported rather than fatal.
    """
    a = np.stack(_alphas(params, truncated=False))
    return (np.flatnonzero((a[:, 1:] < a[:, :-1] - 1e-15).any(axis=0)) + 1).tolist()


def lambda_star(params: EpidemicParams) -> float:
    """Critical immunization price; depends only on the infection saturation.

    Evaluated at C_max, where the tabulated rates are constant by
    declaration.  Independent of the carrier birth/death rates.
    """
    ki = params.kappa_i[params.C_max]
    return (ki / (params.eta + params.kappa_r)) / (params.eta + ki)


def solve_carrier_equation(params: EpidemicParams, tol: float = 1e-12) -> CarrierValue:
    """Contraction iteration for the per-susceptible carrier value v(c).

    Iterates from zero until the a-posteriori error bound meets ``tol``;
    then scans for the smallest carrier count at which waiting is strictly
    worse than paying the immunization price.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    a1, a2, _ = alphas = _alphas(params, truncated=True)
    d = float(np.max(a1 + a2))
    if d >= 1.0:
        raise CarrierContractionError(
            f"sup(alpha1 + alpha2) = {d} >= 1; the carrier equation is not a contraction")
    lam = params.immunization_cost
    w = np.zeros(params.C_max + 1)
    stop = tol * (1.0 - d) if d > 0 else tol
    for _ in range(10 ** 7):
        wn = np.minimum(_carrier_map(alphas, w), lam)
        step = float(np.max(np.abs(wn - w)))
        w = wn
        if step < stop:
            break
    above = np.flatnonzero(_carrier_map(alphas, w) > lam + 1e-12)
    c_star = int(above[0]) if above.size else None
    return CarrierValue(v=w, c_star=c_star, lambda_star=lambda_star(params))


def carrier_residual(params: EpidemicParams, cv: CarrierValue) -> float:
    """Sup-norm defect of the carrier fixed point at the solved v."""
    g = np.minimum(_carrier_map(_alphas(params, truncated=True), cv.v), params.immunization_cost)
    return float(np.max(np.abs(g - cv.v)))


def state_label(s: int, c: int, i: int) -> str:
    return f"{s},{c},{i}"


def _lattice(params: EpidemicParams) -> tuple:
    """Arrays of the counts s, c, i of every state in state order (s, then c,
    then i), and the index of a state from its counts.

    Restricted to s + i <= S + I: that set is closed under every transition
    (infection conserves s + i, recovery and immunization decrease it), while
    the remaining corners of the product box are unreachable and their
    infection jumps would leave the box.
    """
    cap = params.S + params.I
    width = cap + 1 - np.arange(params.S + 1)             # infective counts 0..cap-s per (s, c)
    offset = np.concatenate([[0], np.cumsum((params.C_max + 1) * width)])
    s = np.repeat(np.arange(params.S + 1), (params.C_max + 1) * width)
    c, i = np.divmod(np.arange(offset[-1]) - offset[s], width[s])

    def at(s_, c_, i_):
        return offset[s_] + c_ * width[s_] + i_

    return s, c, i, at


def enumerate_states(params: EpidemicParams):
    """Deterministic state order shared by the model builder and the policies:
    (s, c, i) tuples, as :func:`_lattice` orders them."""
    s, c, i, _ = _lattice(params)
    yield from zip(s.tolist(), c.tolist(), i.tolist())


def build_epidemic_model(params: EpidemicParams) -> CtmdpModel:
    """Generic finite CTMDP over (susceptibles, carriers, infectives).

    Carrier births are suppressed at C_max (reflecting truncation).  The
    single gradual action waits; the single impulse moves one susceptible
    out at the immunization price.  States are numbered in the order of
    :func:`enumerate_states`, and neighbours are found by index arithmetic.
    """
    lam = params.immunization_cost
    s, c, i, at = _lattice(params)
    N = s.size
    below = np.maximum(s - 1, 0)                          # s - 1, clamped where masked out

    # Candidate jumps in row order: carrier birth, carrier death, infection, recovery.
    rates = np.stack([np.where(c < params.C_max, np.asarray(params.rho_b)[c], 0.0),
                      np.where(c > 0, np.asarray(params.rho_d)[c], 0.0),
                      s * np.asarray(params.kappa_i)[c],
                      i * params.kappa_r], axis=1)
    targets = np.stack([at(s, c + 1, i), at(s, c - 1, i), at(below, c, i + 1), at(s, c, i - 1)], axis=1)
    keep = rates > 0
    rates = np.where(keep, rates, 0.0)
    total = ((rates[:, 0] + rates[:, 1]) + rates[:, 2]) + rates[:, 3]  # left to right, as a row sum
    imm = s > 0
    n_imm = int(np.count_nonzero(imm))
    gradual = PairTable(ptr=np.arange(N + 1), names=(WAIT,) * N,
                        row_ptr=np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))]),
                        cols=targets[keep], weights=rates[keep], cost=i.astype(np.float64))
    impulsive = PairTable(ptr=np.concatenate([[0], np.cumsum(imm)]), names=(IMMUNIZE,) * n_imm,
                          row_ptr=np.arange(n_imm + 1), cols=at(below, c, i)[imm],
                          weights=np.ones(n_imm), cost=np.full(n_imm, lam))
    return CtmdpModel.from_arrays(
        tuple(map(state_label, s.tolist(), c.tolist(), i.tolist())), gradual, impulsive,
        K_rate=float(total.max(initial=0.0)), eta=params.eta,
        K_cost=float(params.S + params.I), c_lower=lam)


def analytic_value(params: EpidemicParams, cv: CarrierValue, s: int, c: int, i: int) -> float:
    """Separable value s*v(c) + i/(eta + kappa_r)."""
    if not (0 <= s <= params.S and 0 <= c <= params.C_max and 0 <= i <= params.S + params.I):
        raise ValueError(f"state ({s},{c},{i}) outside the state box")
    return s * float(cv.v[c]) + i / (params.eta + params.kappa_r)


def threshold_policy(params: EpidemicParams, cv: CarrierValue) -> StationaryPolicy:
    """Immunize all susceptibles exactly when the carrier count reaches c_star.

    Aligned with the state order of :func:`build_epidemic_model`.  Chains
    under this policy fire one immunization per susceptible and land at
    (0, c, i).
    """
    s, c, _, _ = _lattice(params)
    c_star = math.inf if cv.c_star is None else cv.c_star
    return StationaryPolicy(phi_g=np.zeros(s.size, dtype=np.int64),
                            phi_i=np.where((s >= 1) & (c >= c_star), 0, -1))
