"""Finite CTMDP model with gradual and impulsive controls.

A model bundles a finite state space, per-state action catalogs, a bounded
jump-rate kernel for gradual actions, a stochastic relocation kernel for
impulsive actions, and the cost data (running cost rate, per-impulse cost,
discount rate).  All objects are immutable after construction; downstream
modules consume them read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

ROW_SUM_TOL = 1e-12

PairKey = tuple[str, str]  # (state label, action label)


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Ordered finite set of opaque state labels."""

    labels: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", {s: k for k, s in enumerate(self.labels)})

    @property
    def N(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class ActionCatalog:
    """Per-state lists of admissible gradual and impulsive action labels.

    ``gradual[x]`` must be nonempty for every state; ``impulsive[x]`` may be
    empty.  Keys are state labels.
    """

    gradual: dict[str, tuple[str, ...]]
    impulsive: dict[str, tuple[str, ...]]


@dataclass(frozen=True, eq=False)
class RateKernel:
    """Jump rates for gradual actions: (state, action) -> [(target, rate)].

    Rows exclude the diagonal (no self-loop targets); a row's total rate must
    not exceed the declared uniform bound ``K_rate``.
    """

    rows: dict[PairKey, tuple[tuple[str, float], ...]]
    K_rate: float

    def total_rate(self, x: str, a: str) -> float:
        return sum(r for _, r in self.rows[(x, a)])


@dataclass(frozen=True, eq=False)
class ImpulseKernel:
    """Relocation distributions for impulsive actions: (state, action) -> rows."""

    rows: dict[PairKey, tuple[tuple[str, float], ...]]


@dataclass(frozen=True, eq=False)
class CostModel:
    """Running cost rates, per-impulse costs, and discount rate.

    ``K_cost`` bounds |gradual_cost| and ``c_lower`` > 0 lower-bounds every
    impulse cost; both are declared, not inferred, and checked by
    :func:`validate_model`.
    """

    gradual_cost: dict[PairKey, float]
    impulse_cost: dict[PairKey, float]
    eta: float
    K_cost: float
    c_lower: float


@dataclass(frozen=True, eq=False)
class CtmdpModel:
    states: StateSpace
    actions: ActionCatalog
    rates: RateKernel
    impulses: ImpulseKernel
    costs: CostModel

    @property
    def K(self) -> float:
        """Single uniform bound dominating both rates and running costs."""
        return max(self.rates.K_rate, self.costs.K_cost)

    @property
    def eta(self) -> float:
        return self.costs.eta


@dataclass(frozen=True)
class Violation:
    rule: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.subject}: {self.message}"


def validate_model(model: CtmdpModel) -> list[Violation]:
    """Check every model invariant; an empty report means the model is usable.

    Violations are data, not exceptions: validation is total and side-effect
    free.
    """
    out: list[Violation] = []
    st = model.states
    if st.N < 1:
        out.append(Violation("STATE_COUNT", "states", "state space is empty"))
    seen: set[str] = set()
    for s in st.labels:
        if s in seen:
            out.append(Violation("DUPLICATE_LABEL", s, "state label repeated"))
        seen.add(s)

    if model.costs.eta <= 0:
        out.append(Violation("DISCOUNT", "eta", f"discount rate must be > 0, got {model.costs.eta}"))
    if model.costs.c_lower <= 0:
        out.append(Violation("IMPULSE_COST_FLOOR", "c_lower",
                             f"impulse cost floor must be > 0, got {model.costs.c_lower}"))

    known = set(st.labels)
    gradual_pairs: set[PairKey] = set()
    impulsive_pairs: set[PairKey] = set()
    for x in st.labels:
        acts = model.actions.gradual.get(x, ())
        if not acts:
            out.append(Violation("GRADUAL_NONEMPTY", x, "no gradual action declared"))
        gradual_pairs.update((x, a) for a in acts)
        impulsive_pairs.update((x, a) for a in model.actions.impulsive.get(x, ()))
    for x in model.actions.gradual:
        if x not in known:
            out.append(Violation("UNKNOWN_STATE", x, "gradual catalog entry for unknown state"))
    for x in model.actions.impulsive:
        if x not in known:
            out.append(Violation("UNKNOWN_STATE", x, "impulsive catalog entry for unknown state"))

    # Rate kernel: coverage both ways, nonnegative rates, no self-loops, bound.
    for key, row in model.rates.rows.items():
        if key not in gradual_pairs:
            out.append(Violation("COVERAGE", f"{key}", "rate row without catalog entry"))
            continue
        x, a = key
        total = 0.0
        for target, rate in row:
            if target not in known:
                out.append(Violation("UNKNOWN_STATE", f"{key}", f"rate target {target!r} unknown"))
            if target == x:
                out.append(Violation("SELF_LOOP", f"{key}", "rate row assigns mass to its own state"))
            if rate < 0:
                out.append(Violation("NEGATIVE_RATE", f"{key}", f"rate to {target!r} is {rate}"))
            total += rate
        if total > model.rates.K_rate + ROW_SUM_TOL:
            out.append(Violation("RATE_BOUND", f"{key}",
                                 f"total rate {total} exceeds declared bound K_rate={model.rates.K_rate}"))
    for key in gradual_pairs:
        if key not in model.rates.rows:
            out.append(Violation("COVERAGE", f"{key}", "catalog pair has no rate row"))
        if key not in model.costs.gradual_cost:
            out.append(Violation("COVERAGE", f"{key}", "catalog pair has no gradual cost"))

    # Impulse kernel: stochastic rows, coverage both ways.
    for key, row in model.impulses.rows.items():
        if key not in impulsive_pairs:
            out.append(Violation("COVERAGE", f"{key}", "impulse row without catalog entry"))
            continue
        total = 0.0
        for target, p in row:
            if target not in known:
                out.append(Violation("UNKNOWN_STATE", f"{key}", f"impulse target {target!r} unknown"))
            if p < 0:
                out.append(Violation("NEGATIVE_PROB", f"{key}", f"probability of {target!r} is {p}"))
            total += p
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=ROW_SUM_TOL):
            out.append(Violation("ROW_SUM", f"{key}", f"impulse row sums to {total}, expected 1"))
    for key in impulsive_pairs:
        if key not in model.impulses.rows:
            out.append(Violation("COVERAGE", f"{key}", "catalog pair has no impulse row"))
        if key not in model.costs.impulse_cost:
            out.append(Violation("COVERAGE", f"{key}", "catalog pair has no impulse cost"))

    # Cost bounds.
    for key, c in model.costs.gradual_cost.items():
        if key not in gradual_pairs:
            out.append(Violation("COVERAGE", f"{key}", "gradual cost without catalog entry"))
        elif abs(c) > model.costs.K_cost + ROW_SUM_TOL:
            out.append(Violation("COST_BOUND", f"{key}",
                                 f"|running cost| {abs(c)} exceeds declared bound K_cost={model.costs.K_cost}"))
    for key, c in model.costs.impulse_cost.items():
        if key not in impulsive_pairs:
            out.append(Violation("COVERAGE", f"{key}", "impulse cost without catalog entry"))
        elif c < model.costs.c_lower - ROW_SUM_TOL:
            out.append(Violation("IMPULSE_COST_FLOOR", f"{key}",
                                 f"impulse cost {c} is below the declared floor c_lower={model.costs.c_lower}"))

    return out

