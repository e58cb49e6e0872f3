"""Reference oracle: the per-pair dict walk that validated models before they were flattened.

``impulsive_ctmdp.model.validate_model`` runs the same rules as masks over
the model's pair tables.  This walk reads the model's records (dicts, or the
read-only views of an array-built model) and is kept here verbatim, so tests
can check that both give the same violations in the same order.
"""

from __future__ import annotations

import math

from impulsive_ctmdp.model import ROW_SUM_TOL, CtmdpModel, PairKey, Violation


def reference_validate_model(model: CtmdpModel) -> list[Violation]:
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

