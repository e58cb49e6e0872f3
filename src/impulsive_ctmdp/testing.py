"""Seeded random model instances for property tests and benchmarks, and model documents."""

from __future__ import annotations

import json
import re

import numpy as np

from .model import (
    ActionCatalog,
    CostModel,
    CtmdpModel,
    ImpulseKernel,
    RateKernel,
    StateSpace,
)


def random_model(
    seed: int,
    max_states: int = 50,
    max_actions: int = 4,
    with_impulses: bool = True,
    K_rate: float = 2.0,
    eta: float = 1.0,
) -> CtmdpModel:
    """Random sparse model with declared bounds honored by construction.

    Running costs are uniform in [-1, 1] (K_cost = 1), each rate row's total
    is uniform in [0, K_rate], and impulse costs sit in [0.3, 1.5] with
    c_lower = 0.3.  Deterministic in ``seed``.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_states + 1))
    labels = tuple(f"x{k}" for k in range(n))
    gradual: dict[str, tuple[str, ...]] = {}
    impulsive: dict[str, tuple[str, ...]] = {}
    rate_rows: dict[tuple[str, str], tuple[tuple[str, float], ...]] = {}
    imp_rows: dict[tuple[str, str], tuple[tuple[str, float], ...]] = {}
    gcost: dict[tuple[str, str], float] = {}
    icost: dict[tuple[str, str], float] = {}
    c_lower = 0.3
    for k, s in enumerate(labels):
        n_act = int(rng.integers(1, max_actions + 1))
        acts = tuple(f"g{j}" for j in range(n_act))
        gradual[s] = acts
        for a in acts:
            others = [j for j in range(n) if j != k]
            n_tgt = int(rng.integers(0, min(3, len(others)) + 1))
            row: tuple[tuple[str, float], ...] = ()
            if n_tgt:
                tgt = rng.choice(others, size=n_tgt, replace=False)
                weights = rng.random(n_tgt)
                weights *= float(rng.uniform(0, K_rate)) / weights.sum()
                row = tuple((labels[int(j)], float(wt)) for j, wt in zip(tgt, weights))
            rate_rows[(s, a)] = row
            gcost[(s, a)] = float(rng.uniform(-1.0, 1.0))
        if with_impulses and rng.random() < 0.5:
            impulsive[s] = ("i0",)
            probs = rng.random(n)
            probs /= probs.sum()
            imp_rows[(s, "i0")] = tuple((labels[j], float(p)) for j, p in enumerate(probs))
            icost[(s, "i0")] = float(rng.uniform(c_lower, 1.5))
        else:
            impulsive[s] = ()
    return CtmdpModel(
        states=StateSpace(labels),
        actions=ActionCatalog(gradual=gradual, impulsive=impulsive),
        rates=RateKernel(rows=rate_rows, K_rate=K_rate),
        impulses=ImpulseKernel(rows=imp_rows),
        costs=CostModel(gradual_cost=gcost, impulse_cost=icost,
                        eta=eta, K_cost=1.0, c_lower=c_lower),
    )


def random_value_vector(seed: int, model: CtmdpModel) -> np.ndarray:
    """Random vector inside the [-K/eta, K/eta] box for operator property tests."""
    rng = np.random.default_rng(seed)
    bound = model.K / model.costs.eta
    return rng.uniform(-bound, bound, size=model.states.N)


# An escaped backslash, or the JSON escape of a character past U+FFFF as a surrogate pair.
_PAIR = re.compile(r"\\\\|(\\ud[89ab][0-9a-f]{2}\\ud[c-f][0-9a-f]{2})")


def _yaml_quote(obj) -> str:
    """``obj`` (a string or a list of them) as JSON, which YAML reads as a flow
    scalar or sequence, with each surrogate pair written as YAML's ``\\U`` escape."""
    return _PAIR.sub(lambda p: "\\U%08x" % ord(json.loads(f'"{p[1]}"')) if p[1] else p[0], json.dumps(obj))


def model_document(m: CtmdpModel) -> str:
    """``m`` as a model document: every mapping in its own order, labels and
    actions quoted, floats by ``repr``, so the document parses back to the same tables."""
    q = _yaml_quote

    def rows(key, mapping):
        return [f"  - {{state: {q(x)}, action: {q(a)}, {key}: {{{', '.join(f'{q(t)}: {v!r}' for t, v in row)}}}}}"
                for (x, a), row in mapping.items()]

    def costs(mapping):
        return [f"    - {{state: {q(x)}, action: {q(a)}, value: {v!r}}}" for (x, a), v in mapping.items()]

    def section(head, lines):  # an empty list is written [], not left null
        return [head + ("" if lines else " []")] + lines

    c = m.costs
    return "\n".join(
        ["states: " + q(m.states.labels), "gradual_actions:"]
        + [f"  {q(x)}: {q(acts)}" for x, acts in m.actions.gradual.items()]
        + ["impulsive_actions:"] + [f"  {q(x)}: {q(acts)}" for x, acts in m.actions.impulsive.items()]
        + section("rates:", rows("targets", m.rates.rows))
        + section("impulse_rows:", rows("distribution", m.impulses.rows))
        + ["costs:"] + section("  gradual:", costs(c.gradual_cost)) + section("  impulse:", costs(c.impulse_cost))
        + ["constants:", f"  eta: {c.eta!r}", f"  K_rate: {m.rates.K_rate!r}",
           f"  K_cost: {c.K_cost!r}", f"  c_lower: {c.c_lower!r}", ""])
