"""Model invariants: validation rules, the flat pair tables and the uniformized one-step kernel."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impulsive_ctmdp import build_epidemic_model, uniformized_row, validate_model
from impulsive_ctmdp._ops import compile_model
from impulsive_ctmdp.model import (
    ActionCatalog,
    CostModel,
    CtmdpModel,
    ImpulseKernel,
    RateKernel,
    StateSpace,
)
from impulsive_ctmdp.testing import random_model

from conftest import desk_params, two_state, zero_cost_model
from validation_oracle import reference_validate_model


def one_state_model(cost: float = 0.0) -> CtmdpModel:
    return CtmdpModel(
        states=StateSpace(("a",)),
        actions=ActionCatalog(gradual={"a": ("wait",)}, impulsive={"a": ()}),
        rates=RateKernel(rows={("a", "wait"): ()}, K_rate=1.0),
        impulses=ImpulseKernel(rows={}),
        costs=CostModel(gradual_cost={("a", "wait"): cost}, impulse_cost={},
                        eta=1.0, K_cost=1.0, c_lower=0.3),
    )


def rules(report):
    return sorted(v.rule for v in report)


def test_degenerate_model_is_valid():
    assert validate_model(one_state_model()) == []


def test_running_cost_above_declared_bound():
    report = validate_model(one_state_model(cost=2.0))  # K_cost = 1
    assert rules(report) == ["COST_BOUND"]


def test_substochastic_impulse_row_rejected():
    m = two_state(lam=0.3)
    bad = CtmdpModel(
        states=m.states, actions=m.actions,
        rates=m.rates,
        impulses=ImpulseKernel(rows={("1", "reset"): (("0", 0.9),)}),
        costs=m.costs,
    )
    report = validate_model(bad)
    assert rules(report) == ["ROW_SUM"]
    assert "0.9" in report[0].message


def test_self_loop_rejected_not_dropped():
    m = two_state()
    bad = CtmdpModel(
        states=m.states, actions=m.actions,
        rates=RateKernel(rows={("0", "wait"): (), ("1", "wait"): (("1", 0.5),)},
                         K_rate=1.0),
        impulses=m.impulses, costs=m.costs,
    )
    assert "SELF_LOOP" in rules(validate_model(bad))


def test_negative_rate_and_rate_bound():
    m = two_state()
    bad = CtmdpModel(
        states=m.states, actions=m.actions,
        rates=RateKernel(rows={("0", "wait"): (("1", -0.1),),
                               ("1", "wait"): (("0", 5.0),)},
                         K_rate=1.0),
        impulses=m.impulses, costs=m.costs,
    )
    got = rules(validate_model(bad))
    assert "NEGATIVE_RATE" in got and "RATE_BOUND" in got


def test_coverage_both_directions():
    m = two_state()
    # Rate row for a pair that is not in the catalog.
    extra = CtmdpModel(
        states=m.states, actions=m.actions,
        rates=RateKernel(rows={**m.rates.rows, ("0", "ghost"): ()}, K_rate=1.0),
        impulses=m.impulses, costs=m.costs,
    )
    assert "COVERAGE" in rules(validate_model(extra))
    # Catalog pair with no rate row and no cost.
    missing = CtmdpModel(
        states=m.states,
        actions=ActionCatalog(gradual={"0": ("wait", "extra"), "1": ("wait",)},
                              impulsive=m.actions.impulsive),
        rates=m.rates, impulses=m.impulses, costs=m.costs,
    )
    got = rules(validate_model(missing))
    assert got.count("COVERAGE") == 2


def test_invalid_scalars_flagged():
    m = two_state()
    bad = CtmdpModel(
        states=m.states, actions=m.actions, rates=m.rates, impulses=m.impulses,
        costs=CostModel(gradual_cost=m.costs.gradual_cost, impulse_cost={},
                        eta=0.0, K_cost=1.0, c_lower=0.0),
    )
    got = rules(validate_model(bad))
    assert "DISCOUNT" in got and "IMPULSE_COST_FLOOR" in got


def two_state_with(rate=1.0, prob=1.0, run_cost=1.0, imp_cost=0.3, eta=1.0, K_rate=1.0, K_cost=1.0,
                   c_lower=0.3) -> CtmdpModel:
    """The two-state model with a reset impulse, one number of each kind set by keyword."""
    return CtmdpModel(
        states=StateSpace(("0", "1")),
        actions=ActionCatalog(gradual={"0": ("wait",), "1": ("wait",)}, impulsive={"0": (), "1": ("reset",)}),
        rates=RateKernel(rows={("0", "wait"): (), ("1", "wait"): (("0", rate),)}, K_rate=K_rate),
        impulses=ImpulseKernel(rows={("1", "reset"): (("0", prob),)}),
        costs=CostModel(gradual_cost={("0", "wait"): 0.0, ("1", "wait"): run_cost},
                        impulse_cost={("1", "reset"): imp_cost}, eta=eta, K_cost=K_cost, c_lower=c_lower),
    )


@pytest.mark.parametrize("field, rule", [
    ("rate", "NEGATIVE_RATE"), ("prob", "NEGATIVE_PROB"), ("run_cost", "COST_BOUND"),
    ("imp_cost", "IMPULSE_COST_FLOOR"), ("eta", "DISCOUNT"), ("K_rate", "RATE_BOUND"),
    ("K_cost", "COST_BOUND"), ("c_lower", "IMPULSE_COST_FLOOR"),
])
def test_nan_in_any_number_is_a_violation(field, rule):
    assert validate_model(two_state_with()) == []
    assert rule in rules(validate_model(two_state_with(**{field: float("nan")})))


@pytest.mark.parametrize("field", ["eta", "K_rate", "K_cost", "c_lower"])
def test_non_finite_constants_are_named(field):
    for bad in (float("nan"), float("inf")):
        report = validate_model(two_state_with(**{field: bad}))
        assert any(v.subject == field for v in report), (field, bad, report)


def test_duplicate_state_label():
    m = CtmdpModel(
        states=StateSpace(("a", "a")),
        actions=ActionCatalog(gradual={"a": ("wait",)}, impulsive={"a": ()}),
        rates=RateKernel(rows={("a", "wait"): ()}, K_rate=1.0),
        impulses=ImpulseKernel(rows={}),
        costs=CostModel(gradual_cost={("a", "wait"): 0.0}, impulse_cost={},
                        eta=1.0, K_cost=1.0, c_lower=0.3),
    )
    assert "DUPLICATE_LABEL" in rules(validate_model(m))


def test_validation_is_idempotent():
    m = two_state(lam=0.3)
    first = validate_model(m)
    second = validate_model(m)
    assert first == [] and second == []


def test_uniformized_row_no_jumps_is_point_mass():
    m = two_state()
    row = uniformized_row(m, "0", "wait")
    assert np.array_equal(row, [1.0, 0.0])


def test_uniformized_row_saturated_rate_moves_all_mass():
    # q(0|1) = mu = K, so the leftover diagonal mass vanishes.
    m = two_state()
    row = uniformized_row(m, "1", "wait")
    assert np.array_equal(row, [1.0, 0.0])


def test_uniformized_row_half_rate_splits_evenly():
    m = two_state(rate1=0.5)  # K = 1, rate K/2 to state 0
    row = uniformized_row(m, "1", "wait")
    assert np.allclose(row, [0.5, 0.5], atol=1e-15)


def test_uniformized_row_unknown_pair_raises():
    m = two_state()
    with pytest.raises(KeyError):
        uniformized_row(m, "1", "ghost")


def test_uniformized_rows_are_distributions_on_random_models():
    for seed in range(25):
        m = random_model(seed)
        assert validate_model(m) == []
        for x in m.states.labels:
            for a in m.actions.gradual[x]:
                row = uniformized_row(m, x, a)
                assert abs(row.sum() - 1.0) <= 1e-12
                assert row.min() >= 0.0
                diag_floor = 1.0 - m.rates.total_rate(x, a) / m.K
                assert row[m.states.index[x]] >= diag_floor - 1e-12


def test_zero_cost_model_is_valid():
    assert validate_model(zero_cost_model()) == []


DEFECTS = ("negative_rate", "self_loop", "rate_bound", "substochastic", "cost_bound", "impulse_floor",
           "unknown_target", "extra_row", "extra_cost", "missing_row", "missing_cost", "duplicate_label")


def _insert(d: dict, key, value, rng) -> dict:
    """``d`` with ``key`` inserted at a random position of its order."""
    items = list(d.items())
    items.insert(int(rng.integers(len(items) + 1)), (key, value))
    return dict(items)


def inject(m: CtmdpModel, defects, rng) -> tuple[CtmdpModel, list[str]]:
    """A copy of a dict-built model with the named defects, where the model has room for them."""
    labels = m.states.labels
    rates = {k: list(v) for k, v in m.rates.rows.items()}
    imps = {k: list(v) for k, v in m.impulses.rows.items()}
    gcost, icost = dict(m.costs.gradual_cost), dict(m.costs.impulse_cost)
    applied = []

    def pick(keys):
        keys = list(keys)
        return keys[int(rng.integers(len(keys)))] if keys else None

    # The dict walk visits missing pairs in set order, so one pair per kind goes missing.
    missing = (pick(rates), pick(imps))
    for d in defects:
        use_imps = bool(imps) and rng.random() < 0.5
        if d == "negative_rate" and (key := pick(k for k in rates if rates[k])):
            j = int(rng.integers(len(rates[key])))
            rates[key][j] = (rates[key][j][0], -0.25)
        elif d == "self_loop":
            key = pick(rates)
            rates[key].append((key[0], 0.1))
        elif d == "rate_bound":
            key = pick(rates)
            other = labels[(labels.index(key[0]) + 1) % len(labels)]
            rates[key].append((other, m.rates.K_rate + 0.5))
        elif d == "substochastic" and imps:
            key = pick(imps)
            imps[key] = [(t, 0.9 * p) for t, p in imps[key]]
        elif d == "cost_bound":
            gcost[pick(gcost)] = -1.5
        elif d == "impulse_floor" and icost:
            icost[pick(icost)] = 0.1
        elif d == "unknown_target":
            rows = imps if use_imps else rates
            rows[pick(rows)].append(("ghost", float(rng.choice([0.2, -0.2]))))
        elif d == "extra_row":
            if use_imps:
                imps = _insert(imps, (labels[0], "ghost"), [(labels[0], 1.0)], rng)
            else:
                rates = _insert(rates, (labels[0], "ghost"), [], rng)
        elif d == "extra_cost":
            if use_imps:
                icost = _insert(icost, (labels[-1], "ghost"), 0.5, rng)
            else:
                gcost = _insert(gcost, (labels[-1], "ghost"), 0.0, rng)
        elif d == "missing_row" and missing[use_imps]:
            (imps if use_imps else rates).pop(missing[use_imps], None)
        elif d == "missing_cost" and missing[use_imps]:
            (icost if use_imps else gcost).pop(missing[use_imps], None)
        elif d == "duplicate_label":
            pass
        else:
            continue
        applied.append(d)
    states = m.states
    if "duplicate_label" in defects:
        at = int(rng.integers(len(labels) + 1))
        states = StateSpace(labels[:at] + (labels[int(rng.integers(len(labels)))],) + labels[at:])
    bad = CtmdpModel(
        states=states, actions=m.actions,
        rates=RateKernel(rows={k: tuple(v) for k, v in rates.items()}, K_rate=m.rates.K_rate),
        impulses=ImpulseKernel(rows={k: tuple(v) for k, v in imps.items()}),
        costs=CostModel(gradual_cost=gcost, impulse_cost=icost, eta=m.costs.eta,
                        K_cost=m.costs.K_cost, c_lower=m.costs.c_lower),
    )
    return bad, applied


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), st.sets(st.sampled_from(DEFECTS), min_size=1, max_size=5), st.integers(0, 2**32 - 1))
def test_validation_matches_the_dict_walk(seed, defects, inject_seed):
    m = random_model(seed, max_states=12)
    bad, applied = inject(m, sorted(defects), np.random.default_rng(inject_seed))
    got = validate_model(bad)
    assert got == reference_validate_model(bad)
    assert bool(got) == bool(applied)


def test_validation_matches_the_dict_walk_in_document_order():
    # Rows and costs listed out of state order are reported in the order given.
    m = random_model(4)
    rates = dict(reversed(list(m.rates.rows.items())))
    bad = CtmdpModel(
        states=m.states, actions=m.actions,
        rates=RateKernel(rows={k: tuple((t, -w) for t, w in row) for k, row in rates.items()}, K_rate=0.1),
        impulses=m.impulses,
        costs=CostModel(gradual_cost=dict(reversed(list(m.costs.gradual_cost.items()))),
                        impulse_cost=m.costs.impulse_cost, eta=1.0, K_cost=0.5, c_lower=1.0),
    )
    got = validate_model(bad)
    assert len(got) > 10
    assert got == reference_validate_model(bad)


def test_pairs_without_costs_are_reported_in_catalog_order():
    # The dict walk listed them in set order, which changes with the process's string hash seed.
    labels = ("a", "b", "c")
    m = CtmdpModel(
        states=StateSpace(labels),
        actions=ActionCatalog(gradual={s: ("wait", "go") for s in labels}, impulsive={}),
        rates=RateKernel(rows={(s, a): () for s in labels for a in ("wait", "go")}, K_rate=1.0),
        impulses=ImpulseKernel(rows={}),
        costs=CostModel(gradual_cost={}, impulse_cost={}, eta=1.0, K_cost=1.0, c_lower=0.3),
    )
    assert [v.subject for v in validate_model(m)] == [f"{(s, a)}" for s in labels for a in ("wait", "go")]


def test_structural_defects_are_data_and_block_compilation():
    m = two_state(lam=0.3)
    bad = CtmdpModel(
        states=m.states, actions=m.actions,
        rates=RateKernel(rows={("0", "wait"): (("nowhere", 0.5),)}, K_rate=1.0),
        impulses=m.impulses, costs=m.costs,
    )
    assert [v.rule for v in validate_model(bad)] == ["UNKNOWN_STATE", "COVERAGE"]
    with pytest.raises(ValueError, match="structural defects"):
        compile_model(bad)


def as_array_built(m: CtmdpModel) -> CtmdpModel:
    """The same model through the array constructor (its records become views)."""
    def pair_order(t):
        return replace(t, row_rank=None, cost_rank=None)
    return CtmdpModel.from_arrays(m.states.labels, pair_order(m.gradual_pairs), pair_order(m.impulse_pairs),
                                  K_rate=m.rates.K_rate, eta=m.costs.eta, K_cost=m.costs.K_cost,
                                  c_lower=m.costs.c_lower)


def compiled_arrays(m: CtmdpModel) -> dict:
    comp = compile_model(m)
    out = {"K": np.array(m.K)}
    for name in ("g_ptr", "g_cost", "g_total_rate", "J_cum", "i_states", "i_ptr", "i_cost", "Q_cum"):
        out[name] = getattr(comp, name)
    for name in ("J", "Q_imp"):
        mat = getattr(comp, name)
        out.update({f"{name}.{part}": getattr(mat, part) for part in ("data", "indices", "indptr")})
        out[f"{name}.shape"] = np.array(mat.shape)
    return out


@pytest.mark.parametrize("case", [f"random{seed}" for seed in range(30)] + ["epidemic"])
def test_dict_constructor_round_trips_the_arrays(case):
    if case == "epidemic":
        m = build_epidemic_model(replace(desk_params(c_max=8), S=3))
        dicts = None
    else:
        dicts = random_model(int(case[len("random"):]))
        m = as_array_built(dicts)
    rebuilt = CtmdpModel(states=m.states, actions=m.actions, rates=m.rates, impulses=m.impulses, costs=m.costs)
    assert rebuilt.defects == ()
    assert validate_model(m) == validate_model(rebuilt) == reference_validate_model(m) == []
    a, b = compiled_arrays(m), compiled_arrays(rebuilt)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].dtype == b[name].dtype and a[name].tobytes() == b[name].tobytes(), name
    if dicts is not None:
        assert m.rates.rows == dicts.rates.rows and m.impulses.rows == dicts.impulses.rows
        assert m.costs.gradual_cost == dicts.costs.gradual_cost
        assert m.costs.impulse_cost == dicts.costs.impulse_cost
        assert dict(m.actions.gradual) == dicts.actions.gradual
        assert dict(m.actions.impulsive) == dicts.actions.impulsive


def test_array_built_records_are_read_only_views():
    m = build_epidemic_model(replace(desk_params(c_max=3), S=2))
    assert m.actions.gradual["2,1,0"] == ("wait",) and m.actions.impulsive["0,1,0"] == ()
    assert m.rates.rows[("2,1,0", "wait")] == (("2,2,0", 1.0), ("2,0,0", 1.0), ("1,1,1", 2.0))
    assert m.impulses.rows[("2,1,0", "immunize")] == (("1,1,0", 1.0),)
    assert ("2,1,0", "immunize") in m.costs.impulse_cost and ("0,1,0", "immunize") not in m.costs.impulse_cost
    with pytest.raises(KeyError):
        m.rates.rows[("2,1,0", "immunize")]
    with pytest.raises(TypeError):
        m.rates.rows[("2,1,0", "wait")] = ()
    with pytest.raises(ValueError):
        m.gradual_pairs.weights[0] = 0.0
