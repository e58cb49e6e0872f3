"""Model/parameter document parsing and the command-line workflows."""

import contextlib
import dataclasses
import gc
import inspect
import json
import re
import sys
import time

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from impulsive_ctmdp import build_epidemic_model, cli, extract_policy, solve, validate_model
from impulsive_ctmdp import io as mio
from impulsive_ctmdp.bellman import NonConvergenceError
from impulsive_ctmdp.intervention import ImproperChainError
from impulsive_ctmdp.io import (
    ModelParseError,
    load_epidemic_params,
    load_model,
    parse_epidemic_params,
    parse_model,
    solve_report_table,
)
from impulsive_ctmdp.model import ActionCatalog, CostModel, CtmdpModel, ImpulseKernel, RateKernel, StateSpace
from impulsive_ctmdp.testing import model_document, random_model

from conftest import MODELS_DIR, desk_params

TWO_STATE = MODELS_DIR / "two_state.yaml"
TWO_STATE_IMPULSE = MODELS_DIR / "two_state_impulse.yaml"
EPIDEMIC = MODELS_DIR / "epidemic_desk.yaml"
TYPED_LABELS = MODELS_DIR / "yaml_typed_labels.yaml"


# --- parsing ---------------------------------------------------------------

def test_shipped_models_parse_and_validate():
    for path in (TWO_STATE, TWO_STATE_IMPULSE):
        model = load_model(str(path))
        assert validate_model(model) == []
    params = load_epidemic_params(str(EPIDEMIC))
    assert params.S == 10 and params.immunization_cost == 0.2


def test_parse_model_fields_land_where_expected():
    m = load_model(str(TWO_STATE_IMPULSE))
    assert m.states.labels == ("0", "1")
    assert m.actions.impulsive["1"] == ("reset",)
    assert m.rates.rows[("1", "wait")] == (("0", 1.0),)
    assert m.rates.rows[("0", "wait")] == ()   # absent row means no jumps
    assert m.costs.impulse_cost[("1", "reset")] == 0.3
    assert m.costs.eta == 1.0


def _assert_same_tables(one: CtmdpModel, other: CtmdpModel) -> None:
    assert one.states.labels == other.states.labels
    for kind in ("gradual_pairs", "impulse_pairs"):
        a, b = getattr(one, kind), getattr(other, kind)
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if f.name.endswith("_rank"):  # None means pair order
                x, y = (np.arange(len(a.names)) if r is None else r for r in (x, y))
            assert np.array_equal(x, y), (kind, f.name)


@pytest.mark.parametrize("seed", [*range(20), "desk"])
def test_parsed_random_model_matches_the_built_one(seed):
    # Every desk label holds commas, which an unquoted document cannot carry.
    built = build_epidemic_model(desk_params()) if seed == "desk" else random_model(seed)
    parsed = parse_model(model_document(built))
    _assert_same_tables(built, parsed)
    want, got = solve(built), solve(parsed)
    assert np.array_equal(want.V.values, got.V.values) and want.gap == got.gap
    assert np.array_equal(want.policy.phi_g, got.policy.phi_g)
    assert np.array_equal(want.policy.phi_i, got.policy.phi_i)


# Any character a UTF-8 document can carry, with more weight on those YAML or JSON
# write specially: past U+FFFF, DEL, NEL, the line separator, the BOM, a backslash, a quote.
LABEL = st.text(st.one_of(st.characters(codec="utf-8"), st.sampled_from("\U0001F600\U0010FFFF\x7f\x85\u2028\ufeff\\\"")),
                min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(st.lists(LABEL, min_size=2, max_size=3, unique=True), st.lists(LABEL, min_size=2, max_size=2, unique=True))
def test_model_document_round_trips_any_label(states, actions):
    # JSON writes a character past U+FFFF as a surrogate pair, which YAML rejects.
    a, b = states[:2]
    wait, jump = actions
    built = CtmdpModel(
        states=StateSpace(tuple(states)),
        actions=ActionCatalog(gradual={x: (wait,) for x in states},
                              impulsive={x: (jump,) if x == a else () for x in states}),
        rates=RateKernel(rows={(x, wait): ((b, 1.0),) if x == a else () for x in states}, K_rate=1.0),
        impulses=ImpulseKernel(rows={(a, jump): ((b, 1.0),)}),
        costs=CostModel(gradual_cost={(x, wait): 1.0 for x in states}, impulse_cost={(a, jump): 0.5},
                        eta=1.0, K_cost=1.0, c_lower=0.5),
    )
    text = model_document(built)
    parsed = parse_model(text)
    assert parsed.states.labels == built.states.labels and not validate_model(parsed)
    assert dict(parsed.actions.gradual) == dict(built.actions.gradual)
    assert model_document(parsed) == text


def test_parse_model_runs_no_garbage_collection():
    # A 377 KB document: the parse used to set off 162 collections, over a third of its time.
    text = model_document(random_model(1, max_states=300))
    body = inspect.unwrap(parse_model).__code__
    seen = []

    def hook(phase, info):
        if phase == "start":
            frame, inside = sys._getframe(), False
            while frame is not None and not inside:
                inside, frame = frame.f_code is body, frame.f_back
            seen.append((info["generation"], inside))

    # Which generation the collector picks on resuming depends on the passes made
    # before; a full collection first resets those counts, as in a fresh process.
    gc.collect()
    gc.callbacks.append(hook)
    try:
        parse_model(text)
    finally:
        gc.callbacks.remove(hook)
    # None runs while the document is parsed; the objects it left behind get at
    # most one young-generation pass once the collector resumes.
    assert seen in ([], [(0, False)])


@pytest.mark.parametrize("text", [
    TWO_STATE.read_text(),
    TWO_STATE.read_text().replace("eta: 1.0", "eta: fast"),
    "states: [a\n",
], ids=["parsed", "parse-error", "yaml-error"])
@pytest.mark.parametrize("enabled", [True, False])
def test_parse_model_leaves_the_collector_as_it_found_it(text, enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        with contextlib.suppress(ModelParseError):
            parse_model(text)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


LOADERS = (yaml.SafeLoader, yaml.CSafeLoader)


def _parse_with(monkeypatch, base: type, text: str):
    """The model parsed with the untyped mix-in over ``base``, or its parse error's text."""
    monkeypatch.setattr(mio, "_TextLoader", type("TextLoader", (mio._Untyped, base), {}))
    try:
        return parse_model(text)
    except ModelParseError as exc:
        return str(exc)


def test_both_loaders_parse_alike(monkeypatch):
    # The pure-Python loader stands in when PyYAML lacks libyaml; documents
    # compose with the untyped mix-in over either base.
    assert mio._TextLoader.__bases__ == (mio._Untyped, mio._LOADER)
    for seed in range(5):
        python, libyaml = (_parse_with(monkeypatch, loader, model_document(random_model(seed))) for loader in LOADERS)
        _assert_same_tables(python, libyaml)
        assert python.actions.gradual == libyaml.actions.gradual
        assert python.actions.impulsive == libyaml.actions.impulsive
    text = model_document(random_model(0))
    for bad in (text.replace("eta: 1.0", "eta: fast"), text.replace("K_rate:", "K_rat:"),
                text + 'states: ["x0"]\n'):
        python, libyaml = (_parse_with(monkeypatch, loader, bad) for loader in LOADERS)
        assert python == libyaml and re.search(r"\(line \d+\)", python), (python, libyaml)


@pytest.mark.parametrize("old, new, message", [
    ('    targets:\n      "0": 1.0\n', '    targets:\n      "0": fast\n',
     "rates.targets.0 (line 13): expected a number, got 'fast'"),
    ('    targets:\n      "0": 1.0\n', '    targets:\n      "0": [1.0]\n',
     "rates.targets.0 (line 13): expected a scalar"),
    ('    distribution:\n      "0": 1.0\n', '    distribution:\n      "0": "1,0"\n',
     "impulse_rows.distribution.0 (line 18): expected a number, got '1,0'"),
    ("value: 0.0}", "value: zero}", "costs.gradual.value (line 21): expected a number, got 'zero'"),
    ("value: 0.3}", "value: {v: 0.3}}", "costs.impulse.value (line 24): expected a scalar"),
    ("eta: 1.0\n", "eta: fast\n", "constants.eta (line 26): expected a number, got 'fast'"),
    ("c_lower: 0.3\n", "c_lower: [0.3]\n", "constants.c_lower (line 29): expected a scalar"),
    ('  "0": [wait]\n', '  "0": [[wait]]\n', "gradual_actions.0[] (line 5): expected a scalar"),
    ('  "1": [reset]\n', '  "1": reset\n', "impulsive_actions.1 (line 8): expected a list"),
    ('    targets:\n      "0": 1.0\n', "", "rates[] (line 10): missing key 'targets'"),
    ("    action: reset\n", "", "impulse_rows[] (line 15): missing key 'action'"),
    ('{state: "0", ', "{", "costs.gradual[] (line 21): missing key 'state'"),
    ('  - state: "1"\n    action: wait\n', '  - state: ["1"]\n    action: wait\n',
     "rates.state (line 10): expected a scalar"),
    ('states: ["0", "1"]', 'states: ["0", ["1"]]', "states[] (line 3): expected a scalar"),
], ids=["rate-target", "rate-target-list", "impulse-target", "gradual-cost", "impulse-cost", "constant",
        "constant-list", "gradual-action", "impulsive-actions", "rates-item", "impulse-rows-item",
        "gradual-cost-item", "rates-state", "state"])
def test_parse_errors_cite_field_and_line_alike_on_both_loaders(monkeypatch, old, new, message):
    # The whole text, field name and line included, as each loader reports it.
    text = TWO_STATE_IMPULSE.read_text()
    assert text.count(old) == 1
    for loader in LOADERS:
        assert _parse_with(monkeypatch, loader, text.replace(old, new)) == message, loader


def test_labels_and_numbers_yaml_would_type_are_read_as_written(monkeypatch):
    # yes, on, null, ~, true, 0x1F, 1_000, 2001-12-14, .5 and +1 are scalars YAML 1.1 types.
    text = TYPED_LABELS.read_text()
    m = parse_model(text)
    assert m.states.labels == ("yes", "on", "null", "~", "true", "0x1F")
    assert m.actions.gradual["null"] == ("1_000", "2001-12-14") and m.actions.impulsive["~"] == (".5",)
    assert m.rates.rows[("yes", "1_000")] == (("on", 0.5), ("null", 1.0))
    assert m.costs.gradual_cost[("null", "2001-12-14")] == 1000.0 and m.costs.eta == 1.0
    _assert_same_tables(m, parse_model(model_document(m)))
    for resolving in LOADERS:
        monkeypatch.setattr(mio, "_TextLoader", resolving)
        _assert_same_tables(m, parse_model(text))


def test_missing_section_is_reported():
    with pytest.raises(ModelParseError, match="missing required section 'costs'"):
        parse_model("states: [a]\ngradual_actions: {a: [w]}\nrates: []\nconstants: {}\n")


def test_bad_number_cites_line():
    text = TWO_STATE.read_text().replace("eta: 1.0", "eta: fast")
    with pytest.raises(ModelParseError, match=r"line \d+"):
        parse_model(text)


def test_wrong_shape_cites_field():
    with pytest.raises(ModelParseError, match="states"):
        parse_model("states: {a: 1}\ngradual_actions: {}\nrates: []\ncosts: {}\nconstants: {}\n")
    with pytest.raises(ModelParseError, match="empty"):
        parse_model("")


@pytest.mark.parametrize("old, new, field, line", [
    ("c_lower: 0.3\n", "c_lower: 0.3\nimpulsive_actions: {}\n", "document", 30),
    ("c_lower: 0.3\n", "c_lower: 0.3\n  eta: 2.0\n", "constants", 30),
    ('  "1": [wait]\n', '  "1": [wait]\n  "1": [wait]\n', "gradual_actions", 7),
    ('  "1": [reset]\n', '  "1": [reset]\n  "1": [reset]\n', "impulsive_actions", 9),
    ("rates:\n", 'rates:\n  - {state: "1", action: wait, targets: {"0": 2.0}}\n', "rates[]", 11),
    ("impulse_rows:\n", 'impulse_rows:\n  - {state: "1", action: reset, distribution: {"0": 1.0}}\n',
     "impulse_rows[]", 16),
    ('    - {state: "1", action: wait, value: 1.0}\n', '    - {state: "1", action: wait, value: 1.0}\n' * 2,
     "costs.gradual[]", 23),
    ('    - {state: "1", action: reset, value: 0.3}\n', '    - {state: "1", action: reset, value: 0.3}\n' * 2,
     "costs.impulse[]", 25),
    ('    targets:\n      "0": 1.0\n', '    targets:\n      "0": 0.5\n      "0": 0.5\n', "rates.targets", 14),
    ('    targets:\n      "0": 1.0\n', '    targets:\n      "0": 0.6\n      "0": 0.6\n', "rates.targets", 14),
    ('    distribution:\n      "0": 1.0\n', '    distribution:\n      "0": 0.5\n      "0": 0.5\n',
     "impulse_rows.distribution", 19),
    ('    targets:\n      "0": 1.0\n', '    targets:\n      "0": 1.0\n    targets:\n      "0": 0.5\n',
     "rates[]", 14),
    ("    action: reset\n", "    action: reset\n    action: reset\n", "impulse_rows[]", 17),
    ("value: 0.0}", "value: 0.0, value: 5.0}", "costs.gradual[]", 21),
    ('value: 0.3}', 'value: 0.3, state: "1"}', "costs.impulse[]", 24),
    ('  "0": [wait]\n', '  "0": [wait, wait]\n', "gradual_actions.0[]", 5),
    ('  "1": [reset]\n', '  "1": [reset, reset]\n', "impulsive_actions.1[]", 8),
], ids=["section", "constant", "gradual-state", "impulsive-state", "rates-pair", "impulse-rows-pair",
        "gradual-cost-pair", "impulse-cost-pair", "rate-target", "rate-target-over-bound",
        "impulse-target", "rates-item-key", "impulse-rows-item-key", "gradual-cost-item-key",
        "impulse-cost-item-key", "gradual-action", "impulsive-action"])
def test_repeated_entries_are_parse_errors(tmp_path, capsys, old, new, field, line):
    # A repeated pair used to overwrite the first entry silently, a repeated
    # target label was kept twice and summed, a repeated item key kept the
    # last value, and a repeated action label made two identical pairs.
    text = TWO_STATE_IMPULSE.read_text()
    assert text.count(old) == 1
    with pytest.raises(ModelParseError, match=rf"^{re.escape(field)} \(line {line}\): repeated entry"):
        parse_model(text.replace(old, new))
    doc = tmp_path / "repeat.yaml"
    doc.write_text(text.replace(old, new))
    assert cli.run(["validate", "--model", str(doc)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"]["type"] == "parse"


@pytest.mark.parametrize("old, new, field, line", [
    ("c_lower: 0.3\n", "c_lower: 0.3\ncomment: x\n", "document", 30),
    ("c_lower: 0.3\n", "c_lower: 0.3\n  K_rates: 9.0\n", "constants", 30),
    ("  impulse:\n", "  impulses:\n", "costs", 23),
    ("    action: wait\n", "    action: wait\n    rate: 5.0\n", "rates[]", 12),
    ("    action: reset\n", "    action: reset\n    weight: 1.0\n", "impulse_rows[]", 17),
    ("value: 0.0}", "value: 0.0, note: x}", "costs.gradual[]", 21),
    ("value: 0.3}", "value: 0.3, note: x}", "costs.impulse[]", 24),
], ids=["section", "constant", "costs-section", "rates-item", "impulse-rows-item", "gradual-cost-item",
        "impulse-cost-item"])
def test_unknown_keys_are_parse_errors(tmp_path, capsys, old, new, field, line):
    # Unknown keys used to be ignored, so a misspelt key solved without it.
    text = TWO_STATE_IMPULSE.read_text()
    assert text.count(old) == 1
    with pytest.raises(ModelParseError, match=rf"^{re.escape(field)} \(line {line}\): unknown key"):
        parse_model(text.replace(old, new))
    doc = tmp_path / "unknown.yaml"
    doc.write_text(text.replace(old, new))
    assert cli.run(["validate", "--model", str(doc)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"]["type"] == "parse"


def test_unknown_params_key_is_a_parse_error(tmp_path, capsys):
    text = EPIDEMIC.read_text().replace("lambda: 0.2\n", "lambda: 0.2\nmu: 1.0\n")
    with pytest.raises(ModelParseError, match=r"^document \(line 12\): unknown key 'mu'"):
        parse_epidemic_params(text)
    doc = tmp_path / "params.yaml"
    doc.write_text(text)
    assert cli.run(["epidemic-solve", "--params", str(doc), "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"]["type"] == "parse"


def test_params_missing_field():
    with pytest.raises(ModelParseError, match="missing required field 'kappa_i'"):
        parse_epidemic_params("S: 1\nI: 1\nc0: 0\nC_max: 2\neta: 1\nkappa_r: 1\n"
                              "lambda: 0.2\nrho_b: [0]\nrho_d: [0]\n")


def test_params_c_max_override():
    params = load_epidemic_params(str(EPIDEMIC), c_max_override=10)
    assert params.C_max == 10 and len(params.kappa_i) == 11
    # The document's own entry is still checked; it used to be skipped.
    with pytest.raises(ModelParseError, match=r"^C_max \(line 8\): expected an integer, got 'many'"):
        parse_epidemic_params(EPIDEMIC.read_text().replace("C_max: 30", "C_max: many"), c_max_override=10)


def test_params_semantic_error_wrapped():
    text = EPIDEMIC.read_text().replace("rho_b: [0.0, 1.0]", "rho_b: [0.7, 1.0]")
    with pytest.raises(ModelParseError, match="vanish at c=0"):
        parse_epidemic_params(text)


@pytest.mark.parametrize("name, table, message", [
    ("rho_b", "[]", "table is empty"), ("rho_d", "[]", "table is empty"), ("kappa_i", "[]", "table is empty"),
    ("rho_b", "[0, inf]", "must be finite and nonnegative"),
    ("kappa_i", "[0, inf]", "must be finite and nonnegative"),
])
def test_cli_bad_rate_table_exits_2_at_once(tmp_path, capsys, name, table, message):
    # An empty table used to end in an IndexError traceback (exit 1); an infinite
    # entry passed the sign check, and the carrier iteration stepped NaN until its cap.
    text = re.sub(rf"^{name}: .*$", f"{name}: {table}", EPIDEMIC.read_text(), count=1, flags=re.M)
    assert f"\n{name}: {table}\n" in text
    _assert_parse_error_at_once(tmp_path, capsys, text, f"{name} {message}")


def test_cli_overflowing_rates_exit_2_at_once(tmp_path, capsys):
    # Each entry is finite, but eta + rho_b + rho_d + kappa_i overflows; epidemic-solve
    # used to run on NaN carrier coefficients until a timeout killed it.
    text = EPIDEMIC.read_text()
    for line in ("eta: 1.0e-10", "rho_b: [0, 1.0e308]", "rho_d: [0, 1.0e308]", "kappa_i: [0, 1.0e300]"):
        text = re.sub(rf"^{line.split(':')[0]}: .*$", line, text, count=1, flags=re.M)
        assert f"\n{line}\n" in text
    _assert_parse_error_at_once(tmp_path, capsys, text, "eta + rho_b + rho_d + kappa_i and")


def _assert_parse_error_at_once(tmp_path, capsys, text, message):
    doc = tmp_path / "params.yaml"
    doc.write_text(text)
    start = time.perf_counter()
    assert cli.run(["epidemic-solve", "--params", str(doc), "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "parse" and message in error["message"]


# --- CLI -------------------------------------------------------------------

def test_cli_validate_shipped_model(capsys):
    assert cli.run(["validate", "--model", str(TWO_STATE)]) == 0
    out = capsys.readouterr().out
    assert "valid: true" in out and "violations: []" in out


def test_cli_validate_bad_model(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(TWO_STATE_IMPULSE.read_text().replace('"0": 1.0\ncosts', '"0": 0.9\ncosts'))
    assert cli.run(["validate", "--model", str(bad)]) == 3
    out, err = capsys.readouterr()
    assert "ROW_SUM" in out and "valid: false" in out
    # The report goes to stdout; the JSON error record ends stderr, as for solve.
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": {"code": 3, "type": "validation", "message": "model validation failed"}}


def test_cli_missing_file_is_parse_error(capsys):
    assert cli.run(["solve", "--model", "does-not-exist.yaml"]) == 2
    assert '"code": 2' in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--model", "--config"])
def test_cli_directory_path_is_parse_error(capsys, flag):
    argv = ["validate", "--model", str(TWO_STATE)] if flag == "--config" else ["validate"]
    assert cli.run(argv + [flag, str(MODELS_DIR)]) == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["code"] == 2 and "Is a directory" in err["message"]


def test_cli_missing_required_flag(capsys):
    assert cli.run(["solve"]) == 2
    assert cli.run(["epidemic-solve"]) == 2


def test_cli_solve_reports_closed_form(tmp_path):
    out = tmp_path / "run"
    assert cli.run(["solve", "--model", str(TWO_STATE_IMPULSE), "--out", str(out)]) == 0
    rows = (out / "values.csv").read_text().strip().splitlines()
    header, r0, r1 = rows
    assert header == "state,value,partition,action"
    assert r1.startswith("1,") and "impulsive,reset" in r1
    assert abs(float(r1.split(",")[1]) - 0.3) <= 1e-9
    assert "gradual,wait" in r0


def test_cli_values_table_has_no_negative_zero(tmp_path):
    # The absorbing zero-cost state solves to -0.0 in the sparse LU.
    out = tmp_path / "run"
    assert cli.run(["solve", "--model", str(TWO_STATE_IMPULSE), "--out", str(out)]) == 0
    assert (out / "values.csv").read_text().splitlines()[1] == "0,0.0,gradual,wait"
    sim = tmp_path / "sim"
    assert cli.run(["simulate", "--model", str(TWO_STATE_IMPULSE), "--x0", "0",
                    "--reps", "20", "--out", str(sim)]) == 0
    assert "solved_value_at_x0: 0.0\n" in (sim / "report.yaml").read_text()


def test_cli_solve_at_loose_tolerance(tmp_path):
    # Value iteration stopped at tol=1e-6 left V too far from a fixed point
    # for extract_policy's tol_set, which raised PolicyExtractionError.
    out = tmp_path / "run"
    assert cli.run(["solve", "--model", str(TWO_STATE_IMPULSE), "--tol", "1e-6", "--out", str(out)]) == 0
    assert "impulsive,reset" in (out / "values.csv").read_text()


def test_cli_outputs_are_byte_identical_across_runs(tmp_path):
    out = tmp_path / "run"
    outs = []
    for _ in range(2):
        assert cli.run(["simulate", "--model", str(TWO_STATE), "--x0", "1",
                        "--reps", "200", "--seed", "7", "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    a, b = outs
    assert set(a) == {"report.yaml", "trajectory0.csv"}
    for name in a:
        assert a[name] == b[name]


def test_cli_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("reps: 50\nseed: 1\n")
    assert cli.run(["simulate", "--model", str(TWO_STATE), "--x0", "1",
                    "--config", str(cfg), "--reps", "80"]) == 0
    out = capsys.readouterr().out
    assert "n_replications: 80" in out   # flag beats file
    assert "seed: 1" in out              # file beats default


def test_cli_config_file_rejects_unknown_keys(tmp_path, capsys):
    # A misspelt key used to be ignored for its default and echoed into report.yaml.
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("reps: 20\ntail-toll: 1e-4\n")
    out = tmp_path / "run"
    assert cli.run(["simulate", "--model", str(TWO_STATE_IMPULSE), "--config", str(cfg),
                    "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["code"] == 2 and "'tail-toll'" in err["message"]
    assert not out.exists()
    cfg.write_text("reps: 20\ntail-tol: 1.0e-4\nmodel: ignored-by-the-flag.yaml\n")
    assert cli.run(["simulate", "--model", str(TWO_STATE_IMPULSE), "--config", str(cfg),
                    "--out", str(out)]) == 0
    assert "tail_tol: 0.0001" in (out / "report.yaml").read_text()


@pytest.mark.parametrize("config, key", [
    ("reps: 100\nreps: 200\n", "reps"),
    ("tail-tol: 1.0e-4\ntail_tol: 1.0e-5\n", "tail_tol"),
], ids=["same-spelling", "dash-and-underscore"])
def test_cli_config_file_rejects_repeated_keys(tmp_path, capsys, config, key):
    # A repeated key used to run silently with its last value.
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config)
    out = tmp_path / "run"
    assert cli.run(["simulate", "--model", str(TWO_STATE), "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["code"] == 2 and err["type"] == "parse"
    assert err["message"] == f"{cfg} (line 2): repeated entry {key!r}"
    assert not out.exists()


def test_cli_empty_config_file_holds_no_settings(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("# nothing set here\n")
    runs = []
    for extra in ([], ["--config", str(cfg)]):
        out = tmp_path / "run"
        assert cli.run(["solve", "--model", str(TWO_STATE_IMPULSE), "--out", str(out)] + extra) == 0
        runs.append((out / "report.yaml").read_bytes())
    assert runs[0] == runs[1]


def test_cli_config_and_flag_values_echo_alike(tmp_path):
    # YAML reads `1e-10` as text and a flag gave a float, so the two echoed
    # `tol: 1e-10` and `tol: 1.0e-10`; both now go through one converter.
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("tol: 1e-10\nreps: 20\nx0: 1\n")
    out = tmp_path / "run"
    reports = []
    for extra in (["--config", str(cfg)], ["--tol", "1e-10", "--reps", "20", "--x0", "1"]):
        assert cli.run(["simulate", "--model", str(TWO_STATE_IMPULSE), "--out", str(out)] + extra) == 0
        reports.append((out / "report.yaml").read_bytes())
    assert reports[0] == reports[1]
    assert b"  tol: 1.0e-10\n" in reports[0] and b"  x0: '1'\n" in reports[0]


@pytest.mark.parametrize("argv", [
    ["solve", "--model", str(TWO_STATE), "--bogus"],
    ["solve", "--reps"],
    ["no-such-command"],
    [],
], ids=["unknown-flag", "flag-without-value", "unknown-command", "no-command"])
def test_cli_argument_errors_print_the_json_record(capsys, argv):
    # argparse used to print its usage text and exit with no JSON record.
    assert cli.run(argv) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["code"] == 2 and err["type"] == "usage"


def test_cli_config_file_initial_state_is_a_label(tmp_path, capsys):
    # YAML reads `x0: 1` as an integer; state labels are strings.
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("x0: 1\nreps: 20\n")
    assert cli.run(["simulate", "--model", str(TWO_STATE_IMPULSE), "--config", str(cfg)]) == 0
    assert "solved_value_at_x0: 0.3" in capsys.readouterr().out


def test_cli_epidemic_solve_reports_threshold(tmp_path):
    out = tmp_path / "epi"
    assert cli.run(["epidemic-solve", "--params", str(EPIDEMIC), "--out", str(out)]) == 0
    report = (out / "report.yaml").read_text()
    assert "c_star: 2" in report
    assert "lambda_star: 0.45454545454545453" in report
    assert (out / "carrier_value.csv").exists()


def test_cli_epidemic_sweep(capsys):
    assert cli.run(["epidemic-sweep", "--params", str(EPIDEMIC),
                    "--lambdas", "0.1,0.5"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(lines) == 2
    assert lines[1].startswith("0.5,,")   # empty c_star column = never intervene


def test_cli_dynkin_check(capsys):
    assert cli.run(["dynkin-check", "--model", str(TWO_STATE), "--x0", "1",
                    "--reps", "500", "--seed", "9"]) == 0
    assert "within_3_sigma: true" in capsys.readouterr().out


def test_cli_nonconvergence_exit_code(monkeypatch, capsys):
    def boom(model, tol):
        raise NonConvergenceError("no", np.zeros(1), 1.0, 1)
    monkeypatch.setattr(cli, "solve", boom)
    assert cli.run(["solve", "--model", str(TWO_STATE)]) == 4
    assert '"code": 4' in capsys.readouterr().err


def test_cli_carrier_tol_below_the_roundoff_floor_exits_4(tmp_path, capsys):
    # The carrier residual at this price is about one ulp of v, 1.1e-16, above --tol 1e-20.
    doc = tmp_path / "near_critical.yaml"
    doc.write_text(EPIDEMIC.read_text().replace("lambda: 0.2", "lambda: 0.431818181818"))
    assert cli.run(["epidemic-solve", "--params", str(doc), "--tol", "1e-20", "--out", str(tmp_path / "out")]) == 4
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["code"] == 4 and "carrier residual 1.1102230246251565e-16 exceeds tol=1e-20" in error["message"]
    assert cli.run(["epidemic-solve", "--params", str(doc), "--out", str(tmp_path / "out")]) == 0


def test_cli_carrier_equation_that_does_not_contract_exits_3(tmp_path, capsys):
    # sup(alpha1 + alpha2) rounds to 1.0: a validation failure with the JSON error record.
    doc = tmp_path / "no_contraction.yaml"
    text = EPIDEMIC.read_text()
    text = text.replace("eta: 1.0", "eta: 1.0e-20").replace("kappa_i: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]", "kappa_i: [0, 1.0e-20]")
    assert "eta: 1.0e-20" in text and "kappa_i: [0, 1.0e-20]" in text
    doc.write_text(text)
    assert cli.run(["epidemic-solve", "--params", str(doc), "--out", str(tmp_path / "out")]) == 3
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["code"] == 3 and error["type"] == "validation"
    assert "sup(alpha1 + alpha2) = 1.0 >= 1" in error["message"]


def test_cli_improper_chain_exit_code(monkeypatch, capsys):
    def boom(model, tol):
        raise ImproperChainError("loop", "1")
    monkeypatch.setattr(cli, "solve", boom)
    assert cli.run(["solve", "--model", str(TWO_STATE)]) == 5
    assert '"code": 5' in capsys.readouterr().err


def test_cli_values_table_lists_the_solved_policy(tmp_path):
    # The reset beats waiting (value 0.5) by 5e-9, inside extract_policy's
    # default tol_set but far above roundoff: solve's policy resets, and
    # values.csv writes that policy, not a second extraction that waits.
    doc = tmp_path / "near_tie.yaml"
    doc.write_text(TWO_STATE_IMPULSE.read_text().replace("value: 0.3}", "value: 0.499999995}"))
    model = load_model(str(doc))
    report = solve(model)
    assert report.policy.impulsive[1] and not extract_policy(model, report.V).impulsive[1]
    out = tmp_path / "run"
    assert cli.run(["solve", "--model", str(doc), "--out", str(out)]) == 0
    values = (out / "values.csv").read_text()
    assert values == solve_report_table(model, report, report.policy)
    assert values.splitlines()[2] == "1,0.499999995,impulsive,reset"


def test_cli_unknown_initial_state_exit_code(capsys):
    assert cli.run(["simulate", "--model", str(TWO_STATE_IMPULSE), "--x0", "x5"]) == 2
    assert '"code": 2' in capsys.readouterr().err


@pytest.mark.parametrize("args, config, name", [
    (["simulate", "--model", TWO_STATE, "--tail-tol", "0"], None, "tail-tol"),
    (["solve", "--model", TWO_STATE, "--tol", "nan"], None, "tol"),
    (["simulate", "--model", TWO_STATE, "--reps", "1"], None, "reps"),
    (["simulate", "--model", TWO_STATE, "--threads", "0"], None, "threads"),
    (["simulate", "--model", TWO_STATE, "--seed", "-1"], None, "seed"),
    (["dynkin-check", "--model", TWO_STATE, "--t-horizon", "0"], None, "t-horizon"),
    (["dynkin-check", "--model", TWO_STATE, "--t-horizon", "inf"], None, "t-horizon"),
    (["epidemic-solve", "--params", EPIDEMIC, "--tol", "0"], None, "tol"),
    (["epidemic-solve", "--params", EPIDEMIC, "--c-max", "0"], None, "c-max"),
    (["epidemic-sweep", "--params", EPIDEMIC, "--lambdas", "abc"], None, "lambdas"),
    (["epidemic-sweep", "--params", EPIDEMIC, "--lambdas", "0.1,-1"], None, "lambdas"),
    (["epidemic-sweep", "--params", EPIDEMIC, "--lambdas", "nan"], None, "lambdas"),
    (["solve", "--model", TWO_STATE], "tol: abc\n", "tol"),
    (["simulate", "--model", TWO_STATE], "reps: .inf\n", "reps"),
    (["epidemic-sweep", "--params", EPIDEMIC], "lambdas: [0.1, 0.0]\n", "lambdas"),
    (["simulate", "--model", TWO_STATE], "reps: 20.9\n", "reps"),
    (["simulate", "--model", TWO_STATE], "threads: 1.5\n", "threads"),
    (["simulate", "--model", TWO_STATE], "seed: 1.5\n", "seed"),
    (["epidemic-solve", "--params", EPIDEMIC], "c_max: 10.5\n", "c-max"),
    (["solve", "--model", TWO_STATE], "tol: true\n", "tol"),
    (["simulate", "--model", TWO_STATE], "seed: false\n", "seed"),
    (["simulate", "--model", TWO_STATE, "--reps", "1.5"], None, "reps"),
    (["solve", "--model", TWO_STATE, "--tol", "abc"], None, "tol"),
    (["simulate", "--model", TWO_STATE, "--seed", "x"], None, "seed"),
], ids=["tail-tol-0", "tol-nan", "reps-1", "threads-0", "seed-negative", "t-horizon-0", "t-horizon-inf",
        "carrier-tol-0", "c-max-0", "lambdas-abc", "lambdas-negative", "lambdas-nan", "config-tol-abc",
        "config-reps-inf", "config-lambdas-zero", "config-reps-fraction", "config-threads-fraction",
        "config-seed-fraction", "config-c-max-fraction", "config-tol-bool", "config-seed-bool",
        "reps-fraction", "tol-text", "seed-text"])
def test_cli_numeric_options_out_of_range_are_usage_errors(tmp_path, capsys, args, config, name):
    argv = [str(a) for a in args]
    if config is not None:
        (tmp_path / "cfg.yaml").write_text(config)
        argv += ["--config", str(tmp_path / "cfg.yaml")]
    assert cli.run(argv) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["code"] == 2 and err["type"] == "usage"
    assert err["message"].startswith(f"{name} must be ")


@pytest.mark.parametrize("args, config, name", [
    (["solve", "--model", TWO_STATE], "out: 123\n", "out"),
    (["solve"], "model: [a, b]\n", "model"),
    (["epidemic-solve"], "params: 7\n", "params"),
], ids=["config-out-number", "config-model-list", "config-params-number"])
def test_cli_config_paths_must_be_strings(tmp_path, capsys, monkeypatch, args, config, name):
    # These used to end in a TypeError traceback (exit 1), and `params: 7`
    # read file descriptor 7.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.yaml").write_text(config)
    assert cli.run([str(a) for a in args] + ["--config", "cfg.yaml"]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["code"] == 2 and err["type"] == "usage"
    assert err["message"].startswith(f"{name} must be a path")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]


def test_cli_internal_value_error_is_not_a_validation_failure(monkeypatch):
    def boom(model, tol):
        raise ValueError("a bug, not bad input")
    monkeypatch.setattr(cli, "solve", boom)
    with pytest.raises(ValueError, match="a bug"):
        cli.run(["solve", "--model", str(TWO_STATE)])


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_cli_nan_rate_fails_validation(tmp_path, capsys, command):
    bad = tmp_path / "nan.yaml"
    bad.write_text(TWO_STATE.read_text().replace('"0": 1.0', '"0": nan'))
    assert cli.run([command, "--model", str(bad)]) == 3
    captured = capsys.readouterr()
    assert "NEGATIVE_RATE" in captured.out + captured.err


# --- mutated documents -------------------------------------------------------

class _Pairs(list):
    """A YAML mapping as a list of [key, value] entries, so that a key can repeat."""


def _tree(node):
    if isinstance(node, dict):
        return _Pairs([k, _tree(v)] for k, v in node.items())
    return [_tree(v) for v in node] if isinstance(node, list) else node


def _flow(node) -> str:
    """The tree as one flow-style YAML line; NaN is written as the plain scalar ``NaN``."""
    if isinstance(node, _Pairs):
        return "{" + ", ".join(f"{_flow(k)}: {_flow(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(_flow, node)) + "]"
    return json.dumps(node)


def _mappings(node, path=()):
    """Every mapping in the tree with its path of keys and list indices."""
    if isinstance(node, _Pairs):
        yield path, node
    items = node if isinstance(node, _Pairs) else enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield from _mappings(v, path + (k,))


def _entries(tree):
    return [(path, m, i) for path, m in _mappings(tree) for i in range(len(m))]


def _required(path: tuple, key) -> bool:
    """Whether the document is invalid without this entry.  A rate row may
    lose a target and stay valid, and the impulse and cost sections may be
    absent in a model without impulses."""
    if not path:
        return key in ("states", "gradual_actions", "rates", "costs", "constants")
    return path == ("gradual_actions",) or path[-1] in ("constants", "distribution") or isinstance(path[-1], int)


def _drop(tree, draw):
    m, i = draw(st.sampled_from([(m, i) for path, m, i in _entries(tree) if _required(path, m[i][0])]))
    del m[i]


def _repeat(tree, draw):
    m, i = draw(st.sampled_from([(m, i) for _, m, i in _entries(tree)]))
    m.insert(i, list(m[i]))


def _unknown_key(tree, draw):
    draw(st.sampled_from([m for _, m in _mappings(tree)])).append(["bogus", 1.0])


def _not_a_number(tree, draw):
    m, i = draw(st.sampled_from([(m, i) for _, m, i in _entries(tree) if type(m[i][1]) is float]))
    m[i][1] = draw(st.sampled_from(["abc", float("nan")]))


def _self_loop(tree, draw):
    item = dict(draw(st.sampled_from(dict(tree)["rates"])))
    item["targets"].append([item["state"], 0.5])


def _stranger(tree, draw):
    rows = [m for path, m in _mappings(tree) if path[-1:] in (("targets",), ("distribution",))]
    draw(st.sampled_from(rows)).append(["nope", 0.5])


MUTATIONS = {f.__name__[1:]: f for f in (_drop, _repeat, _unknown_key, _not_a_number, _self_loop, _stranger)}


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.sampled_from([None, 0, 1, 2, 7]), mutation=st.sampled_from(sorted(MUTATIONS)), data=st.data())
def test_mutated_documents_exit_2_or_3_with_the_json_record(tmp_path, capsys, seed, mutation, data):
    # seed None is the shipped two-state document; random model 7 has no impulses.
    text = TWO_STATE_IMPULSE.read_text() if seed is None else model_document(random_model(seed, max_states=5))
    tree = _tree(yaml.safe_load(text))
    MUTATIONS[mutation](tree, data.draw)
    doc = tmp_path / "mutated.yaml"
    doc.write_text(_flow(tree))
    code = cli.run(["solve", "--model", str(doc)])
    err = capsys.readouterr().err
    assert code in (2, 3), (mutation, _flow(tree))
    assert json.loads(err.strip().splitlines()[-1])["error"]["code"] == code


# Values some converter rejects; each mutation draws one its key's converter rejects.
_BAD_VALUES = [None, True, -1, 0, 1.5, 1e400, -1e400, float("nan"), "", "abc", "0.1,x", [], [1.5], {"a": 1}]


def _valid_entry(key, tmp_path):
    """A value of ``key`` its converter accepts: the default, or one given here."""
    given = {"model": str(TWO_STATE), "params": str(EPIDEMIC), "out": str(tmp_path / "out"), "c_max": 5,
             "x0": "1", "lambdas": [0.1, 0.2]}
    return key, given.get(key, cli.OPTIONS[key].default)


def _rejects(key, value):
    try:
        cli.OPTIONS[key].convert(value)
    except ValueError:
        return True
    return False


def _write_config(path, entries):
    def flow(value):
        return yaml.safe_dump(value, default_flow_style=True).removesuffix("...\n").strip()
    path.write_text("".join(f"{k}: {flow(v)}\n" for k, v in entries))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(keys=st.lists(st.sampled_from(sorted(cli.OPTIONS)), unique=True, max_size=6),
       mutation=st.sampled_from(["unknown", "repeat", "value"]), data=st.data())
def test_mutated_config_files_exit_2_with_the_json_record(tmp_path, capsys, keys, mutation, data):
    # A valid config of options drawn from cli.OPTIONS, then one invalid entry:
    # an unknown key, a key given twice (in its other ``-``/``_`` spelling
    # where it has one), or a value the key's converter rejects.
    entries = [_valid_entry(k, tmp_path) for k in ["model"] + [k for k in keys if k != "model"]]
    if mutation == "unknown":
        name = data.draw(st.sampled_from(sorted(cli.OPTIONS)))
        entries.insert(data.draw(st.integers(0, len(entries))), (name + "s", 1))
    elif mutation == "repeat":
        key, value = data.draw(st.sampled_from(entries))
        entries.append((key.replace("_", "-") if "_" in key else key, value))
    else:
        i = data.draw(st.integers(0, len(entries) - 1))
        key = entries[i][0]
        entries[i] = (key, data.draw(st.sampled_from([v for v in _BAD_VALUES if _rejects(key, v)])))
    config = tmp_path / "config.yaml"
    _write_config(config, entries)
    code = cli.run(["validate", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2, config.read_text()
    assert json.loads(err.strip().splitlines()[-1])["error"]["code"] == 2


def test_a_config_of_every_option_is_valid(tmp_path):
    # The mutation test's starting point: without its mutation it runs.
    config = tmp_path / "config.yaml"
    _write_config(config, [_valid_entry(k, tmp_path) for k in cli.OPTIONS])
    assert cli.run(["validate", "--config", str(config)]) == 0
    assert "valid: true" in (tmp_path / "out" / "report.yaml").read_text()
