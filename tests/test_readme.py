"""The README's library example, model schema and CLI option table match the code."""

import re

import numpy as np

from impulsive_ctmdp import cli, evaluate_policy, solve, validate_model
from impulsive_ctmdp.io import parse_model

from conftest import REPO_ROOT

README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def test_readme_python_example_runs_from_the_repo_root(monkeypatch):
    (code,) = _blocks("python")
    monkeypatch.chdir(REPO_ROOT)
    ns: dict = {}
    exec(compile(code, "README.md", "exec"), ns)
    model, report = ns["model"], ns["report"]
    assert ns["policy"] is report.policy
    assert np.array_equal(evaluate_policy(model, report.policy).values, report.V.values)
    assert abs(ns["est"].mean - report.V[1]) <= 4 * ns["est"].std_error


def test_readme_model_schema_solves_to_the_closed_form():
    (schema,) = _blocks("yaml")
    model = parse_model(schema, source="README.md")
    assert validate_model(model) == []
    report = solve(model)
    assert abs(report.V[model.states.index["1"]] - 0.3) <= 1e-12
    assert report.policy.impulse_action(model, "1") == "reset"


def test_readme_option_table_matches_the_cli():
    rows = dict(re.findall(r"^\| `--([a-z0-9-]+)` \| (.*?) \|", README, re.M))
    assert set(rows) == {key.replace("_", "-") for key in cli.OPTIONS}
    for key, opt in cli.OPTIONS.items():
        default = rows[key.replace("_", "-")]
        assert default == ("none" if opt.default is None else f"`{opt.default}`"), key
