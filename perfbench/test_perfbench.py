"""Self-checks of the benchmark: generator, correctness checks, tracing, refusal.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gen_generic  # noqa: E402
import workloads  # noqa: E402
from impulsive_ctmdp.bellman import extract_policy, solve  # noqa: E402
from impulsive_ctmdp.io import parse_model  # noqa: E402
from impulsive_ctmdp.model import validate_model  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_generator_is_deterministic_and_pinned():
    a = gen_generic.to_yaml(gen_generic.generate(3))
    assert a == gen_generic.to_yaml(gen_generic.generate(3))
    assert a != gen_generic.to_yaml(gen_generic.generate(4))
    states = a.split("gradual_actions:")[0].splitlines()[1:]
    assert len(states) == gen_generic.N_STATES
    assert 0.35e6 < len(a.encode()) < 0.65e6


def test_generated_document_parses_to_the_built_model():
    data = gen_generic.generate(5, n_states=60)
    parsed = parse_model(gen_generic.to_yaml(data))
    built = workloads.build_generic_model(data)
    assert validate_model(parsed) == []
    assert parsed.states.labels == built.states.labels
    assert parsed.rates.rows == built.rates.rows
    assert parsed.impulses.rows == built.impulses.rows
    assert parsed.costs.gradual_cost == built.costs.gradual_cost
    assert parsed.costs.impulse_cost == built.costs.impulse_cost


def _solved_small_generic(seed: int):
    data = gen_generic.generate(seed, n_states=60)
    model = workloads.build_generic_model(data)
    report = solve(model, tol=workloads.TOL)
    policy = extract_policy(model, report.V)
    decisions = []
    for x, s in enumerate(model.states.labels):
        if policy.impulsive[x]:
            decisions.append(("impulsive", policy.impulse_action(model, s)))
        else:
            decisions.append(("gradual", policy.gradual_action(model, s)))
    return data, report, decisions


def test_value_check_accepts_the_solver_and_rejects_a_perturbed_V():
    data, report, decisions = _solved_small_generic(7)
    reference = workloads.exact_policy_value(data, decisions)
    V = np.array(report.V.values)
    assert workloads.values_ok(V, reference)
    V[len(V) // 2] += 10 * workloads.VALUE_ERR_BOUND
    assert not workloads.values_ok(V, reference)


def test_mc_check_needs_the_gap_term_for_deterministic_starts():
    v = 1.25
    assert workloads.mc_consistent(v + 1e-10, 4e-18, v, gap=3e-10)
    assert not workloads.mc_consistent(v + 1e-10, 4e-18, v, gap=0.0)
    assert not workloads.mc_consistent(v + 0.1, 0.01, v, gap=3e-10)


def test_self_times_subtract_children():
    tr = Tracer(True)
    with tr.span("stage.solve"):
        with tr.span("bellman.solve"):
            with tr.span("_ops.compile_model"):
                pass
    spans = tr.spans
    selfs = tr.self_times()
    dur = [s["end"] - s["start"] for s in spans]
    assert [s["parent"] for s in spans] == [None, 0, 1]
    assert abs(selfs[1] - (dur[1] - dur[2])) < 1e-12
    layers = tr.layer_self_times()
    assert abs(sum(layers.values()) - dur[0]) < 1e-9


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk-montecarlo",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
