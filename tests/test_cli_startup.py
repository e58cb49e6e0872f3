"""The CLI in fresh interpreters: what each command imports, and its exit codes.

The in-process tests have imported every module by the time they run, so
neither the lazy package namespace nor the lazily reached exception mapping
of ``cli.run`` is exercised there.  These tests start a new interpreter,
except one that checks that ``cli.run`` in process leaves the collector be.
"""

import gc
import json
import os
import resource
import subprocess
import sys

import pytest
import yaml

from impulsive_ctmdp import build_epidemic_model, cli, intervention
from impulsive_ctmdp.io import load_epidemic_params
from impulsive_ctmdp.testing import model_document, random_model

from conftest import MODELS_DIR, REPO_ROOT, impulse_chain_model, impulse_ring_model

TWO_STATE = str(MODELS_DIR / "two_state.yaml")
TWO_STATE_IMPULSE = str(MODELS_DIR / "two_state_impulse.yaml")
EPIDEMIC = str(MODELS_DIR / "epidemic_desk.yaml")
SOLVER_STACK = ("scipy", "impulsive_ctmdp._ops", "impulsive_ctmdp.bellman")

# Runs the CLI module as ``python -m`` does, then reports which of the
# solver stack's modules were loaded, as the last line of stderr.
PROBE = """
import json, runpy, sys
sys.argv[0] = "impulsive-ctmdp"
try:
    runpy.run_module("impulsive_ctmdp.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
heavy = sorted(m for m in sys.modules if m in {stack} or m.split(".")[0] == "scipy")
print(json.dumps({{"code": code, "heavy": heavy}}), file=sys.stderr)
""".format(stack=set(SOLVER_STACK))


def _python(*args: str, cwd=None, capped: bool = False) -> subprocess.CompletedProcess:
    """A new interpreter; ``capped`` limits its address space to 1 GiB, so that a
    huge allocation fails at once, with one BLAS thread to keep numpy's start-up inside."""
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **({"OPENBLAS_NUM_THREADS": "1"} if capped else {}))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
                          check=False, preexec_fn=_cap_address_space if capped else None)


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _probe(*argv: str) -> dict:
    proc = _python("-c", PROBE, *argv)
    return json.loads(proc.stderr.strip().splitlines()[-1])


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["validate", "--model", TWO_STATE],
    ["epidemic-solve", "--params", EPIDEMIC],
    ["epidemic-sweep", "--params", EPIDEMIC],
], ids=["help", "validate", "epidemic-solve", "epidemic-sweep"])
def test_light_commands_leave_the_solver_stack_unloaded(argv):
    assert _probe(*argv) == {"code": 0, "heavy": []}


def test_solve_loads_the_solver_stack():
    # The probe's own check: a command that solves does load the stack.
    report = _probe("solve", "--model", TWO_STATE)
    assert report["code"] == 0 and set(SOLVER_STACK) <= set(report["heavy"])


def _scipy_after(tmp_path, name: str, model, command: str = "solve", *argv: str) -> set[str]:
    """The scipy modules a fresh run of ``command`` loads on ``model``'s document."""
    doc = tmp_path / f"{name}.yaml"
    doc.write_text(model_document(model), encoding="utf-8")
    report = _probe(command, "--model", str(doc), "--out", str(tmp_path / f"{name}-{command}"), *argv)
    assert report["code"] == 0
    return {m for m in report["heavy"] if m.split(".")[0] == "scipy"}


def test_a_swept_solve_loads_no_superlu(tmp_path):
    # solve certifies the random model by sweeps and factors nothing, so it
    # loads no scipy module beyond those that ``import scipy.sparse`` loads
    # (at scipy 1.10 that import loads scipy.sparse.linalg too).
    swept = _scipy_after(tmp_path, "random0", random_model(0))
    assert swept and swept <= set(_loaded_after("import scipy.sparse\n"))


def test_a_factored_solve_loads_superlu(tmp_path):
    # The desk model takes the factor path, whose first factor imports SuperLU.
    desk = build_epidemic_model(load_epidemic_params(EPIDEMIC))
    assert "scipy.sparse.linalg" in _scipy_after(tmp_path, "desk", desk)


@pytest.mark.parametrize("command", ["simulate", "dynkin-check"])
def test_acyclic_drawing_chains_load_no_superlu(tmp_path, command):
    # The solve is swept and the one drawing chain cannot revisit a state, so
    # the backward pass resolves it and nothing is factored: no scipy module
    # beyond those of ``import scipy.sparse`` (floor-tolerant as above).
    loaded = _scipy_after(tmp_path, "acyclic", impulse_chain_model(cycle=False), command, "--reps", "20")
    assert loaded and loaded <= set(_loaded_after("import scipy.sparse\n"))


@pytest.mark.parametrize("command", ["simulate", "dynkin-check"])
def test_a_small_impulse_cycle_loads_no_superlu(tmp_path, command):
    # The same swept solve, but the drawing chain can return to its start:
    # its chain system of one row is inverted by numpy, not factored.
    loaded = _scipy_after(tmp_path, "cycle", impulse_chain_model(cycle=True), command, "--reps", "20")
    assert loaded and loaded <= set(_loaded_after("import scipy.sparse\n"))


@pytest.mark.parametrize("command", ["simulate", "dynkin-check"])
def test_an_impulse_cycle_loads_superlu(tmp_path, command):
    # The solve is swept again, but a ring of DENSE_MAX + 1 drawing chains is
    # a chain system above the size rule: it is factored, which imports SuperLU.
    ring = impulse_ring_model(intervention.DENSE_MAX + 1)
    assert "scipy.sparse.linalg" in _scipy_after(tmp_path, "ring", ring, command, "--reps", "20")


LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m in {stack} or m.split(".")[0] == "scipy")))
""".format(stack=set(SOLVER_STACK))


def _loaded_after(code: str) -> list[str]:
    """The solver stack's modules that a new interpreter has loaded after running ``code``."""
    proc = _python("-c", code + LOADED)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_a_threshold_policy_needs_no_solver():
    # The policy type lives in the numpy-only model, so the carrier commands stay light.
    code = f"""
from impulsive_ctmdp import StationaryPolicy, solve_carrier_equation, threshold_policy
from impulsive_ctmdp.io import load_epidemic_params
params = load_epidemic_params({EPIDEMIC!r})
policy = threshold_policy(params, solve_carrier_equation(params))
assert isinstance(policy, StationaryPolicy) and policy.impulsive.any()
"""
    assert _loaded_after(code) == []


def test_the_chain_analysis_sits_below_the_solver():
    # The module order is model <- _ops <- intervention <- bellman <- simulate.
    assert "impulsive_ctmdp.bellman" not in _loaded_after("import impulsive_ctmdp.intervention")


def test_every_public_name_resolves_in_a_fresh_interpreter():
    code = """
import impulsive_ctmdp as p
listed = dir(p)
assert all(name in listed for name in p.__all__), "dir() misses names"
assert all(getattr(p, name) is not None for name in p.__all__)
assert not hasattr(p, "no_such_name")
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr


def _cli_error(tmp_path, *argv: str, capped: bool = False) -> tuple[int, str]:
    """Exit code and error type of a failing run; its last stderr line is the JSON record."""
    proc = _python("-m", "impulsive_ctmdp.cli", *argv, cwd=tmp_path, capped=capped)
    assert "Traceback" not in proc.stderr
    record = json.loads(proc.stderr.strip().splitlines()[-1])["error"]
    assert record["code"] == proc.returncode
    return proc.returncode, record["type"]


def test_exit_codes_in_a_fresh_interpreter(tmp_path):
    assert _cli_error(tmp_path, "simulate", "--model", TWO_STATE, "--reps", "1.5") == (2, "usage")
    bad = tmp_path / "nan.yaml"
    bad.write_text(open(TWO_STATE).read().replace('"0": 1.0', '"0": nan'))
    assert _cli_error(tmp_path, "solve", "--model", str(bad)) == (3, "validation")
    assert _cli_error(tmp_path, "validate", "--model", str(bad)) == (3, "validation")
    doc = tmp_path / "random0.yaml"
    doc.write_text(model_document(random_model(0)))
    assert _cli_error(tmp_path, "solve", "--model", str(doc), "--tol", "1e-300") == (4, "non-convergence")
    bad.write_text(open(TWO_STATE).read().replace("eta: 1.0", "eta: fast"))
    assert _cli_error(tmp_path, "solve", "--model", str(bad)) == (2, "parse")
    assert _cli_error(tmp_path, "validate", "--model", str(tmp_path)) == (2, "parse")  # a directory


def test_main_freezes_the_collector_before_it_exits():
    # The shutdown collections then skip every object alive at exit.
    code = f"""
import gc, sys
from impulsive_ctmdp import cli
sys.argv = ["impulsive-ctmdp", "validate", "--model", {TWO_STATE!r}]
try:
    cli.main()
except SystemExit as exc:
    print(exc.code, gc.get_freeze_count() > 0, file=sys.stderr)
"""
    proc = _python("-c", code)
    assert proc.stderr.strip().splitlines()[-1] == "0 True"


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_the_collector_as_it_found_it(tmp_path, capsys, enabled):
    # Tests and library users call run() in process: only main() freezes.
    (gc.enable if enabled else gc.disable)()
    try:
        before = gc.get_freeze_count()
        assert cli.run(["solve", "--model", TWO_STATE_IMPULSE, "--out", str(tmp_path / "out")]) == 0
        assert cli.run(["solve", "--model", str(tmp_path)]) == 2
        assert (gc.get_freeze_count(), gc.isenabled()) == (before, enabled)
    finally:
        gc.enable()


def test_a_fresh_solve_prints_its_whole_record_to_stdout(capsys):
    # main() exits through sys.exit after the freeze, so stdout is flushed:
    # a fresh interpreter prints what run() prints in process, byte for byte.
    proc = _python("-m", "impulsive_ctmdp.cli", "solve", "--model", TWO_STATE_IMPULSE)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert cli.run(["solve", "--model", TWO_STATE_IMPULSE]) == 0
    assert proc.stdout == capsys.readouterr().out
    record, table = proc.stdout.split("--- values.csv\n")
    assert yaml.safe_load(record)["result"]["gap"] <= 1e-10
    assert table.splitlines() == ["state,value,partition,action", "0,0.0,gradual,wait", "1,0.3,impulsive,reset"]


@pytest.mark.parametrize("command", ["epidemic-solve", "epidemic-sweep"])
def test_a_c_max_too_large_for_memory_exits_4(tmp_path, command):
    # Padding the rate tables to C_max + 1 = 10^11 entries raised MemoryError,
    # which ended the run in a traceback with exit 1.  The capped address space
    # makes the allocation fail at once on any machine.
    assert _cli_error(tmp_path, command, "--params", EPIDEMIC, "--c-max", str(10**11), capped=True) \
        == (4, "out-of-memory")
