"""The benchmark's three workloads, their correctness checks and their probes.

Every workload runs the same pipeline shape — set up a model, solve it,
sample its optimal policy — on inputs chosen so that a different layer
dominates each one (see README.md for why each was chosen):

* ``epidemic-solve``: the S=20 epidemic lattice; ``bellman`` dominates.
* ``desk-montecarlo``: the desk epidemic model; ``simulate`` dominates.
* ``generic-cli``: a seeded 1,000-state generic document run through the
  CLI in subprocesses; ``io`` (YAML parsing) dominates.

All calls into the package go through the package's public functions and are
wrapped in spans (see ``tracing.py``).  Work runs in this process with one
thread, except the CLI subprocesses, which run one at a time.
"""

from __future__ import annotations

import csv
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import yaml

from impulsive_ctmdp import io as mio
from impulsive_ctmdp._ops import compile_model
from impulsive_ctmdp.bellman import (
    ValueFunction,
    bellman_apply,
    evaluate_policy,
    extract_policy,
    solve,
)
from impulsive_ctmdp.epidemic import (
    analytic_value,
    build_epidemic_model,
    enumerate_states,
    solve_carrier_equation,
    threshold_policy,
)
from impulsive_ctmdp.intervention import analyze_chains
from impulsive_ctmdp.model import (
    ActionCatalog,
    CostModel,
    CtmdpModel,
    ImpulseKernel,
    RateKernel,
    StateSpace,
    validate_model,
)
from impulsive_ctmdp.simulate import estimate_cost, replication_rng, simulate_trajectory

import gen_generic
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
PARAMS_DOC = ROOT / "models" / "epidemic_desk.yaml"

TOL = 1e-10                # solver tolerance, the CLI default
VALUE_ERR_BOUND = 1e-7     # max |V - reference| accepted (about 2e-8 at the baseline)
MC_Z = 4.0                 # |MC mean - V(x0)| <= MC_Z * SE + gap
RESIDUAL_BOUND = 1e-8      # Bellman residual the CLI may report at TOL

EPIDEMIC_S, EPIDEMIC_X0, EPIDEMIC_REPS = 20, "20,1,2", 4000
EPIDEMIC_SETUPS = 2        # set-ups per round (short and noisy, so sampled twice); the last is solved
DESK_S, DESK_X0, DESK_REPS, DESK_WARMUP_REPS = 10, "10,1,2", 4000, 200
DESK_CALLS = 4             # timed estimate_cost calls per freshly set-up desk model
GENERIC_REPS = 4000
TRAJECTORIES = 300         # sampled paths for the per-path simulate counts
CLI_TIMEOUT_S = 170.0
REFERENCE_REPEATS = 5
REFERENCE_SHARE = 0.1      # reference time measured after a sample, as a share of the sample


@dataclass
class Solution:
    report: object
    policy: object
    V_pi: object
    chains: object
    elapsed: float


class Reference:
    """A fixed computation timed next to every sample, independent of the package.

    On a virtual machine that shares its cores with other tenants, speed
    drifts by 10-30% over seconds to minutes (measured on a 2-core Xeon VM).
    Dividing each sample by the reference time measured on each side of it
    cancels the drift that both share.  The reference mixes interpreted
    Python with sparse matrix-vector products, like the package's hot paths;
    its time is the median of a few repeats of about 11 ms each.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.A = sp.random(20_000, 8_000, density=5 / 8_000, format="csr", random_state=rng)
        self.x = rng.random(8_000)

    def __call__(self, span: float = 0.0) -> float:
        """Median time of one repeat, over at least REFERENCE_REPEATS repeats and ``span`` seconds."""
        times = []
        start = perf_counter()
        while len(times) < REFERENCE_REPEATS or perf_counter() - start < span:
            t = perf_counter()
            acc = 0
            for i in range(100_000):
                acc += i * i
            for _ in range(20):
                self.A @ self.x
            times.append(perf_counter() - t)
        return statistics.median(times)


class Run:
    """One benchmark invocation: the tracer, the time budget and the check tally."""

    def __init__(self, seed: int, seconds: float, trace: bool, workdir: Path):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tr = Tracer(trace)
        self.t0 = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.ratios: dict[str, list[float]] = {}
        self.peak_rss_mb: float | None = None
        self.round_marks: list[float] = []
        self.reference = Reference()
        self.ref_times = [self.reference()]

    def op(self, name: str):
        """Span around one call into the package; counts it as attempted."""
        self.attempted += 1
        return self.tr.span(name)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)

    def record(self, **elapsed: float) -> None:
        """Keep timed samples and their ratios to the reference timed on each side of them.

        Call with no sample to refresh the reference after untimed work.
        """
        # A long sample spans several speed swings, so its reference spans a share of it too.
        after = self.reference(REFERENCE_SHARE * max(elapsed.values(), default=0.0))
        ref = (self.ref_times[-1] + after) / 2
        for key, t in elapsed.items():
            self.samples.setdefault(key, []).append(t)
            self.ratios.setdefault(key, []).append(t / ref)
        self.ref_times.append(after)

    def elapsed(self) -> float:
        return perf_counter() - self.t0

    def another_round(self, minimum: int) -> bool:
        """True until ``minimum`` rounds are done and another would overrun the budget."""
        now = self.elapsed()
        self.round_marks.append(now)
        done = len(self.round_marks) - 1
        last = now - self.round_marks[-2] if done else 0.0
        return done < minimum or now + last <= self.seconds

    def first_round_done(self) -> None:
        """Peak RSS after one full round; later rounds repeat the same work on
        fresh models, which the package's caches keep alive."""
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def mc_seed(self, k: int) -> int:
        return self.seed * 1_000_000 + k


# -- correctness checks (pure functions, also used by test_perfbench.py) -----

def value_error(V: np.ndarray, reference: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(V) - np.asarray(reference))))


def values_ok(V: np.ndarray, reference: np.ndarray) -> bool:
    return value_error(V, reference) <= VALUE_ERR_BOUND


def mc_consistent(mean: float, std_error: float, value: float, gap: float) -> bool:
    """Monte Carlo mean agrees with the solved value.

    The ``gap`` term covers the solver's own error: from a deterministic
    start state the standard error is ~0 while mean and value still differ
    by the value-iteration error.
    """
    return abs(mean - value) <= MC_Z * std_error + gap


def pooled(estimates: list) -> tuple[float, float]:
    """Mean and standard error of equally sized independent estimates."""
    n = len(estimates)
    mean = sum(e.mean for e in estimates) / n
    se = math.sqrt(sum(e.std_error ** 2 for e in estimates)) / n
    return mean, se


def efficiency(seconds: float, std_error: float) -> float:
    """1/(wall * SE^2): rewards variance reduction as much as raw speed."""
    return 1.0 / (seconds * std_error ** 2)


# -- shared pipeline pieces ------------------------------------------------

def solve_stage(run: Run, model: CtmdpModel) -> Solution:
    with run.tr.span("stage.solve") as t:
        with run.op("bellman.solve"):
            report = solve(model, tol=TOL)
        with run.op("bellman.extract_policy"):
            policy = extract_policy(model, report.V)
        with run.op("bellman.evaluate_policy"):
            V_pi = evaluate_policy(model, policy, tol=TOL)
        with run.op("intervention.analyze_chains"):
            chains = analyze_chains(model, policy)
    return Solution(report, policy, V_pi, chains, t.elapsed)


def operator_size(model: CtmdpModel) -> tuple[int, int]:
    """Stored entries of the uniformized and relocation kernels, and computed bytes per apply.

    Counted from the model itself: one entry per jump target plus the
    diagonal for each gradual pair, one per relocation target.  Bytes assume
    CSR with float64 data and int32 indices, the value vector read once per
    kernel, per-pair costs read and branch values written once, and the
    result written once; cache reuse is ignored.
    """
    n_g = nnz_g = 0
    for s, acts in model.actions.gradual.items():
        for a in acts:
            n_g += 1
            nnz_g += len(model.rates.rows[(s, a)]) + 1
    n_i = sum(len(acts) for acts in model.actions.impulsive.values())
    nnz_i = sum(len(row) for row in model.impulses.rows.values())
    nnz = nnz_g + nnz_i
    N = model.states.N
    bytes_moved = nnz * (8 + 4) + (n_g + n_i + 2) * 4 + 2 * N * 8 + 2 * (n_g + n_i) * 8 + N * 8
    return nnz, bytes_moved


def probe_layers(run: Run, model: CtmdpModel, sol: Solution, x0: str) -> None:
    """Traced-run measurements of single layers, outside the timed stages."""
    tr = run.tr
    with tr.span("probe.apply"):
        F = ValueFunction(sol.report.V.values)
        n = 0
        with run.op("bellman.bellman_apply") as t:
            while n < 20 or perf_counter() - t.start < 0.5:
                bellman_apply(model, F)
                n += 1
        run.layer["ops.apply_ms"] = t.elapsed / n * 1e3
    run.layer["ops.nnz"], run.layer["ops.bytes_per_apply"] = operator_size(model)

    with tr.span("probe.trajectories"):
        epochs = chain_steps = absorbed = 0
        with run.op("simulate.simulate_trajectory") as t:
            for i in range(TRAJECTORIES):
                path = simulate_trajectory(model, sol.policy, x0, replication_rng(run.mc_seed(10**5), i))
                epochs += len(path.epochs)
                chain_steps += sum(len(e.chain.steps) for e in path.epochs if e.chain is not None)
                absorbed += math.isinf(path.truncation_time)
        run.layer["simulate.trajectory_ms"] = t.elapsed / TRAJECTORIES * 1e3
        run.layer["simulate.epochs_per_rep"] = epochs / TRAJECTORIES
        run.layer["simulate.chain_steps_per_rep"] = chain_steps / TRAJECTORIES
        run.layer["simulate.absorbed_frac"] = absorbed / TRAJECTORIES

    with tr.span("probe.report"):
        with run.op("io.report") as t:
            mio.solve_report_table(model, sol.report, sol.policy)
            mio.dump_meta(mio.solve_report_meta(sol.report))
        run.layer["io.report_write_s"] = t.elapsed

    with tr.span("probe.cli"):
        for _ in range(3):
            proc = cli(run, "startup", "--help")
            run.check(proc.returncode == 0, "impulsive-ctmdp --help exits 0")
    run.layer["cli.startup_s"] = tr.median("cli.startup")


def solution_layers(run: Run, sol: Solution) -> None:
    tr = run.tr
    rep = sol.report
    run.layer.update({
        "bellman.solve_s": tr.median("bellman.solve"),
        "bellman.extract_s": tr.median("bellman.extract_policy"),
        "bellman.evaluate_s": tr.median("bellman.evaluate_policy"),
        "bellman.sweeps": rep.iterations_above + rep.iterations_below,
        "bellman.gap": rep.gap,
        "bellman.residual": rep.residual,
        "intervention.analyze_s": tr.median("intervention.analyze_chains"),
        "intervention.flagged": int(np.count_nonzero(sol.policy.impulsive)),
        "ops.compile_s": tr.median("_ops.compile_model"),
        "model.validate_s": tr.median("model.validate_model"),
    })


def estimate_layers(run: Run, estimates: list, reps: int) -> None:
    times = run.tr.durations("simulate.estimate_cost")
    run.layer["simulate.estimate_s"] = statistics.median(times)
    run.layer["simulate.reps_per_s"] = reps / statistics.median(times)
    run.layer["simulate.std_error"] = statistics.median(e.std_error for e in estimates)
    run.layer["simulate.efficiency"] = statistics.median(
        efficiency(t, e.std_error) for t, e in zip(times, estimates))


def finish_trace(run: Run) -> None:
    """Tracing overhead and how much of the stages' time the layer spans explain."""
    tr = run.tr
    stage_total = tr.root_total("stage")
    layer_self = tr.layer_self_times()
    run.layer.setdefault("trace.accounted_frac", (sum(layer_self.values()) - layer_self["bench"]) / stage_total)
    n_spans = sum(1 for s in tr.spans if _root_name(tr, s).startswith("stage."))
    run.layer["trace.overhead_frac"] = n_spans * span_overhead() / stage_total


def _root_name(tr: Tracer, s: dict) -> str:
    while s["parent"] is not None:
        s = tr.spans[s["parent"]]
    return s["name"]


def span_overhead() -> float:
    """Extra seconds a recorded span costs over an unrecorded one."""
    n = 20_000
    cost = []
    for enabled in (False, True):
        t = Tracer(enabled)
        t0 = perf_counter()
        for _ in range(n):
            with t.span("x"):
                pass
        cost.append((perf_counter() - t0) / n)
    return max(cost[1] - cost[0], 0.0)


# -- epidemic workloads ----------------------------------------------------

def epidemic_inputs(run: Run, S: int):
    """Parameter document -> built model -> cold compile (fresh objects every call)."""
    with run.op("io.load_epidemic_params"):
        params = replace(mio.load_epidemic_params(str(PARAMS_DOC)), S=S)
    with run.op("epidemic.build_epidemic_model"):
        model = build_epidemic_model(params)
    with run.op("_ops.compile_model"):
        compile_model(model)
    return params, model


def epidemic_reference(run: Run, params, model: CtmdpModel):
    """Analytic value at every state and the threshold partition."""
    with run.tr.span("check.reference"):
        with run.op("model.validate_model"):
            violations = validate_model(model)
        with run.op("epidemic.solve_carrier_equation"):
            cv = solve_carrier_equation(params)
        with run.op("epidemic.analytic_value"):
            states = list(enumerate_states(params))
            ref = np.array([analytic_value(params, cv, s, c, i) for s, c, i in states])
        with run.op("epidemic.threshold_policy"):
            threshold = threshold_policy(params, cv)
    run.check(not violations, "built epidemic model validates")
    run.check(len(states) == model.states.N, "epidemic state order matches the model")
    susceptibles = np.array([s for s, _, _ in states], dtype=np.float64)
    return ref, threshold, susceptibles * params.immunization_cost


def check_epidemic_solution(run: Run, sol: Solution, ref, threshold, chain_cost) -> None:
    err = value_error(sol.report.V.values, ref)
    run.layer["bellman.value_err"] = err
    run.check(err <= VALUE_ERR_BOUND, f"max |V - analytic| = {err:.3e} <= {VALUE_ERR_BOUND}")
    run.check(values_ok(sol.V_pi.values, ref), "evaluated policy value matches the analytic value")
    run.check(np.array_equal(sol.policy.impulsive, threshold.impulsive),
              "extracted partition equals the threshold policy")
    flagged = np.flatnonzero(sol.policy.impulsive)
    # Under the threshold policy every chain immunizes all s susceptibles at price lambda.
    run.check(flagged.size == sol.chains.expected_cost.size
              and bool(np.allclose(sol.chains.expected_cost, chain_cost[flagged], rtol=0, atol=1e-9)),
              "expected chain cost is lambda * s on every flagged state")


def check_mc(run: Run, estimates: list, sol: Solution, model: CtmdpModel, x0: str) -> None:
    mean, se = pooled(estimates)
    v = sol.report.V[model.states.index[x0]]
    run.check(mc_consistent(mean, se, v, sol.report.gap),
              f"MC mean {mean:.6f} +- {se:.2e} vs V(x0) {v:.6f}")


def epidemic_solve(run: Run) -> None:
    estimates = []
    while run.another_round(3):
        run.tr.new_run()
        for _ in range(EPIDEMIC_SETUPS):
            with run.tr.span("stage.setup") as t:
                params, model = epidemic_inputs(run, EPIDEMIC_S)
            run.record(setup_s=t.elapsed)
        if not estimates:
            ref, threshold, chain_cost = epidemic_reference(run, params, model)
            run.record()
        sol = solve_stage(run, model)
        run.record(solve_s=sol.elapsed)
        with run.tr.span("stage.sample") as t:
            with run.op("simulate.estimate_cost"):
                estimates.append(estimate_cost(model, sol.policy, EPIDEMIC_X0, EPIDEMIC_REPS,
                                               seed=run.mc_seed(len(estimates))))
        run.record(sample_s=t.elapsed)
        check_epidemic_solution(run, sol, ref, threshold, chain_cost)
        run.first_round_done()
    check_mc(run, estimates, sol, model, EPIDEMIC_X0)
    record_e2e(run)
    if run.tr.enabled:
        epidemic_layers(run, model, sol, estimates, EPIDEMIC_REPS, EPIDEMIC_X0)


def desk_montecarlo(run: Run) -> None:
    estimates = []
    while run.another_round(3):
        run.tr.new_run()
        with run.tr.span("stage.setup") as t:
            params, model = epidemic_inputs(run, DESK_S)
            sol = solve_stage(run, model)
            # The first estimate prepares the policy's simulation tables; keep it out of sampling.
            with run.op("simulate.warmup"):
                estimate_cost(model, sol.policy, DESK_X0, DESK_WARMUP_REPS,
                              seed=run.mc_seed(10**4 + len(estimates)))
        run.record(setup_s=t.elapsed, solve_s=sol.elapsed)
        if not estimates:
            ref, threshold, chain_cost = epidemic_reference(run, params, model)
        check_epidemic_solution(run, sol, ref, threshold, chain_cost)
        for _ in range(DESK_CALLS):
            with run.tr.span("stage.sample") as t:
                with run.op("simulate.estimate_cost"):
                    estimates.append(estimate_cost(model, sol.policy, DESK_X0, DESK_REPS,
                                                   seed=run.mc_seed(len(estimates))))
            run.record(sample_s=t.elapsed)
        run.first_round_done()
    check_mc(run, estimates, sol, model, DESK_X0)
    record_e2e(run)
    if run.tr.enabled:
        epidemic_layers(run, model, sol, estimates, DESK_REPS, DESK_X0)


def epidemic_layers(run: Run, model, sol: Solution, estimates: list, reps: int, x0: str) -> None:
    solution_layers(run, sol)
    estimate_layers(run, estimates, reps)
    run.layer["model.build_s"] = run.tr.median("epidemic.build_epidemic_model")
    run.layer["io.parse_s"] = run.tr.median("io.load_epidemic_params")
    run.layer["io.doc_bytes"] = PARAMS_DOC.stat().st_size
    probe_layers(run, model, sol, x0)
    finish_trace(run)


def record_e2e(run: Run) -> None:
    run.e2e["setup_s"] = statistics.median(run.samples["setup_s"])
    run.e2e["setup_rel"] = statistics.median(run.ratios["setup_s"])
    run.e2e["solve_rel"] = statistics.median(run.ratios["solve_s"])
    run.e2e["sample_rel"] = statistics.median(run.ratios["sample_s"])


# -- generic-cli workload --------------------------------------------------

def cli(run: Run, name: str, *args: str) -> subprocess.CompletedProcess:
    """One CLI invocation in a child process, timed from spawn to exit."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with run.op(f"cli.{name}"):
        return subprocess.run([sys.executable, "-m", "impulsive_ctmdp.cli", *args],
                              cwd=run.workdir, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S, check=False)


def read_report(run: Run, proc: subprocess.CompletedProcess, out: Path, command: str) -> dict:
    ok = proc.returncode == 0
    run.check(ok, f"cli {command} exits 0 (got {proc.returncode}: {proc.stderr.strip()[-300:]})")
    record = None
    if ok:
        try:
            record = yaml.load((out / "report.yaml").read_text(encoding="utf-8"), Loader=yaml.SafeLoader)
        except (OSError, yaml.YAMLError) as exc:
            print(f"report.yaml of {command}: {exc}", file=sys.stderr)
    run.check(isinstance(record, dict) and isinstance(record.get("result"), dict),
              f"cli {command} report.yaml parses")
    return record["result"] if record else {}


def read_values(path: Path) -> tuple[np.ndarray, list[tuple[str, str]]]:
    """Values and (partition, action) per state from a ``values.csv`` table."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    V = np.array([float(r["value"]) for r in rows])
    return V, [(r["partition"], r["action"]) for r in rows]


def exact_policy_value(data: dict, decisions: list[tuple[str, str]]) -> np.ndarray:
    """Value of a stationary policy by one sparse LU solve, from the generator's data.

    Waiting in x under action a:  (eta + q(x,a)) V(x) - sum_y q(y|x,a) V(y) = c(x,a).
    Intervening in x:             V(x) - sum_y Q(y|x) V(y) = c_i(x).
    Independent of the package: it is the reference the CLI output is checked against.
    """
    rows, cols, vals, b = [], [], [], np.empty(data["N"])
    for x, (partition, a) in enumerate(decisions):
        if partition == "gradual":
            row, diag, b[x] = data["rates"][(x, a)], gen_generic.ETA, data["gcost"][(x, a)]
            diag += sum(r for _, r in row)
        else:
            row, diag, b[x] = data["impulses"][(x, a)], 1.0, data["icost"][(x, a)]
        rows.append(x), cols.append(x), vals.append(diag)
        for y, w in row:
            rows.append(x), cols.append(y), vals.append(-w)
    A = sp.csc_matrix((vals, (rows, cols)), shape=(data["N"], data["N"]))
    return spla.splu(A).solve(b)


def first_moving_state(data: dict, decisions: list[tuple[str, str]]) -> int:
    """First state where the policy waits under an action that jumps.

    A start where the path is absorbed at once has zero Monte Carlo variance,
    which would make the simulate figures meaningless.
    """
    return next(x for x, (partition, a) in enumerate(decisions)
                if partition == "gradual" and data["rates"][(x, a)])


def build_generic_model(data: dict) -> CtmdpModel:
    """The generator's data as a model object, without going through YAML."""
    lab = gen_generic.label
    labels = tuple(lab(x) for x in range(data["N"]))
    return CtmdpModel(
        states=StateSpace(labels),
        actions=ActionCatalog(gradual=dict(zip(labels, data["gradual"])),
                              impulsive=dict(zip(labels, data["impulsive"]))),
        rates=RateKernel(rows={(lab(x), a): tuple((lab(y), r) for y, r in row)
                               for (x, a), row in data["rates"].items()}, K_rate=gen_generic.K_RATE),
        impulses=ImpulseKernel(rows={(lab(x), a): tuple((lab(y), p) for y, p in row)
                                     for (x, a), row in data["impulses"].items()}),
        costs=CostModel(gradual_cost={(lab(x), a): c for (x, a), c in data["gcost"].items()},
                        impulse_cost={(lab(x), a): c for (x, a), c in data["icost"].items()},
                        eta=gen_generic.ETA, K_cost=gen_generic.K_COST, c_lower=gen_generic.C_LOWER),
    )


def generic_cli(run: Run) -> None:
    data = gen_generic.generate(run.seed)
    text = gen_generic.to_yaml(data)
    doc = run.workdir / "model.yaml"
    doc.write_text(text, encoding="utf-8")
    outs = {name: run.workdir / name for name in ("validate", "solve", "simulate")}

    first_values = None
    while run.another_round(2):
        run.tr.new_run()
        with run.tr.span("stage.setup") as t:
            proc = cli(run, "validate", "validate", "--model", str(doc), "--out", str(outs["validate"]))
        run.record(setup_s=t.elapsed)
        result = read_report(run, proc, outs["validate"], "validate")
        run.check(result.get("valid") is True, f"generated model validates: {result.get('violations')}")

        with run.tr.span("stage.solve") as t:
            proc = cli(run, "solve", "solve", "--model", str(doc), "--out", str(outs["solve"]))
        run.record(solve_s=t.elapsed)
        solved = read_report(run, proc, outs["solve"], "solve")
        values_csv = (outs["solve"] / "values.csv").read_bytes() if proc.returncode == 0 else b""
        if first_values is None:
            first_values = values_csv
            V, decisions = read_values(outs["solve"] / "values.csv")
            reference = exact_policy_value(data, decisions)
            x0 = first_moving_state(data, decisions)
            run.record()
            err = value_error(V, reference)
            run.layer["bellman.value_err"] = err
            run.check(err <= VALUE_ERR_BOUND, f"max |V - exact policy value| = {err:.3e} <= {VALUE_ERR_BOUND}")
        run.check(values_csv == first_values, "values.csv is byte-identical across rounds")
        run.check(solved.get("residual", math.inf) <= RESIDUAL_BOUND, f"residual {solved.get('residual')}")

        with run.tr.span("stage.sample") as t:
            proc = cli(run, "simulate", "simulate", "--model", str(doc), "--x0", gen_generic.label(x0),
                       "--reps", str(GENERIC_REPS), "--seed", str(run.seed), "--out", str(outs["simulate"]))
        run.record(sample_s=t.elapsed)
        sim = read_report(run, proc, outs["simulate"], "simulate")
        if sim:
            run.check(abs(sim["solved_value_at_x0"] - V[x0]) <= 1e-12, "simulate and solve agree on V(x0)")
            run.check(mc_consistent(sim["mean"], sim["std_error"], V[x0], solved.get("gap", 0.0)),
                      f"MC mean {sim['mean']} +- {sim['std_error']} vs V(x0) {V[x0]}")
    record_e2e(run)
    if run.tr.enabled:
        generic_layers(run, data, text, V, sim, gen_generic.label(x0))


def generic_layers(run: Run, data: dict, text: str, V_cli: np.ndarray, sim: dict, x0: str) -> None:
    """The CLI's steps again in this process, so each layer's share can be timed."""
    tr = run.tr
    with tr.span("probe.pipeline"):
        with run.op("io.parse_model"):
            model = mio.parse_model(text, source="model.yaml")
        with run.op("model.build"):
            build_generic_model(data)
        with run.op("model.validate_model"):
            violations = validate_model(model)
        run.check(not violations, "parsed generic model validates in process")
        with run.op("_ops.compile_model"):
            compile_model(model)
        sol = solve_stage(run, model)
        run.check(value_error(sol.report.V.values, V_cli) <= 1e-12, "in-process solve equals the CLI's")
        with run.op("simulate.estimate_cost"):
            est = estimate_cost(model, sol.policy, x0, GENERIC_REPS, seed=run.seed)
        run.check(sim.get("mean") == est.mean, "in-process estimate equals the CLI's")
    solution_layers(run, sol)
    estimate_layers(run, [est], GENERIC_REPS)
    run.layer["model.build_s"] = tr.median("model.build")
    run.layer["io.parse_s"] = tr.median("io.parse_model")
    run.layer["io.doc_bytes"] = len(text.encode("utf-8"))
    probe_layers(run, model, sol, x0)
    # Each CLI command = interpreter start-up + the layers it calls; compare with its wall time.
    L = run.layer
    front = L["io.parse_s"] + L["model.validate_s"]
    solve_part = L["ops.compile_s"] + L["bellman.solve_s"] + L["bellman.extract_s"]
    explained = (3 * L["cli.startup_s"] + front + (front + solve_part + L["io.report_write_s"])
                 + (front + solve_part + L["intervention.analyze_s"] + L["simulate.estimate_s"]
                    + L["simulate.trajectory_ms"] / 1e3))
    L["trace.accounted_frac"] = explained / sum(statistics.median(run.samples[k])
                                                for k in ("setup_s", "solve_s", "sample_s"))
    finish_trace(run)


WORKLOADS = {
    "epidemic-solve": epidemic_solve,
    "desk-montecarlo": desk_montecarlo,
    "generic-cli": generic_cli,
}
