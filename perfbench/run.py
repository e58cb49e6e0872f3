"""Benchmark of the impulsive-ctmdp package: end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload epidemic-solve --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads in turn.  With ``--trace 0`` the
run reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
records spans and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
A full record (environment, all metrics, spans when traced) is written to
``.perfbench_out/`` in the checkout.  The package is imported from ``src/``
of the checkout; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("epidemic-solve", "desk-montecarlo", "generic-cli")


def environment() -> dict:
    import numpy
    import scipy
    import yaml

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    llc = "unknown"
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    try:
        top = max(caches, key=lambda p: int((p / "level").read_text()))
        llc = f"L{(top / 'level').read_text().strip()} {(top / 'size').read_text().strip()}"
    except (OSError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "last_level_cache": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "yaml_with_libyaml": bool(yaml.__with_libyaml__),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit() -> str:
    """Commit of the checkout read from .git; 'unknown' outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, naming the measured code without git."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        run = workloads.Run(seed, seconds, trace, workdir)
        workloads.WORKLOADS[name](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.peak_rss_mb is None:  # generic-cli: the largest CLI process
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    run.e2e["peak_rss_mb"] = run.peak_rss_mb
    return run


def report(name: str, seed: int, trace: bool, run, spec: dict, env: dict) -> dict:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = run.layer if trace else run.e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{name}: metrics not measured: {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}

    print(f"== {name} seed={seed} trace={int(trace)} ({run.elapsed():.1f} s)")
    ref_ms = statistics.median(run.ref_times) * 1e3
    print(f"  reference computation        {ref_ms:.4g} ms (median of {len(run.ref_times)})")
    for key, times in run.samples.items():
        print(f"  {key:28s} {statistics.median(times):.6g} s, {statistics.median(run.ratios[key]):.6g} ref"
              f"  (median of {len(times)})")
    for key, value in run.e2e.items():
        print(f"  {key:28s} {value:.6g}")
    if trace:
        for key, m in metrics.items():
            print(f"  {key:28s} {m['value']:.6g} {m['unit']}")
        stages, probes = run.tr.layer_self_times(("stage",)), run.tr.layer_self_times(("probe",))
        print(f"  layer self time (s)  {'timed stages':>14s} {'probes':>10s}")
        for layer in stages:
            print(f"    {layer:18s} {stages[layer]:14.4f} {probes[layer]:10.4f}")
    print(f"  error_rate                   {run.failed}/{run.attempted}")
    record = {"workload": name, "seed": seed, "trace": int(trace), "environment": env,
              "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "end_to_end": run.e2e, "samples_s": run.samples, "samples_rel": run.ratios,
              "reference_s": run.ref_times, "per_layer": run.layer}
    if trace:
        record["spans"] = run.tr.spans
        record["layer_self_s"] = {"stages": run.tr.layer_self_times(("stage",)),
                                  "probes": run.tr.layer_self_times(("probe",))}
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own child process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "impulsive_ctmdp" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "all":
        return run_all(args)
    spec = load_spec()
    env = environment()
    print("environment: " + json.dumps(env))
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(args.workload, args.seed, bool(args.trace), run, spec, env)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
