"""Command-line front end.

Subcommands: validate, solve, simulate, epidemic-solve, epidemic-sweep,
dynkin-check.  Options may come from a flat YAML config file; precedence is
flags > file > defaults, and the effective configuration is echoed into
every output record.

Exit codes: 0 ok, 2 parse error, 3 validation failure, 4 non-convergence,
5 improper chain.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import replace
from typing import Any

import yaml

from . import io as mio
from .bellman import NonConvergenceError, PolicyExtractionError, extract_policy, solve
from .epidemic import (
    CarrierContractionError,
    carrier_residual,
    coefficient_monotonicity_violations,
    lambda_star,
    solve_carrier_equation,
)
from .intervention import ImproperChainError
from .model import validate_model
from .simulate import dynkin_check, estimate_cost, replication_rng, simulate_trajectory

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NONCONVERGENCE = 4
EXIT_IMPROPER_CHAIN = 5

DEFAULT_SEED = 12345
DEFAULTS: dict[str, Any] = {
    "tol": 1e-10,
    "tail_tol": 1e-8,
    "reps": 10_000,
    "seed": DEFAULT_SEED,
    "threads": 1,
    "t_horizon": 1.0,
    "c_max": None,
    "x0": None,
    "lambdas": None,
    "out": None,
}


def _error(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": {"code": code, "type": kind, "message": message}}), file=sys.stderr)
    return code


def _effective(args: argparse.Namespace) -> dict[str, Any]:
    """Merge defaults, config file, and explicit flags."""
    cfg = dict(DEFAULTS)
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh.read()) or {}
        if not isinstance(loaded, dict):
            raise mio.ModelParseError(f"{args.config}: config must be a flat mapping")
        for k, v in loaded.items():
            key = str(k).replace("-", "_")
            if key not in DEFAULTS and key not in ("model", "params"):
                raise mio.ModelParseError(f"{args.config}: unknown config key {k!r}")
            cfg[key] = v
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key in ("model", "params"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg["command"] = args.command
    return cfg


def _emit(cfg: dict[str, Any], meta: dict[str, Any], tables: dict[str, str]) -> int:
    """Write the run record and tables (stdout when no output directory given); returns EXIT_OK."""
    record = {"config": {k: v for k, v in cfg.items() if v is not None}, "result": meta}
    text = mio.dump_meta(record)
    out = cfg.get("out")
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "report.yaml"), "w", encoding="utf-8") as fh:
            fh.write(text)
        for name, content in tables.items():
            with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
                fh.write(content)
    else:
        sys.stdout.write(text)
        for name, content in tables.items():
            sys.stdout.write(f"--- {name}\n{content}")
    return EXIT_OK


def _csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _load_valid_model(cfg: dict[str, Any]):
    model = mio.load_model(cfg["model"])
    report = validate_model(model)
    if report:
        raise _ValidationFailure(report)
    return model


class _UsageError(Exception):
    pass


def _number(name: str, raw: Any, kind: type, ok: Callable[[Any], bool], need: str):
    """``raw`` converted by ``kind`` when ``ok`` holds for it; anything else is a usage error.

    A YAML boolean is no number, and a fractional float is no integer (``int``
    would truncate it, so the run would differ from the recorded config).
    """
    try:
        val = kind(raw)
        if ok(val) and not isinstance(raw, bool) and not (isinstance(raw, float) and val != raw):
            return val
    except (TypeError, ValueError, OverflowError):
        pass
    raise _UsageError(f"{name} must be {need}, got {raw!r}")


def _positive(name: str, raw: Any) -> float:
    return _number(name, raw, float, lambda v: 0 < v < math.inf, "a finite number > 0")


def _lambdas(raw: Any) -> list[float]:
    items = raw if isinstance(raw, list) else str(raw).split(",")
    return [_positive("lambdas", x) for x in items]


def _check_numbers(cfg: dict[str, Any]) -> None:
    """Reject numeric options outside their ranges, whether from flags or the config file."""
    for key in ("tol", "tail_tol", "t_horizon"):
        _positive(key.replace("_", "-"), cfg[key])
    for key, least in (("reps", 2), ("threads", 1), ("seed", 0), ("c_max", 1)):
        if cfg[key] is not None:
            _number(key.replace("_", "-"), cfg[key], int, lambda v: v >= least, f"an integer >= {least}")
    if cfg["lambdas"]:
        _lambdas(cfg["lambdas"])


def _initial_state(cfg: dict[str, Any], model) -> str:
    x0 = cfg.get("x0")
    x0 = model.states.labels[0] if x0 is None else str(x0)
    if x0 not in model.states.index:
        raise _UsageError(f"--x0 {x0!r} is not a state of the model")
    return x0


class _ValidationFailure(Exception):
    def __init__(self, report):
        super().__init__("model validation failed")
        self.report = report


def _cmd_validate(cfg: dict[str, Any]) -> int:
    model = mio.load_model(cfg["model"])
    report = validate_model(model)
    meta = {"violations": [str(v) for v in report], "valid": not report}
    _emit(cfg, meta, {})
    return EXIT_OK if not report else EXIT_VALIDATION


def _solve_and_policy(model, tol: float):
    report = solve(model, tol=tol)
    policy = extract_policy(model, report.V)
    return report, policy


def _cmd_solve(cfg: dict[str, Any]) -> int:
    model = _load_valid_model(cfg)
    report, policy = _solve_and_policy(model, float(cfg["tol"]))
    return _emit(cfg, mio.solve_report_meta(report),
                 {"values.csv": mio.solve_report_table(model, report, policy)})


def _cmd_simulate(cfg: dict[str, Any]) -> int:
    model = _load_valid_model(cfg)
    x0 = _initial_state(cfg, model)
    report, policy = _solve_and_policy(model, float(cfg["tol"]))
    est = estimate_cost(model, policy, x0, int(cfg["reps"]), int(cfg["seed"]),
                        tail_tol=float(cfg["tail_tol"]), threads=int(cfg["threads"]))
    sample = simulate_trajectory(model, policy, x0, replication_rng(int(cfg["seed"]), 0),
                                 tail_tol=float(cfg["tail_tol"]))
    meta = {
        "x0": x0,
        "mean": est.mean,
        "std_error": est.std_error,
        "n_replications": est.n_replications,
        "solved_value_at_x0": report.V[model.states.index[x0]] + 0.0,  # no signed zero
        "truncation_time": sample.truncation_time,
    }
    return _emit(cfg, meta, {"trajectory0.csv": mio.trajectory_csv(sample)})


def _load_params(cfg: dict[str, Any]):
    c_max = cfg.get("c_max")
    return mio.load_epidemic_params(cfg["params"], c_max_override=None if c_max is None else int(c_max))


def _cmd_epidemic_solve(cfg: dict[str, Any]) -> int:
    params = _load_params(cfg)
    cv = solve_carrier_equation(params, tol=float(cfg["tol"]))
    meta = {
        "c_star": cv.c_star,
        "lambda_star": cv.lambda_star,
        "carrier_residual": carrier_residual(params, cv),
        "monotonicity_warnings": coefficient_monotonicity_violations(params),
    }
    table = _csv(["c", "v"], ([c, repr(float(val))] for c, val in enumerate(cv.v)))
    return _emit(cfg, meta, {"carrier_value.csv": table})


def _cmd_epidemic_sweep(cfg: dict[str, Any]) -> int:
    params = _load_params(cfg)
    if cfg.get("lambdas"):
        lams = _lambdas(cfg["lambdas"])
    else:
        top = lambda_star(params)
        lams = [round(f * top, 12) for f in
                (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0, 1.05, 1.25, 1.5)]
        lams = [l for l in lams if l > 0] or [0.1]
    rows = []
    for lam in lams:
        p = replace(params, immunization_cost=lam)
        cv = solve_carrier_equation(p, tol=float(cfg["tol"]))
        rows.append([repr(lam), "" if cv.c_star is None else cv.c_star,
                     repr(cv.lambda_star), repr(carrier_residual(p, cv))])
    table = _csv(["lambda", "c_star", "lambda_star", "v_residual"], rows)
    return _emit(cfg, {"n_lambdas": len(lams)}, {"sweep.csv": table})


def _cmd_dynkin(cfg: dict[str, Any]) -> int:
    model = _load_valid_model(cfg)
    x0 = _initial_state(cfg, model)
    report, policy = _solve_and_policy(model, float(cfg["tol"]))
    res = dynkin_check(model, policy, report.V, x0, float(cfg["t_horizon"]),
                       int(cfg["reps"]), int(cfg["seed"]))
    meta = {
        "x0": x0,
        "lhs": res.lhs,
        "rhs": res.rhs,
        "diff": res.diff,
        "std_error": res.std_error,
        "within_3_sigma": abs(res.diff) <= 3.0 * res.std_error + 1e-12,
    }
    return _emit(cfg, meta, {})


COMMANDS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "epidemic-solve": _cmd_epidemic_solve,
    "epidemic-sweep": _cmd_epidemic_sweep,
    "dynkin-check": _cmd_dynkin,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="impulsive-ctmdp",
        description="Solve and simulate discounted CTMDPs with gradual and impulsive controls. "
                    "Exit codes: 0 ok, 2 parse, 3 validation, 4 non-convergence, 5 improper chain.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="flat YAML config file; flags override its entries")
        sp.add_argument("--model", help="model document path")
        sp.add_argument("--params", help="epidemic parameter document path")
        sp.add_argument("--tol", type=float, help="solver tolerance (default 1e-10)")
        sp.add_argument("--tail-tol", dest="tail_tol", type=float,
                        help="discounted-tail truncation bound (default 1e-8)")
        sp.add_argument("--reps", type=int, help="Monte Carlo replications (default 10000)")
        sp.add_argument("--seed", type=int, help=f"master seed (default {DEFAULT_SEED})")
        sp.add_argument("--threads", type=int, help="worker process cap for simulation (default 1)")
        sp.add_argument("--out", help="output directory; stdout when omitted")
        sp.add_argument("--c-max", dest="c_max", type=int, help="carrier truncation override")
        sp.add_argument("--x0", help="initial state label (default: first state)")
        sp.add_argument("--t-horizon", dest="t_horizon", type=float,
                        help="horizon for dynkin-check (default 1.0)")
        sp.add_argument("--lambdas", help="comma-separated immunization prices for epidemic-sweep")
    return p


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _effective(args)
        _check_numbers(cfg)
        needs_model = args.command in ("validate", "solve", "simulate", "dynkin-check")
        if needs_model and not cfg.get("model"):
            return _error(EXIT_PARSE, "usage", f"{args.command} requires --model")
        if args.command.startswith("epidemic") and not cfg.get("params"):
            return _error(EXIT_PARSE, "usage", f"{args.command} requires --params")
        return COMMANDS[args.command](cfg)
    except (mio.ModelParseError, OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        return _error(EXIT_PARSE, "parse", str(exc))
    except _UsageError as exc:
        return _error(EXIT_PARSE, "usage", str(exc))
    except (_ValidationFailure,) as exc:
        for v in exc.report:
            print(str(v), file=sys.stderr)
        return _error(EXIT_VALIDATION, "validation", "model validation failed")
    except CarrierContractionError as exc:
        return _error(EXIT_VALIDATION, "validation", str(exc))
    except (NonConvergenceError, PolicyExtractionError) as exc:
        return _error(EXIT_NONCONVERGENCE, "non-convergence", str(exc))
    except ImproperChainError as exc:
        return _error(EXIT_IMPROPER_CHAIN, "improper-chain", str(exc))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
