"""Command-line front end.

Subcommands: validate, solve, simulate, epidemic-solve, epidemic-sweep,
dynkin-check.  Each option is declared once, in :data:`OPTIONS`, with the
converter that reads it from a flag or a flat YAML config file; precedence
is flags > file > defaults, and the effective, converted configuration is
echoed into every output record.

Exit codes: 0 ok, 2 parse or usage error, 3 validation failure,
4 non-convergence or out of memory, 5 improper chain.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import replace
from typing import Any, NamedTuple

import yaml

from . import io as mio
from .epidemic import (
    CarrierContractionError,
    carrier_residual,
    coefficient_monotonicity_violations,
    lambda_star,
    solve_carrier_equation,
)
from .errors import DEFAULT_TAIL_TOL, DEFAULT_TOL, ImproperChainError, NonConvergenceError
from .model import CtmdpModel, validate_model

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NONCONVERGENCE = 4
EXIT_IMPROPER_CHAIN = 5


class _UsageError(Exception):
    pass


class _ValidationFailure(Exception):
    pass


def _number(kind: type, ok: Callable[[Any], bool], need: str) -> Callable[[Any], Any]:
    """Converter to ``kind`` where ``ok`` holds, else ValueError(need).  A YAML boolean is no
    number, and a fractional float no integer (``int`` would truncate what the echo records)."""
    def convert(raw: Any) -> Any:
        try:
            val = kind(raw)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(need) from None
        if isinstance(raw, bool) or (isinstance(raw, float) and val != raw) or not ok(val):
            raise ValueError(need)
        return val
    return convert


_positive = _number(float, lambda v: 0 < v < math.inf, "a finite number > 0")


def _integer(least: int) -> Callable[[Any], int]:
    return _number(int, lambda v: v >= least, f"an integer >= {least}")


def _path(raw: Any) -> str:
    if not isinstance(raw, str):
        raise ValueError("a path")
    return raw


def _label(raw: Any) -> str:
    if raw is None or isinstance(raw, (list, dict)):
        raise ValueError("a state label")
    return str(raw)  # YAML reads `x0: 1` as an integer


def _prices(raw: Any) -> list[float]:
    """A YAML list, or comma-separated text, of finite numbers > 0."""
    items = raw if isinstance(raw, list) else str(raw).split(",")
    try:
        prices = [_positive(x) for x in items]
    except ValueError:
        prices = []
    if not prices:
        raise ValueError("a nonempty comma-separated list of finite numbers > 0")
    return prices


class Option(NamedTuple):
    convert: Callable[[Any], Any]  # flag text or config value -> effective value; ValueError(need) if bad
    default: Any                   # None: unset unless given
    help: str


# Every option, as a flag (``_`` written ``-``) and as a config-file key (either spelling).
OPTIONS: dict[str, Option] = {
    "model": Option(_path, None, "model document path"),
    "params": Option(_path, None, "epidemic parameter document path"),
    "tol": Option(_positive, DEFAULT_TOL, "solver tolerance"),
    "tail_tol": Option(_positive, DEFAULT_TAIL_TOL, "discounted-tail truncation bound"),
    "reps": Option(_integer(2), 10_000, "Monte Carlo replications"),
    "seed": Option(_integer(0), 12345, "master seed"),
    "threads": Option(_integer(1), 1, "worker process cap for simulation"),
    "out": Option(_path, None, "output directory; stdout when omitted"),
    "c_max": Option(_integer(1), None, "carrier truncation override"),
    "x0": Option(_label, None, "initial state label (default: first state)"),
    "t_horizon": Option(_positive, 1.0, "horizon for dynkin-check"),
    "lambdas": Option(_prices, None, "comma-separated immunization prices for epidemic-sweep"),
}


def _effective(args: argparse.Namespace) -> dict[str, Any]:
    """Defaults, overridden by the config file, overridden by explicit flags;
    every given value goes through its option's converter."""
    given = mio.load_config(args.config, tuple(OPTIONS)) if args.config else {}
    given.update((key, getattr(args, key)) for key in OPTIONS if getattr(args, key) is not None)
    cfg = {key: opt.default for key, opt in OPTIONS.items()}
    for key, raw in given.items():
        try:
            cfg[key] = OPTIONS[key].convert(raw)
        except ValueError as exc:
            raise _UsageError(f"{key.replace('_', '-')} must be {exc}, got {raw!r}") from None
    cfg["command"] = args.command
    return cfg


def _emit(cfg: dict[str, Any], meta: dict[str, Any], tables: dict[str, str]) -> int:
    """Write the run record and tables (stdout when no output directory given); returns EXIT_OK."""
    record = {"config": {k: v for k, v in cfg.items() if v is not None}, "result": meta}
    text = mio.dump_meta(record)
    if cfg["out"]:
        os.makedirs(cfg["out"], exist_ok=True)
        for name, content in {"report.yaml": text, **tables}.items():
            with open(os.path.join(cfg["out"], name), "w", encoding="utf-8") as fh:
                fh.write(content)
    else:
        sys.stdout.write(text + "".join(f"--- {name}\n{content}" for name, content in tables.items()))
    return EXIT_OK


def _load_valid_model(cfg: dict[str, Any]):
    model = mio.load_model(cfg["model"])
    report = validate_model(model)
    for v in report:
        print(str(v), file=sys.stderr)
    if report:
        raise _ValidationFailure("model validation failed")
    return model


def solve(model: CtmdpModel, tol: float):
    """:func:`bellman.solve`, imported on the first call: only the commands
    that solve or sample load scipy and the solver."""
    from .bellman import solve

    return solve(model, tol=tol)


def _solve_from_x0(cfg: dict[str, Any]):
    """The valid model, its initial state and its solve report."""
    model = _load_valid_model(cfg)
    x0 = model.states.labels[0] if cfg["x0"] is None else cfg["x0"]
    if x0 not in model.states.index:
        raise _UsageError(f"--x0 {x0!r} is not a state of the model")
    return model, x0, solve(model, tol=cfg["tol"])


def _cmd_validate(cfg: dict[str, Any]) -> int:
    report = validate_model(mio.load_model(cfg["model"]))
    _emit(cfg, {"violations": [str(v) for v in report], "valid": not report}, {})
    return _error(EXIT_VALIDATION, "validation", "model validation failed") if report else EXIT_OK


def _cmd_solve(cfg: dict[str, Any]) -> int:
    model = _load_valid_model(cfg)
    report = solve(model, tol=cfg["tol"])
    return _emit(cfg, mio.solve_report_meta(report),
                 {"values.csv": mio.solve_report_table(model, report, report.policy)})


def _cmd_simulate(cfg: dict[str, Any]) -> int:
    model, x0, report = _solve_from_x0(cfg)
    # Loaded after the parse, so the document's node tree and scipy are never resident together.
    from .simulate import estimate_cost, replication_rng, simulate_trajectory

    est = estimate_cost(model, report.policy, x0, cfg["reps"], cfg["seed"],
                        tail_tol=cfg["tail_tol"], threads=cfg["threads"])
    sample = simulate_trajectory(model, report.policy, x0, replication_rng(cfg["seed"], 0),
                                 tail_tol=cfg["tail_tol"])
    meta = {
        "x0": x0,
        "mean": est.mean,
        "std_error": est.std_error,
        "n_replications": est.n_replications,
        "solved_value_at_x0": report.V[model.states.index[x0]] + 0.0,  # no signed zero
        "truncation_time": sample.truncation_time,
    }
    return _emit(cfg, meta, {"trajectory0.csv": mio.trajectory_csv(sample)})


def _cmd_epidemic_solve(cfg: dict[str, Any]) -> int:
    params = mio.load_epidemic_params(cfg["params"], c_max_override=cfg["c_max"])
    cv = solve_carrier_equation(params, tol=cfg["tol"])
    meta = {
        "c_star": cv.c_star,
        "lambda_star": cv.lambda_star,
        "carrier_residual": carrier_residual(params, cv),
        "monotonicity_warnings": coefficient_monotonicity_violations(params),
    }
    table = mio.csv_table(["c", "v"], ([c, repr(float(val))] for c, val in enumerate(cv.v)))
    return _emit(cfg, meta, {"carrier_value.csv": table})


def _cmd_epidemic_sweep(cfg: dict[str, Any]) -> int:
    params = mio.load_epidemic_params(cfg["params"], c_max_override=cfg["c_max"])
    grid = (round(f * lambda_star(params), 12) for f in (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0, 1.05, 1.25, 1.5))
    lams = cfg["lambdas"] or [l for l in grid if l > 0] or [0.1]
    rows = []
    for lam in lams:
        p = replace(params, immunization_cost=lam)
        cv = solve_carrier_equation(p, tol=cfg["tol"])
        rows.append([repr(lam), "" if cv.c_star is None else cv.c_star,
                     repr(cv.lambda_star), repr(carrier_residual(p, cv))])
    table = mio.csv_table(["lambda", "c_star", "lambda_star", "v_residual"], rows)
    return _emit(cfg, {"n_lambdas": len(lams)}, {"sweep.csv": table})


def _cmd_dynkin(cfg: dict[str, Any]) -> int:
    model, x0, report = _solve_from_x0(cfg)
    from .simulate import dynkin_check  # after the parse, as in simulate

    res = dynkin_check(model, report.policy, report.V, x0, cfg["t_horizon"], cfg["reps"], cfg["seed"])
    meta = {
        "x0": x0,
        "lhs": res.lhs,
        "rhs": res.rhs,
        "diff": res.diff,
        "std_error": res.std_error,
        "within_3_sigma": abs(res.diff) <= 3.0 * res.std_error + 1e-12,
    }
    return _emit(cfg, meta, {})


# Each command and the document option it requires.
COMMANDS: dict[str, tuple[Callable[[dict[str, Any]], int], str]] = {
    "validate": (_cmd_validate, "model"),
    "solve": (_cmd_solve, "model"),
    "simulate": (_cmd_simulate, "model"),
    "epidemic-solve": (_cmd_epidemic_solve, "params"),
    "epidemic-sweep": (_cmd_epidemic_sweep, "params"),
    "dynkin-check": (_cmd_dynkin, "model"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # argparse's own usage errors get the JSON record too, not its usage text.
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="impulsive-ctmdp",
        description="Solve and simulate discounted CTMDPs with gradual and impulsive controls. "
                    "Exit codes: 0 ok, 2 parse or usage, 3 validation, 4 non-convergence or out of memory, "
                    "5 improper chain.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="flat YAML config file; flags override its entries")
        for key, opt in OPTIONS.items():
            default = "" if opt.default is None else f" (default {opt.default})"
            sp.add_argument("--" + key.replace("_", "-"), help=opt.help + default)
    return p


def _error(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": {"code": code, "type": kind, "message": message}}), file=sys.stderr)
    return code


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _effective(args)
        command, document = COMMANDS[args.command]
        if not cfg[document]:
            raise _UsageError(f"{args.command} requires --{document}")
        return command(cfg)
    except (mio.ModelParseError, OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        return _error(EXIT_PARSE, "parse", str(exc))
    except _UsageError as exc:
        return _error(EXIT_PARSE, "usage", str(exc))
    except (_ValidationFailure, CarrierContractionError) as exc:
        return _error(EXIT_VALIDATION, "validation", str(exc))
    except NonConvergenceError as exc:
        return _error(EXIT_NONCONVERGENCE, "non-convergence", str(exc))
    except MemoryError as exc:
        return _error(EXIT_NONCONVERGENCE, "out-of-memory", str(exc) or "out of memory")
    except ImproperChainError as exc:
        return _error(EXIT_IMPROPER_CHAIN, "improper-chain", str(exc))


def main() -> None:
    code = run()
    # Shutdown's collections run even with the collector off; frozen objects
    # (numpy, scipy, the model) are skipped.  Every artifact is closed by now,
    # and sys.exit still flushes stdio and runs atexit handlers.  run() itself
    # does not freeze: tests and library users call it in process.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
