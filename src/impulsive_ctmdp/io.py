"""File formats: model documents, epidemic parameter documents, reports.

Model and parameter files are YAML.  Parsing walks the composed node tree so
every semantic error can cite the offending field and its line number.
Report tables are CSV; each run's metadata is a single YAML record.
"""

from __future__ import annotations

import csv
import io as _io
import sys
from typing import Any

import yaml

from .bellman import SolveReport, StationaryPolicy
from .epidemic import EpidemicParams
from .model import (
    ActionCatalog,
    CostModel,
    CtmdpModel,
    ImpulseKernel,
    RateKernel,
    StateSpace,
)
from .simulate import Trajectory


class ModelParseError(ValueError):
    """Malformed model or parameter document; message carries field and line."""


def _line(node: yaml.Node) -> int:
    return node.start_mark.line + 1


def _fail(field: str, node: yaml.Node, msg: str) -> None:
    raise ModelParseError(f"{field} (line {_line(node)}): {msg}")


def _as_map(field: str, node: yaml.Node) -> list[tuple[yaml.Node, yaml.Node]]:
    if not isinstance(node, yaml.MappingNode):
        _fail(field, node, "expected a mapping")
    return node.value


def _put(field: str, out: dict, key: Any, value: Any, node: yaml.Node) -> None:
    """``out[key] = value``; a key already there is a repeat, cited at ``node``."""
    if key in out:
        _fail(field, node, f"repeated entry {key!r}")
    out[key] = value


def _as_dict(field: str, node: yaml.Node, known: tuple[str, ...]) -> dict[str, yaml.Node]:
    """A mapping with string keys, each one of ``known`` and present once."""
    out: dict[str, yaml.Node] = {}
    for k, v in _as_map(field, node):
        key = _as_str(field, k)
        if key not in known:
            _fail(field, k, f"unknown key {key!r}")
        _put(field, out, key, v, k)
    return out


def _row(field: str, node: yaml.Node) -> tuple[tuple[str, float], ...]:
    """A ``{target: number}`` mapping as (label, value) pairs; each label may appear once."""
    out: dict[str, float] = {}
    for k, v in _as_map(field, node):
        label = _as_str(field, k)
        _put(field, out, label, _as_float(f"{field}.{label}", v), k)
    return tuple(out.items())


def _as_seq(field: str, node: yaml.Node) -> list[yaml.Node]:
    if not isinstance(node, yaml.SequenceNode):
        _fail(field, node, "expected a list")
    return node.value


def _as_str(field: str, node: yaml.Node) -> str:
    if not isinstance(node, yaml.ScalarNode):
        _fail(field, node, "expected a scalar")
    # Labels repeat throughout a document.  Interning keeps one string per
    # label, so the model pins none of the node tree's memory once parsed.
    return sys.intern(str(node.value))


def _as_float(field: str, node: yaml.Node) -> float:
    raw = _as_str(field, node)
    try:
        return float(raw)
    except ValueError:
        _fail(field, node, f"expected a number, got {raw!r}")


def _as_int(field: str, node: yaml.Node) -> int:
    raw = _as_str(field, node)
    try:
        return int(raw)
    except ValueError:
        _fail(field, node, f"expected an integer, got {raw!r}")


# libyaml's C parser when PyYAML was built with it; both keep line marks.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _compose(text: str, source: str) -> yaml.Node:
    try:
        node = yaml.compose(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ModelParseError(f"{source}: invalid YAML: {exc}") from exc
    if node is None:
        raise ModelParseError(f"{source}: empty document")
    return node


def parse_model(text: str, source: str = "<string>") -> CtmdpModel:
    """Parse a model document.  See README for the schema."""
    root = _compose(text, source)
    required = ("states", "gradual_actions", "rates", "costs", "constants")
    sections = _as_dict("document", root, required + ("impulsive_actions", "impulse_rows"))
    for name in required:
        if name not in sections:
            raise ModelParseError(f"{source}: missing required section {name!r}")

    labels = tuple(_as_str("states[]", n) for n in _as_seq("states", sections["states"]))
    states = StateSpace(labels)

    def action_map(field: str, node: yaml.Node) -> dict[str, tuple[str, ...]]:
        out: dict[str, tuple[str, ...]] = {}
        for k, v in _as_map(field, node):
            s = _as_str(field, k)
            acts: dict[str, None] = {}  # each label may appear once
            for n in _as_seq(f"{field}.{s}", v):
                _put(f"{field}.{s}[]", acts, _as_str(f"{field}.{s}[]", n), None, n)
            _put(field, out, s, tuple(acts), k)
        return out

    gradual = action_map("gradual_actions", sections["gradual_actions"])
    impulsive = action_map("impulsive_actions", sections["impulsive_actions"]) \
        if "impulsive_actions" in sections else {}
    for s in labels:
        impulsive.setdefault(s, ())

    def pair_entries(field: str, node: yaml.Node, value_key: str):
        keys = ("state", "action", value_key)
        for item in _as_seq(field, node):
            entry = _as_dict(f"{field}[]", item, keys)
            for key in keys:
                if key not in entry:
                    _fail(f"{field}[]", item, f"missing key {key!r}")
            yield (_as_str(f"{field}.state", entry["state"]),
                   _as_str(f"{field}.action", entry["action"]),
                   entry[value_key], item)

    rate_rows: dict[tuple[str, str], tuple[tuple[str, float], ...]] = {}
    for s, a, tnode, item in pair_entries("rates", sections["rates"], "targets"):
        _put("rates[]", rate_rows, (s, a), _row("rates.targets", tnode), item)
    # Absent rate rows mean "no jumps" for that pair.
    for s, acts in gradual.items():
        for a in acts:
            rate_rows.setdefault((s, a), ())

    impulse_rows: dict[tuple[str, str], tuple[tuple[str, float], ...]] = {}
    if "impulse_rows" in sections:
        for s, a, dnode, item in pair_entries("impulse_rows", sections["impulse_rows"], "distribution"):
            _put("impulse_rows[]", impulse_rows, (s, a), _row("impulse_rows.distribution", dnode), item)

    cost_sections = _as_dict("costs", sections["costs"], ("gradual", "impulse"))
    gcost: dict[tuple[str, str], float] = {}
    if "gradual" in cost_sections:
        for s, a, vnode, item in pair_entries("costs.gradual", cost_sections["gradual"], "value"):
            _put("costs.gradual[]", gcost, (s, a), _as_float("costs.gradual.value", vnode), item)
    icost: dict[tuple[str, str], float] = {}
    if "impulse" in cost_sections:
        for s, a, vnode, item in pair_entries("costs.impulse", cost_sections["impulse"], "value"):
            _put("costs.impulse[]", icost, (s, a), _as_float("costs.impulse.value", vnode), item)

    const_keys = ("eta", "K_rate", "K_cost", "c_lower")
    consts = _as_dict("constants", sections["constants"], const_keys)
    for key in const_keys:
        if key not in consts:
            raise ModelParseError(f"{source}: constants missing {key!r}")
    return CtmdpModel(
        states=states,
        actions=ActionCatalog(gradual=gradual, impulsive=impulsive),
        rates=RateKernel(rows=rate_rows, K_rate=_as_float("constants.K_rate", consts["K_rate"])),
        impulses=ImpulseKernel(rows=impulse_rows),
        costs=CostModel(
            gradual_cost=gcost,
            impulse_cost=icost,
            eta=_as_float("constants.eta", consts["eta"]),
            K_cost=_as_float("constants.K_cost", consts["K_cost"]),
            c_lower=_as_float("constants.c_lower", consts["c_lower"]),
        ),
    )


def load_model(path: str) -> CtmdpModel:
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read(), source=path)


def parse_epidemic_params(text: str, source: str = "<string>", c_max_override: int | None = None) -> EpidemicParams:
    root = _compose(text, source)
    keys = ("S", "I", "c0", "C_max", "eta", "kappa_r", "lambda", "rho_b", "rho_d", "kappa_i")
    entries = _as_dict("document", root, keys)
    for key in keys:
        if key not in entries:
            raise ModelParseError(f"{source}: missing required field {key!r}")

    def table(name: str) -> tuple[float, ...]:
        return tuple(_as_float(f"{name}[]", n) for n in _as_seq(name, entries[name]))

    c_max = c_max_override if c_max_override is not None else _as_int("C_max", entries["C_max"])
    try:
        return EpidemicParams(
            S=_as_int("S", entries["S"]),
            I=_as_int("I", entries["I"]),
            c0=_as_int("c0", entries["c0"]),
            C_max=c_max,
            eta=_as_float("eta", entries["eta"]),
            kappa_r=_as_float("kappa_r", entries["kappa_r"]),
            immunization_cost=_as_float("lambda", entries["lambda"]),
            rho_b=table("rho_b"),
            rho_d=table("rho_d"),
            kappa_i=table("kappa_i"),
        )
    except ValueError as exc:
        raise ModelParseError(f"{source}: {exc}") from exc


def load_epidemic_params(path: str, c_max_override: int | None = None) -> EpidemicParams:
    with open(path, encoding="utf-8") as fh:
        return parse_epidemic_params(fh.read(), source=path, c_max_override=c_max_override)


# ---------------------------------------------------------------------------
# Serialization helpers


def solve_report_table(model: CtmdpModel, report: SolveReport, policy: StationaryPolicy) -> str:
    """CSV value table: one row per state with partition flag and chosen action."""
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["state", "value", "partition", "action"])
    for k, s in enumerate(model.states.labels):
        value = repr(report.V[k] + 0.0)  # + 0.0 turns a signed zero into 0.0
        if policy.impulsive[k]:
            w.writerow([s, value, "impulsive", policy.impulse_action(model, s)])
        else:
            w.writerow([s, value, "gradual", policy.gradual_action(model, s)])
    return buf.getvalue()


def solve_report_meta(report: SolveReport) -> dict[str, Any]:
    return {
        "residual": float(report.residual),
        "gap": float(report.gap),
        "iterations_above": report.iterations_above,
        "iterations_below": report.iterations_below,
        "evaluations": report.evaluations,
    }


def trajectory_csv(traj: Trajectory) -> str:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["epoch", "time", "pre_state", "target", "chain_length", "chain_cost", "post_state"])
    for k, ep in enumerate(traj.epochs):
        if ep.chain is not None:
            w.writerow([k, repr(ep.time), ep.pre_jump_state, ep.natural_target,
                        len(ep.chain.steps), repr(ep.chain.total_cost), ep.post_state])
        else:
            w.writerow([k, repr(ep.time), ep.pre_jump_state, ep.natural_target, 0, "0", ep.post_state])
    return buf.getvalue()


def dump_meta(record: dict[str, Any]) -> str:
    return yaml.safe_dump(record, sort_keys=True, default_flow_style=False)
