"""File formats: model documents, epidemic parameter documents, config files, reports.

Model, parameter and config files are YAML.  Parsing walks the composed node
tree so every semantic error can cite the offending field and its line number.
Report tables are CSV; each run's metadata is a single YAML record.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io as _io
import sys
from collections.abc import Iterable
from typing import TYPE_CHECKING, Any

import yaml

from .epidemic import EpidemicParams
from .model import (
    ActionCatalog,
    CostModel,
    CtmdpModel,
    ImpulseKernel,
    RateKernel,
    StateSpace,
    StationaryPolicy,
)

if TYPE_CHECKING:
    from .bellman import SolveReport
    from .simulate import Trajectory


class ModelParseError(ValueError):
    """Malformed model, parameter or config document; message carries field and line."""


def _line(node: yaml.Node) -> int:
    return node.start_mark.line + 1


def _fail(field: str, node: yaml.Node, msg: str) -> None:
    raise ModelParseError(f"{field} (line {_line(node)}): {msg}")


def _as_map(field: str, node: yaml.Node) -> list[tuple[yaml.Node, yaml.Node]]:
    if not isinstance(node, yaml.MappingNode):
        _fail(field, node, "expected a mapping")
    return node.value


def _as_dict(field: str, node: yaml.Node, known: tuple[str, ...], fold: bool = False) -> dict[str, yaml.Node]:
    """A mapping with string keys, each one of ``known`` and present once;
    ``fold`` reads a ``-`` in a key as ``_``."""
    out: dict[str, yaml.Node] = {}
    for k, v in _as_map(field, node):
        if not isinstance(k, yaml.ScalarNode):
            _fail(field, k, "expected a scalar")
        key = k.value  # only looked up, so not interned
        name = key.replace("-", "_") if fold else key
        if name not in known:
            _fail(field, k, f"unknown key {key!r}")
        if name in out:
            _fail(field, k, f"repeated entry {name!r}")
        out[name] = v
    return out


def _row(field: str, node: yaml.Node) -> tuple[tuple[str, float], ...]:
    """A ``{target: number}`` mapping as (label, value) pairs; each label may appear once."""
    out: dict[str, float] = {}
    for k, v in _as_map(field, node):
        label = _as_str(field, k)
        value = _as_number(field, v, label=label)
        if label in out:
            _fail(field, k, f"repeated entry {label!r}")
        out[label] = value
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
    return sys.intern(node.value)


def _as_number(field: str, node: yaml.Node, kind: type = float, label: str | None = None) -> Any:
    """The scalar's text read by ``kind``.  An error cites ``field``, or
    ``field.label`` when a label is given; that name is made only on failure."""
    if isinstance(node, yaml.ScalarNode):
        try:
            return kind(node.value)
        except ValueError:
            pass
    if label is not None:
        field = f"{field}.{label}"
    raw = _as_str(field, node)
    _fail(field, node, f"expected {'an integer' if kind is int else 'a number'}, got {raw!r}")


# libyaml's C parser when PyYAML was built with it; both keep line marks.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_KIND_TAG = {yaml.ScalarNode: _LOADER.DEFAULT_SCALAR_TAG, yaml.SequenceNode: _LOADER.DEFAULT_SEQUENCE_TAG,
             yaml.MappingNode: _LOADER.DEFAULT_MAPPING_TAG}


class _Untyped:
    """Loader mix-in that gives every node its kind's default tag, as a loader
    with no resolvers would.  Model and parameter documents are read as text, so
    typing each scalar by regex (a Python call per node, even under libyaml) is waste."""

    def resolve(self, kind, value, implicit):
        return _KIND_TAG[kind]

    def descend_resolver(self, current_node, current_index):
        pass

    def ascend_resolver(self):
        pass


class _TextLoader(_Untyped, _LOADER):
    """Composes model and parameter documents; config files keep ``_LOADER``."""


def _compose(text: str, source: str, loader: type, required: bool = True) -> yaml.Node | None:
    """The document's node tree; None for an empty document unless it is ``required``."""
    try:
        node = yaml.compose(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise ModelParseError(f"{source}: invalid YAML: {exc}") from exc
    if node is None and required:
        raise ModelParseError(f"{source}: empty document")
    return node


@contextlib.contextmanager
def _gc_paused():
    """The cyclic garbage collector off for the block, then on again only if it
    was on at entry: its state is process-wide, so a caller's choice stands."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
def parse_model(text: str, source: str = "<string>") -> CtmdpModel:
    """Parse a model document.  See README for the schema.

    The cyclic garbage collector is paused meanwhile (for every thread).  A large
    document's nodes would otherwise set off collections, 316 for 470 KB and over
    a third of the parse, that free nothing: the node tree and the parsed rows
    (tuples of ``str``/``float``) hold no cycles, so reference counting frees them.
    """
    root = _compose(text, source, _TextLoader)
    required = ("states", "gradual_actions", "rates", "costs", "constants")
    sections = _as_dict("document", root, required + ("impulsive_actions", "impulse_rows"))
    for name in required:
        if name not in sections:
            raise ModelParseError(f"{source}: missing required section {name!r}")

    labels = tuple(_as_str("states[]", n) for n in _as_seq("states", sections["states"]))
    states = StateSpace(labels)

    def action_map(field: str, node: yaml.Node | None) -> dict[str, tuple[str, ...]]:
        out: dict[str, tuple[str, ...]] = {}
        for k, v in () if node is None else _as_map(field, node):
            s = _as_str(field, k)
            item_field = f"{field}.{s}[]"
            acts: dict[str, None] = {}  # each label may appear once
            for n in _as_seq(f"{field}.{s}", v):
                a = _as_str(item_field, n)
                if a in acts:
                    _fail(item_field, n, f"repeated entry {a!r}")
                acts[a] = None
            if s in out:
                _fail(field, k, f"repeated entry {s!r}")
            out[s] = tuple(acts)
        return out

    gradual = action_map("gradual_actions", sections["gradual_actions"])
    impulsive = action_map("impulsive_actions", sections.get("impulsive_actions"))
    for s in labels:
        impulsive.setdefault(s, ())

    def pairs(field: str, node: yaml.Node | None, value_key: str, read) -> dict:
        """``{(state, action): read(value)}`` from a list of ``{state, action, value_key}``
        items, each pair once; empty when the section is absent."""
        keys = ("state", "action", value_key)
        item_field, state_field, action_field, value_field = (
            f"{field}[]", f"{field}.state", f"{field}.action", f"{field}.{value_key}")
        out: dict[tuple[str, str], Any] = {}
        for item in () if node is None else _as_seq(field, node):
            entry = _as_dict(item_field, item, keys)
            if len(entry) < len(keys):  # _as_dict admits only known keys, each once
                missing = next(key for key in keys if key not in entry)
                _fail(item_field, item, f"missing key {missing!r}")
            pair = (_as_str(state_field, entry["state"]), _as_str(action_field, entry["action"]))
            value = read(value_field, entry[value_key])
            if pair in out:
                _fail(item_field, item, f"repeated entry {pair!r}")
            out[pair] = value
        return out

    rate_rows = pairs("rates", sections["rates"], "targets", _row)
    # Absent rate rows mean "no jumps" for that pair.
    for s, acts in gradual.items():
        for a in acts:
            rate_rows.setdefault((s, a), ())
    impulse_rows = pairs("impulse_rows", sections.get("impulse_rows"), "distribution", _row)
    cost_sections = _as_dict("costs", sections["costs"], ("gradual", "impulse"))
    gcost = pairs("costs.gradual", cost_sections.get("gradual"), "value", _as_number)
    icost = pairs("costs.impulse", cost_sections.get("impulse"), "value", _as_number)

    const_keys = ("eta", "K_rate", "K_cost", "c_lower")
    consts = _as_dict("constants", sections["constants"], const_keys)
    for key in const_keys:
        if key not in consts:
            raise ModelParseError(f"{source}: constants missing {key!r}")
    return CtmdpModel(
        states=states,
        actions=ActionCatalog(gradual=gradual, impulsive=impulsive),
        rates=RateKernel(rows=rate_rows, K_rate=_as_number("constants.K_rate", consts["K_rate"])),
        impulses=ImpulseKernel(rows=impulse_rows),
        costs=CostModel(
            gradual_cost=gcost,
            impulse_cost=icost,
            eta=_as_number("constants.eta", consts["eta"]),
            K_cost=_as_number("constants.K_cost", consts["K_cost"]),
            c_lower=_as_number("constants.c_lower", consts["c_lower"]),
        ),
    )


def load_model(path: str) -> CtmdpModel:
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read(), source=path)


def parse_epidemic_params(text: str, source: str = "<string>", c_max_override: int | None = None) -> EpidemicParams:
    root = _compose(text, source, _TextLoader)
    keys = ("S", "I", "c0", "C_max", "eta", "kappa_r", "lambda", "rho_b", "rho_d", "kappa_i")
    entries = _as_dict("document", root, keys)
    for key in keys:
        if key not in entries:
            raise ModelParseError(f"{source}: missing required field {key!r}")

    def table(name: str) -> tuple[float, ...]:
        return tuple(_as_number(f"{name}[]", n) for n in _as_seq(name, entries[name]))

    c_max = _as_number("C_max", entries["C_max"], int)  # checked even when overridden
    try:
        return EpidemicParams(
            S=_as_number("S", entries["S"], int),
            I=_as_number("I", entries["I"], int),
            c0=_as_number("c0", entries["c0"], int),
            C_max=c_max if c_max_override is None else c_max_override,
            eta=_as_number("eta", entries["eta"]),
            kappa_r=_as_number("kappa_r", entries["kappa_r"]),
            immunization_cost=_as_number("lambda", entries["lambda"]),
            rho_b=table("rho_b"),
            rho_d=table("rho_d"),
            kappa_i=table("kappa_i"),
        )
    except ValueError as exc:
        raise ModelParseError(f"{source}: {exc}") from exc


def load_epidemic_params(path: str, c_max_override: int | None = None) -> EpidemicParams:
    with open(path, encoding="utf-8") as fh:
        return parse_epidemic_params(fh.read(), source=path, c_max_override=c_max_override)


def load_config(path: str, known: tuple[str, ...]) -> dict[str, Any]:
    """A flat config file's settings with their YAML values; an empty file holds none.
    Each key is one of ``known``, with ``-`` read as ``_``, and appears once
    (``tail-tol`` next to ``tail_tol`` is a repeat)."""
    with open(path, encoding="utf-8") as fh:
        root = _compose(fh.read(), path, _LOADER, required=False)
    entries = {} if root is None else _as_dict(path, root, known, fold=True)
    return {key: _LOADER("").construct_object(node, deep=True) for key, node in entries.items()}


# ---------------------------------------------------------------------------
# Serialization helpers


def csv_table(header: list[str], rows: Iterable[list]) -> str:
    """CSV text: the header line, then one line per row."""
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def solve_report_table(model: CtmdpModel, report: SolveReport, policy: StationaryPolicy) -> str:
    """CSV value table: one row per state with partition flag and chosen action."""
    def row(k: int, s: str) -> list:
        value = repr(report.V[k] + 0.0)  # + 0.0 turns a signed zero into 0.0
        if policy.impulsive[k]:
            return [s, value, "impulsive", policy.impulse_action(model, s)]
        return [s, value, "gradual", policy.gradual_action(model, s)]

    return csv_table(["state", "value", "partition", "action"],
                     (row(k, s) for k, s in enumerate(model.states.labels)))


def solve_report_meta(report: SolveReport) -> dict[str, Any]:
    return {
        "residual": float(report.residual),
        "gap": float(report.gap),
        "iterations_above": report.iterations_above,
        "iterations_below": report.iterations_below,
        "evaluations": report.evaluations,
    }


def trajectory_csv(traj: Trajectory) -> str:
    def row(k: int, ep) -> list:
        chain = [0, "0"] if ep.chain is None else [len(ep.chain.steps), repr(ep.chain.total_cost)]
        return [k, repr(ep.time), ep.pre_jump_state, ep.natural_target, *chain, ep.post_state]

    return csv_table(["epoch", "time", "pre_state", "target", "chain_length", "chain_cost", "post_state"],
                     (row(k, ep) for k, ep in enumerate(traj.epochs)))


def dump_meta(record: dict[str, Any]) -> str:
    return yaml.safe_dump(record, sort_keys=True, default_flow_style=False)
