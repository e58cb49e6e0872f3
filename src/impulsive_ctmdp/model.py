"""Finite CTMDP model with gradual and impulsive controls.

A model bundles a finite state space, per-state action catalogs, a bounded
jump-rate kernel for gradual actions, a stochastic relocation kernel for
impulsive actions, and the cost data (running cost rate, per-impulse cost,
discount rate).  It is stored as flat arrays: for each control kind a
:class:`PairTable` holds the (state, action) pairs grouped by state, their
kernel rows in CSR form and their costs.  Two constructors fill them:

* ``CtmdpModel(states=..., actions=..., rates=..., impulses=..., costs=...)``
  takes per-pair dict rows, flattens them once (the only place that resolves
  target labels), keeps the records it was given, and never raises: unknown
  labels, missing or extra rows and costs, repeated labels and states without
  a gradual action become :class:`Violation` data for :func:`validate_model`;
* :meth:`CtmdpModel.from_arrays` takes the tables directly.  On such a model
  ``rates.rows``, ``impulses.rows``, ``costs.*_cost`` and ``actions.*`` are
  read-only mapping views computed on read.

A :class:`StationaryPolicy` picks one action per state by its catalog
position; it is a value over a model's catalogs, so it lives here too.
All objects are immutable after construction; downstream modules consume
them read-only.  This module needs numpy only.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Any, NamedTuple

import numpy as np

ROW_SUM_TOL = 1e-12

PairKey = tuple[str, str]  # (state label, action label)


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Ordered finite set of opaque state labels."""

    labels: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", {s: k for k, s in enumerate(self.labels)})

    @property
    def N(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class ActionCatalog:
    """Per-state lists of admissible gradual and impulsive action labels.

    ``gradual[x]`` must be nonempty for every state; ``impulsive[x]`` may be
    empty.  Keys are state labels.
    """

    gradual: Mapping[str, tuple[str, ...]]
    impulsive: Mapping[str, tuple[str, ...]]


@dataclass(frozen=True, eq=False)
class RateKernel:
    """Jump rates for gradual actions: (state, action) -> [(target, rate)].

    Rows exclude the diagonal (no self-loop targets); a row's total rate must
    not exceed the declared uniform bound ``K_rate``.
    """

    rows: Mapping[PairKey, tuple[tuple[str, float], ...]]
    K_rate: float

    def total_rate(self, x: str, a: str) -> float:
        return sum(r for _, r in self.rows[(x, a)])


@dataclass(frozen=True, eq=False)
class ImpulseKernel:
    """Relocation distributions for impulsive actions: (state, action) -> rows."""

    rows: Mapping[PairKey, tuple[tuple[str, float], ...]]


@dataclass(frozen=True, eq=False)
class CostModel:
    """Running cost rates, per-impulse costs, and discount rate.

    ``K_cost`` bounds |gradual_cost| and ``c_lower`` > 0 lower-bounds every
    impulse cost; both are declared, not inferred, and checked by
    :func:`validate_model`.
    """

    gradual_cost: Mapping[PairKey, float]
    impulse_cost: Mapping[PairKey, float]
    eta: float
    K_cost: float
    c_lower: float


@dataclass(frozen=True, eq=False)
class PairTable:
    """The (state, action) pairs of one control kind, their kernel rows and costs.

    Pairs are grouped by state in state order, and by catalog order within a
    state.  ``row_rank`` and ``cost_rank`` give each pair's position in the
    mapping its row and cost came from, -1 where it had none; ``None`` means
    pair order.  Validation reports in that order.  Arrays are read-only.
    """

    ptr: np.ndarray            # (N+1,) state k's pairs are ptr[k]:ptr[k+1]
    names: tuple[str, ...]     # (n,) action label of each pair
    row_ptr: np.ndarray        # (n+1,) pair p's row is row_ptr[p]:row_ptr[p+1]
    cols: np.ndarray           # target state index of each entry, -1 for an unknown label
    weights: np.ndarray        # jump rate or relocation probability of each entry
    cost: np.ndarray           # (n,) running cost rate or impulse cost of each pair
    row_rank: np.ndarray | None = None
    cost_rank: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name, dtype in (("ptr", np.int64), ("row_ptr", np.int64), ("cols", np.int64),
                            ("weights", np.float64), ("cost", np.float64),
                            ("row_rank", np.int64), ("cost_rank", np.int64)):
            if getattr(self, name) is not None:
                a = np.array(getattr(self, name), dtype=dtype)
                a.flags.writeable = False
                object.__setattr__(self, name, a)

    def owners(self) -> np.ndarray:
        """State index of each pair."""
        return np.repeat(np.arange(self.ptr.size - 1), np.diff(self.ptr))


@dataclass(frozen=True)
class Violation:
    rule: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.subject}: {self.message}"


# Violations are reported in the order of a walk over the model's records:
# the label checks, the catalogs, each kind's rows entry by entry, the pairs
# missing a row or cost, then the costs.  Each carries a sort key
# (phase, position, entry, rule) in that walk.
_END = 1 << 62  # entry position of a row total, after every entry of the row


class _Kind(NamedTuple):
    name: str        # catalog word in messages
    row: str         # row noun in messages
    target: str      # target noun in messages
    negative: str    # rule for a negative weight
    neg_msg: str     # its message, formatted with (target, weight)
    cost: str        # cost noun in messages
    phase_catalog: int
    phase_rows: int
    phase_missing: int  # catalog pairs without a row or cost
    phase_costs: int


_GRADUAL = _Kind("gradual", "rate row", "rate target", "NEGATIVE_RATE", "rate to {!r} is {}",
                 "gradual cost", 5, 7, 8, 11)
_IMPULSIVE = _Kind("impulsive", "impulse row", "impulse target", "NEGATIVE_PROB",
                   "probability of {!r} is {}", "impulse cost", 6, 9, 10, 12)

Defect = tuple[tuple[int, int, int, int], Violation]


@dataclass(frozen=True, eq=False)
class CtmdpModel:
    states: StateSpace
    actions: ActionCatalog
    rates: RateKernel
    impulses: ImpulseKernel
    costs: CostModel
    gradual_pairs: PairTable = field(init=False, repr=False)
    impulse_pairs: PairTable = field(init=False, repr=False)
    defects: tuple[Defect, ...] = field(init=False, repr=False)  # structural violations

    def __post_init__(self) -> None:
        st = self.states
        defects: list[Defect] = []
        seen: set[str] = set()
        for k, s in enumerate(st.labels):
            if s in seen:
                defects.append(((1, k, 0, 0), Violation("DUPLICATE_LABEL", s, "state label repeated")))
            seen.add(s)
            if not self.actions.gradual.get(s, ()):
                defects.append(((4, k, 0, 0), Violation("GRADUAL_NONEMPTY", s, "no gradual action declared")))
        g = _flatten(st, self.actions.gradual, self.rates.rows, self.costs.gradual_cost, _GRADUAL, defects)
        i = _flatten(st, self.actions.impulsive, self.impulses.rows, self.costs.impulse_cost, _IMPULSIVE, defects)
        object.__setattr__(self, "gradual_pairs", g)
        object.__setattr__(self, "impulse_pairs", i)
        object.__setattr__(self, "defects", tuple(defects))

    @classmethod
    def from_arrays(cls, labels: tuple[str, ...], gradual: PairTable, impulsive: PairTable, *,
                    K_rate: float, eta: float, K_cost: float, c_lower: float) -> CtmdpModel:
        """Model over pair tables whose columns already index ``labels``."""
        st = StateSpace(tuple(labels))
        model = object.__new__(cls)
        for name, value in (
            ("states", st),
            ("actions", ActionCatalog(gradual=_CatalogView(st, gradual), impulsive=_CatalogView(st, impulsive))),
            ("rates", RateKernel(rows=_PairView(st, gradual, _row), K_rate=K_rate)),
            ("impulses", ImpulseKernel(rows=_PairView(st, impulsive, _row))),
            ("costs", CostModel(gradual_cost=_PairView(st, gradual, _cost),
                                impulse_cost=_PairView(st, impulsive, _cost),
                                eta=eta, K_cost=K_cost, c_lower=c_lower)),
            ("gradual_pairs", gradual),
            ("impulse_pairs", impulsive),
            ("defects", ()),
        ):
            object.__setattr__(model, name, value)
        return model

    @property
    def K(self) -> float:
        """Single uniform bound dominating both rates and running costs."""
        return max(self.rates.K_rate, self.costs.K_cost)

    @property
    def eta(self) -> float:
        return self.costs.eta


@dataclass(frozen=True, eq=False)
class StationaryPolicy:
    """Chosen gradual and impulsive action at every state.

    Action values are positions in the state's catalog list.  ``phi_i[x]``
    is -1 where the policy waits; elsewhere the policy intervenes, and
    ``impulsive`` (derived) flags that region.  ``phi_g`` is total (on the
    intervene region it is an arbitrary feasible choice and never applied).
    All three arrays are read-only, and the two passed in are int64 copies;
    entries that are not integers raise ValueError.  A policy is a value:
    two policies with the same decisions are equal and hash alike, so what
    is derived from one (its evaluation, chain factor and sampling tables)
    serves every equal policy.
    """

    phi_g: np.ndarray
    phi_i: np.ndarray
    impulsive: np.ndarray = field(init=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("phi_g", "phi_i"):
            raw = np.asarray(getattr(self, name))
            with np.errstate(invalid="ignore"):
                a = raw.astype(np.int64) if raw.dtype.kind in "biuf" else None
            if a is None or not np.array_equal(a, raw):
                raise ValueError(f"{name} must hold integers")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        imp = self.phi_i >= 0
        imp.flags.writeable = False
        object.__setattr__(self, "impulsive", imp)
        object.__setattr__(self, "_hash", hash((self.phi_g.tobytes(), self.phi_i.tobytes())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StationaryPolicy):
            return NotImplemented
        return self is other or (self._hash == other._hash and np.array_equal(self.phi_g, other.phi_g)
                                 and np.array_equal(self.phi_i, other.phi_i))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Unpickled arrays are writable; a worker's copy goes through the constructor.
        return StationaryPolicy, (self.phi_g, self.phi_i)

    def gradual_action(self, model: CtmdpModel, x: str) -> str:
        k = model.states.index[x]
        return model.actions.gradual[x][int(self.phi_g[k])]

    def impulse_action(self, model: CtmdpModel, x: str) -> str:
        j = int(self.phi_i[model.states.index[x]])
        if j < 0:
            raise KeyError(f"the policy waits at state {x!r}")
        return model.actions.impulsive[x][j]


def _flatten(st: StateSpace, catalog: Mapping, rows: Mapping, costs: Mapping, kind: _Kind,
             defects: list[Defect]) -> PairTable:
    """One control kind's records as a pair table; records what does not fit as defects."""
    labels, index = st.labels, st.index
    for r, x in enumerate(catalog):
        if x not in index:
            defects.append(((kind.phase_catalog, r, 0, 0), Violation(
                "UNKNOWN_STATE", x, f"{kind.name} catalog entry for unknown state")))
    acts = [tuple(catalog.get(x, ())) for x in labels]
    keys = [(x, a) for x, aa in zip(labels, acts) for a in aa]
    pairs = set(keys)

    def ranks(records: Mapping, phase: int, noun: str) -> dict:
        out = {}
        for r, key in enumerate(records):
            if key in pairs:
                out[key] = r
            else:
                defects.append(((phase, r, -1, 0),
                                Violation("COVERAGE", f"{key}", f"{noun} without catalog entry")))
        return out

    row_rank, cost_rank = ranks(rows, kind.phase_rows, kind.row), ranks(costs, kind.phase_costs, kind.cost)
    for n, key in enumerate(dict.fromkeys(keys)):
        if key not in row_rank:
            defects.append(((kind.phase_missing, n, 0, 0),
                            Violation("COVERAGE", f"{key}", f"catalog pair has no {kind.row}")))
        if key not in cost_rank:
            defects.append(((kind.phase_missing, n, 1, 0),
                            Violation("COVERAGE", f"{key}", f"catalog pair has no {kind.cost}")))

    entries = [rows[key] if key in row_rank else () for key in keys]
    flat = list(chain.from_iterable(entries))
    cols = np.fromiter(map(index.get, (t for t, _ in flat), repeat(-1)), dtype=np.int64, count=len(flat))
    row_ptr = np.concatenate([[0], np.cumsum([len(e) for e in entries], dtype=np.int64)])
    for e in np.flatnonzero(cols < 0).tolist():
        p = int(np.searchsorted(row_ptr, e, side="right")) - 1
        at = (kind.phase_rows, row_rank[keys[p]], e - int(row_ptr[p]))
        t, w = flat[e]
        defects.append((at + (0,), Violation("UNKNOWN_STATE", f"{keys[p]}", f"{kind.target} {t!r} unknown")))
        if not w >= 0:  # the weight rule's mask skips unknown targets, whose labels it cannot name
            defects.append((at + (2,), Violation(kind.negative, f"{keys[p]}", kind.neg_msg.format(t, w))))
    return PairTable(
        ptr=np.cumsum([0] + [len(a) for a in acts]),
        names=tuple(chain.from_iterable(acts)),
        row_ptr=row_ptr,
        cols=cols,
        weights=np.array([w for _, w in flat], dtype=np.float64),
        cost=np.array([costs[key] if key in cost_rank else np.nan for key in keys], dtype=np.float64),
        row_rank=np.array([row_rank.get(key, -1) for key in keys], dtype=np.int64),
        cost_rank=np.array([cost_rank.get(key, -1) for key in keys], dtype=np.int64),
    )


def _row(st: StateSpace, t: PairTable, p: int) -> tuple[tuple[str, float], ...]:
    lo, hi = t.row_ptr[p], t.row_ptr[p + 1]
    return tuple(zip([st.labels[c] for c in t.cols[lo:hi].tolist()], t.weights[lo:hi].tolist()))


def _cost(st: StateSpace, t: PairTable, p: int) -> float:
    return float(t.cost[p])


class _PairView(Mapping):
    """Read-only (state, action) -> row or cost mapping over a pair table, computed on read."""

    def __init__(self, st: StateSpace, table: PairTable, value: Callable[[StateSpace, PairTable, int], Any]):
        self._st, self._t, self._value = st, table, value

    def __getitem__(self, key):
        try:
            x, a = key
            k = self._st.index[x]
        except (TypeError, ValueError):
            raise KeyError(key) from None
        lo, hi = self._t.ptr[k], self._t.ptr[k + 1]
        names = self._t.names[lo:hi]
        if a not in names:
            raise KeyError(key)
        return self._value(self._st, self._t, int(lo) + names.index(a))

    def __iter__(self) -> Iterator[PairKey]:
        return zip((self._st.labels[k] for k in self._t.owners().tolist()), self._t.names)

    def __len__(self) -> int:
        return len(self._t.names)


class _CatalogView(Mapping):
    """Read-only state -> action labels mapping over a pair table, computed on read."""

    def __init__(self, st: StateSpace, table: PairTable):
        self._st, self._t = st, table

    def __getitem__(self, x: str) -> tuple[str, ...]:
        k = self._st.index[x]
        return self._t.names[self._t.ptr[k]:self._t.ptr[k + 1]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._st.labels)

    def __len__(self) -> int:
        return self._st.N


def row_sums(ptr: np.ndarray, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running sums within each CSR row ``data[ptr[r]:ptr[r+1]]``, added left to
    right, and each row's total (0 for an empty row).

    One vector step per entry position, over the rows that long, so it costs
    O(nnz) plus a step per position of the widest row.
    """
    cum = data + 0.0
    width = np.diff(ptr)
    order = np.argsort(-width, kind="stable")
    start, neg_width = ptr[:-1][order], -width[order]
    for j in range(1, -int(neg_width[0]) if neg_width.size else 0):
        at = start[:np.searchsorted(neg_width, -j)] + j  # rows longer than j
        cum[at] += cum[at - 1]
    total = np.zeros(width.size)
    total[width > 0] = cum[ptr[1:][width > 0] - 1]
    return cum, total


@np.errstate(invalid="ignore")  # a NaN in the model is reported as a violation, not warned about
def validate_model(model: CtmdpModel) -> list[Violation]:
    """Check every model invariant; an empty report means the model is usable.

    Violations are data, not exceptions: validation is total and side-effect
    free.  The structural defects come from construction; the numeric rules
    run as masks over the pair tables.
    """
    found = dict(model.defects)
    c, K_rate = model.costs, model.rates.K_rate
    if model.states.N < 1:
        found[(0, 0, 0, 0)] = Violation("STATE_COUNT", "states", "state space is empty")
    # Each numeric rule is the negation of its accepted range, so NaN fails it.
    for key, rule, name, noun, value, positive in (
            ((2, 0, 0, 0), "DISCOUNT", "eta", "discount rate", c.eta, True),
            ((2, 1, 0, 0), "RATE_BOUND", "K_rate", "declared rate bound", K_rate, False),
            ((2, 2, 0, 0), "COST_BOUND", "K_cost", "declared cost bound", c.K_cost, False),
            ((3, 0, 0, 0), "IMPULSE_COST_FLOOR", "c_lower", "impulse cost floor", c.c_lower, True)):
        if positive and not value > 0:
            found[key] = Violation(rule, name, f"{noun} must be > 0, got {value}")
        elif not math.isfinite(value):
            found[key] = Violation(rule, name, f"{noun} must be finite, got {value}")
    g, i = model.gradual_pairs, model.impulse_pairs
    g_total = _entry_rules(model, g, _GRADUAL, found)
    i_total = _entry_rules(model, i, _IMPULSIVE, found)
    _pair_rule(model, g, found, _GRADUAL.phase_rows, g.row_rank, _END, ~(g_total <= K_rate + ROW_SUM_TOL),
               lambda p: ("RATE_BOUND", f"total rate {float(g_total[p])} exceeds declared bound K_rate={K_rate}"))
    _pair_rule(model, i, found, _IMPULSIVE.phase_rows, i.row_rank, _END, ~(np.abs(i_total - 1.0) <= ROW_SUM_TOL),
               lambda p: ("ROW_SUM", f"impulse row sums to {float(i_total[p])}, expected 1"))
    _pair_rule(model, g, found, _GRADUAL.phase_costs, g.cost_rank, 0, ~(np.abs(g.cost) <= c.K_cost + ROW_SUM_TOL),
               lambda p: ("COST_BOUND",
                          f"|running cost| {abs(float(g.cost[p]))} exceeds declared bound K_cost={c.K_cost}"))
    _pair_rule(model, i, found, _IMPULSIVE.phase_costs, i.cost_rank, 0, ~(i.cost >= c.c_lower - ROW_SUM_TOL),
               lambda p: ("IMPULSE_COST_FLOOR",
                          f"impulse cost {float(i.cost[p])} is below the declared floor c_lower={c.c_lower}"))
    return [found[k] for k in sorted(found)]


def _subject(model: CtmdpModel, t: PairTable, p: int) -> str:
    k = int(np.searchsorted(t.ptr, p, side="right")) - 1
    return f"{(model.states.labels[k], t.names[p])}"


def _entry_rules(model: CtmdpModel, t: PairTable, kind: _Kind, found: dict) -> np.ndarray:
    """Self-loops and negative weights, entry by entry; returns each row's total."""
    n = len(t.names)
    rank = np.arange(n) if t.row_rank is None else t.row_rank
    pair = np.repeat(np.arange(n), np.diff(t.row_ptr))
    live = (rank[pair] >= 0) & (t.cols >= 0)  # rows the records hold, targets they name
    checks = [(2, live & ~(t.weights >= 0))]
    if kind is _GRADUAL:
        checks.append((1, live & (t.cols == t.owners()[pair])))
    for order, mask in checks:
        for e in np.flatnonzero(mask).tolist():
            p = int(pair[e])
            if order == 1:
                rule, msg = "SELF_LOOP", "rate row assigns mass to its own state"
            else:
                rule, msg = kind.negative, kind.neg_msg.format(model.states.labels[t.cols[e]], float(t.weights[e]))
            key = (kind.phase_rows, int(rank[p]), e - int(t.row_ptr[p]), order)
            found[key] = Violation(rule, _subject(model, t, p), msg)
    return row_sums(t.row_ptr, t.weights)[1]


def _pair_rule(model: CtmdpModel, t: PairTable, found: dict, phase: int, rank: np.ndarray | None,
               entry: int, mask: np.ndarray, message: Callable[[int], tuple[str, str]]) -> None:
    """Report ``message(p)`` for each pair ``p`` in ``mask`` that its records hold."""
    rank = np.arange(mask.size) if rank is None else rank
    for p in np.flatnonzero(mask & (rank >= 0)).tolist():
        rule, msg = message(p)
        found[(phase, int(rank[p]), entry, 0)] = Violation(rule, _subject(model, t, p), msg)
