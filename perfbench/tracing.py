"""Spans recorded by the benchmark around its calls into the package.

Every timed call goes through :meth:`Tracer.span`, which always measures the
call's wall time; with tracing on it also records the span (name, start,
end, parent span, run id) in memory.  Nothing is written until the run ends.

Span names are ``<layer>.<function>`` for calls into a package module (the
layers are the module names: ``model``, ``io``, ``_ops``, ``bellman``,
``intervention``, ``simulate``, ``epidemic``, ``cli``), ``stage.<name>`` for
the benchmark's own stages, whose durations are the end-to-end metrics, and
``probe.<name>`` for measurements made only in traced runs.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("model", "io", "_ops", "bellman", "intervention", "simulate", "epidemic", "cli")


class Timing:
    """Wall time of one span, readable after its ``with`` block ends."""

    __slots__ = ("start", "end")

    def __init__(self, start: float):
        self.start = start
        self.end = start

    @property
    def elapsed(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.run_id = 0

    @contextmanager
    def span(self, name: str):
        t = Timing(perf_counter())
        if not self.enabled:
            try:
                yield t
            finally:
                t.end = perf_counter()
            return
        rec = {"name": name, "start": t.start, "end": None,
               "parent": self._open[-1] if self._open else None, "run": self.run_id}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield t
        finally:
            t.end = rec["end"] = perf_counter()
            self._open.pop()

    def new_run(self) -> None:
        """Start a new run id; spans of one pipeline round share it."""
        self.run_id += 1

    # -- summaries over the recorded spans ---------------------------------

    def durations(self, *names: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] in names]

    def median(self, *names: str) -> float:
        d = self.durations(*names)
        if not d:
            raise KeyError(f"no span named {names}")
        return statistics.median(d)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its child spans cover."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def layer_self_times(self, roots: tuple[str, ...] = ("stage",)) -> dict[str, float]:
        """Total self time per layer over spans under root spans of the given kinds.

        Stage spans' own self time (the benchmark's glue and checks) is
        reported under ``bench``.
        """
        selfs = self.self_times()
        out = {layer: 0.0 for layer in (*LAYERS, "bench")}
        for i, s in enumerate(self.spans):
            root = i
            while self.spans[root]["parent"] is not None:
                root = self.spans[root]["parent"]
            if self.spans[root]["name"].split(".")[0] not in roots:
                continue
            kind = s["name"].split(".")[0]
            out[kind if kind in LAYERS else "bench"] += selfs[i]
        return out

    def root_total(self, kind: str = "stage") -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] is None and s["name"].split(".")[0] == kind)
