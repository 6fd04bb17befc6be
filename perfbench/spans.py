"""Outside-in span recording around latgov's layer boundaries.

Inside a :class:`Tracing` block the public layer functions, in the module
namespaces the CLI resolves them from, are replaced by wrappers that open
and close spans on a :class:`Recorder`; leaving the block puts the
originals back. Nothing inside ``src/`` changes. A boundary a refactor
has removed is skipped, so it reads as zero calls instead of a crash.

Spans are kept in memory (name index, start, end, parent index) and
turned into per-layer self time when the run ends: a span's duration
minus the duration of its direct children. Every span nests under the
root ``cli.main`` span, so the self times add up to the traced wall time.
"""

from __future__ import annotations

import functools
import os
from array import array
from time import perf_counter

import numpy as np

ROOT = "cli.main"
POLICY_KINDS = ("letw", "none", "static_messaging")


class Recorder:
    """Append-only span store plus named counters."""

    def __init__(self):
        self.names = []
        self._index = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack = []
        self.counts = {}

    def open(self, name: str) -> int:
        nid = self._index.get(name)
        if nid is None:
            nid = self._index[name] = len(self.names)
            self.names.append(name)
        span = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(span)
        self.start.append(perf_counter())
        return span

    def close(self, span: int) -> None:
        self.end[span] = perf_counter()
        self.stack.pop()

    def add(self, counter: str, amount: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def self_times(self) -> dict:
        """Seconds of self time per span name."""
        start = np.frombuffer(self.start, dtype=np.float64)
        duration = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(start))
        own = duration - children
        per_name = np.bincount(
            np.frombuffer(self.name_id, dtype=np.uint16), weights=own, minlength=len(self.names)
        )
        return {name: float(per_name[i]) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write the raw spans as a compressed NumPy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


def _timed(rec: Recorder, name: str, fn, counter=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(span)
            if counter:
                rec.add(counter)

    return wrapper


def _traced_iter_events(rec: Recorder, fn):
    """Time each step of the parse generator as a span under its consumer."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        events = fn(*args, **kwargs)
        while True:
            span = rec.open("telemetry.parse")
            try:
                event = next(events)
            except StopIteration:
                return
            finally:
                rec.close(span)
            rec.add("telemetry.parse.calls")
            yield event

    return wrapper


def _traced_simulate_paths(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cfg = args[0] if args else kwargs.get("cfg")
        kind = getattr(getattr(cfg, "policy", None), "kind", "other")
        span = rec.open(f"simulator.simulate_paths.{kind}")
        try:
            trace = fn(*args, **kwargs)
        finally:
            rec.close(span)
        rec.add("simulator.sessions", len(trace))
        rec.add("governor.transitions", int(getattr(trace, "governor_transitions", 0)))
        return trace

    return wrapper


def _traced_step(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(state, *args, **kwargs):
        span = rec.open("governor.step")
        try:
            next_state, decision = fn(state, *args, **kwargs)
        finally:
            rec.close(span)
        rec.add("governor.step.calls")
        if getattr(next_state, "mode", None) is not getattr(state, "mode", None):
            rec.add("governor.transitions")
        return next_state, decision

    return wrapper


def _traced_slo_track(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open("telemetry.slo")
        try:
            status = fn(*args, **kwargs)
        finally:
            rec.close(span)
        rec.add("telemetry.slo.windows")
        if getattr(status, "escalated", False):
            rec.add("telemetry.slo.escalated_windows")
        return status

    return wrapper


def _traced_read_lines(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(path, *args, **kwargs):
        span = rec.open("cli.read")
        try:
            lines = fn(path, *args, **kwargs)
        finally:
            rec.close(span)
        rec.add("cli.bytes_read", os.path.getsize(path))
        return lines

    return wrapper


def _boundaries(rec: Recorder, modules: dict) -> list:
    """[(owner, attribute, wrapper factory)] for every layer boundary."""
    cli = modules["cli"]
    simulator = modules["simulator"]
    window = getattr(modules["telemetry"], "LatencyWindow", None)
    return [
        (cli, "_read_lines", lambda fn: _traced_read_lines(rec, fn)),
        (cli, "iter_events", lambda fn: _traced_iter_events(rec, fn)),
        (cli, "step", lambda fn: _traced_step(rec, fn)),
        (cli, "slo_evaluate", lambda fn: _timed(rec, "telemetry.slo", fn)),
        (cli, "slo_alerts", lambda fn: _timed(rec, "telemetry.slo", fn)),
        (cli, "slo_track", lambda fn: _traced_slo_track(rec, fn)),
        (cli, "cmd_simulate", lambda fn: _timed(rec, "cli.cmd_simulate", fn)),
        (cli, "cmd_replay", lambda fn: _timed(rec, "cli.cmd_replay", fn)),
        (cli, "cmd_slo", lambda fn: _timed(rec, "cli.cmd_slo", fn)),
        (simulator, "draw_variates",
         lambda fn: _timed(rec, "simulator.draw_variates", fn, "simulator.draw_variates.calls")),
        (simulator, "simulate_paths", lambda fn: _traced_simulate_paths(rec, fn)),
        (simulator, "summarize_trace", lambda fn: _timed(rec, "simulator.summarize_trace", fn)),
        (window, "push",
         lambda fn: _timed(rec, "telemetry.window.push", fn, "telemetry.window.push.calls")),
        (window, "stats",
         lambda fn: _timed(rec, "telemetry.window.stats", fn, "telemetry.window.stats.calls")),
    ]


class Tracing:
    """Context manager: wrap the boundaries on entry, restore them on exit."""

    def __init__(self, rec: Recorder, modules: dict):
        self.rec = rec
        self.modules = modules
        self.saved = []
        self.missing = []

    def __enter__(self) -> "Tracing":
        for owner, attr, factory in _boundaries(self.rec, self.modules):
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(attr)
                continue
            self.saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def traced_call(rec: Recorder, modules: dict, argv: list) -> tuple:
    """Run ``cli.main(argv)`` under a root span; (exit code, wall seconds, missing)."""
    with Tracing(rec, modules) as tracing:
        begin = perf_counter()
        root = rec.open(ROOT)
        try:
            code = modules["cli"].main(argv)
        finally:
            rec.close(root)
        wall = perf_counter() - begin
    return code, wall, tracing.missing


def layer_metrics(rec: Recorder) -> tuple:
    """(per-layer self times and counts named as in BENCHMARK.json, their total self time)."""
    own = rec.self_times()
    counts = rec.counts
    paths = {kind: own.get(f"simulator.simulate_paths.{kind}", 0.0) for kind in POLICY_KINDS}
    metrics = {
        "cli.main.self_s": own.get(ROOT, 0.0),
        "simulator.simulate_paths.self_s": sum(
            v for k, v in own.items() if k.startswith("simulator.simulate_paths.")
        ),
        **{f"simulator.simulate_paths.{kind}.self_s": v for kind, v in paths.items()},
        "simulator.draw_variates.self_s": own.get("simulator.draw_variates", 0.0),
        "simulator.draw_variates.calls": counts.get("simulator.draw_variates.calls", 0),
        "simulator.summarize_trace.self_s": own.get("simulator.summarize_trace", 0.0),
        "simulator.sessions": counts.get("simulator.sessions", 0),
        "governor.transitions": counts.get("governor.transitions", 0),
        "governor.step.self_s": own.get("governor.step", 0.0),
        "governor.step.calls": counts.get("governor.step.calls", 0),
        "telemetry.parse.self_s": own.get("telemetry.parse", 0.0),
        "telemetry.parse.calls": counts.get("telemetry.parse.calls", 0),
        "telemetry.window.push.self_s": own.get("telemetry.window.push", 0.0),
        "telemetry.window.push.calls": counts.get("telemetry.window.push.calls", 0),
        "telemetry.window.stats.self_s": own.get("telemetry.window.stats", 0.0),
        "telemetry.window.stats.calls": counts.get("telemetry.window.stats.calls", 0),
        "telemetry.slo.self_s": own.get("telemetry.slo", 0.0),
        "telemetry.slo.windows": counts.get("telemetry.slo.windows", 0),
        "telemetry.slo.escalated_windows": counts.get("telemetry.slo.escalated_windows", 0),
        "cli.read.self_s": own.get("cli.read", 0.0),
        "cli.bytes_read": counts.get("cli.bytes_read", 0),
        "cli.cmd_simulate.self_s": own.get("cli.cmd_simulate", 0.0),
        "cli.cmd_replay.self_s": own.get("cli.cmd_replay", 0.0),
        "cli.cmd_slo.self_s": own.get("cli.cmd_slo", 0.0),
    }
    return metrics, sum(own.values())
