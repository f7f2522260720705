"""Per-layer span recording for the benchmark's traced run.

The program is not instrumented for this: :func:`install` wraps the
public entry points of each ``src/repro`` layer from outside, and every
wrapped call becomes one span ``{id, parent, name, op, pid, start, end,
counts}``.  Spans are kept in memory; a process that was given a sink
directory (subprocesses, including forked pool workers) appends each
finished root span tree to ``<sink>/spans-<pid>.jsonl`` so nothing is
lost when a pool worker exits without running ``atexit`` hooks.

:func:`aggregate` turns spans into the per-layer metrics named in
``BENCHMARK.json``.  A layer's time is its *self* time: span duration
minus the time its child spans cover, so the layer self-times inside a
configuration run plus ``experiments.runner_self_s`` add up to
``experiments.point_s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Optional

#: Spans whose self time is part of a configuration run's time.
POINT_LAYERS = ("odb.des", "odb.prewarm", "hw.trace", "core.solve_cpi",
                "workload.compile", "experiments.cache_store",
                "experiments.cache_load")


class Recorder:
    """In-memory span stack and finished-span list for one process."""

    def __init__(self, sink: Optional[Path] = None, op: str = "setup"):
        self.sink = sink
        self.op = op
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next = 0

    def reset_after_fork(self) -> None:
        """A forked pool worker starts with no spans of its parent's."""
        self.spans = []
        self._stack = []

    def call(self, name: str, fn: Callable, args, kwargs,
             count: Optional[Callable]):
        """Run ``fn`` in a span; ``count(args, kwargs, result)`` adds counts."""
        self._next += 1
        span = {"id": self._next,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "op": self.op, "pid": os.getpid(),
                "start": time.perf_counter()}
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)
        if count is not None:
            span["counts"] = count(args, kwargs, result)
        if not self._stack and self.sink is not None:
            self.flush()
        return result

    def flush(self) -> None:
        """Append finished spans to this process's sink file."""
        if not self.spans or self.sink is None:
            return
        path = self.sink / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []


def _des_counts(args, kwargs, result) -> dict:
    system = args[0]
    return {"events": system.engine.scheduler.snapshot()["dispatched"],
            "txns": system.db.transactions.count}


def _trace_counts(args, kwargs, result) -> dict:
    """Measured refs, and an estimate of all refs the span walked.

    ``counts()`` covers the measured transactions only; the span's time
    also covers the warm-up ones, so ``walked`` scales the refs by
    ``(warmup + transactions) / transactions``.
    """
    counts = args[0].counts()
    refs = (counts.data_refs.total + counts.code_refs.total
            + counts.branches.total)
    transactions = args[1] if len(args) > 1 else kwargs["transactions"]
    warmup = args[2] if len(args) > 2 else kwargs.get("warmup", 0)
    return {"refs": refs,
            "walked": refs * (warmup + transactions) / transactions}


def _solve_counts(args, kwargs, result) -> dict:
    return {"iterations": result.iterations}


def _load_counts(args, kwargs, result) -> dict:
    return {"hit": int(result is not None)}


#: (module, owner attribute or None, function name, span name, counts).
#: ``owner`` names a class whose method is wrapped; module functions are
#: re-bound in every loaded ``repro`` module that imported them by name
#: (``runner`` resolves ``solve_cpi`` and ``compile_workload`` itself).
TARGETS = (
    ("repro.experiments.runner", None, "run_configuration",
     "experiments.point", None),
    ("repro.odb.system", "OdbSystem", "run", "odb.des", _des_counts),
    ("repro.odb.system", "OdbSystem", "prewarm_buffer_cache",
     "odb.prewarm", None),
    ("repro.hw.trace", "TraceGenerator", "run", "hw.trace", _trace_counts),
    ("repro.core.cpi_model", None, "solve_cpi", "core.solve_cpi",
     _solve_counts),
    ("repro.workload.loader", None, "load_workload", "workload.load", None),
    ("repro.workload.compiler", None, "compile_workload",
     "workload.compile", None),
    ("repro.experiments.records", "ResultCache", "store",
     "experiments.cache_store", None),
    ("repro.experiments.records", "ResultCache", "load",
     "experiments.cache_load", _load_counts),
)


def _wrapper(recorder: Recorder, name: str, fn: Callable,
             count: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, count)
    return traced


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every target; returns a function that restores the originals."""
    importlib.import_module("repro.experiments.runner")
    importlib.import_module("repro.workload.library")
    patched: list[tuple[object, str, object]] = []
    for module_name, owner_name, attr, span_name, count in TARGETS:
        module = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrapper(recorder, span_name, original,
                                          count))
            patched.append((owner, attr, original))
            continue
        original = getattr(module, attr)
        traced = _wrapper(recorder, span_name, original, count)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, traced)
                    patched.append((loaded, key, original))

    def uninstall() -> None:
        for target, key, original in reversed(patched):
            setattr(target, key, original)
    return uninstall


def read_sink(sink: Path) -> list[dict]:
    """Every span the subprocesses appended under ``sink``."""
    spans = []
    for path in sorted(sink.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[tuple[int, int], float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            children[key] = (children.get(key, 0.0)
                             + span["end"] - span["start"])
    return [span["end"] - span["start"]
            - children.get((span["pid"], span["id"]), 0.0)
            for span in spans]


def aggregate(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals over ``spans`` (names as in ``BENCHMARK.json``)."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    point_s = 0.0
    for span, own in zip(spans, self_times(spans)):
        name = span["name"]
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        for key, value in span.get("counts", {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if name == "experiments.point":
            point_s += span["end"] - span["start"]
    des_s = self_s.get("odb.des", 0.0)
    trace_s = self_s.get("hw.trace", 0.0)
    events = counts.get("odb.des.events", 0)
    refs = counts.get("hw.trace.refs", 0)
    walked = counts.get("hw.trace.walked", 0)
    loads = calls.get("experiments.cache_load", 0)
    hits = counts.get("experiments.cache_load.hit", 0)
    return {
        "odb.des_s": des_s,
        "odb.des_runs": calls.get("odb.des", 0),
        "odb.sim_txns": counts.get("odb.des.txns", 0),
        "odb.des_events": events,
        "odb.us_per_event": des_s * 1e6 / events if events else 0.0,
        "odb.prewarm_s": self_s.get("odb.prewarm", 0.0),
        "hw.trace_s": trace_s,
        "hw.trace_runs": calls.get("hw.trace", 0),
        "hw.refs": refs,
        "hw.ns_per_ref": trace_s * 1e9 / walked if walked else 0.0,
        "core.solve_cpi_s": self_s.get("core.solve_cpi", 0.0),
        "core.solve_cpi_iterations": counts.get(
            "core.solve_cpi.iterations", 0),
        "workload.load_s": self_s.get("workload.load", 0.0),
        "workload.compile_s": self_s.get("workload.compile", 0.0),
        "workload.compile_calls": calls.get("workload.compile", 0),
        "experiments.point_s": point_s,
        "experiments.runner_self_s": self_s.get("experiments.point", 0.0),
        "experiments.cache_store_s": self_s.get(
            "experiments.cache_store", 0.0),
        "experiments.cache_stores": calls.get("experiments.cache_store", 0),
        "experiments.cache_load_s": self_s.get(
            "experiments.cache_load", 0.0),
        "experiments.cache_hits": hits,
        "experiments.cache_misses": loads - hits,
    }


def point_identity_gap(metrics: dict[str, float]) -> float:
    """``point_s`` minus runner self time and the in-point layer times.

    Zero (to rounding) when every span inside a configuration run is one
    of :data:`POINT_LAYERS` and nothing in those layers ran outside one.
    """
    inside = sum(metrics[f"{layer}_s"] for layer in POINT_LAYERS)
    return (metrics["experiments.point_s"]
            - metrics["experiments.runner_self_s"] - inside)
