"""Spans around the public entry points of each layer.

The benchmark does not rely on instrumentation inside the program:
:func:`install` wraps the public entry point of each layer from the
outside (module functions are replaced wherever a ``repro``
module holds a reference to them, methods are replaced on their
class).  While :attr:`SpanRecorder.recording` is off, a wrapper costs
one attribute test and a call.

A span is ``[id, name, start, end, parent, request, attrs]``.  Spans
nest per thread; the outermost span on a thread starts a new request
id, and the gateway's per-request entry (when present) is wrapped as
the ``service.request`` root so every span of one request shares it.

:func:`layer_metrics` turns the recorded spans into the per-layer
metrics.  A layer's self time is its span's duration minus the part of
that interval its child spans cover (:func:`self_times`).  A
``engine.run_plan`` span inside a validity check is a *probe*; outside
one it is plan execution.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Callable, Iterable, Optional

from stats import mean, ratio

_clock = time.perf_counter


class SpanRecorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self):
        self.recording = False
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent = stack[-1]
            span = [span_id, name, _clock(), None, parent[0], parent[5], None]
        else:
            span = [span_id, name, _clock(), None, None, span_id, None]
        stack.append(span)
        return span

    def close(self, span: list, attrs: Optional[dict] = None) -> None:
        span[3] = _clock()
        span[6] = attrs
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # an inner span leaked by an exception
            del stack[stack.index(span):]
        with self._lock:
            self.spans.append(span)

    def start(self) -> None:
        with self._lock:
            self.spans = []
        self.recording = True

    def stop(self) -> list[list]:
        self.recording = False
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def wrap(
    recorder: SpanRecorder,
    name: str,
    fn: Callable,
    on_exit: Optional[Callable] = None,
) -> Callable:
    """``fn`` with a span named ``name`` around every call.

    ``on_exit(args, result)`` returns the span's attributes (counts).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.recording:
            return fn(*args, **kwargs)
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(span, {"error": True})
            raise
        recorder.close(span, on_exit(args, result) if on_exit else None)
        return result

    return wrapper


def patch_function(module_name: str, attr: str, make: Callable) -> None:
    """Replace a module-level function in every ``repro`` module that
    holds it (``from x import f`` copies the reference)."""
    original = getattr(importlib.import_module(module_name), attr)
    wrapped = make(original)
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def patch_method(module_name: str, class_name: str, attr: str, make: Callable) -> None:
    cls = getattr(importlib.import_module(module_name), class_name)
    setattr(cls, attr, make(getattr(cls, attr)))


# -- what gets wrapped ----------------------------------------------------

#: modules imported before patching, so every alias of a wrapped
#: function already exists when patch_function walks sys.modules
MODULES = (
    "repro.db",
    "repro.service.gateway",
    "repro.net.server",
    "repro.net.protocol",
    "repro.prepared.pipeline",
    "repro.truman.rewrite",
    "repro.nontruman.checker",
    "repro.algebra.translate",
    "repro.engine",
    "repro.storage.table",
    "repro.updates.authorize",
    "repro.durability.manager",
    "repro.rebac.manager",
)


def _counters(executor) -> tuple[int, int]:
    return (
        getattr(executor, "rows_scanned", 0),
        getattr(executor, "join_pairs_examined", 0),
    )


def trace_executor(recorder: SpanRecorder, executor):
    """``executor`` with an ``engine.execute`` span around each outermost
    ``execute`` call.  The row engine recurses through ``self.execute``
    once per operator; those inner calls open no span.  The span's
    counts are the executor's counters moved during the call."""
    run = executor.execute
    depth = 0

    def execute(plan):
        nonlocal depth
        if depth or not recorder.recording:
            return run(plan)
        scanned, pairs = _counters(executor)
        span = recorder.open("engine.execute")
        depth += 1
        try:
            rows = run(plan)
        except BaseException:
            recorder.close(span, {"error": True})
            raise
        finally:
            depth -= 1
        now_scanned, now_pairs = _counters(executor)
        recorder.close(
            span,
            {
                "rows_scanned": now_scanned - scanned,
                "join_pairs": now_pairs - pairs,
                "rows_out": len(rows),
            },
        )
        return rows

    executor.execute = execute
    return executor


def install(recorder: SpanRecorder) -> list[str]:
    """Wrap every layer boundary; returns the boundaries that are absent
    in this version of the program (their metrics then read 0)."""
    missing: list[str] = []
    for module in MODULES:
        try:
            importlib.import_module(module)
        except ImportError:
            missing.append(module)

    def span(name, on_exit=None):
        return lambda fn: wrap(recorder, name, fn, on_exit)

    def method(module, cls, attr, name, on_exit=None):
        try:
            patch_method(module, cls, attr, span(name, on_exit))
        except (AttributeError, ImportError):
            missing.append(f"{cls}.{attr}")

    def function(module, attr, name, make=None):
        try:
            patch_function(module, attr, make or span(name))
        except (AttributeError, ImportError):
            missing.append(f"{module}.{attr}")

    # service: one root span per gateway request
    method("repro.service.gateway", "EnforcementGateway", "_process", "service.request")
    # net: bytes of every frame the server encodes
    function(
        "repro.net.protocol", "encode_frame", "net.encode",
        span("net.encode", lambda args, result: {"bytes": len(result)}),
    )
    # sql
    function("repro.sql", "parse_statement", "sql.parse")
    # prepared: hit flag of each template lookup
    function(
        "repro.prepared.pipeline", "get_or_build_template", "prepared.template",
        span("prepared.template", lambda args, result: {"hit": bool(result[1])}),
    )
    # nontruman / truman / algebra
    method("repro.db", "Database", "check_validity", "nontruman.check")
    function("repro.truman.rewrite", "truman_rewrite", "truman.rewrite")
    method("repro.algebra.translate", "Translator", "translate", "algebra.translate")
    method("repro.db", "Database", "plan_query", "algebra.plan")
    method("repro.db", "Database", "plan_template", "algebra.plan")
    # engine: run_plan (probe or execution) and the executor it makes
    method("repro.db", "Database", "run_plan", "engine.run_plan")

    def make_executor_wrapper(original):
        @functools.wraps(original)
        def make_executor(*args, **kwargs):
            return trace_executor(recorder, original(*args, **kwargs))

        return make_executor

    function("repro.engine", "make_executor", "engine.execute", make_executor_wrapper)
    # storage / updates / durability
    for attr in ("insert", "update_row", "delete_row"):
        method("repro.storage.table", "Table", attr, "storage.write")
    for attr in ("check_insert", "check_update", "check_delete"):
        method("repro.updates.authorize", "UpdateAuthorizer", attr, "updates.authorize")
    method("repro.durability.manager", "DurabilityManager", "commit", "durability.commit")
    # rebac: tuple writes and the closure each one recomputes
    for attr in ("write_tuple", "delete_tuple"):
        method("repro.rebac.manager", "RebacManager", attr, "rebac.write")
    function("repro.rebac.compiler", "compute_closure", "rebac.closure")
    return missing


def calibrate(repeats: int = 20000) -> float:
    """Seconds a recorded span adds to one call (wrapped minus bare)."""
    recorder = SpanRecorder()
    bare = lambda: None
    wrapped = wrap(recorder, "calibrate", bare)
    recorder.start()
    best_bare = best_wrapped = float("inf")
    for _ in range(3):
        t0 = _clock()
        for _ in range(repeats):
            bare()
        t1 = _clock()
        for _ in range(repeats):
            wrapped()
        t2 = _clock()
        recorder.spans = []
        best_bare = min(best_bare, t1 - t0)
        best_wrapped = min(best_wrapped, t2 - t1)
    recorder.stop()
    return max(0.0, best_wrapped - best_bare) / repeats


# -- span arithmetic --------------------------------------------------------


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its children
    (children clipped to the parent's interval)."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s[0]: s for s in spans}
    for s in spans:
        parent = by_id.get(s[4])
        if parent is None:
            continue
        start, end = max(s[2], parent[2]), min(s[3], parent[3])
        if end > start:
            children.setdefault(parent[0], []).append((start, end))
    return {
        s[0]: (s[3] - s[2]) - union_length(children.get(s[0], ()))
        for s in spans
    }


def ancestors(span: list, by_id: dict[int, list]) -> Iterable[list]:
    parent = by_id.get(span[4])
    while parent is not None:
        yield parent
        parent = by_id.get(parent[4])


def _under(span, by_id, name) -> bool:
    return any(a[1] == name for a in ancestors(span, by_id))


def layer_metrics(spans: list[list], ops: int, writes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced window.

    Times are milliseconds per call of the layer; ``_per_op`` counts
    divide by completed operations, ``_per_write`` by writes.
    """
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)
    named: dict[str, list[list]] = {}
    for s in spans:
        named.setdefault(s[1], []).append(s)

    def dur(s):
        return (s[3] - s[2]) * 1000.0

    def mean_ms(items, fn=dur):
        return mean(fn(s) for s in items)

    checks = named.get("nontruman.check", [])
    run_plans = named.get("engine.run_plan", [])
    probes = [s for s in run_plans if _under(s, by_id, "nontruman.check")]
    executes = named.get("engine.execute", [])
    probe_exec = [s for s in executes if _under(s, by_id, "nontruman.check")]
    plan_exec = [s for s in executes if not _under(s, by_id, "nontruman.check")]
    # top-level translations only (a view body or subquery translated
    # inside another translation is part of that one): the query's own
    # bind plus one per candidate view
    translations = [
        s
        for s in named.get("algebra.translate", [])
        if _under(s, by_id, "nontruman.check")
        and not _under(s, by_id, "engine.run_plan")
        and by_id.get(s[4], [None, None])[1] != "algebra.translate"
    ]
    builds = [s for s in named.get("prepared.template", []) if not (s[6] or {}).get("hit")]
    parses = named.get("sql.parse", [])

    def counted(items, key):
        return sum((s[6] or {}).get(key, 0) for s in items)

    return {
        "net.bytes_per_op": ratio(counted(named.get("net.encode", []), "bytes"), ops),
        "prepared.build_ms": mean_ms(builds),
        "sql.parse_ms": mean_ms(parses, lambda s: own[s[0]] * 1000.0),
        "sql.parses_per_op": ratio(len(parses), ops),
        "nontruman.check_ms": mean_ms(checks, lambda s: own[s[0]] * 1000.0),
        "nontruman.view_translations_per_check": ratio(len(translations), len(checks)),
        "nontruman.probe_ms": mean_ms(probes),
        "nontruman.probe_rows_scanned": ratio(counted(probe_exec, "rows_scanned"), len(probes)),
        "truman.rewrite_ms": mean_ms(named.get("truman.rewrite", [])),
        "algebra.plan_ms": mean_ms(named.get("algebra.plan", [])),
        "engine.execute_ms": mean_ms(plan_exec),
        "engine.rows_scanned_per_row": ratio(
            counted(plan_exec, "rows_scanned"), counted(plan_exec, "rows_out")
        ),
        "engine.join_pairs_per_row": ratio(
            counted(plan_exec, "join_pairs"), counted(plan_exec, "rows_out")
        ),
        "storage.write_ms": mean_ms(named.get("storage.write", [])),
        "updates.authorize_ms": mean_ms(named.get("updates.authorize", [])),
        "durability.commit_ms": mean_ms(named.get("durability.commit", [])),
        "trace.spans_per_op": ratio(len(spans), ops),
    }


def rebac_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of a tuple-churn window: milliseconds per tuple
    write and per closure, and grant rows the write's DML changed (the
    ``storage.write`` calls under it)."""
    by_id = {s[0]: s for s in spans}
    writes = [s for s in spans if s[1] == "rebac.write"]
    closures = [s for s in spans if s[1] == "rebac.closure"]
    changed = [
        s for s in spans
        if s[1] == "storage.write" and _under(s, by_id, "rebac.write")
    ]
    return {
        "rebac.write_ms": mean((s[3] - s[2]) * 1000.0 for s in writes),
        "rebac.closure_ms": mean((s[3] - s[2]) * 1000.0 for s in closures),
        "rebac.grant_rows_changed_per_write": ratio(len(changed), len(writes)),
    }


def write_jsonl(spans: list[list], path: str) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for s in spans:
            out.write(
                json.dumps(
                    {
                        "id": s[0],
                        "name": s[1],
                        "start": s[2],
                        "end": s[3],
                        "parent": s[4],
                        "request": s[5],
                        "attrs": s[6],
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )
