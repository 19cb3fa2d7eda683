"""Request/response envelope of the enforcement gateway.

A :class:`QueryRequest` names *who* wants to run *what* under *which*
access-control model, with an optional per-request deadline.  The
gateway answers with a :class:`QueryResponse` carrying the outcome
status, the result rows (for accepted queries), the validity decision
with its rule trace (Non-Truman mode), and a per-phase timing
breakdown (queue / parse / check / execute).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.db import Result
from repro.nontruman.decision import ValidityDecision


class RequestStatus(enum.Enum):
    """Terminal state of one gateway request."""

    #: the query was admitted, (rewritten or validated) and executed
    OK = "ok"
    #: the Non-Truman validity check rejected the query
    REJECTED = "rejected"
    #: the request missed its deadline (queued or between phases)
    TIMEOUT = "timeout"
    #: a library error (parse, bind, execution, integrity, ...) occurred
    ERROR = "error"
    #: the request was cancelled — by shutdown before execution, or by
    #: ``PendingQuery.cancel()`` interrupting in-flight work
    CANCELLED = "cancelled"
    #: a write was refused (or its durable commit failed) because the
    #: WAL circuit breaker is open: the gateway is read-only until the
    #: half-open probe recovers
    DEGRADED = "degraded"


@dataclass(frozen=True)
class QueryRequest:
    """One unit of work submitted to the gateway."""

    user: Optional[str]
    sql: str
    #: extra session-context parameters ($time, $location, app-defined)
    params: Mapping[str, object] = field(default_factory=dict)
    #: access-control model: open | truman | non-truman | motro
    mode: str = "non-truman"
    #: seconds from submission after which the request times out
    deadline: Optional[float] = None
    #: opaque client tag, echoed in the response and the audit log
    tag: Optional[str] = None
    #: execution engine ("row" | "vectorized"); None = database default
    engine: Optional[str] = None
    #: max rows this request may scan/materialize (None = gateway default)
    row_budget: Optional[int] = None
    #: approximate max bytes of materialized state (None = gateway default)
    memory_budget: Optional[int] = None
    #: pre-signed prepared statement: the literal-stripped skeleton AST
    #: produced by ``PREPARE`` (the net server's ``prepare`` frame).
    #: When set, ``sql`` carries the rendered signature text (for the
    #: audit log) and ``literals`` the bound parameter values — the
    #: gateway skips parsing entirely.
    skeleton: Optional[object] = None
    #: literal values to bind into ``skeleton`` (position-matched to
    #: the ``$_litN`` placeholders)
    literals: Optional[tuple] = None


@dataclass
class Timing:
    """Per-stage wall-clock breakdown of one request (seconds).

    The gateway fills one field per stage of the request pipeline
    (:mod:`repro.pipeline`); a retried query keeps its last attempt's
    figures.
    """

    #: admission queue: submission to dequeue
    queue_s: float = 0.0
    #: resolve: text-tier lookup, parse, literal-stripped signing
    parse_s: float = 0.0
    #: decide: template lookup or build (the plan source), then the
    #: validity decision (decision cache or check) or the Truman rewrite
    check_s: float = 0.0
    #: plan/bind and execute (for DML/DDL: the statement under the
    #: write lock)
    execute_s: float = 0.0
    #: submission to the finished response
    total_s: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "queue_s": self.queue_s,
            "parse_s": self.parse_s,
            "check_s": self.check_s,
            "execute_s": self.execute_s,
            "total_s": self.total_s,
        }


@dataclass
class QueryResponse:
    """Outcome of one gateway request."""

    request: QueryRequest
    status: RequestStatus
    #: result of an accepted query (None for DML/DDL and non-OK statuses)
    result: Optional[Result] = None
    #: affected-row count when the request was a DML statement
    rowcount: Optional[int] = None
    #: validity decision (Non-Truman mode), including the rule trace
    decision: Optional[ValidityDecision] = None
    error: Optional[str] = None
    timing: Timing = field(default_factory=Timing)
    #: True when the decision came from the gateway's shared cache
    cache_hit: bool = False
    worker: Optional[str] = None
    #: transient-fault retries performed before this outcome
    retries: int = 0
    #: True when the query ran through the prepared-template path
    #: (template hit or build) instead of the parse → check → plan path
    prepared: bool = False
    #: audit signature stamped by the resolve stage: the rendered
    #: literal-stripped skeleton of a query, the raw text otherwise
    #: (None until resolved: the audit then records the raw text)
    signature: Optional[str] = None
    #: name of the read replica that served this request (cluster
    #: deployments only; None = primary)
    replica: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status is RequestStatus.OK

    @property
    def rows(self) -> list[tuple]:
        return [] if self.result is None else self.result.rows

    @property
    def columns(self) -> tuple[str, ...]:
        return () if self.result is None else self.result.columns

    def describe(self) -> str:
        parts = [f"status: {self.status.value}"]
        if self.error:
            parts.append(f"error: {self.error}")
        if self.decision is not None:
            parts.append(f"validity: {self.decision.validity.value}")
        if self.result is not None:
            parts.append(f"rows: {len(self.result.rows)}")
        if self.rowcount is not None:
            parts.append(f"rowcount: {self.rowcount}")
        parts.append(f"total: {self.timing.total_s * 1000:.2f} ms")
        return ", ".join(parts)
