"""The concurrent policy-enforcement gateway.

:class:`EnforcementGateway` is the service front door of the
reproduction: clients submit :class:`~repro.service.request.QueryRequest`
objects; a fixed worker pool takes them off a bounded admission queue,
checks them under the requested access-control model (Truman rewriting,
Non-Truman validity inference, Motro masking, or open), executes
accepted queries on pooled per-user connections, and answers with
structured :class:`~repro.service.request.QueryResponse` objects.

Architecturally this is the PDP/PEP split of Guarnieri et al. (*Strong
and Provably Secure Database Access Control*): the gateway is the
enforcement point, the validity checker / Truman rewriter the decision
point, and the decision is taken *before* any row is touched.

Robustness controls:

* **backpressure** — the admission queue is bounded; when it is full,
  :meth:`submit` raises :class:`~repro.errors.ServiceOverloaded`
  immediately instead of hanging the caller;
* **cooperative cancellation & resource governance** — every admitted
  request gets a :class:`~repro.service.context.QueryContext` (deadline,
  cancel token, row/memory budgets) threaded through the validity
  checker's inference loops and both execution engines, so even the
  adversary-controlled Non-Truman check is killed *mid-inference* by
  its deadline, a scan is killed *mid-scan*, and
  :meth:`PendingQuery.cancel` interrupts in-flight work — not just
  queued work;
* **default deadline** — requests without an explicit deadline inherit
  the gateway's ``default_deadline``, so :meth:`execute` can never hang
  forever;
* **retries** — faults classified transient
  (:class:`~repro.errors.TransientFault`) are retried with jittered
  exponential backoff, bounded by the request's deadline;
* **degraded read-only mode** — a circuit breaker around the WAL
  commit path trips after consecutive durable-commit failures: writes
  are rejected up front with a typed
  :class:`~repro.errors.ServiceDegraded` error (no partial state)
  while SELECTs keep serving; a half-open probe recovers automatically;
* **graceful shutdown** — :meth:`shutdown` stops admission, optionally
  drains in-flight requests, and joins the workers; undrained requests
  are answered with ``CANCELLED``, never dropped silently.

Every request — answered, rejected, timed out, cancelled, degraded,
overloaded, or felled by an internal fault — is audited exactly once.

Consistency: queries (and the probes the validity checker runs) share
a readers-writer lock; DML takes it exclusively.  The shared validity
cache stamps every stored decision with the data version observed
*while holding the read lock*, so a decision can never be derived from
one database state and served against another.  An aborted check
(timeout/cancel) stores nothing.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import (
    DurabilityError,
    PendingTimeout,
    QueryAborted,
    QueryCancelled,
    QueryRejectedError,
    QueryTimeout,
    ReplicaUnavailable,
    ReproError,
    ResourceBudgetExceeded,
    ServiceDegraded,
    ServiceOverloaded,
    ServiceShutdown,
    TransientFault,
    UpdateRejectedError,
)
from repro.sql import ast
from repro.pipeline import (
    PREPARABLE_MODES,
    QueryRun,
    audit_signature,
    resolve,
    run_query,
)
from repro.prepared import bind_skeleton
from repro.service.audit import AuditLog
from repro.service.breaker import CircuitBreaker
from repro.service.cache import SharedValidityCache
from repro.service.clock import SYSTEM_CLOCK, Clock
from repro.service.context import QueryContext
from repro.service.metrics import MetricsRegistry
from repro.service.pool import ConnectionPool
from repro.service.request import QueryRequest, QueryResponse, RequestStatus, Timing

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database


class _ReadWriteLock:
    """Many readers or one writer (no starvation handling needed at
    this scale: writers are rare DML, readers are the query hot path)."""

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            while self._writer or self._readers:
                self._cond.wait()
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


class PendingQuery:
    """Handle for a submitted request; resolves to a QueryResponse."""

    def __init__(self, request: QueryRequest, ctx: Optional[QueryContext] = None):
        self.request = request
        #: the request's cancellation/governance context
        self.ctx = ctx if ctx is not None else QueryContext()
        self._done = threading.Event()
        self._response: Optional[QueryResponse] = None
        self._callbacks: list = []
        self._cb_lock = threading.Lock()

    def _resolve(self, response: QueryResponse) -> None:
        self._response = response
        self._done.set()
        with self._cb_lock:
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            try:
                callback(response)
            except Exception:  # a bad observer must not kill the worker
                pass

    def add_done_callback(self, fn) -> None:
        """Invoke ``fn(response)`` when the request reaches a terminal
        response; immediately if it already has one.

        The callback runs on the resolving thread (a gateway worker) —
        event-loop front ends should only post a wake-up from it
        (``loop.call_soon_threadsafe``), never do blocking work.
        """
        with self._cb_lock:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        fn(self._response)

    def done(self) -> bool:
        return self._done.is_set()

    def cancel(self) -> bool:
        """Request cooperative cancellation of this query.

        Works both while queued (the worker answers ``CANCELLED`` at
        dequeue) and in flight (the next cooperative check inside the
        checker or executor raises
        :class:`~repro.errors.QueryCancelled`).  Returns False when the
        request already has a terminal response.
        """
        if self._done.is_set():
            return False
        self.ctx.cancel()
        return True

    def result(self, timeout: Optional[float] = None) -> QueryResponse:
        """Wait for the terminal response.

        On timeout raises :class:`~repro.errors.PendingTimeout`, which
        carries this handle (``exc.pending``) — the request is *still
        in flight*, and the caller can ``cancel()`` it and call
        :meth:`result` again to reap the terminal response instead of
        leaking the running work.
        """
        if not self._done.wait(timeout):
            raise PendingTimeout(
                f"no response within {timeout}s (request still in flight; "
                "cancel() the handle to reap it)",
                pending=self,
            )
        assert self._response is not None
        return self._response


_SENTINEL = object()


def _status_of(error: Optional[ReproError]) -> RequestStatus:
    """The gateway's one mapping of a typed error to a response status."""
    if error is None:
        return RequestStatus.OK
    if isinstance(error, (QueryRejectedError, UpdateRejectedError)):
        return RequestStatus.REJECTED
    if isinstance(error, QueryTimeout):
        return RequestStatus.TIMEOUT
    if isinstance(error, QueryCancelled):
        return RequestStatus.CANCELLED
    return RequestStatus.ERROR


class EnforcementGateway:
    """Thread-safe multi-session front door over one Database."""

    def __init__(
        self,
        db: "Database",
        workers: int = 4,
        queue_size: int = 64,
        cache_shards: int = 8,
        cache_capacity_per_shard: int = 512,
        audit_capacity: int = 2048,
        max_idle_per_user: int = 8,
        name: str = "gateway",
        default_deadline: Optional[float] = 30.0,
        default_row_budget: Optional[int] = None,
        default_memory_budget: Optional[int] = None,
        retry_attempts: int = 2,
        retry_backoff: float = 0.05,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
        chaos: Optional[object] = None,
        retry_seed: Optional[int] = None,
        prepared_statements: bool = True,
        clock: Optional[Clock] = None,
    ):
        self.db = db
        self.name = name
        #: injectable time source threaded into every QueryContext this
        #: gateway creates and into the audit log's timestamps
        self.clock = clock or SYSTEM_CLOCK
        #: serve repeated queries through the §5.6 template cache
        #: (explicit PREPARE'd requests *and* transparent server-side
        #: templating of plain SQL text)
        self.prepared_statements = prepared_statements
        self.pool = ConnectionPool(db, max_idle_per_key=max_idle_per_user)
        self.cache = SharedValidityCache(
            shards=cache_shards,
            capacity_per_shard=cache_capacity_per_shard,
            version_source=self._versions,
        )
        self.metrics = MetricsRegistry()
        self.audit = AuditLog(capacity=audit_capacity, clock=self.clock)
        self.queue_size = queue_size
        #: deadline applied to requests that carry none (None = unbounded)
        self.default_deadline = default_deadline
        self.default_row_budget = default_row_budget
        self.default_memory_budget = default_memory_budget
        self.retry_attempts = retry_attempts
        self.retry_backoff = retry_backoff
        #: extra wait in execute() past the deadline: covers queue slack
        #: plus the gap until the worker's next cooperative check
        self.result_grace = 30.0
        #: wait for a cancelled request to be reaped before giving up
        self.cancel_grace = 30.0
        #: optional ChaosInjector fired at serving-path fault points
        self.chaos = chaos
        self._rng = random.Random(retry_seed)
        self._breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            cooldown=breaker_cooldown,
            on_transition=self._breaker_transition,
        )
        self.metrics.state("breaker_state", initial="closed").set("closed")
        # pre-create the resilience instruments so operators see them in
        # \stats (and tests can assert on them) even before they fire
        for counter in (
            "requests_cancelled_inflight",
            "requests_degraded",
            "requests_retried",
            "retries_total",
            "requests_budget_exceeded",
            "worker_faults",
            "wal_commit_failures",
            "prepared_requests",
            "prepared_fallbacks",
            "replica_reads",
            "replica_fallbacks",
        ):
            self.metrics.counter(counter)
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=queue_size)
        self._rwlock = _ReadWriteLock()
        self._accepting = True
        self._state_lock = threading.Lock()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"{name}-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- database version plumbing --------------------------------------

    def _versions(self) -> tuple[int, object]:
        """(data version, policy epoch) of the underlying database."""
        return (
            self.db.validity_cache.data_version,
            (self.db.grants.version, self.db.catalog.views_version),
        )

    def _breaker_transition(self, old: str, new: str) -> None:
        self.metrics.state("breaker_state").set(new)
        self.metrics.counter("breaker_transitions").inc()

    def _fire_chaos(self, point: str) -> None:
        if self.chaos is not None:
            self.chaos.fire(point)

    # -- submission ------------------------------------------------------

    @property
    def accepting(self) -> bool:
        with self._state_lock:
            return self._accepting

    def _make_context(self, request: QueryRequest) -> QueryContext:
        deadline = (
            request.deadline
            if request.deadline is not None
            else self.default_deadline
        )
        row_budget = (
            request.row_budget
            if request.row_budget is not None
            else self.default_row_budget
        )
        memory_budget = (
            request.memory_budget
            if request.memory_budget is not None
            else self.default_memory_budget
        )
        return QueryContext(
            deadline=deadline,
            row_budget=row_budget,
            memory_budget=memory_budget,
            clock=self.clock,
        )

    def submit(self, request: QueryRequest) -> PendingQuery:
        """Enqueue a request; raises on shutdown or backpressure."""
        if not self.accepting:
            raise ServiceShutdown(f"{self.name} is not accepting requests")
        pending = PendingQuery(request, self._make_context(request))
        item = (pending, request, time.perf_counter())
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            self.metrics.counter("requests_overloaded").inc()
            self.audit.record(
                user=request.user,
                mode=request.mode,
                signature=request.sql,
                status="overloaded",
                error="admission queue full",
                tag=request.tag,
            )
            raise ServiceOverloaded(
                f"{self.name} admission queue full "
                f"({self.queue_size} requests pending); retry later"
            ) from None
        self.metrics.counter("requests_submitted").inc()
        self.metrics.gauge("queue_depth").set(self._queue.qsize())
        return pending

    def execute(
        self, request: QueryRequest, timeout: Optional[float] = None
    ) -> QueryResponse:
        """Submit and wait for the response.

        Overload rejections come back as a structured ``ERROR``-free
        exception (:class:`ServiceOverloaded`) — the request was never
        admitted, so there is no response to wait for.

        The wait is always bounded: with no explicit ``timeout`` it is
        derived from the request deadline (or the gateway's
        ``default_deadline``) plus :attr:`result_grace`.  If the wait
        still elapses, the in-flight request is cancelled cooperatively
        and its terminal (``CANCELLED``) response reaped, so no work is
        left running with no handle.
        """
        pending = self.submit(request)
        if timeout is None:
            deadline = pending.ctx.deadline_s
            timeout = None if deadline is None else deadline + self.result_grace
        try:
            return pending.result(timeout)
        except PendingTimeout:
            pending.cancel()
            return pending.result(self.cancel_grace)

    def execute_many(
        self, requests: Iterable[QueryRequest]
    ) -> list[QueryResponse]:
        """Closed-loop convenience: submit all, gather all.

        Requests rejected by backpressure yield synthetic responses with
        the error message, so the output aligns 1:1 with the input.
        """
        pendings: list[object] = []
        for request in requests:
            try:
                pendings.append(self.submit(request))
            except (ServiceOverloaded, ServiceShutdown) as exc:
                pendings.append(
                    QueryResponse(
                        request=request,
                        status=RequestStatus.ERROR,
                        error=str(exc),
                    )
                )
        return [
            p.result() if isinstance(p, PendingQuery) else p for p in pendings
        ]

    # -- shutdown --------------------------------------------------------

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop admission; drain or cancel queued work; join workers."""
        with self._state_lock:
            if not self._accepting and not any(
                w.is_alive() for w in self._workers
            ):
                return
            self._accepting = False
        if drain:
            self._queue.join()
        else:
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is not _SENTINEL:
                    pending, request, _ = item
                    self.metrics.counter("requests_cancelled").inc()
                    self.audit.record(
                        user=request.user,
                        mode=request.mode,
                        signature=request.sql,
                        status=RequestStatus.CANCELLED.value,
                        error="gateway shut down before execution",
                        tag=request.tag,
                    )
                    pending._resolve(
                        QueryResponse(
                            request=request,
                            status=RequestStatus.CANCELLED,
                            error="gateway shut down before execution",
                        )
                    )
                self._queue.task_done()
        for _ in self._workers:
            self._queue.put(_SENTINEL)
        for worker in self._workers:
            worker.join(timeout)
        if drain and self.db.durability is not None:
            # drained shutdown quiesces DML, so fold the WAL tail into a
            # checkpoint: restart replays nothing and starts from a
            # truncated log
            try:
                self.db.durability.checkpoint()
            except (DurabilityError, OSError):
                pass  # already closed elsewhere, or durability degraded

    def __enter__(self) -> "EnforcementGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)

    # -- worker loop -----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                self._queue.task_done()
                return
            pending, request, submitted_at = item
            self.metrics.gauge("queue_depth").set(self._queue.qsize())
            self.metrics.gauge("workers_busy").inc()
            try:
                response = self._process(request, submitted_at, pending.ctx)
            except BaseException as exc:  # never let a worker die
                response = self._internal_error(request, exc)
                # _process accounts for every response it builds; a
                # fault that escaped it has not been audited yet — audit
                # exactly once here so no request ever goes missing
                if not getattr(response, "_accounted", False):
                    response.timing.total_s = time.perf_counter() - submitted_at
                    self._account(response)
            finally:
                self.metrics.gauge("workers_busy").dec()
                self._queue.task_done()
            pending._resolve(response)

    def _internal_error(
        self, request: QueryRequest, exc: BaseException
    ) -> QueryResponse:
        """A fault in gateway code answers a typed error, never a hang."""
        self.metrics.counter("worker_faults").inc()
        return QueryResponse(
            request=request,
            status=RequestStatus.ERROR,
            error=f"internal gateway error: {exc}",
        )

    # -- request processing ----------------------------------------------

    def _process(
        self, request: QueryRequest, submitted_at: float, ctx: QueryContext
    ) -> QueryResponse:
        timing = Timing(queue_s=time.perf_counter() - submitted_at)
        self._fire_chaos("gateway.dequeue")
        if ctx.cancelled:
            response = QueryResponse(
                request=request,
                status=RequestStatus.CANCELLED,
                error="cancelled while queued",
            )
        elif ctx.expired:
            response = QueryResponse(
                request=request,
                status=RequestStatus.TIMEOUT,
                error=(
                    f"deadline of {ctx.deadline_s:.3f}s exceeded "
                    "while queued"
                ),
            )
        else:
            response = self._serve(request, timing, ctx)
        timing.total_s = time.perf_counter() - submitted_at
        response.timing = timing
        response.worker = threading.current_thread().name
        self._account(response)
        return response

    def _serve(
        self, request: QueryRequest, timing: Timing, ctx: QueryContext
    ) -> QueryResponse:
        """Resolve stage, then the statement path or the query pipeline;
        the response carries the audit signature the resolve stage found.
        """
        start = time.perf_counter()
        try:
            statement, resolved = self._resolve(request)
        except ReproError as exc:
            return QueryResponse(
                request=request, status=RequestStatus.ERROR, error=str(exc)
            )
        finally:
            timing.parse_s = time.perf_counter() - start
        try:
            if statement is None or isinstance(statement, ast.QueryExpr):
                response = self._serve_query(
                    request, statement, resolved, timing, ctx
                )
            else:
                response = self._process_statement(request, statement, timing)
        except Exception as exc:
            response = self._internal_error(request, exc)
        response.signature = audit_signature(statement, resolved, request.sql)
        return response

    def _resolve(self, request: QueryRequest) -> tuple:
        """Resolve stage: ``(statement, resolved)`` for the request (see
        :func:`repro.pipeline.resolve`).  A PREPARE'd request carries its
        signature and skips the parser."""
        preparable = (
            self.prepared_statements and request.mode in PREPARABLE_MODES
        )
        if request.skeleton is None:
            return resolve(self.db, request.sql, preparable)
        literals = tuple(request.literals or ())
        if preparable:
            return None, (request.skeleton, literals, request.sql)
        # PREPARE'd under a non-preparable mode: rebind the literals and
        # run it as a plain query
        return bind_skeleton(request.skeleton, literals), None

    # -- statement (DML/DDL) path -----------------------------------------

    def _process_statement(
        self, request: QueryRequest, statement: ast.Statement, timing: Timing
    ) -> QueryResponse:
        """DML/DDL path: exclusive access, data/policy versions move.

        On a durable database the WAL append happens under the write
        lock (``sync=False``) but the fsync happens *after* releasing
        it: concurrent workers that appended while this one held the
        lock share one group-commit fsync instead of queueing for the
        lock around their own.

        The durable commit is governed by the WAL circuit breaker: when
        it is open, the write is refused *before* any state changes
        (typed :class:`ServiceDegraded` error); in half-open state one
        probe write is admitted to test recovery.
        """
        self.metrics.counter("dml_requests").inc()
        durable = self.db.durability is not None
        if durable and not self._breaker.allow():
            return QueryResponse(
                request=request,
                status=RequestStatus.DEGRADED,
                error=str(
                    ServiceDegraded(
                        "gateway is in degraded read-only mode (WAL commit "
                        "circuit breaker open); writes are refused until "
                        "the half-open probe succeeds — reads keep serving"
                    )
                ),
            )
        execute_start = time.perf_counter()
        failure: Optional[QueryResponse] = None
        outcome: object = None
        breaker_resolved = False
        try:
            self._rwlock.acquire_write()
            try:
                with self.pool.checkout(
                    request.user, request.mode, request.params
                ) as conn:
                    outcome = conn.execute(statement, sync=False)
            except ReproError as exc:
                failure = QueryResponse(
                    request=request, status=_status_of(exc), error=str(exc)
                )
            finally:
                self._rwlock.release_write()
                timing.execute_s = time.perf_counter() - execute_start
            # durable group commit outside the write lock (also covers
            # rejected/errored statements that appended before failing)
            if durable:
                try:
                    self._fire_chaos("gateway.before_commit")
                    self.db.durability.commit()
                    self._breaker.record_success()
                    breaker_resolved = True
                except (DurabilityError, OSError, TransientFault) as exc:
                    self._breaker.record_failure()
                    breaker_resolved = True
                    self.metrics.counter("wal_commit_failures").inc()
                    return QueryResponse(
                        request=request,
                        status=RequestStatus.DEGRADED,
                        error=(
                            "durable commit failed; the change is volatile "
                            "and the gateway is entering degraded read-only "
                            f"mode: {exc}"
                        ),
                    )
            else:
                breaker_resolved = True
        finally:
            # an exception that escapes everything above (injected
            # crash, internal bug) must not leave a half-open probe
            # dangling — resolve it as a failure
            if durable and not breaker_resolved:
                self._breaker.record_failure()
        if failure is not None:
            return failure
        return QueryResponse(
            request=request,
            status=RequestStatus.OK,
            rowcount=outcome if isinstance(outcome, int) else None,
        )

    # -- query path: one pipeline, one error mapping ---------------------

    def _serve_query(
        self,
        request: QueryRequest,
        statement: Optional[ast.QueryExpr],
        resolved: Optional[tuple],
        timing: Timing,
        ctx: QueryContext,
    ) -> QueryResponse:
        """Run the query pipeline (:mod:`repro.pipeline`), retrying
        transient faults with jittered exponential backoff bounded by
        the deadline, and map the outcome to a response."""
        attempts = 0
        while True:
            run = QueryRun(
                None, None, request.mode, statement, resolved,
                engine=request.engine, ctx=ctx,
            )
            error = self._attempt(request, run, timing)
            if not isinstance(error, TransientFault):
                break
            self.metrics.counter("retries_total").inc()
            if attempts >= self.retry_attempts or ctx.cancelled or ctx.expired:
                break
            attempts += 1
            delay = (
                self.retry_backoff
                * (2 ** (attempts - 1))
                * (0.5 + self._rng.random())
            )
            remaining = ctx.remaining()
            if remaining is not None:
                delay = min(delay, remaining)
            if delay > 0:
                time.sleep(delay)
        if attempts:
            self.metrics.counter("requests_retried").inc()
        return self._respond(request, run, error, attempts)

    def _respond(
        self,
        request: QueryRequest,
        run: QueryRun,
        error: Optional[ReproError],
        attempts: int,
    ) -> QueryResponse:
        """Build the response for a pipeline outcome.  An aborted or
        persistently faulting request reports no decision: it never
        completed one."""
        response = QueryResponse(
            request=request,
            status=_status_of(error),
            result=run.result,
            error=None if error is None else str(error),
            retries=attempts,
            prepared=run.template is not None,
            replica=run.replica,
        )
        if isinstance(error, TransientFault):
            response.error = (
                f"transient fault persisted after {attempts} "
                f"retr{'y' if attempts == 1 else 'ies'}: {error}"
            )
        elif isinstance(error, QueryCancelled):
            self.metrics.counter("requests_cancelled_inflight").inc()
        elif isinstance(error, ResourceBudgetExceeded):
            self.metrics.counter("requests_budget_exceeded").inc()
        elif not isinstance(error, QueryAborted):
            response.decision, response.cache_hit = run.decision, run.cache_hit
            if run.template is not None:
                self.metrics.counter("prepared_requests").inc()
        return response

    def _attempt(
        self, request: QueryRequest, run: QueryRun, timing: Timing
    ) -> Optional[ReproError]:
        """One pass of ``run`` through the pipeline under the read lock,
        on a routed replica or on the primary (with the shared decision
        cache); returns the typed error it raised, if any."""
        self._rwlock.acquire_read()
        try:
            with self.pool.checkout(
                request.user, request.mode, request.params
            ) as conn:
                run.session = conn.session
                replica = self._route_replica(request)
                if replica is None or not self._run_on_replica(
                    run, replica, timing
                ):
                    run.db, run.decisions = self.db, self.cache
                    self._run(run, timing)
        except ReproError as exc:
            return exc
        finally:
            self._rwlock.release_read()
        return None

    def _run(self, run: QueryRun, timing: Timing) -> None:
        """Run the pipeline with the gateway's stage-boundary hook, which
        fills ``timing`` and fires the serving-path chaos points."""
        started = time.perf_counter()
        executing: Optional[float] = None

        def hook(stage: str, run: QueryRun) -> None:
            nonlocal executing
            if stage == "decide":
                if run.fallback:
                    self.metrics.counter("prepared_fallbacks").inc()
                self._fire_chaos("gateway.before_check")
                if run.template_hit:
                    self._fire_chaos("prepared.hit")
                return
            # "plan": the decision is taken; plan/bind and execute follow
            executing = time.perf_counter()
            timing.check_s = executing - started
            # don't start executing an answer nobody is waiting for
            run.ctx.check("phase boundary before execution")
            self._fire_chaos("gateway.before_execute")
            if run.template is not None:
                self._fire_chaos("prepared.bind")

        try:
            run_query(run, hook)
        finally:
            if executing is None:
                timing.check_s = time.perf_counter() - started
            else:
                timing.execute_s = time.perf_counter() - executing

    def _route_replica(self, request: QueryRequest):
        """A caught-up read replica for this request, or None for primary.

        Only cluster databases (:class:`repro.cluster.ClusterCoordinator`)
        expose ``route_read``; everywhere else this is a no-op.  The
        routing gate — replica policy epoch caught up with the
        coordinator's, data lag within bounds — lives in the database,
        not here.
        """
        route = getattr(self.db, "route_read", None)
        if route is None:
            return None
        from repro.cluster.coordinator import REPLICA_READ_MODES

        if request.mode not in REPLICA_READ_MODES:
            return None
        return route()

    def _run_on_replica(self, run: QueryRun, replica, timing: Timing) -> bool:
        """Run on a routed replica's own Database; False (the caller
        falls back to the primary) when it stopped serving since routing.

        The replica enforces policy itself (its grants / Truman views /
        VPD predicates are rebuilt from shipped WAL records), checking
        validity fresh with no decision cache, so the outcome — rows,
        rejection message, audit decision — is the primary's; only the
        serving node differs.  Applies and reads are mutually exclusive
        via the replica's lock, so a read never observes a half-applied
        shipped batch.
        """
        with replica.read_lock():
            # the queue hop between routing and this lock is a window the
            # failure detector may have used to quarantine the replica:
            # re-check under the lock — a fallback, never a stale answer.
            # The database handle is also read under the lock: catch-up
            # bootstrap swaps it wholesale.
            try:
                self.db.verify_replica_serving(replica)
            except ReplicaUnavailable:
                self.metrics.counter("replica_fallbacks").inc()
                return False
            self.metrics.counter("replica_reads").inc()
            run.db, run.replica = replica.database, replica.name
            self._run(run, timing)
        return True

    # -- accounting ------------------------------------------------------

    _STATUS_COUNTERS = {
        RequestStatus.OK: "requests_ok",
        RequestStatus.REJECTED: "requests_rejected",
        RequestStatus.TIMEOUT: "requests_timeout",
        RequestStatus.ERROR: "requests_error",
        RequestStatus.CANCELLED: "requests_cancelled",
        RequestStatus.DEGRADED: "requests_degraded",
    }

    def _account(self, response: QueryResponse) -> None:
        request = response.request
        response._accounted = True
        self.metrics.counter("requests_completed").inc()
        self.metrics.counter(self._STATUS_COUNTERS[response.status]).inc()
        if response.cache_hit:
            self.metrics.counter("decision_cache_hits").inc()
        timing = response.timing
        self.metrics.histogram("latency_ms").observe(timing.total_s * 1000)
        self.metrics.histogram("queue_ms").observe(timing.queue_s * 1000)
        if timing.check_s:
            self.metrics.histogram("check_ms").observe(timing.check_s * 1000)
        if timing.execute_s:
            self.metrics.histogram("execute_ms").observe(timing.execute_s * 1000)

        decision = response.decision
        self.audit.record(
            user=request.user,
            mode=request.mode,
            # the resolve stage's signature; a request that never
            # reached it is audited by its raw text
            signature=request.sql
            if response.signature is None
            else response.signature,
            status=response.status.value,
            decision="" if decision is None else decision.validity.value,
            rules=()
            if decision is None
            else tuple(step.rule for step in decision.trace),
            cache_hit=response.cache_hit,
            latency_ms=timing.total_s * 1000,
            error=response.error,
            tag=request.tag,
        )

    # -- observability ---------------------------------------------------

    @property
    def breaker(self) -> CircuitBreaker:
        """The WAL-commit circuit breaker (for tests and operators)."""
        return self._breaker

    @property
    def degraded(self) -> bool:
        """True while the gateway refuses writes (breaker not closed)."""
        return self._breaker.state != "closed"

    def stats(self) -> dict[str, object]:
        """One merged snapshot: gateway, metrics, cache, pool, breaker."""
        merged: dict[str, object] = {
            "workers": len(self._workers),
            "queue_capacity": self.queue_size,
            "accepting": self.accepting,
            "default_deadline_s": self.default_deadline,
        }
        merged.update(self.metrics.snapshot())
        merged.update(self.cache.stats())
        merged.update(self.db.prepared.stats())
        merged.update(self.pool.stats())
        merged.update(self._breaker.stats())
        # policy / data version counters: what the enforcement caches
        # stamp their entries with, and what cluster epoch gating keys on
        merged["policy_grants_version"] = self.db.grants.version
        merged["policy_views_version"] = self.db.catalog.views_version
        merged["policy_vpd_version"] = self.db.vpd_policies.version
        merged["data_version"] = self.db.validity_cache.data_version
        epoch = getattr(self.db, "policy_epoch", None)
        if epoch is not None:
            merged["policy_epoch"] = epoch
        for name, table in sorted(self.db._tables.items()):
            version = getattr(table, "data_version", None)
            if version is not None:
                merged[f"data_version_{name}"] = version
        if self.db.durability is not None:
            merged.update(self.db.durability.wal_stats())
        return merged

    def render_stats(self) -> str:
        """Aligned text report (the ``\\stats`` meta-command body)."""
        snap = self.stats()
        width = max(len(name) for name in snap)
        lines = [f"-- {self.name} --"]
        for name, value in snap.items():
            if isinstance(value, float):
                lines.append(f"  {name:<{width}}  {value:.4f}")
            else:
                lines.append(f"  {name:<{width}}  {value}")
        return "\n".join(lines)
