"""Asyncio TCP front end over the enforcement gateway.

:class:`ReproServer` turns the in-process
:class:`~repro.service.gateway.EnforcementGateway` into a networked
service: each TCP connection is one client *session* (authenticated by
the ``hello`` handshake, mapped to a gateway user), each ``query``
frame becomes one :class:`~repro.service.request.QueryRequest`, and
every outcome — rows, rejection, timeout, overload — travels back as
typed frames (:mod:`repro.net.protocol`).

Design points:

* **one event loop, many sessions** — the asyncio loop only parses
  frames and submits work; the gateway's worker pool does the actual
  checking/execution on its own threads.  Completion is bridged back
  with :meth:`PendingQuery.add_done_callback` +
  ``loop.call_soon_threadsafe`` — no thread, poller, or executor slot
  is held per in-flight request, so thousands of concurrent sessions
  cost one socket and a little state each;
* **deadline propagation** — a ``deadline`` on the query frame flows
  into the request's :class:`~repro.service.context.QueryContext`, so
  the wire deadline is the same cooperative deadline that kills
  runaway scans and inference loops in-process;
* **cancellation on disconnect** — when a connection drops (EOF,
  reset, or an injected ``net.*`` chaos fault), every request still in
  flight for that session is cancelled through its context: no work
  keeps running for an answer nobody can receive, and the gateway
  audits the cancelled request exactly once like any other;
* **backpressure, not collapse** — admission control stays in the
  gateway: when its bounded queue is full, ``submit`` raises
  :class:`~repro.errors.ServiceOverloaded` and the server answers an
  ``overloaded`` error frame immediately.  An open-loop load sweep
  past saturation therefore sheds excess arrivals with a typed error
  while admitted requests keep bounded latency (benchmark E17);
* **bounded frames** — results are streamed as multiple ``row_batch``
  frames, each guaranteed to encode within ``max_frame_size``
  (:func:`~repro.net.protocol.iter_result_frames`); incoming frames
  beyond the limit close the connection before buffering the payload.

Per-query pipelining is supported: a client may have any number of
queries outstanding on one connection; responses carry the client's
request id and may interleave between queries (frames of one response
never interleave with each other — writes are serialized per
connection).
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from typing import Optional

from repro.db import MODES
from repro.errors import (
    ConnectionDropped,
    FrameTooLarge,
    ProtocolError,
    ReproError,
    ServiceOverloaded,
    ServiceShutdown,
)
from repro.prepared import PreparedFallback, resolve_signature
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    DEFAULT_ROWS_PER_FRAME,
    HEADER,
    PROTOCOL_VERSION,
    code_for_status,
    decision_to_wire,
    decode_payload,
    encode_frame,
    iter_result_frames,
    sanitize_stats,
)
from repro.service.gateway import EnforcementGateway, PendingQuery
from repro.service.request import QueryRequest, QueryResponse, RequestStatus

#: network instruments, pre-created so ``\stats`` shows them at zero
NET_COUNTERS = (
    "sessions_authenticated",
    "frames_sent",
    "frames_received",
    "disconnect_cancels",
    "net_queries",
    "net_prepares",
    "net_executes",
    "net_explains",
    "net_rows_streamed",
    "net_protocol_errors",
)


class _Session:
    """Per-connection state: identity, in-flight requests, write lock."""

    _ids = itertools.count(1)

    def __init__(self, writer: asyncio.StreamWriter):
        self.id = next(self._ids)
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.authenticated = False
        self.user: Optional[str] = None
        self.mode: str = "non-truman"
        self.params: dict = {}
        #: request id → PendingQuery, while in flight
        self.inflight: dict[int, PendingQuery] = {}
        #: statement handle → (skeleton, n_params, signature_text)
        self.prepared: dict[int, tuple] = {}
        self._stmt_ids = itertools.count(1)
        self.closing = False

    def register_prepared(
        self, skeleton, n_params: int, signature_text: str
    ) -> int:
        handle = next(self._stmt_ids)
        self.prepared[handle] = (skeleton, n_params, signature_text)
        return handle

    def cancel_inflight(self) -> int:
        """Cancel every request still in flight; returns how many."""
        cancelled = 0
        for pending in list(self.inflight.values()):
            if pending.cancel():
                cancelled += 1
        return cancelled


class ReproServer:
    """Asyncio TCP server speaking the framed protocol over one gateway."""

    def __init__(
        self,
        gateway: EnforcementGateway,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame_size: int = DEFAULT_MAX_FRAME,
        rows_per_frame: int = DEFAULT_ROWS_PER_FRAME,
        chaos=None,
        name: str = "repro-net",
    ):
        self.gateway = gateway
        self.host = host
        self.port = port
        self.max_frame_size = max_frame_size
        self.rows_per_frame = rows_per_frame
        self.chaos = chaos
        self.name = name
        #: network metrics live in the gateway registry so ``\stats``
        #: and ``gateway.stats()`` report wire and worker state together
        self.metrics = gateway.metrics
        self.metrics.gauge("connections_open")
        for counter in NET_COUNTERS:
            self.metrics.counter(counter)
        self._server: Optional[asyncio.base_events.Server] = None
        self._sessions: set[_Session] = set()
        self._tasks: set[asyncio.Task] = set()
        self.address: Optional[tuple[str, int]] = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the (host, port) bound."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, drop every session, and reap delivery tasks."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for session in list(self._sessions):
            session.closing = True
            session.cancel_inflight()
            session.writer.close()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    # -- chaos ------------------------------------------------------------

    def _fire_chaos(self, point: str) -> None:
        if self.chaos is not None:
            self.chaos.fire(point)

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = _Session(writer)
        self._sessions.add(session)
        self.metrics.gauge("connections_open").inc()
        try:
            self._fire_chaos("net.accept")
            await self._read_loop(session, reader)
        except FrameTooLarge as exc:
            self.metrics.counter("net_protocol_errors").inc()
            await self._try_send_error(session, None, "protocol", str(exc))
        except ProtocolError as exc:
            self.metrics.counter("net_protocol_errors").inc()
            await self._try_send_error(session, None, "protocol", str(exc))
        except (
            asyncio.IncompleteReadError,
            ConnectionDropped,
            ConnectionError,
            OSError,
        ):
            pass  # peer vanished; cleanup below cancels its work
        finally:
            session.closing = True
            dropped = session.cancel_inflight()
            if dropped:
                self.metrics.counter("disconnect_cancels").inc(dropped)
            self._sessions.discard(session)
            self.metrics.gauge("connections_open").dec()
            writer.close()

    async def _read_loop(
        self, session: _Session, reader: asyncio.StreamReader
    ) -> None:
        while True:
            header = await reader.readexactly(HEADER.size)
            (length,) = HEADER.unpack(header)
            if length > self.max_frame_size:
                raise FrameTooLarge(
                    f"incoming frame of {length} bytes exceeds the "
                    f"{self.max_frame_size}-byte limit"
                )
            payload = await reader.readexactly(length)
            self.metrics.counter("frames_received").inc()
            message = decode_payload(payload)
            if not await self._dispatch(session, message):
                return

    async def _dispatch(self, session: _Session, message: dict) -> bool:
        """Handle one message; False ends the connection cleanly."""
        kind = message.get("type")
        if kind == "hello":
            await self._handle_hello(session, message)
            return True
        if kind == "goodbye":
            await self._send(session, {"type": "goodbye"})
            return False
        if kind == "cancel":
            pending = session.inflight.get(message.get("id"))
            if pending is not None:
                pending.cancel()
            return True
        if kind == "stats":
            await self._send(
                session,
                {
                    "type": "stats",
                    "id": message.get("id"),
                    "stats": sanitize_stats(self.gateway.stats()),
                },
            )
            return True
        if kind == "health":
            await self._send(
                session,
                {
                    "type": "health",
                    "id": message.get("id"),
                    "health": self._cluster_health(),
                },
            )
            return True
        if kind == "query":
            await self._handle_query(session, message)
            return True
        if kind == "explain":
            await self._handle_explain(session, message)
            return True
        if kind == "prepare":
            await self._handle_prepare(session, message)
            return True
        if kind == "execute":
            await self._handle_execute(session, message)
            return True
        self.metrics.counter("net_protocol_errors").inc()
        await self._try_send_error(
            session,
            message.get("id"),
            "protocol",
            f"unknown message type {kind!r}",
        )
        return True

    async def _handle_hello(self, session: _Session, message: dict) -> None:
        mode = message.get("mode", "non-truman")
        if mode not in MODES:
            await self._try_send_error(
                session,
                None,
                "protocol",
                f"unknown access-control mode {mode!r} "
                f"(modes: {' | '.join(MODES)})",
            )
            return
        user = message.get("user")
        session.user = None if user is None else str(user)
        session.mode = mode
        params = message.get("params") or {}
        if not isinstance(params, dict):
            await self._try_send_error(
                session, None, "protocol", "hello params must be an object"
            )
            return
        session.params = params
        first_auth = not session.authenticated
        session.authenticated = True
        if first_auth:
            self.metrics.counter("sessions_authenticated").inc()
        self._fire_chaos("net.after_hello")
        welcome = {
            "type": "welcome",
            "protocol": PROTOCOL_VERSION,
            "server": self.name,
            "session": session.id,
            "user": session.user,
            "mode": session.mode,
        }
        # cluster deployments advertise their topology so clients and
        # operators can see what is serving them — *live* health, not
        # just a replica count: quarantined replicas are flagged
        db = self.gateway.db
        shards = getattr(db, "n_shards", None)
        if shards is not None:
            welcome["shards"] = shards
            welcome["replicas"] = len(getattr(db, "replicas", ()))
            health = self._cluster_health()
            if health is not None:
                welcome["topology"] = [
                    {
                        "name": replica["name"],
                        "state": replica["state"],
                        "serving": replica["serving"],
                        "quarantined": replica["state"] == "quarantined",
                        "lag": replica["lag"],
                        "policy_epoch": replica["policy_epoch"],
                    }
                    for replica in health["replicas"]
                ]
        await self._send(session, welcome)

    def _cluster_health(self) -> Optional[dict]:
        """The database's live health report (None off-cluster)."""
        report = getattr(self.gateway.db, "cluster_health", None)
        if report is None:
            return None
        return report()

    async def _handle_query(self, session: _Session, message: dict) -> None:
        request_id = await self._request_id(session, message, "query")
        if request_id is None:
            return
        mode = await self._frame_mode(session, message, request_id)
        if mode is None:
            return
        request = self._query_request(session, message, message["sql"], mode)
        await self._submit_request(session, request_id, request)

    async def _handle_explain(self, session: _Session, message: dict) -> None:
        """``explain``: validity check + decision trace, no execution."""
        request_id = await self._request_id(session, message, "explain")
        if request_id is None:
            return
        mode = await self._frame_mode(session, message, request_id)
        if mode is None:
            return
        sql = message["sql"]
        from repro.rebac.trace import explain_query, render_report

        db = self.gateway.db
        loop = asyncio.get_running_loop()

        def _trace():
            conn = db.connect(user_id=session.user, mode=mode,
                              **dict(session.params))
            return explain_query(db, sql, conn.session)

        try:
            # the validity check may run probe queries; keep it off the
            # event loop like the gateway keeps query work off it
            report = await loop.run_in_executor(None, _trace)
        except ReproError as exc:
            await self._try_send_error(session, request_id, "error", str(exc))
            return
        self.metrics.counter("net_explains").inc()
        await self._send(
            session,
            {
                "type": "explain",
                "id": request_id,
                "report": report.as_dict(),
                "rendered": render_report(report),
            },
        )

    async def _handle_prepare(self, session: _Session, message: dict) -> None:
        """``prepare``: parse + literal-strip once, answer a handle."""
        request_id = await self._request_id(session, message, "prepare")
        if request_id is None:
            return
        sql = message["sql"]
        try:
            skeleton, literals, signature_text = resolve_signature(
                self.gateway.db, sql
            )
        except PreparedFallback as exc:
            await self._try_send_error(
                session, request_id, "error", f"cannot prepare: {exc}"
            )
            return
        except ReproError as exc:
            await self._try_send_error(session, request_id, "error", str(exc))
            return
        handle = session.register_prepared(
            skeleton, len(literals), signature_text
        )
        self.metrics.counter("net_prepares").inc()
        await self._send(
            session,
            {
                "type": "prepared",
                "id": request_id,
                "statement": handle,
                "params": len(literals),
                "signature": signature_text,
            },
        )

    async def _handle_execute(self, session: _Session, message: dict) -> None:
        """``execute``: bind positional args to a prepared handle."""
        request_id = message.get("id")
        if not isinstance(request_id, int):
            self.metrics.counter("net_protocol_errors").inc()
            await self._try_send_error(
                session, None, "protocol", "execute frame needs an integer id"
            )
            return
        entry = session.prepared.get(message.get("statement"))
        if entry is None:
            await self._try_send_error(
                session,
                request_id,
                "error",
                f"unknown prepared statement {message.get('statement')!r}",
            )
            return
        skeleton, n_params, signature_text = entry
        args = message.get("args") or []
        if not isinstance(args, list) or len(args) != n_params:
            got = len(args) if isinstance(args, list) else f"{args!r}"
            await self._try_send_error(
                session,
                request_id,
                "error",
                f"prepared statement takes {n_params} argument(s), got {got}",
            )
            return
        literals = tuple(args)
        try:
            hash(literals)
        except TypeError:
            self.metrics.counter("net_protocol_errors").inc()
            await self._try_send_error(
                session,
                request_id,
                "protocol",
                "execute args must be scalar literals",
            )
            return
        mode = await self._frame_mode(session, message, request_id)
        if mode is None:
            return
        request = self._query_request(
            session, message, signature_text, mode,
            skeleton=skeleton, literals=literals,
        )
        self.metrics.counter("net_executes").inc()
        await self._submit_request(session, request_id, request)

    async def _request_id(
        self, session: _Session, message: dict, kind: str
    ) -> Optional[int]:
        """The id of a well-formed ``kind`` frame with a sql string from
        an authenticated session; None once the error is answered."""
        request_id = message.get("id")
        if not isinstance(request_id, int):
            self.metrics.counter("net_protocol_errors").inc()
            await self._try_send_error(
                session, None, "protocol", f"{kind} frame needs an integer id"
            )
            return None
        if not session.authenticated:
            await self._try_send_error(
                session,
                request_id,
                "auth",
                "session is not authenticated; send a hello frame first",
            )
            return None
        if not isinstance(message.get("sql"), str):
            self.metrics.counter("net_protocol_errors").inc()
            await self._try_send_error(
                session, request_id, "protocol", f"{kind} frame needs a sql string"
            )
            return None
        return request_id

    async def _frame_mode(
        self, session: _Session, message: dict, request_id: int
    ) -> Optional[str]:
        """The frame's access-control mode (default: the session's);
        None once an unknown mode is answered."""
        mode = message.get("mode") or session.mode
        if mode in MODES:
            return mode
        await self._try_send_error(
            session, request_id, "protocol", f"unknown access-control mode {mode!r}"
        )
        return None

    @staticmethod
    def _query_request(
        session: _Session, message: dict, sql: str, mode: str, **prepared
    ) -> QueryRequest:
        return QueryRequest(
            user=session.user,
            sql=sql,
            params=session.params,
            mode=mode,
            deadline=message.get("deadline"),
            tag=message.get("tag"),
            engine=message.get("engine"),
            row_budget=message.get("row_budget"),
            memory_budget=message.get("memory_budget"),
            **prepared,
        )

    async def _submit_request(
        self, session: _Session, request_id: int, request: QueryRequest
    ) -> None:
        try:
            pending = self.gateway.submit(request)
        except ServiceOverloaded as exc:
            await self._try_send_error(
                session, request_id, "overloaded", str(exc)
            )
            return
        except ServiceShutdown as exc:
            await self._try_send_error(session, request_id, "shutdown", str(exc))
            return
        self.metrics.counter("net_queries").inc()
        session.inflight[request_id] = pending
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def _resolved(response: QueryResponse) -> None:
            loop.call_soon_threadsafe(_complete, response)

        def _complete(response: QueryResponse) -> None:
            if not future.done():
                future.set_result(response)

        pending.add_done_callback(_resolved)
        task = asyncio.ensure_future(
            self._deliver(session, request_id, future)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _deliver(
        self, session: _Session, request_id: int, future: asyncio.Future
    ) -> None:
        """Wait for the gateway's terminal response and stream it out."""
        response: QueryResponse = await future
        session.inflight.pop(request_id, None)
        if session.closing:
            return  # nobody to answer; the request was cancelled on drop
        try:
            await self._send_response(session, request_id, response)
        except (ConnectionDropped, ConnectionError, OSError):
            # the client vanished between resolve and write; the read
            # loop's cleanup handles cancellation of anything else
            pass

    async def _send_response(
        self, session: _Session, request_id: int, response: QueryResponse
    ) -> None:
        if response.status is RequestStatus.OK:
            columns: list[str] = []
            frames = 0
            if response.result is not None:
                columns = list(response.result.columns)
                for frame in iter_result_frames(
                    request_id,
                    response.result.rows,
                    max_frame_size=self.max_frame_size,
                    rows_per_frame=self.rows_per_frame,
                ):
                    await self._send(session, frame)
                    frames += 1
                    self.metrics.counter("net_rows_streamed").inc(
                        len(frame["rows"])
                    )
            await self._send(
                session,
                {
                    "type": "result",
                    "id": request_id,
                    "status": "ok",
                    "columns": columns,
                    "row_frames": frames,
                    "rowcount": response.rowcount,
                    "cache_hit": response.cache_hit,
                    "retries": response.retries,
                    "timing": response.timing.as_dict(),
                    "decision": decision_to_wire(response.decision),
                },
            )
            return
        await self._send(
            session,
            {
                "type": "error",
                "id": request_id,
                "code": code_for_status(response.status.value),
                "message": response.error or response.status.value,
                "retries": response.retries,
                "timing": response.timing.as_dict(),
                "decision": decision_to_wire(response.decision),
            },
        )

    # -- frame writing -----------------------------------------------------

    async def _send(self, session: _Session, message: dict) -> None:
        data = encode_frame(message, self.max_frame_size)
        async with session.write_lock:
            try:
                self._fire_chaos("net.before_send")
            except ConnectionDropped:
                # simulate the peer vanishing mid-write: tear the
                # connection down; the read loop unwinds and cancels
                session.closing = True
                session.writer.close()
                raise
            session.writer.write(data)
            await session.writer.drain()
            self.metrics.counter("frames_sent").inc()

    async def _try_send_error(
        self,
        session: _Session,
        request_id: Optional[int],
        code: str,
        message: str,
    ) -> None:
        try:
            await self._send(
                session,
                {
                    "type": "error",
                    "id": request_id,
                    "code": code,
                    "message": message,
                },
            )
        except (ConnectionDropped, ConnectionError, OSError):
            pass


class NetworkService:
    """Thread wrapper: run a :class:`ReproServer` on a background event
    loop so synchronous code (tests, the CLI shell, benchmarks) can
    start/stop a live server without owning an asyncio loop."""

    def __init__(self, gateway: EnforcementGateway, **server_kwargs):
        self.gateway = gateway
        self.server = ReproServer(gateway, **server_kwargs)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.address: Optional[tuple[str, int]] = None

    def start(self) -> tuple[str, int]:
        """Start serving on a daemon thread; returns the bound address."""
        self._thread = threading.Thread(
            target=self._run, name=f"{self.server.name}-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        assert self.address is not None
        return self.address

    def _run(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            self.address = await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        await self._stop_event.wait()
        await self.server.stop()

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Stop the server and join the loop thread."""
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "NetworkService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
