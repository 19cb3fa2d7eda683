"""Open- and closed-loop load over the wire, from one process.

Unlike ``repro.net.loadgen`` (which starts each request's clock when
its task starts, records only OK latencies and defaults to eight
connections), this driver

* times every request from its *scheduled* send time, so a stall in
  the server or in the generator is charged to every request it delays;
* records denials and failures as well as accepted answers;
* records how late the generator dispatched each request;
* uses at most ``nproc`` connections.  Requests for another user than
  the connection's current one re-authenticate it with ``hello`` first,
  as a pooled portal backend would.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import calibrate
from checks import rows_digest

clock = time.perf_counter
cpu_clock = time.process_time

#: a request unanswered this long counts as failed
REQUEST_TIMEOUT_S = 60.0

#: seconds between the server samples of a closed loop
SAMPLE_EVERY_S = 0.1


def connection_count() -> int:
    """Connections the load process may open: ``nproc``, at most 2, so
    the offered load is the same on larger machines."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        cores = os.cpu_count() or 1
    return max(1, min(2, cores))


def arrival_schedule(rate: float, count: int) -> list[float]:
    """Send offsets (seconds from phase start) of ``count`` arrivals at
    ``rate`` per second, evenly paced: arrival ``i`` is due at ``i/rate``."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return [i / rate for i in range(count)]


@dataclass
class Outcome:
    op: dict
    #: ok | rejected | failed
    status: str
    #: completion minus scheduled send time (open loop) or send time
    latency_s: float
    #: completion minus the moment the request frame was written
    wire_s: float = 0.0
    #: dispatch minus scheduled send time
    lateness_s: float = 0.0
    timing: dict = field(default_factory=dict)
    #: CPU seconds spent on the request: this process's; after a serial
    #: loop, this process's plus the server's, rescaled to nominal
    #: machine speed (:func:`serial_loop`)
    cpu_s: float = 0.0
    validity: Optional[str] = None
    digest: Optional[str] = None
    columns: tuple = ()
    rows: Optional[list] = None
    rowcount: Optional[int] = None
    error: Optional[str] = None


class Lane:
    """One connection plus the user it is currently authenticated as."""

    def __init__(self, client):
        self.client = client
        self.user = None
        self.lock = asyncio.Lock()


async def open_lanes(port: int, count: int) -> list[Lane]:
    from repro.net.client import AsyncReproClient

    lanes = []
    for _ in range(count):
        client = await AsyncReproClient.connect("127.0.0.1", port)
        lanes.append(Lane(client))
    return lanes


async def close_lanes(lanes: list[Lane]) -> None:
    for lane in lanes:
        await lane.client.close()


async def run_one(
    lane: Lane, op: dict, scheduled: float, keep_rows: bool = False
) -> Outcome:
    from repro.errors import QueryRejectedError, ReproError

    dispatched = clock()
    cpu_start = cpu_clock()
    sent = dispatched
    try:
        async with lane.lock:
            if lane.user != op["user"]:
                await lane.client.hello(user=op["user"])
                lane.user = op["user"]
            sent = clock()
            _, future = await lane.client.submit(op["sql"], mode=op["mode"])
        result = await asyncio.wait_for(future, REQUEST_TIMEOUT_S)
    except QueryRejectedError as exc:
        done, cpu = clock(), cpu_clock() - cpu_start
        decision = exc.decision or {}
        return Outcome(
            op, "rejected", done - scheduled, done - sent,
            dispatched - scheduled, cpu_s=cpu, validity=decision.get("validity"),
        )
    except (ReproError, OSError, asyncio.TimeoutError) as exc:
        done, cpu = clock(), cpu_clock() - cpu_start
        return Outcome(
            op, "failed", done - scheduled, done - sent,
            dispatched - scheduled, cpu_s=cpu,
            error=f"{type(exc).__name__}: {exc}",
        )
    done, cpu = clock(), cpu_clock() - cpu_start
    decision = result.decision or {}
    return Outcome(
        op, "ok", done - scheduled, done - sent, dispatched - scheduled,
        timing=dict(result.timing), cpu_s=cpu,
        validity=decision.get("validity"),
        digest=rows_digest(result.rows) if op["op"] == "read" else None,
        columns=tuple(result.columns),
        rows=[list(r) for r in result.rows] if keep_rows else None,
        rowcount=result.rowcount,
    )


async def open_loop(
    lanes: list[Lane], ops: list[dict], rate: float, keep_rows: bool = False
) -> list[Outcome]:
    """Send ``ops`` on the paced schedule, round-robin over the lanes."""
    offsets = arrival_schedule(rate, len(ops))
    start = clock() + 0.005
    tasks = []
    for i, (op, offset) in enumerate(zip(ops, offsets)):
        scheduled = start + offset
        delay = scheduled - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(
            asyncio.ensure_future(
                run_one(lanes[i % len(lanes)], op, scheduled, keep_rows)
            )
        )
    return list(await asyncio.gather(*tasks))


async def closed_loop(
    lanes: list[Lane],
    ops: list[dict],
    server_sample: Callable[[], dict],
    keep_rows: bool = False,
) -> tuple[list[Outcome], float, float]:
    """One caller per lane, each sending the next of ``ops`` when its
    last one completes, until ``ops`` run out.

    Returns the outcomes, the elapsed time, and the server's CPU
    seconds over the phase, rescaled (``server_sample`` as for
    :func:`serial_loop`); the server is sampled every ``SAMPLE_EVERY_S``
    from a helper thread, so the callers never wait on it."""
    pending = iter(ops)
    outcomes: list[Outcome] = []
    loop = asyncio.get_running_loop()
    samples: list[dict] = []

    async def caller(lane: Lane) -> None:
        for op in pending:
            outcomes.append(await run_one(lane, op, clock(), keep_rows))

    async def sampler(callers) -> None:
        while not callers.done():
            samples.append(await loop.run_in_executor(None, server_sample))
            await asyncio.wait([callers], timeout=SAMPLE_EVERY_S)

    start = clock()
    callers = asyncio.ensure_future(
        asyncio.gather(*(caller(lane) for lane in lanes))
    )
    await asyncio.gather(callers, sampler(callers))
    samples.append(server_sample())
    elapsed = clock() - start
    server_cpu = sum(
        rescaled(
            [b["cpu_s"] - a["cpu_s"] for a, b in zip(samples, samples[1:])],
            [sample["reference_s"] for sample in samples],
        )
    )
    return outcomes, elapsed, server_cpu


def rescaled(cpu_s: Sequence[float], reference_s: Sequence[float]) -> list[float]:
    """CPU seconds of the intervals between successive reference times
    (``cpu_s[i]`` spent between ``reference_s[i]`` and
    ``reference_s[i + 1]``), each rescaled by the smoothed reference
    times at its two ends."""
    reference = calibrate.smooth(reference_s)
    return [
        cpu * calibrate.scale(reference[i:i + 2]) for i, cpu in enumerate(cpu_s)
    ]


async def serial_loop(
    lane: Lane,
    ops: list[dict],
    server_sample: Callable[[], dict],
    keep_rows: bool = False,
) -> list[Outcome]:
    """Send ``ops`` one at a time.

    With nothing else in flight, the server's CPU time between two
    requests belongs to the one between them.  ``server_sample`` returns
    the server's process CPU clock (``cpu_s``; the constant cost of
    reading it is included) and a reference time taken there just after
    (``reference_s``); this process takes one of its own after each
    request too.  CPU time does not advance while a shared host runs
    another guest on the core, so it is steadier than wall-clock
    latency; the reference times take out what the host's load does to
    the speed of a CPU second.  Each outcome's ``cpu_s`` becomes its
    client and server CPU times, each rescaled (:func:`rescaled`) by its
    own process's reference times before and after the request.
    """
    outcomes: list[Outcome] = []
    servers = [server_sample()]
    clients = [calibrate.reference_cpu()[0]]
    for op in ops:
        outcomes.append(await run_one(lane, op, clock(), keep_rows))
        servers.append(server_sample())
        clients.append(calibrate.reference_cpu()[0])
    server_cpu = rescaled(
        [b["cpu_s"] - a["cpu_s"] for a, b in zip(servers, servers[1:])],
        [server["reference_s"] for server in servers],
    )
    client_cpu = rescaled([o.cpu_s for o in outcomes], clients)
    for outcome, client, server in zip(outcomes, client_cpu, server_cpu):
        outcome.cpu_s = client + server
    return outcomes
