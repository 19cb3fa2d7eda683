"""One benchmark run of a wire workload, end to end.

Two servers are built from the seed, one after the other, and
``setup_s`` is the median of their set-up CPU times:

1. the *oracle host*.  It generates the run's requests (not timed),
   idles while the other server is measured, and then answers the
   correctness gate serially on the fresh path;
2. the measured server.

Each set-up counts the CPU seconds of the server process from its
start through database build, server start and the warm-up pass, plus
the load process's CPU seconds for the warm-up requests, each rescaled
to nominal machine speed (:mod:`calibrate`) by reference times taken
in its process at its start and right after.  The measured phases
follow; the open loop lasts a share of ``--seconds``, the others send a
fixed number of requests per second of ``--seconds`` (so that every run
at a seed measures the same requests):

* an open loop at the workload's fixed offered rate (reads, and on
  portal_write, interleaved writes), timed from scheduled send times
  (wall clock, printed for diagnosis);
* a serial phase over the same mix, one request at a time: each
  request's CPU time in the load process and the server is its cost
  (the read, deny and write metrics);
* a closed loop with one caller per connection: completed operations
  per CPU second of the server (``capacity_ops``);
* on portal_hot and portal_cold, a serial writes-only phase, so write
  cost is measured at that scale without perturbing the read caches
  (portal_write interleaves its writes with the reads instead).

The end-to-end figures are CPU times rescaled to nominal machine speed,
not wall-clock times, because on a shared virtual machine the host
takes the core away from the guest for a varying share of the time
(steal), and what a CPU second achieves varies with the other guests'
load: CPU time does not advance during steal, and the rescaling takes
out the speed.  Wall-clock latencies and the steal share are printed
beside them.

On portal_write the measured server then runs the ReBAC tuple churn
(:mod:`rebac_churn`) in-process.  With ``trace`` the measured server
records spans over the wire phases and, separately, over the churn,
and the run reports per-layer metrics instead.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import calibrate
import loadgen
from stats import mean, median, percentile, ratio

clock = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))

#: per-layer metrics of the ReBAC churn (0 where a workload has none)
REBAC_METRICS = (
    "rebac.write_ms",
    "rebac.closure_ms",
    "rebac.grant_rows_changed_per_write",
)

#: tables whose final state the gate compares
STATE_TABLES = ("Registered", "Grades", "Courses")

SETUPS = 2


def _allowed_cpus() -> list[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # not Linux: no pinning
        return []


#: servers run on the first allowed CPU and the load process on the
#: second, so the two do not contend for a core (with one CPU, no pinning)
CPUS = _allowed_cpus()


@dataclass
class RunResult:
    metrics: dict = field(default_factory=dict)
    #: metric name -> sample count behind it
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    violations: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    #: median accepted-read CPU time, traced or not (tracing overhead)
    read_cpu_p50_ms: Optional[float] = None


#: every server process not yet reaped, for the run's watchdog
LIVE: set = set()


def kill_all() -> None:
    for server in list(LIVE):
        server.kill()


class ServerProcess:
    """A ``server.py`` child answering JSON-line commands."""

    def __init__(self, root: str, workload: str, seed: int, trace: bool,
                 data_dir: Optional[str]):
        env = dict(os.environ)
        paths = [HERE, os.path.join(root, "src")]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        command = [
            sys.executable, os.path.join(HERE, "server.py"),
            "--workload", workload, "--seed", str(seed),
            "--trace", "1" if trace else "0",
        ]
        if data_dir is not None:
            command += ["--data-dir", data_dir]
        if len(CPUS) > 1:
            command += ["--cpu", str(CPUS[0])]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, cwd=root, env=env,
        )
        LIVE.add(self)
        ready = self.receive()
        self.port = ready["port"]
        #: reference times the server took at its start (:mod:`calibrate`)
        self.start_reference = ready["reference_s"]
        self.missing = ready.get("missing", [])

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited with code {self.proc.wait()} before answering"
            )
        message = json.loads(line)
        if "error" in message:
            raise RuntimeError(f"server error: {message['error']}")
        return message

    def send(self, cmd: str, **payload) -> None:
        payload["cmd"] = cmd
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()

    def call(self, cmd: str, **payload) -> dict:
        self.send(cmd, **payload)
        return self.receive()

    def sample(self) -> dict:
        """The server's CPU seconds so far (``cpu_s``) and a reference
        time taken there now (``reference_s``, :mod:`calibrate`)."""
        return self.call("cpu")

    def stop(self) -> dict:
        answer = self.call("stop")
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        LIVE.discard(self)
        return answer

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        LIVE.discard(self)


def _cpu_ticks() -> tuple[int, int]:
    """(busy, stolen) clock ticks of the whole machine, from /proc/stat;
    zeros where it does not exist."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
    except OSError:
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return sum(fields[:3]) + steal, steal


def _lat_ms(outcomes) -> list[float]:
    return [o.latency_s * 1000.0 for o in outcomes]


def _cpu_ms(outcomes) -> list[float]:
    return [o.cpu_s * 1000.0 for o in outcomes]


def _put(result: RunResult, name: str, value, n: int) -> None:
    if value is None:
        result.violations.append(
            f"{name}: {n} samples cannot support the percentile"
        )
        value = 0.0
    result.metrics[name] = value
    result.samples[name] = n


async def _warm(port: int, ops: list[dict]) -> list:
    lanes = await loadgen.open_lanes(port, 1)
    try:
        return [await loadgen.run_one(lanes[0], op, loadgen.clock()) for op in ops]
    finally:
        await loadgen.close_lanes(lanes)


@dataclass
class Phases:
    open: list
    serial: list
    saturation: list
    #: wall-clock and server CPU seconds (rescaled) of the saturation phase
    saturation_s: float
    saturation_cpu_s: float
    writes: list

    def everything(self) -> list:
        return self.open + self.serial + self.saturation + self.writes


async def _measure(server, plan: dict, spec, keep_rows: bool):
    lanes = await loadgen.open_lanes(server.port, loadgen.connection_count())
    try:
        open_out = await loadgen.open_loop(lanes, plan["open"], spec.rate, keep_rows)
        serial_out = await loadgen.serial_loop(
            lanes[0], plan["serial"], server.sample, keep_rows
        )
        sat_out, sat_s, sat_cpu = await loadgen.closed_loop(
            lanes, plan["saturation"], server.sample, keep_rows
        )
        write_out = []
        if plan["writes"]:
            write_out = await loadgen.serial_loop(
                lanes[0], plan["writes"], server.sample
            )
    finally:
        await loadgen.close_lanes(lanes)
    return Phases(open_out, serial_out, sat_out, sat_s, sat_cpu, write_out)


def _set_up(result, root, spec, seed, trace, work_dir, seconds):
    """Start and warm the servers; returns them, each one's set-up CPU
    seconds and wall-clock seconds, and the run's requests (generated
    by the first)."""
    servers: list[ServerProcess] = []
    setups: list[float] = []
    walls: list[float] = []
    plan = None
    try:
        for index in range(SETUPS):
            data_dir = os.path.join(work_dir, f"data{index}") if spec.durable else None
            start = clock()
            server = ServerProcess(root, spec.name, seed, trace, data_dir)
            servers.append(server)
            untimed = untimed_cpu = 0.0
            if plan is None:
                t, cpu = clock(), server.sample()["cpu_s"]
                plan = server.call("generate", seconds=seconds)
                untimed, untimed_cpu = clock() - t, server.sample()["cpu_s"] - cpu
            client_cpu = loadgen.cpu_clock()
            warm = asyncio.run(_warm(server.port, plan["warmup"]))
            client_cpu = loadgen.cpu_clock() - client_cpu
            walls.append(clock() - start - untimed)
            ready = [server.sample() for _ in range(5)]
            server_cpu = ready[0]["cpu_s"] - untimed_cpu
            client_reference = [calibrate.reference_cpu()[0] for _ in range(5)]
            reference = server.start_reference + [r["reference_s"] for r in ready]
            setups.append(
                server_cpu * calibrate.scale(reference)
                + client_cpu * calibrate.scale(client_reference)
            )
            failed = [o for o in warm if o.status == "failed"]
            if failed:
                result.violations.append(f"warm-up failed: {failed[0].error}")
    except BaseException:
        for server in servers:
            server.kill()
        raise
    return servers, setups, walls, plan


def run_portal(spec, seed: int, seconds: float, trace: bool, root: str,
               out_dir: str) -> RunResult:
    result = RunResult()
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[1]})
    work_dir = os.path.join(out_dir, f"run-{os.getpid()}-{spec.name}-{seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    spans_path = os.path.join(out_dir, f"spans-{spec.name}-seed{seed}.jsonl")
    t_begin = clock()
    servers: list[ServerProcess] = []
    try:
        servers, setups, walls, plan = _set_up(
            result, root, spec, seed, trace, work_dir, seconds
        )
        host, measured = servers
        if measured.missing:
            result.notes.append("not instrumented: " + ", ".join(measured.missing))

        t_measure = clock()
        ticks = _cpu_ticks()
        before = measured.call("stats")["stats"]
        if trace:
            measured.call("trace_begin")
        phases = asyncio.run(
            _measure(measured, plan, spec, spec.write_stable_reads)
        )
        busy, steal = (b - a for a, b in zip(ticks, _cpu_ticks()))
        everything = phases.everything()
        writes = [o for o in everything if o.op["op"] == "write"]
        layer = None
        if trace:
            layer = measured.call(
                "trace_end", ops=len(everything), writes=len(writes),
                path=spans_path,
            )
        after = measured.call("stats")["stats"]
        final = measured.call("digest", tables=list(STATE_TABLES))["digests"]
        rss = measured.call("rss")["peak_rss_mb"]
        churn = None
        if spec.rebac_cycles:
            churn = measured.call("rebac", cycles=spec.rebac_cycles)
            result.violations.extend(churn["violations"])
        measured.stop()

        t_gate = clock()
        _gate(result, host, everything, writes, final, spec)
        host.stop()

        result.attempted = len(everything)
        result.failed = sum(o.status == "failed" for o in everything)
        if trace:
            _layer_metrics(result, layer, churn, everything, writes, before, after)
        else:
            _end_to_end(result, setups, phases, rss)
        reads = [o for o in phases.serial if o.op["op"] == "read" and o.status == "ok"]
        result.read_cpu_p50_ms = percentile(_cpu_ms(reads), 0.5)
        _diagnose(result, everything, phases, reads, writes, walls)
        result.notes.append(
            f"wall s: set-ups {t_measure - t_begin:.1f}, measured "
            f"{t_gate - t_measure:.1f}, gate {clock() - t_gate:.1f}; cpu "
            f"stolen by the host while measuring: {100.0 * ratio(steal, busy):.1f}% "
            "of busy time"
        )
        if churn is not None:
            result.notes.append(f"rebac churn: {churn['writes']} tuple writes")
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(work_dir, ignore_errors=True)
    return result


def _p50_by(outcomes, key, ms=_lat_ms) -> str:
    """Plain medians by group (printed only: no sample-count rule)."""
    groups: dict = {}
    for o in outcomes:
        groups.setdefault(key(o), []).append(o)
    return ", ".join(
        f"{k}={median(ms(v)):.2f} (n={len(v)})"
        for k, v in sorted(groups.items())
    )


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def _diagnose(result, everything, phases, reads, writes, walls) -> None:
    """Printed, never gated: what explains a number that moved."""
    failed = [o for o in everything if o.status == "failed"]
    for o in failed[:3]:
        result.notes.append(f"failed: {o.op['sql'][:60]} -> {o.error}")
    lateness = [o.lateness_s * 1000.0 for o in phases.open]
    result.notes.append(
        f"generator lateness ms: p50={percentile(lateness, 0.5) or 0:.3f} "
        f"max={max(lateness, default=0):.3f}; set-ups wall s: "
        + ", ".join(f"{s:.3f}" for s in walls)
    )
    open_reads = [o for o in phases.open if o.op["op"] == "read"]
    accepted = _lat_ms(o for o in open_reads if o.status == "ok")
    denied = _lat_ms(o for o in open_reads if o.status == "rejected")
    result.notes.append(
        f"open loop at {len(phases.open)} ops, wall ms: read p50 "
        f"{_fmt(percentile(accepted, 0.5))} p90 {_fmt(percentile(accepted, 0.9))} "
        f"p99 {_fmt(percentile(accepted, 0.99))} (n={len(accepted)}), deny p50 "
        f"{_fmt(percentile(denied, 0.5))} (n={len(denied)})"
    )
    completed = [o for o in phases.saturation if o.status != "failed"]
    result.notes.append(
        f"closed loop wall throughput: "
        f"{ratio(len(completed), phases.saturation_s):.2f} ops/s"
    )
    result.notes.append(
        "accepted read CPU p50 ms by mode/class: "
        + _p50_by(
            reads, lambda o: f"{o.op['mode']}/{o.op.get('class') or 'control'}",
            _cpu_ms,
        )
    )
    rejected = [
        o for o in phases.serial if o.op["op"] == "read" and o.status == "rejected"
    ]
    result.notes.append(
        "rejected read CPU p50 ms by class: "
        + _p50_by(rejected, lambda o: o.op.get("class"), _cpu_ms)
    )
    serial_writes = [o for o in phases.serial + phases.writes if o.op["op"] == "write"]
    result.notes.append(
        "serial write p50 ms by kind, CPU: "
        + _p50_by(serial_writes, lambda o: o.op["kind"], _cpu_ms)
        + "; wall: "
        + _p50_by(serial_writes, lambda o: o.op["kind"])
    )


def _end_to_end(result, setups, phases, rss):
    """Every figure but peak memory is CPU time: see the module doc."""
    reads = [o for o in phases.serial if o.op["op"] == "read"]
    accepted = _cpu_ms(o for o in reads if o.status == "ok")
    denied = _cpu_ms(o for o in reads if o.status == "rejected")
    writes = [o for o in phases.serial + phases.writes if o.op["op"] == "write"]
    written = _cpu_ms(o for o in writes if o.status == "ok")
    completed = [o for o in phases.saturation if o.status != "failed"]
    _put(result, "setup_s", median(setups), len(setups))
    _put(result, "read_cpu_p50_ms", percentile(accepted, 0.5), len(accepted))
    _put(result, "read_cpu_p90_ms", percentile(accepted, 0.9), len(accepted))
    _put(result, "deny_cpu_p50_ms", percentile(denied, 0.5), len(denied))
    _put(result, "write_cpu_p50_ms", percentile(written, 0.5), len(written))
    _put(result, "write_cpu_p90_ms", percentile(written, 0.9), len(written))
    _put(
        result, "capacity_ops",
        ratio(len(completed), phases.saturation_cpu_s), len(completed),
    )
    _put(result, "peak_rss_mb", rss, 1)


def _delta(after: dict, before: dict, key: str) -> float:
    return float(after.get(key, 0) or 0) - float(before.get(key, 0) or 0)


def _layer_metrics(result, layer, churn, everything, writes, before, after):
    answered = [o for o in everything if o.status == "ok" and o.timing]
    hits = _delta(after, before, "cache_hits")
    misses = _delta(after, before, "cache_misses")
    p_hits = _delta(after, before, "prepared_hits")
    p_misses = _delta(after, before, "prepared_misses")
    metrics = dict(layer["metrics"])
    metrics.update(
        {
            "net.overhead_ms": mean(
                (o.wire_s - o.timing.get("total_s", 0.0)) * 1000.0 for o in answered
            ),
            "service.queue_ms": mean(
                o.timing.get("queue_s", 0.0) * 1000.0 for o in answered
            ),
            "service.decision_cache_hit_ratio": ratio(hits, hits + misses),
            "prepared.hit_ratio": ratio(p_hits, p_hits + p_misses),
            "prepared.invalidations_per_write": ratio(
                _delta(after, before, "prepared_invalidations"), len(writes)
            ),
            "durability.fsyncs_per_write": ratio(
                _delta(after, before, "wal_fsyncs"), len(writes)
            ),
            "durability.wal_bytes_per_write": ratio(
                _delta(after, before, "wal_bytes"), len(writes)
            ),
            "trace.overhead_ms_per_op": metrics["trace.spans_per_op"]
            * layer["span_cost_s"] * 1000.0,
        }
    )
    del metrics["trace.spans_per_op"]
    for name, value in metrics.items():
        _put(result, name, value, len(everything))
    churn = churn or {}
    for name in REBAC_METRICS:
        _put(result, name, churn.get("metrics", {}).get(name, 0.0),
             churn.get("writes", 0))
    result.notes.append(
        f"spans recorded: {layer['spans']}; "
        f"cost per span {layer['span_cost_s'] * 1e6:.2f} us"
    )


def _gate(result, host, everything, writes, final, spec) -> None:
    """Reads against the fresh-path oracle, rows against the reader's
    views (portal_write), and the final state against the acknowledged
    writes (replayed by the oracle host)."""
    reads = [o for o in everything if o.op["op"] == "read" and o.status != "failed"]
    distinct = sorted({(o.op["user"], o.op["sql"], o.op["mode"]) for o in reads})
    expected = dict(zip(distinct, host.call("oracle", reads=distinct)["outcomes"]))
    for o in reads:
        status, validity, digest, _ = expected[(o.op["user"], o.op["sql"], o.op["mode"])]
        if o.status != status:
            result.violations.append(
                f"{o.op['mode']} read by {o.op['user']} was {o.status}, oracle "
                f"says {status}: {o.op['sql']}"
            )
        elif o.op["mode"] == "non-truman" and o.validity != validity:
            result.violations.append(
                f"decision {o.validity} != oracle {validity}: {o.op['sql']}"
            )
        elif status == "ok" and o.digest != digest:
            result.violations.append(
                f"rows differ from the oracle for {o.op['user']}: {o.op['sql']}"
            )
    if spec.write_stable_reads:
        scoped: dict = {}
        for o in reads:
            if o.status == "ok" and o.op["mode"] != "open":
                scoped.setdefault((o.op["user"], o.columns, o.digest), o)
        items = [[u, list(c), o.rows] for (u, c, _), o in scoped.items()]
        outside = host.call("scope", results=items)["outside"]
        for (user, columns, rows), bad in zip(items, outside):
            if bad:
                result.violations.append(
                    f"{len(bad)} rows outside {user}'s views, e.g. {bad[0]}"
                )
    for o in writes:
        if o.status == "rejected":
            result.violations.append(f"authorized write rejected: {o.op['sql']}")
        elif o.status == "ok" and o.rowcount != 1:
            result.violations.append(
                f"write affected {o.rowcount} rows, expected 1: {o.op['sql']}"
            )
    acked = sorted(o.op["sql"] for o in writes if o.status == "ok")
    if any(c != 1 for c in host.call("apply", sql=acked)["rowcounts"]):
        result.violations.append("oracle could not replay the acknowledged writes")
    want = host.call("digest", tables=list(STATE_TABLES))["digests"]
    unknown = {o.op["key"][0] for o in writes if o.status == "failed"}
    for table in STATE_TABLES:
        if final[table] != want[table] and table not in unknown:
            result.violations.append(
                f"final {table} ({final[table][0]} rows) differs "
                f"from the acknowledged writes ({want[table][0]} rows)"
            )
    if unknown:
        result.notes.append(
            "writes with unknown outcome: tables not compared: "
            + ", ".join(sorted(unknown))
        )
