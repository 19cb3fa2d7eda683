"""Chaos injection for the serving path.

Builds on the durability layer's crash-point machinery
(:mod:`repro.durability.faults`): a :class:`ChaosInjector` *is* a
:class:`~repro.durability.faults.FaultInjector` (so it can be handed to
``Database.open(injector=...)`` and fire the WAL crash points), and
additionally supports **recoverable**, probabilistic faults at named
points the gateway fires while serving (the query points from the
stage-boundary hook it passes to :func:`repro.pipeline.run_query`):

================================  =====================================
``gateway.dequeue``               a worker picked the request up
``gateway.before_check``          before the validity check / rewrite,
                                  on the primary and on replica reads
``gateway.before_execute``        before query planning and execution
``gateway.before_commit``         before the durable group commit
``prepared.hit``                  a prepared template was served from
                                  cache (after staleness validation)
``prepared.bind``                 before literals are bound into a
                                  prepared template's plan
``wal.before_fsync`` (via WAL)    inside the group-commit fsync path
``net.accept``                    a TCP connection was accepted
``net.after_hello``               a session finished authenticating
``net.before_send``               before a frame is written to a client
================================  =====================================

Fault kinds:

* ``"delay"`` — sleep ``delay_s`` (slow operator / slow disk);
* ``"transient"`` — raise :class:`~repro.errors.TransientFault`
  (flaky dependency; the gateway retries with jittered backoff);
* ``"io-error"`` — raise ``OSError`` (disk failure; on the commit path
  this feeds the gateway's WAL circuit breaker);
* ``"worker-crash"`` — raise ``RuntimeError`` (a bug in worker code;
  the worker loop must answer a typed error and survive);
* ``"disconnect"`` — raise :class:`~repro.errors.ConnectionDropped`
  (the peer vanished; the server must cancel that session's in-flight
  work and keep serving every other connection).

Each injected fault point carries a probability, an optional maximum
number of firings, and a seeded RNG, so chaos sweeps are reproducible.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.durability.faults import FaultInjector
from repro.errors import TransientFault

#: serving-path fault points the gateway fires (the WAL adds its own)
GATEWAY_FAULT_POINTS = (
    "gateway.dequeue",
    "gateway.before_check",
    "gateway.before_execute",
    "gateway.before_commit",
    "prepared.hit",
    "prepared.bind",
)

#: fault points the network front end (repro.net.server) fires
NET_FAULT_POINTS = (
    "net.accept",
    "net.after_hello",
    "net.before_send",
)

#: fault points the cluster's replication lifecycle fires
#: (``repro.cluster``): lost failure-detector probes, truncated
#: ship streams, faults at the start of a catch-up attempt, corrupted
#: anti-entropy digests (reads as a divergence → automatic
#: re-bootstrap), and a crash point inside snapshot bootstrap.  Hard
#: ``arm()`` crashes at ``cluster.catchup`` / ``cluster.bootstrap``
#: simulate the process dying mid-catch-up for the restart matrix.
CLUSTER_FAULT_POINTS = (
    "cluster.heartbeat",
    "cluster.ship_stream",
    "cluster.catchup",
    "cluster.bootstrap",
    "cluster.digest",
)

FAULT_KINDS = ("delay", "transient", "io-error", "worker-crash", "disconnect")


@dataclass
class FaultSpec:
    """One armed probabilistic fault."""

    kind: str
    probability: float = 1.0
    delay_s: float = 0.0
    #: remaining firings (None = unlimited)
    times: Optional[int] = None


class ChaosInjector(FaultInjector):
    """Probabilistic, recoverable fault injection; thread-safe.

    The inherited :class:`FaultInjector` countdown machinery still
    works for hard crash points (``arm``); :meth:`inject` arms the
    softer, probabilistic faults used by the serving-layer chaos
    harness.
    """

    def __init__(self, seed: int = 0):
        super().__init__()
        self._specs: dict[str, FaultSpec] = {}
        self._rng = random.Random(seed)
        self._chaos_lock = threading.Lock()
        #: (point, kind) of every fault actually injected, in order
        self.injected: list[tuple[str, str]] = []

    def inject(
        self,
        point: str,
        kind: str,
        probability: float = 1.0,
        delay_s: float = 0.0,
        times: Optional[int] = None,
    ) -> None:
        """Arm a probabilistic fault at ``point``."""
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} (expected one of {FAULT_KINDS})"
            )
        with self._chaos_lock:
            self._specs[point] = FaultSpec(
                kind=kind, probability=probability, delay_s=delay_s, times=times
            )

    def clear(self, point: Optional[str] = None) -> None:
        """Disarm one point (or all of them)."""
        with self._chaos_lock:
            if point is None:
                self._specs.clear()
            else:
                self._specs.pop(point, None)

    # -- firing -----------------------------------------------------------

    def fire(self, point: str) -> None:
        # hard crash points (InjectedCrash) first, exactly as before
        super().fire(point)
        with self._chaos_lock:
            spec = self._specs.get(point)
            if spec is None:
                return
            if spec.times is not None and spec.times <= 0:
                return
            if self._rng.random() >= spec.probability:
                return
            if spec.times is not None:
                spec.times -= 1
            kind, delay_s = spec.kind, spec.delay_s
            self.injected.append((point, kind))
        if kind == "delay":
            time.sleep(delay_s)
            return
        if delay_s:
            time.sleep(delay_s)
        if kind == "transient":
            raise TransientFault(f"chaos: transient fault injected at {point!r}")
        if kind == "io-error":
            raise OSError(f"chaos: injected IO error at {point!r}")
        if kind == "worker-crash":
            raise RuntimeError(f"chaos: injected worker crash at {point!r}")
        if kind == "disconnect":
            from repro.errors import ConnectionDropped

            raise ConnectionDropped(
                f"chaos: injected connection drop at {point!r}"
            )

    def stats(self) -> dict[str, int]:
        """Count of injected faults per ``point:kind``."""
        with self._chaos_lock:
            out: dict[str, int] = {}
            for point, kind in self.injected:
                key = f"{point}:{kind}"
                out[key] = out.get(key, 0) + 1
            return out
