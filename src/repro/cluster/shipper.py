"""Cluster WAL: epoch-stamped replication log + shipping to replicas.

:class:`ClusterWal` duck-types the surface of
:class:`repro.durability.manager.DurabilityManager` and is installed as
the coordinator's ``durability`` — so the gateway's write path (group
commit after the write lock, the commit circuit breaker, degraded
read-only failover, drain-time checkpoint) and ``\\stats`` plumbing
drive replication without knowing the cluster exists.

Every record carries two stamps:

* ``lsn`` — position in the replication log (idempotence: a replica
  re-applying an already-seen LSN is a no-op);
* ``epoch`` — the **policy epoch**, bumped *at append time* for every
  policy-bearing record (grant/revoke, DDL — view bodies change what a
  name means — Truman mappings, VPD predicates, participation
  constraints).  The coordinator routes reads only to replicas whose
  observed epoch has caught up to its own, so the instant a revoke is
  appended — before it even ships — every replica is ineligible until
  it has applied that revoke.  A revoke can therefore never be served
  stale: the race window is closed by construction, not by shipping
  speed.

Shipped records round-trip through the durable WAL's CRC framing
(:func:`repro.durability.wal.encode_record` /
:func:`~repro.durability.wal.decode_frames`): what a replica applies is
exactly what a follower reading a shipped segment file would decode.
Shipping is **chunked**: a ship call frames at most ``max_records``
records into one byte stream and applies whatever decodes intact, so a
truncated stream makes bounded progress and a retry (apply is
idempotent by LSN) finishes the job.

Two optional attachments extend the in-memory core:

* a :class:`~repro.cluster.health.HealthMonitor` (``health``) — commit
  keeps shipping to the other replicas when one fails, reporting the
  failure to the detector instead of failing the write;
* a durable ``data_dir`` (:meth:`ClusterWal.attach_data_dir`) — every
  record is also appended to a CRC-framed on-disk segment and
  checkpoints write real snapshots, which is what makes
  ``ClusterCoordinator.open`` possible.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Optional

from repro.errors import DurabilityError
from repro.durability import layout
from repro.durability.wal import WalWriter, decode_frames, encode_record

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.health import HealthMonitor
    from repro.cluster.replica import ReadReplica
    from repro.db import Database
    from repro.durability.faults import FaultInjector

#: record kinds that change what some user is allowed to see
POLICY_KINDS = frozenset(
    {"grant", "revoke", "ddl", "truman", "vpd", "participation",
     "rebac_namespace", "rebac_tuple"}
)


class ReplicationLog:
    """In-memory ordered log of epoch-stamped records.

    ``base_lsn`` is the LSN of the last record *not* held in memory: a
    fresh log has base 0 (everything since the beginning of time is in
    ``records``); a log re-opened over durable state, or truncated by a
    checkpoint, starts after the snapshot — a shipper whose cursor
    falls below the base cannot stream and must bootstrap its replica
    from a snapshot instead.
    """

    def __init__(self, base_lsn: int = 0):
        self.records: list[dict] = []
        self.base_lsn = base_lsn
        self.next_lsn = base_lsn + 1

    @property
    def last_lsn(self) -> int:
        return self.next_lsn - 1

    def append(self, payload: dict) -> int:
        record = dict(payload)
        lsn = self.next_lsn
        record["lsn"] = lsn
        self.records.append(record)
        self.next_lsn = lsn + 1
        return lsn

    def records_since(self, lsn: int) -> list[dict]:
        """Every in-memory record with an LSN greater than ``lsn``."""
        start = max(0, lsn - self.base_lsn)
        return self.records[start:]

    def truncate_to(self, lsn: int) -> int:
        """Drop records at or below ``lsn``; returns how many."""
        lsn = min(lsn, self.last_lsn)
        drop = lsn - self.base_lsn
        if drop <= 0:
            return 0
        del self.records[:drop]
        self.base_lsn = lsn
        return drop


class WalShipper:
    """Ships the replication log to one replica, tracking its cursor."""

    def __init__(self, log: ReplicationLog, replica: "ReadReplica",
                 ship_batch: int = 1,
                 auto_ship_lag: Optional[int] = None):
        self.log = log
        self.replica = replica
        #: ship eagerly once this many records are pending
        self.ship_batch = max(1, ship_batch)
        #: lag ceiling: a commit auto-ships whenever the replica's lag
        #: reaches this many records, even mid-batch (None = batch only)
        self.auto_ship_lag = auto_ship_lag
        #: chaos hooks: a paused shipper accumulates lag; failures raise;
        #: a truncated ship delivers half a chunk, then raises
        self.paused = False
        self.fail_next_ships = 0
        self.truncate_next_ships = 0
        #: LSN of the last record shipped to this replica
        self._cursor = log.base_lsn
        self.ships = 0
        self.records_shipped = 0
        self.auto_ships = 0

    def pending(self) -> int:
        return self.log.last_lsn - self._cursor

    def lag(self) -> int:
        """Records appended to the log but not yet applied here."""
        return self.log.last_lsn - self.replica.applied_lsn

    def maybe_ship(self) -> int:
        if self.paused:
            return 0
        if self.pending() < self.ship_batch:
            if (
                self.auto_ship_lag is None
                or self.lag() < self.auto_ship_lag
                or self.pending() == 0
            ):
                return 0
            # lag-bound breach: don't wait for the batch to fill
            self.auto_ships += 1
        return self.ship()

    def ship(self, max_records: Optional[int] = None) -> int:
        """Apply pending records to the replica in LSN order.

        ``max_records`` bounds the chunk (None = everything pending).
        The chunk is framed into one CRC byte stream and whatever
        decodes intact is applied — a truncated stream (chaos hook
        ``truncate_next_ships``) makes partial progress, advances the
        cursor past what landed, and raises; a retry resumes from the
        cursor and LSN-idempotent apply absorbs any overlap.
        """
        if self.paused:
            return 0
        if self.fail_next_ships > 0:
            self.fail_next_ships -= 1
            raise DurabilityError(
                f"injected ship failure to {self.replica.name}"
            )
        if self._cursor < self.log.base_lsn:
            raise DurabilityError(
                f"replication log was truncated past {self.replica.name}'s "
                f"cursor (needs records after LSN {self._cursor}, log now "
                f"starts after {self.log.base_lsn}); the replica must "
                "bootstrap from a snapshot"
            )
        batch = self.log.records_since(self._cursor)
        if max_records is not None:
            batch = batch[:max_records]
        if not batch:
            return 0
        # round-trip the whole chunk through the durable framing: the
        # replica sees exactly what a decoded shipped segment would
        data = b"".join(encode_record(record) for record in batch)
        truncated = False
        if self.truncate_next_ships > 0:
            self.truncate_next_ships -= 1
            data = data[: len(data) // 2]
            truncated = True
        frames, _, torn = decode_frames(data)
        if not truncated and (torn or len(frames) != len(batch)):
            raise DurabilityError(
                f"replication chunk after LSN {self._cursor} did not "
                "survive encoding"
            )
        shipped = 0
        for record in frames:
            self.replica.apply(record)
            self._cursor = record["lsn"]
            shipped += 1
        if shipped:
            self.ships += 1
            self.records_shipped += shipped
        if truncated:
            raise DurabilityError(
                f"ship stream to {self.replica.name} truncated mid-chunk "
                f"({shipped}/{len(batch)} records applied)"
            )
        return shipped


class ClusterWal:
    """DurabilityManager-shaped replication front for a coordinator.

    In-memory by default: records live in the :class:`ReplicationLog`
    and ``checkpoint`` is a truncation-free no-op.  With a ``data_dir``
    attached (:meth:`attach_data_dir`) every append also lands in a
    CRC-framed on-disk segment, ``commit`` group-syncs it, and
    ``checkpoint`` writes a real snapshot + rotates the segment —
    the same layout :class:`~repro.durability.manager.DurabilityManager`
    uses, so :func:`~repro.durability.recovery.recover` restores it.
    Either way it preserves the manager's *contract* with the database
    and gateway: logging hooks, ``commit`` as the post-write barrier
    (here: shipping), and ``wal_stats``.
    """

    def __init__(self, db: "Database", ship_batch: int = 1,
                 auto_ship_lag: Optional[int] = None,
                 injector: Optional["FaultInjector"] = None):
        self.db = db
        self.ship_batch = ship_batch
        self.auto_ship_lag = auto_ship_lag
        self.injector = injector
        self.log = ReplicationLog()
        self.shippers: list[WalShipper] = []
        #: optional failure detector: when attached, a ship failure at
        #: commit time is reported instead of failing the write, and
        #: quarantined replicas are skipped (catch-up owns their cursor)
        self.health: Optional["HealthMonitor"] = None
        self.policy_epoch = 0
        self.commits = 0
        self.checkpoints = 0
        self.closed = False
        #: test/chaos hook mirroring a failing durable commit: trips the
        #: gateway's breaker into degraded read-only mode
        self.fail_next_commits = 0
        #: durable backing (None until attach_data_dir)
        self.data_dir: Optional[str] = None
        self.writer: Optional[WalWriter] = None
        self.sync_policy = "group"
        self._recovering = False
        self._lock = threading.RLock()

    def install(self, db: "Database") -> None:
        db.durability = self
        for table in db._tables.values():
            self.register_table(table)
        db.grants.on_change = self._registry_change
        # grants log under this lock and digests read grants under it
        db.grants.write_lock = self._lock
        db.vpd_policies.on_change = self._vpd_change

    # -- durable backing ---------------------------------------------------

    def attach_data_dir(
        self,
        data_dir: str,
        sync: str = "group",
        injector: Optional["FaultInjector"] = None,
    ) -> Optional[dict]:
        """Back the replication log with an on-disk WAL + snapshots.

        With existing durable data the (empty) coordinator is recovered
        from it first — DDL and rows replayed through the normal hooks
        with re-logging suppressed, the policy epoch restored from the
        snapshot's cluster stamp and the replayed records' ``epoch``
        maxima — and the in-memory log restarts *empty at the durable
        tail* (``base_lsn = last_lsn``): replicas attached afterwards
        bootstrap from the live state instead of streaming history that
        is only on disk.  On a fresh directory the current state is
        snapshotted as the recovery baseline.  Returns the recovery
        report, or None for a fresh attach.
        """
        from repro.durability.recovery import recover
        from repro.durability.snapshot import capture_state, write_snapshot

        with self._lock:
            if self.writer is not None:
                raise DurabilityError(
                    f"cluster WAL already attached to {self.data_dir!r}"
                )
            if injector is not None:
                self.injector = injector
            os.makedirs(data_dir, exist_ok=True)
            report = None
            if layout.has_durable_data(data_dir):
                if list(self.db.catalog.tables()) or self.log.records:
                    raise DurabilityError(
                        "cannot open durable cluster state into a non-empty "
                        "coordinator"
                    )
                self._recovering = True
                try:
                    report = recover(self.db, data_dir)
                finally:
                    self._recovering = False
                last_lsn = report["last_lsn"]
                cluster_extra = report.get("cluster") or {}
                self.policy_epoch = max(
                    report.get("max_epoch", 0),
                    cluster_extra.get("policy_epoch", 0),
                )
                self.log = ReplicationLog(base_lsn=last_lsn)
            else:
                last_lsn = self.log.last_lsn
                state = capture_state(self.db, last_lsn)
                state["cluster"] = {"policy_epoch": self.policy_epoch}
                write_snapshot(
                    layout.snapshot_path(data_dir, last_lsn),
                    state,
                    self.injector,
                )
            self.data_dir = data_dir
            self.sync_policy = sync
            self.writer = WalWriter(
                layout.segment_path(data_dir, last_lsn),
                last_lsn + 1,
                sync_policy=sync,
                injector=self.injector,
            )
            return report

    # -- logging hooks (DurabilityManager surface) ------------------------

    def _append(self, payload: dict) -> int:
        with self._lock:
            if self.closed:
                raise DurabilityError("cluster WAL is closed")
            if self._recovering:
                # recovery replays DDL/DML through the normal execution
                # path, which fires these same hooks; the records are
                # already durable — appending them again would double-log
                # and double-bump the policy epoch
                return self.log.last_lsn
            if payload.get("kind") in POLICY_KINDS:
                self.policy_epoch += 1
            payload = dict(payload)
            payload["epoch"] = self.policy_epoch
            lsn = self.log.append(payload)
            if self.writer is not None:
                # the durable writer assigns the same LSN: both counters
                # only advance here, under this lock
                self.writer.append(dict(payload))
            return lsn

    def log_ddl(self, sql: str) -> int:
        return self._append({"kind": "ddl", "sql": sql})

    def log_truman(self, table_name: str, view_name: str) -> int:
        return self._append(
            {"kind": "truman", "table": table_name, "view": view_name}
        )

    def log_participation(self, constraint) -> int:
        from repro.durability.snapshot import _participation_state

        return self._append(
            {
                "kind": "participation",
                "constraint": _participation_state(constraint),
            }
        )

    def log_vpd(self, table: str, predicate: str, version: int) -> int:
        return self._append(
            {"kind": "vpd", "table": table, "predicate": predicate,
             "vv": version}
        )

    def log_rebac(self, payload: dict) -> int:
        """Append a ReBAC policy record (``rebac_namespace`` /
        ``rebac_tuple``) — policy-bearing, so the epoch bumps at append
        time like a grant/revoke."""
        return self._append(dict(payload))

    def register_table(self, table) -> None:
        """Install the mutation hook on a (partitioned) table facade."""
        name = table.schema.name.lower()

        def hook(event: str, *args) -> None:
            if event == "insert":
                rid, row = args
                self._append(
                    {"kind": "row", "op": "insert", "table": name,
                     "rid": rid, "row": list(row),
                     "dv": self.db.validity_cache.data_version}
                )
            elif event == "update":
                rid, row, _old = args
                self._append(
                    {"kind": "row", "op": "update", "table": name,
                     "rid": rid, "row": list(row),
                     "dv": self.db.validity_cache.data_version}
                )
            elif event == "delete":
                rid, _row = args
                self._append(
                    {"kind": "row", "op": "delete", "table": name,
                     "rid": rid,
                     "dv": self.db.validity_cache.data_version}
                )
            elif event == "index":
                columns, unique = args
                self._append(
                    {"kind": "index", "table": name,
                     "columns": list(columns), "unique": unique}
                )

        table.on_mutate = hook

    def _registry_change(self, event: str, info: dict) -> None:
        payload = {"kind": event}
        payload.update(info)
        self._append(payload)

    def _vpd_change(self, table: str, text: Optional[str], version: int) -> None:
        if text is None:
            raise DurabilityError(
                "callable VPD policies cannot be replicated to read "
                "replicas; attach the policy as a predicate string"
            )
        self.log_vpd(table, text, version)

    # -- commit / checkpoint (DurabilityManager surface) ------------------

    def commit(self) -> None:
        """The cluster's durability barrier: sync disk, ship records.

        Without a health monitor, a ship failure raises — that is how
        replication failure reaches the gateway's circuit breaker
        (degraded read-only after ``failure_threshold`` failed commits).
        With one attached, a failing replica is *reported and skipped*:
        the write succeeds, the other replicas ship, and the failure
        detector walks the flaky replica toward quarantine while the
        primary (and every healthy replica) keeps serving.
        """
        with self._lock:
            if self.closed:
                return
            if self.fail_next_commits > 0:
                self.fail_next_commits -= 1
                raise DurabilityError("injected cluster commit failure")
            self.commits += 1
            if self.writer is not None:
                self.writer.sync()
            health = self.health
            for shipper in self.shippers:
                name = shipper.replica.name
                if health is None:
                    shipper.maybe_ship()
                    continue
                if not health.may_ship(name):
                    continue
                try:
                    shipper.maybe_ship()
                except (DurabilityError, OSError) as exc:
                    health.record_failure(name, exc)
                    continue
                if not shipper.paused:
                    health.heartbeat(name)

    def ship_all(self) -> int:
        """Force every shipper fully up to date; returns records shipped.

        The manual hammer: ships to every replica regardless of health
        state and lets failures raise.  Prefer
        :meth:`~repro.cluster.coordinator.ClusterCoordinator.catch_up`,
        which bootstraps, retries with backoff, and re-verifies.
        """
        with self._lock:
            return sum(shipper.ship() for shipper in self.shippers)

    def checkpoint(self) -> int:
        """Snapshot + rotate when durable; log-head no-op otherwise.

        The durable path mirrors ``DurabilityManager.checkpoint``:
        fsync the tail, publish an atomic snapshot at the tail LSN,
        rotate to a fresh segment, and delete superseded files.  The
        in-memory log is truncated only up to the slowest shipper's
        cursor, so no attached replica is forced into a re-bootstrap by
        a checkpoint.
        """
        from repro.durability.snapshot import capture_state, write_snapshot

        with self._lock:
            self.checkpoints += 1
            if self.writer is None:
                return self.log.last_lsn
            self.writer.fsync_now()
            last_lsn = self.log.last_lsn
            if self.injector is not None:
                self.injector.fire("checkpoint.before_snapshot")
            state = capture_state(self.db, last_lsn)
            state["cluster"] = {"policy_epoch": self.policy_epoch}
            write_snapshot(
                layout.snapshot_path(self.data_dir, last_lsn),
                state,
                self.injector,
            )
            if self.injector is not None:
                self.injector.fire("checkpoint.after_snapshot")
            self.writer.close()
            self.writer = WalWriter(
                layout.segment_path(self.data_dir, last_lsn),
                last_lsn + 1,
                sync_policy=self.sync_policy,
                injector=self.injector,
            )
            for lsn, path in layout.list_snapshots(self.data_dir):
                if lsn < last_lsn:
                    os.remove(path)
            for base, path in layout.list_segments(self.data_dir):
                if base < last_lsn:
                    os.remove(path)
            if self.injector is not None:
                self.injector.fire("checkpoint.after_truncate")
            safe = min(
                (s._cursor for s in self.shippers), default=last_lsn
            )
            self.log.truncate_to(min(safe, last_lsn))
            return last_lsn

    def close(self, checkpoint: bool = True) -> None:
        with self._lock:
            if self.closed:
                return
            if checkpoint and self.writer is not None:
                self.checkpoint()
            if self.writer is not None:
                self.writer.close()
            self.closed = True

    # -- observability (DurabilityManager surface) ------------------------

    def wal_stats(self) -> dict[str, object]:
        with self._lock:
            stats: dict[str, object] = {
                "cluster_wal_records": len(self.log.records),
                "cluster_wal_last_lsn": self.log.last_lsn,
                "cluster_wal_commits": self.commits,
                "cluster_replicas": len(self.shippers),
                "policy_epoch": self.policy_epoch,
            }
            if self.writer is not None:
                stats["cluster_wal_durable"] = 1
                stats["cluster_wal_synced_lsn"] = self.writer.synced_lsn
                stats["cluster_wal_fsyncs"] = self.writer.fsync_count
                stats["cluster_checkpoints"] = self.checkpoints
            health_snapshot = (
                self.health.snapshot() if self.health is not None else {}
            )
            if self.health is not None:
                stats["replica_divergence"] = (
                    self.health.unresolved_divergences()
                )
            for shipper in self.shippers:
                name = shipper.replica.name
                prefix = f"replica_{name}"
                stats[f"{prefix}_lag"] = shipper.lag()
                stats[f"{prefix}_applied_lsn"] = shipper.replica.applied_lsn
                stats[f"{prefix}_policy_epoch"] = shipper.replica.policy_epoch
                stats[f"{prefix}_auto_ships"] = shipper.auto_ships
                info = health_snapshot.get(name)
                if info is not None:
                    stats[f"{prefix}_state"] = info["state"]
                    stats[f"{prefix}_heartbeat_age_s"] = round(
                        info["heartbeat_age_s"], 3
                    )
                    stats[f"{prefix}_divergences"] = info["divergences"]
                    stats[f"{prefix}_catchups"] = info["catchups"]
            return stats
