"""WAL-shipping read replicas.

A :class:`ReadReplica` is a complete, unsharded
:class:`~repro.db.Database` — catalog, grants, Truman mappings, VPD
policies, validity checker, prepared-statement cache — rebuilt entirely
from shipped WAL records.  It therefore *enforces* policy itself:
a routed Non-Truman read runs the full validity check against the
replica's own grants, a Truman read rewrites against the replica's own
policy views.  Routing (see :meth:`repro.cluster.coordinator.
ClusterCoordinator.route_read`) only decides *where* a read runs, never
what it is allowed to see.

Apply is **idempotent by LSN**: a record at or below ``applied_lsn`` is
skipped without touching storage, caches, or counters other than
``duplicates_skipped`` — re-shipping a batch after a partial failure
cannot double-apply a row or double-invalidate a cache.

Policy records additionally:

* restore the grant-registry version to the primary's stamped ``gv``
  (so cache stamps taken on the replica are comparable to primary
  stamps),
* eagerly drop the grantee's prepared templates (lookup-time stamp
  validation would catch them anyway; eager eviction keeps the window
  closed even for in-flight lookups),
* advance the replica's observed **policy epoch**, which is what makes
  it eligible for routing again after a policy change.
"""

from __future__ import annotations

import threading

from repro.db import Database
from repro.durability.recovery import apply_record
from repro.durability.snapshot import restore_state


class ReadReplica:
    """One replica: a full Database fed exclusively by WAL records."""

    def __init__(self, name: str):
        self.name = name
        self.database = Database()
        self.applied_lsn = 0
        self.policy_epoch = 0
        self.records_applied = 0
        self.duplicates_skipped = 0
        self.bootstraps = 0
        # applies and routed reads are mutually exclusive so a shipped
        # batch can never be observed half-applied
        self._lock = threading.RLock()

    def read_lock(self) -> threading.RLock:
        """Lock a routed read holds while executing on this replica."""
        return self._lock

    def bootstrap(self, state: dict, last_lsn: int, policy_epoch: int) -> None:
        """Replace the replica's database with a restored snapshot.

        Used by catch-up streaming when the replication log no longer
        reaches back to this replica's cursor (log truncated, durable
        restart) and by anti-entropy when digests diverge: the old —
        possibly wrong — database is discarded whole and rebuilt from
        the primary's captured state, then the WAL tail streams on top.
        Built off to the side and swapped in under the read lock, so a
        routed read never observes a half-restored replica.
        """
        db = Database()
        restore_state(db, state)
        with self._lock:
            self.database = db
            self.applied_lsn = last_lsn
            self.policy_epoch = policy_epoch
            self.bootstraps += 1

    def apply(self, record: dict) -> bool:
        """Apply one epoch-stamped WAL record; False when already seen."""
        with self._lock:
            lsn = record.get("lsn", 0)
            if lsn <= self.applied_lsn:
                self.duplicates_skipped += 1
                return False
            db = self.database
            kind = record.get("kind")
            apply_record(db, record)
            if "dv" in record:
                # align the validity-cache data version with the
                # primary's stamp so decision caches can never validate
                # against a replica state the primary has moved past
                db.validity_cache.restore_data_version(record["dv"])
            if "gv" in record:
                db.grants.restore_version(record["gv"])
            if kind in ("grant", "revoke"):
                db.prepared.invalidate_user(record["grantee"])
            if "epoch" in record:
                self.policy_epoch = max(self.policy_epoch, record["epoch"])
            self.applied_lsn = lsn
            self.records_applied += 1
            return True

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "applied_lsn": self.applied_lsn,
                "policy_epoch": self.policy_epoch,
                "records_applied": self.records_applied,
                "duplicates_skipped": self.duplicates_skipped,
                "bootstraps": self.bootstraps,
            }
