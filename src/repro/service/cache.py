"""Process-wide shared validity-decision cache for the gateway.

The per-database :class:`~repro.nontruman.cache.ValidityCache` was
designed for one session at a time; the gateway serves many concurrent
sessions, so contention on a single lock would serialize the hot path.
This cache shards entries by ``hash((user, skeleton))`` across N
independent LRU-bounded :class:`ValidityCache` instances, each with its
own lock — lookups for different users/queries proceed in parallel.

Invalidation has two independent axes:

* **data version** — bumped by the database on every INSERT / UPDATE /
  DELETE / ROLLBACK (``Database.validity_cache.invalidate_data``).
  Entries are stamped with the version observed *before* their check
  ran; CONDITIONAL and INVALID decisions stamped with an older version
  are treated as misses (the paper's Section 5.6 rule — only
  UNCONDITIONAL acceptances are state-independent).
* **policy epoch** — the pair (grant-registry version, catalog view
  version).  Any ``GRANT`` / ``REVOKE`` / ``CREATE VIEW`` / ``DROP
  VIEW`` changes what is answerable *at all*, including unconditional
  decisions, so an epoch change clears every shard.

Both versions are pulled from a ``version_source`` callable on every
access, so the cache never serves a decision that predates the state
it was derived from.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.sql import ast
from repro.nontruman.cache import ValidityCache, query_signature
from repro.nontruman.decision import Validity

#: () -> (data_version, policy_epoch)
VersionSource = Callable[[], tuple[int, object]]

_UNSET = object()  # policy epoch before the first synchronization


class SharedValidityCache:
    """Sharded, LRU-bounded, version-checked decision cache."""

    def __init__(
        self,
        shards: int = 8,
        capacity_per_shard: int = 512,
        version_source: Optional[VersionSource] = None,
    ):
        if shards < 1:
            raise ValueError("need at least one shard")
        self._shards = [
            ValidityCache(max_entries=capacity_per_shard) for _ in range(shards)
        ]
        self._version_source = version_source
        self._policy_epoch: object = _UNSET
        self._epoch_lock = threading.Lock()
        self._invalidations = 0

    # ------------------------------------------------------------------

    def _shard(self, user: Optional[str], skeleton: ast.QueryExpr) -> ValidityCache:
        return self._shards[hash((user, skeleton)) % len(self._shards)]

    def current_versions(self) -> tuple[Optional[int], object]:
        """(data_version, policy_epoch) from the version source.

        Also synchronizes the policy epoch: if it moved since the last
        access, every shard is cleared before the lookup proceeds.
        """
        if self._version_source is None:
            return None, None
        data_version, policy_epoch = self._version_source()
        with self._epoch_lock:
            if policy_epoch != self._policy_epoch:
                if self._policy_epoch is not _UNSET:
                    for shard in self._shards:
                        shard.clear()
                    self._invalidations += 1
                self._policy_epoch = policy_epoch
        return data_version, policy_epoch

    # ------------------------------------------------------------------

    def lookup(
        self, user: Optional[str], query: ast.QueryExpr, user_value: object
    ) -> Optional[tuple[Validity, str]]:
        return self.lookup_signed(user, *query_signature(query), user_value)

    def store(
        self,
        user: Optional[str],
        query: ast.QueryExpr,
        user_value: object,
        validity: Validity,
        reason: str,
        data_version: Optional[int] = None,
    ) -> None:
        """Store a decision.

        Pass the ``data_version`` observed before the check started so
        that a concurrent DML commit mid-check leaves the entry stale
        (and therefore unservable) instead of wrong.
        """
        self.store_signed(
            user, *query_signature(query), user_value, validity, reason,
            data_version=data_version,
        )

    def lookup_signed(
        self,
        user: Optional[str],
        skeleton: ast.QueryExpr,
        literals: tuple,
        user_value: object,
        data_version: Optional[int] = None,
    ) -> Optional[tuple[Validity, str]]:
        """Like :meth:`lookup`, for callers that already hold the
        literal-stripped signature (the prepared-statement path, which
        must not re-parse or re-sign on a hot hit).

        Shards by the same ``(user, skeleton)`` key as :meth:`lookup`,
        so prepared and legacy requests for the same query share one
        decision entry.  Synchronizes the policy epoch even when the
        caller passes the ``data_version`` it observed.
        """
        current, _ = self.current_versions()
        if data_version is None:
            data_version = current
        return self._shard(user, skeleton).lookup_signed(
            user, skeleton, literals, user_value, data_version=data_version
        )

    def store_signed(
        self,
        user: Optional[str],
        skeleton: ast.QueryExpr,
        literals: tuple,
        user_value: object,
        validity: Validity,
        reason: str,
        data_version: Optional[int] = None,
    ) -> None:
        """Signature-level :meth:`store` (see :meth:`lookup_signed`)."""
        if data_version is None:
            data_version, _ = self.current_versions()
        self._shard(user, skeleton).store_signed(
            user,
            skeleton,
            literals,
            user_value,
            validity,
            reason,
            data_version=data_version,
        )

    def clear(self) -> None:
        for shard in self._shards:
            shard.clear()

    # -- statistics -----------------------------------------------------

    @property
    def hits(self) -> int:
        return sum(s.hits for s in self._shards)

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self._shards)

    @property
    def evictions(self) -> int:
        return sum(s.evictions for s in self._shards)

    @property
    def size(self) -> int:
        return sum(s.size for s in self._shards)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def policy_invalidations(self) -> int:
        with self._epoch_lock:
            return self._invalidations

    def stats(self) -> dict[str, object]:
        return {
            "cache_shards": len(self._shards),
            "cache_entries": self.size,
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_hit_rate": round(self.hit_rate, 4),
            "cache_evictions": self.evictions,
            "cache_policy_invalidations": self.policy_invalidations,
        }
