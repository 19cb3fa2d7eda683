"""Hash indexes over in-memory tables.

An index maps a tuple of column values to the multiset of row ids
holding those values.  Unique indexes additionally enforce that at most
one *live* row carries each key (rows containing NULL in any indexed
column are exempt, matching SQL UNIQUE semantics).

A composite index on ``(c1, ..., cn)`` also keeps one bucket map per
proper prefix ``(c1, ..., ck)``, maintained by the same insert/delete
calls as the full-key map, so a selection pinning only the leading
columns is still a hash lookup (:meth:`HashIndex.lookup_prefix`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from repro.errors import IntegrityError


class HashIndex:
    """Equality index on one or more columns of a table."""

    def __init__(self, table_name: str, columns: tuple[int, ...], column_names: tuple[str, ...], unique: bool = False):
        self.table_name = table_name
        self.columns = columns  # ordinal positions in the row
        self.column_names = column_names
        self.unique = unique
        self._buckets: dict[tuple, set[int]] = defaultdict(set)
        #: ``_prefix_buckets[k - 1]`` maps the first ``k`` key values to
        #: row ids, for every proper prefix length ``k``
        self._prefix_buckets: list[dict[tuple, set[int]]] = [
            defaultdict(set) for _ in range(len(columns) - 1)
        ]

    def key_of(self, row: tuple) -> tuple:
        return tuple(row[i] for i in self.columns)

    def _has_null(self, key: tuple) -> bool:
        return any(v is None for v in key)

    def insert(self, row_id: int, row: tuple) -> None:
        key = self.key_of(row)
        if self.unique and not self._has_null(key) and self._buckets.get(key):
            cols = ", ".join(self.column_names)
            raise IntegrityError(
                f"duplicate key {key!r} for unique index on {self.table_name}({cols})"
            )
        self._buckets[key].add(row_id)
        for width, buckets in enumerate(self._prefix_buckets, start=1):
            buckets[key[:width]].add(row_id)

    def delete(self, row_id: int, row: tuple) -> None:
        key = self.key_of(row)
        _discard(self._buckets, key, row_id)
        for width, buckets in enumerate(self._prefix_buckets, start=1):
            _discard(buckets, key[:width], row_id)

    def lookup(self, key: tuple) -> frozenset[int]:
        if self._has_null(key):
            return frozenset()
        return frozenset(self._buckets.get(key, ()))

    def lookup_prefix(self, values: tuple) -> frozenset[int]:
        """Row ids whose first ``len(values)`` key columns equal
        ``values`` (``1 <= len(values)``; all columns = :meth:`lookup`)."""
        if len(values) == len(self.columns):
            return self.lookup(values)
        if self._has_null(values):
            return frozenset()
        return frozenset(self._prefix_buckets[len(values) - 1].get(values, ()))

    def would_violate(self, row: tuple, ignore_row_id: Optional[int] = None) -> bool:
        """True if inserting ``row`` would break uniqueness."""
        if not self.unique:
            return False
        key = self.key_of(row)
        if self._has_null(key):
            return False
        bucket = self._buckets.get(key, set())
        others = bucket - {ignore_row_id} if ignore_row_id is not None else bucket
        return bool(others)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


def _discard(buckets: dict[tuple, set[int]], key: tuple, row_id: int) -> None:
    bucket = buckets.get(key)
    if bucket is not None:
        bucket.discard(row_id)
        if not bucket:
            del buckets[key]
