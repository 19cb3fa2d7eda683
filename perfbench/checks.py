"""Correctness helpers shared by the load process and the oracle host.

A result is compared by a digest of its rows as a multiset: the rows'
compact JSON encodings, sorted and hashed.  Both sides encode the same
Python values (the wire decodes JSON back to them), so equal multisets
give equal digests whatever order the engine produced.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Optional, Sequence


def rows_digest(rows: Iterable[Sequence]) -> str:
    lines = sorted(
        json.dumps(list(row), separators=(",", ":"), ensure_ascii=False)
        for row in rows
    )
    return hashlib.sha1("\n".join(lines).encode("utf-8")).hexdigest()


def oracle_outcome(db, user, sql: str, mode: str) -> list:
    """``[status, validity, digest, rows]`` of one read on the fresh path.

    Non-Truman reads are decided by ``check_validity`` and, when valid,
    executed unmodified; that is what ``execute_query(mode="non-truman",
    prepared=False)`` does, with the decision kept for comparison.
    """
    from repro.errors import QueryRejectedError, ReproError

    session = db.connect(user_id=user, mode=mode).session
    validity = None
    try:
        if mode == "non-truman":
            decision = db.check_validity(sql, session)
            validity = decision.validity.value
            if not decision.valid:
                return ["rejected", validity, None, 0]
            result = db.execute_query(sql, session=session, mode="open", prepared=False)
        else:
            result = db.execute_query(sql, session=session, mode=mode, prepared=False)
    except QueryRejectedError as exc:
        decision = getattr(exc, "decision", None)
        return ["rejected", None if decision is None else decision.validity.value, None, 0]
    except ReproError as exc:
        return ["error", validity, type(exc).__name__, 0]
    return ["ok", validity, rows_digest(result.rows), len(result.rows)]


class ViewScope:
    """The rows a user's instantiated authorization views expose."""

    def __init__(self, db):
        self._db = db
        self._views: dict = {}

    def _instances(self, user):
        if user not in self._views:
            session = self._db.connect(user_id=user, mode="non-truman").session
            instances = []
            for view in self._db.available_views(session):
                if view.is_access_pattern:
                    continue
                result = self._db.execute_query(view.query, session=session, mode="open")
                columns = [c.lower() for c in result.columns]
                instances.append((columns, result.rows))
            self._views[user] = instances
        return self._views[user]

    def outside(self, user, columns: Sequence[str], rows) -> Optional[list]:
        """Rows not found in any view that has all of ``columns``.

        None when no view has them all (aggregates): the oracle's exact
        comparison is then the only check.
        """
        wanted = [c.lower() for c in columns]
        allowed: set = set()
        covered = False
        for view_columns, view_rows in self._instances(user):
            if not set(wanted) <= set(view_columns):
                continue
            covered = True
            index = [view_columns.index(c) for c in wanted]
            allowed.update(tuple(r[i] for i in index) for r in view_rows)
        if not covered:
            return None
        return [list(r) for r in rows if tuple(r) not in allowed]


def table_digests(db, tables: Sequence[str]) -> dict:
    out = {}
    for table in tables:
        rows = db.execute(f"select * from {table}").rows
        out[table] = [len(rows), rows_digest(rows)]
    return out
