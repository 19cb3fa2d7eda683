"""Access paths: which stored rows a base-table read has to touch.

Every reader of base-table storage asks this module, so there is one
chooser for all of them: the vectorized engine's scans, ``UPDATE`` and
``DELETE``, the foreign-key checks on both sides (a new row's parent, a
deleted row's children), and the row engine's partition pruning.

For a table (or a :class:`~repro.cluster.partition.PartitionedTable`)
and a selection predicate, :func:`choose` returns an
:class:`AccessPath`:

1. **Pins.**  Only top-level ``col = literal`` conjuncts with a
   non-NULL literal pin a column (pushing through OR/NOT would change
   the answer), and only when the literal is comparable with the
   column's declared type under the evaluator's comparison rule:
   numbers with INT/FLOAT, strings with TEXT, booleans with BOOL.  A
   mistyped literal pins nothing and stays in the residual, so it raises
   the comparison error a scan would raise instead of probing a bucket
   that cannot exist.
2. **Pruning.**  On a partitioned table whose partition key is fully
   pinned, the source becomes the one shard fragment that can hold
   matching rows (:func:`prune`).  Pruning consumes no conjunct.
3. **Lookup.**  Among the source's hash indexes, the one whose leading
   columns the pins cover longest is probed — the full key, a single
   column, or a composite prefix through the index's prefix buckets
   (:meth:`repro.storage.HashIndex.lookup_prefix`); ties go to the
   index created first.  The equalities on those leading columns are
   *consumed*: the residual drops exactly them and keeps every other
   conjunct in its original order.
4. **Scan.**  Otherwise every row of the source, with the whole
   predicate as the residual.

Rows always come back in ascending row-id order, the order of a full
scan, so an access path changes how many rows are read and never the
answer or its order: the rows of a path with its residual applied equal
the rows of a full scan with the whole predicate
(tests/property/test_prop_access.py).

**Error rule.**  The residual is evaluated on fetched rows only, so a
predicate raises only if a fetched row raises it.  ``where 1/0 = 1 and
student_id = 'zz'`` returns no rows when the lookup finds none, while
the row engine — the full-scan oracle, which takes nothing from this
module but pruning — raises on the first row it evaluates.  ``UPDATE``
and ``DELETE`` follow the same rule: with that ``where`` they change
nothing and raise nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional

from repro.algebra import expr as exprs
from repro.algebra import ops
from repro.catalog.types import DataType
from repro.optimizer.pushdown import PushableEquality, split_pushable_equalities
from repro.sql import ast


@dataclass(frozen=True)
class AccessPath:
    """How one base-table read reaches its rows.

    ``source`` is the table, or the shard fragment it was pruned to;
    ``index`` is the hash index probed with ``key`` (the pinned values of
    its leading columns), or None for a full scan of ``source``;
    ``residual`` is what must still be applied to the fetched rows.
    """

    source: object
    index: Optional[object] = None
    key: tuple = ()
    residual: Optional[ast.Expr] = None
    pruned: bool = False

    def rows_with_ids(self) -> list[tuple[int, tuple]]:
        if self.index is None:
            return list(self.source.rows_with_ids())
        get_row = self.source.get_row
        return [
            (rid, get_row(rid))
            for rid in sorted(self.index.lookup_prefix(self.key))
        ]

    def rows(self) -> list[tuple]:
        if self.index is None:
            # a scan need not pair every row with its id
            return list(self.source.rows())
        return [row for _, row in self.rows_with_ids()]


def comparable(value: object, dtype: DataType) -> bool:
    """Whether ``col = value`` compares without a type error on a
    column declared ``dtype`` (the evaluator's ``_check_comparable``
    applied to the values such a column can hold)."""
    if dtype is DataType.BOOL:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if dtype is DataType.TEXT:
        return isinstance(value, str)
    return isinstance(value, (int, float))


def _pins(table, equalities: list[PushableEquality]) -> dict[str, PushableEquality]:
    """Column -> the first well-typed equality pinning it."""
    schema = table.schema
    pinned: dict[str, PushableEquality] = {}
    for eq in equalities:
        if eq.column in pinned:
            continue
        if comparable(eq.value, schema.column(eq.column).dtype):
            pinned[eq.column] = eq
    return pinned


def _locate(table, pinned: Mapping[str, object]) -> tuple[AccessPath, list[str]]:
    """The path to the rows ``pinned`` (column -> value) selects, with
    no residual, and the columns its lookup consumes."""
    pruner = getattr(table, "prune_for", None)
    fragment = None if pruner is None else pruner(pinned)
    source = table if fragment is None else fragment
    best, columns = None, []
    for index in source.indexes():
        width = 0
        for name in index.column_names:
            if name.lower() not in pinned:
                break
            width += 1
        if width > len(columns):
            best = index
            columns = [name.lower() for name in index.column_names[:width]]
    path = AccessPath(
        source,
        index=best,
        key=tuple(pinned[c] for c in columns),
        pruned=fragment is not None,
    )
    return path, columns


def prune(table, rel: ops.Rel, predicate: Optional[ast.Expr]):
    """The one shard fragment that can satisfy ``predicate`` on a
    partitioned table, or None (not partitioned, or the partition key
    is not pinned)."""
    if getattr(table, "prune_for", None) is None:
        return None
    path = choose(table, rel, predicate)
    return path.source if path.pruned else None


def choose(table, rel: ops.Rel, predicate: Optional[ast.Expr]) -> AccessPath:
    """The access path for ``σ_predicate(rel)`` over ``table``."""
    equalities, _ = split_pushable_equalities(predicate, rel)
    pinned = _pins(table, equalities)
    path, columns = _locate(table, {c: e.value for c, e in pinned.items()})
    if not columns:
        return replace(path, residual=predicate)
    consumed = {id(pinned[c].conjunct) for c in columns}
    residual = exprs.make_conjunction(
        c for c in exprs.conjuncts(predicate) if id(c) not in consumed
    )
    return replace(path, residual=residual)


def any_row_matches(table, values: Mapping[str, object]) -> bool:
    """Whether some row's columns equal ``values`` under Python ``==``
    (the foreign-key checks' match rule), looked up through the best
    index the well-typed, non-NULL values pin."""
    schema = table.schema
    pinned = {
        column.lower(): value
        for column, value in values.items()
        if value is not None and comparable(value, schema.column(column).dtype)
    }
    path, _ = _locate(table, pinned)
    ordinals = [(schema.column_index(c), v) for c, v in values.items()]
    return any(all(row[o] == v for o, v in ordinals) for row in path.rows())
