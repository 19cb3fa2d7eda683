"""Index-pushable selection conjuncts.

:func:`split_pushable_equalities` partitions a selection predicate over
a base-table scan into ``col = literal`` conjuncts (candidate index
lookups and partition-key pins) and a residual predicate.  It is the
analysis half of the access-path layer: :mod:`repro.engine.access`
decides which of the equalities a hash lookup or shard pruning can
use.

Only *top-level conjuncts* qualify: pushing through OR/NOT would change
semantics, and NULL literals never qualify (``col = NULL`` is UNKNOWN
for every row, but a hash probe on key ``(None,)`` is defined to return
nothing only by convention — the residual path keeps the semantics in
one place, the scalar evaluator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sql import ast
from repro.algebra import expr as exprs
from repro.algebra import ops


@dataclass(frozen=True)
class PushableEquality:
    """One ``col = literal`` conjunct over a base-table scan."""

    column: str  # schema column name, lower-cased
    value: object  # literal value (never None)
    conjunct: ast.Expr  # the original conjunct (for re-assembly)


def _column_of(rel: ops.Rel, ref: ast.ColumnRef) -> Optional[str]:
    """The schema column of ``rel`` that ``ref`` resolves to, if any."""
    name = ref.name.lower()
    if name not in {c.lower() for c in rel.schema_columns}:
        return None
    if ref.table is not None and ref.table.lower() != rel.binding.lower():
        return None
    return name


def split_pushable_equalities(
    predicate: Optional[ast.Expr], rel: ops.Rel
) -> tuple[list[PushableEquality], Optional[ast.Expr]]:
    """Partition ``predicate`` into pushable equalities and a residual.

    A conjunct is pushable when it has the shape ``col = literal`` or
    ``literal = col`` with ``col`` resolving to a column of ``rel`` and
    the literal non-NULL.  The residual conjunction preserves original
    conjunct order.
    """
    pushable: list[PushableEquality] = []
    residual: list[ast.Expr] = []
    for conj in exprs.conjuncts(predicate):
        pair = _match_equality(conj, rel)
        if pair is not None:
            pushable.append(pair)
        else:
            residual.append(conj)
    return pushable, exprs.make_conjunction(residual)


def _match_equality(conj: ast.Expr, rel: ops.Rel) -> Optional[PushableEquality]:
    if not (isinstance(conj, ast.BinaryOp) and conj.op == "="):
        return None
    sides = ((conj.left, conj.right), (conj.right, conj.left))
    for col_side, lit_side in sides:
        if not isinstance(col_side, ast.ColumnRef):
            continue
        if not isinstance(lit_side, ast.Literal) or lit_side.value is None:
            continue
        column = _column_of(rel, col_side)
        if column is not None:
            return PushableEquality(column, lit_side.value, conj)
    return None
