"""repro.engine.vectorized — columnar batch execution.

The default engine (``Database.default_engine``): the same logical
:mod:`repro.algebra.ops` plans as the tuple-at-a-time row engine,
evaluated over column-vector batches with per-operator compiled
predicates/projections, hash joins/aggregation over batches, and
base-table scans that read through :mod:`repro.engine.access` (hash
lookups on full keys, single columns or composite prefixes, shard
pruning).

Choose an engine per query (``engine="row"`` or ``"vectorized"``)
through :meth:`repro.db.Database.execute_query`,
:meth:`repro.db.Connection.query`, or a gateway
:class:`~repro.service.QueryRequest`; the row engine is the full-scan
semantic oracle (see the differential suite).
"""

from repro.engine.vectorized.batch import (
    ColumnBatch,
    batches_from_rows,
    rows_from_batches,
)
from repro.engine.vectorized.compile import compile_scalar, selection_vector
from repro.engine.vectorized.executor import BATCH_SIZE, VectorizedExecutor

__all__ = [
    "BATCH_SIZE",
    "ColumnBatch",
    "VectorizedExecutor",
    "batches_from_rows",
    "compile_scalar",
    "rows_from_batches",
    "selection_vector",
]
