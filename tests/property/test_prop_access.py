"""Property tests for the access-path layer (:mod:`repro.engine.access`)
and the prefix buckets of :class:`repro.storage.HashIndex` behind it.

1. On seeded random tables — single, composite and unique indexes, NULLs,
   duplicate rows, 1- and 4-shard partitioned tables — and random
   predicates with well-typed, mistyped and NULL literals, the rows of
   the chosen access path with its residual applied equal the rows of a
   full scan with the whole predicate, in the same order.  Where the
   scan raises, the path either raises too or fetched no row that
   raises (the error rule); the path never raises where the scan does
   not.
2. After random insert/update/delete sequences, including unique
   violations rolled back across indexes, and after ``Database.open``
   recovery from a snapshot plus WAL tail, every index's full-key and
   prefix buckets equal a rebuild from the table's rows.
"""

import random

import pytest

from repro.algebra.ops import Rel
from repro.catalog import Column, DataType, TableSchema
from repro.cluster.partition import HashPartitioner, PartitionedTable
from repro.db import Database
from repro.engine import access
from repro.engine.evaluator import Evaluator, RowResolver
from repro.errors import IntegrityError, ReproError
from repro.sql import ast
from repro.sql.parser import Parser
from repro.storage import HashIndex, Table

SCHEMA = TableSchema(
    "T",
    (
        Column("a", DataType.INT),
        Column("b", DataType.TEXT),
        Column("c", DataType.FLOAT),
        Column("d", DataType.BOOL),
    ),
)
REL = Rel("T", "T", SCHEMA.column_names)

VALUES = {
    "a": [0, 1, 2, 3, None],
    "b": ["x", "y", "z", None],
    "c": [0.0, 1.5, 2.0, None],
    "d": [True, False, None],
}
#: literals comparable with each column's type
TYPED = {
    "a": ["0", "1", "2", "7", "1.0"],
    "b": ["'x'", "'y'", "'q'"],
    "c": ["1.5", "2", "0.0"],
    "d": ["true", "false"],
}
#: literals a comparison with the column rejects
MISTYPED = {"a": ["'1'", "true"], "b": ["1", "false"], "c": ["'x'"], "d": ["1", "'t'"]}
OTHER = ["a > 1", "c < 1.6", "d is null", "b <> 'y'", "(a = 1 or b = 'x')", "1/0 = 1"]

#: index layouts: (columns, unique) in creation order
LAYOUTS = [
    [(("a",), False)],
    [(("b", "a"), False)],
    [(("a",), False), (("b", "a"), False), (("b", "a", "c"), True)],
    [(("c", "d"), True), (("b",), False)],
]


def random_row(rng):
    return tuple(rng.choice(VALUES[c]) for c in SCHEMA.column_names)


def random_predicate(rng) -> ast.Expr:
    atoms = []
    for _ in range(rng.randint(1, 4)):
        column = rng.choice(SCHEMA.column_names)
        roll = rng.random()
        if roll < 0.55:
            literal = rng.choice(TYPED[column])
        elif roll < 0.7:
            literal = rng.choice(MISTYPED[column])
        elif roll < 0.8:
            literal = "null"
        else:
            atoms.append(rng.choice(OTHER))
            continue
        atoms.append(
            f"{column} = {literal}" if rng.random() < 0.7 else f"{literal} = {column}"
        )
    return Parser(" and ".join(atoms)).parse_expr()


def fill(table, rng, n):
    """Insert ``n`` random rows (some duplicated); unique violations
    are skipped."""
    rows = []
    for _ in range(n):
        row = rng.choice(rows) if rows and rng.random() < 0.2 else random_row(rng)
        try:
            table.insert(row)
        except IntegrityError:
            continue
        rows.append(row)


def plain_table(layout):
    table = Table(SCHEMA)
    for columns, unique in layout:
        table.create_index(columns, unique=unique)
    return table


def partitioned_table(layout, n_shards, key):
    shards = [Table(SCHEMA) for _ in range(n_shards)]
    table = PartitionedTable(SCHEMA, shards, HashPartitioner(SCHEMA, key, n_shards))
    for columns, unique in layout:
        table.create_index(columns, unique=unique)
    return table


def scan_outcome(rows, predicate):
    """(matching rows in order, whether any row raises) for a full scan."""
    evaluator = Evaluator(RowResolver(REL.columns))
    matched, raises = [], False
    for row in rows:
        try:
            if evaluator.matches(predicate, row):
                matched.append(row)
        except ReproError:
            raises = True
    return matched, raises


def path_outcome(path):
    evaluator = Evaluator(RowResolver(REL.columns))
    rows = path.rows()
    if path.residual is None:
        return rows
    return [row for row in rows if evaluator.matches(path.residual, row)]


def assert_path_equals_scan(table, predicate):
    expected, scan_raises = scan_outcome(list(table.rows()), predicate)
    path = access.choose(table, REL, predicate)
    try:
        got = path_outcome(path)
    except ReproError:
        assert scan_raises, f"path raised where a scan does not: {predicate}"
        return path
    assert got == expected, f"{predicate}: path {got} != scan {expected}"
    return path


def tables_for(layout):
    yield plain_table(layout)
    yield partitioned_table(layout, 1, ("a",))
    yield partitioned_table(layout, 4, ("a",))
    yield partitioned_table(layout, 4, ("b", "a"))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("layout", LAYOUTS, ids=range(len(LAYOUTS)))
def test_path_rows_equal_full_scan(layout, seed):
    lookups = 0
    for table in tables_for(layout):
        rng = random.Random(seed)
        fill(table, rng, rng.randint(0, 40))
        for _ in range(40):
            path = assert_path_equals_scan(table, random_predicate(rng))
            lookups += path.index is not None
    assert lookups, "no predicate exercised an index lookup"


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("layout", LAYOUTS, ids=range(len(LAYOUTS)))
def test_any_row_matches_equals_scan(layout, seed):
    """The foreign-key match (Python ``==`` on every given column),
    with NULL and mistyped values, agrees with a scan."""
    pool = {"a": [1, 2.0, None, "1", True], "b": ["x", None, 1],
            "c": [1.5, 2, None], "d": [True, None, 1]}
    for table in tables_for(layout):
        rng = random.Random(seed)
        fill(table, rng, rng.randint(0, 40))
        for _ in range(30):
            columns = rng.sample(SCHEMA.column_names, rng.randint(1, 3))
            values = {c: rng.choice(pool[c]) for c in columns}
            ordinals = [(SCHEMA.column_index(c), v) for c, v in values.items()]
            expected = any(
                all(row[o] == v for o, v in ordinals) for row in table.rows()
            )
            assert access.any_row_matches(table, values) == expected, values


def test_rows_come_back_in_row_id_order_after_updates():
    """Updates keep a row's id, so lookup order must follow ids, not
    bucket insertion order."""
    table = plain_table([(("b", "a"), False)])
    ids = [table.insert((i, "x", 0.0, True)) for i in range(5)]
    table.update_row(ids[1], (9, "x", 0.0, True))
    table.update_row(ids[0], (8, "x", 0.0, True))
    predicate = Parser("b = 'x'").parse_expr()
    path = assert_path_equals_scan(table, predicate)
    assert path.index is not None and path.residual is None


# -- prefix buckets stay equal to a rebuild ---------------------------------


def assert_indexes_match_rows(table):
    shards = (
        [table.shard_table(i) for i in range(table.n_shards)]
        if isinstance(table, PartitionedTable)
        else [table]
    )
    for shard in shards:
        for index in shard.indexes():
            fresh = HashIndex(
                index.table_name, index.columns, index.column_names, index.unique
            )
            for rid, row in shard.rows_with_ids():
                fresh.insert(rid, row)
            assert index._buckets == fresh._buckets
            assert index._prefix_buckets == fresh._prefix_buckets


def mutate(table, rng, steps):
    for _ in range(steps):
        live = [rid for rid, _ in table.rows_with_ids()]
        roll = rng.random()
        try:
            if roll < 0.5 or not live:
                table.insert(random_row(rng))
            elif roll < 0.8:
                table.update_row(rng.choice(live), random_row(rng))
            else:
                table.delete_row(rng.choice(live))
        except IntegrityError:
            pass


def force_unique_violation(table, rng):
    """Make the last (unique) index accept the pre-check and then raise
    inside ``insert``/``update_row``, so the table rolls back the
    entries it already applied to the earlier indexes."""
    unique = table.indexes()[-1]
    assert unique.unique
    rows = list(table.rows_with_ids())
    if not rows:
        return
    rid, victim = rng.choice(rows)
    clash = next(
        (r for other, r in rows if other != rid and None not in unique.key_of(r)),
        None,
    )
    unique.would_violate = lambda row, ignore_row_id=None: False
    try:
        if None not in unique.key_of(victim):
            with pytest.raises(IntegrityError):
                table.insert(victim)
        if clash is not None:
            with pytest.raises(IntegrityError):
                table.update_row(rid, clash)
    finally:
        del unique.would_violate


@pytest.mark.parametrize("seed", range(10))
def test_prefix_buckets_equal_rebuild_after_mutations(seed):
    rng = random.Random(seed)
    table = plain_table(LAYOUTS[2])
    for _ in range(4):
        mutate(table, rng, 25)
        force_unique_violation(table, rng)
        assert_indexes_match_rows(table)

    sharded = partitioned_table(LAYOUTS[2], 4, ("a",))
    mutate(sharded, rng, 80)
    assert_indexes_match_rows(sharded)


@pytest.mark.parametrize("seed", range(3))
def test_prefix_buckets_equal_rebuild_after_recovery(tmp_path, seed):
    rng = random.Random(seed)
    data_dir = str(tmp_path / "data")
    db = Database.open(data_dir)
    db.execute(
        "create table R (k int, g varchar(4), v float, primary key (g, k))"
    )
    db.table("R").create_index(("v", "g"))

    def workload(steps):
        for _ in range(steps):
            k, g = rng.randint(0, 9), rng.choice("pqr")
            v = rng.choice(["1.5", "2.0", "null"])
            statement = rng.choice(
                [
                    f"insert into R values ({k}, '{g}', {v})",
                    f"update R set v = {v} where g = '{g}' and k = {k}",
                    f"update R set k = {rng.randint(0, 9)} where g = '{g}'",
                    f"delete from R where g = '{g}' and k = {k}",
                ]
            )
            try:
                db.execute(statement)
            except IntegrityError:
                pass

    workload(40)
    db.checkpoint()
    workload(40)
    before = list(db.table("R").rows_with_ids())
    db.close(checkpoint=False)

    recovered = Database.open(data_dir)
    table = recovered.table("R")
    assert list(table.rows_with_ids()) == before
    assert_indexes_match_rows(table)
    recovered.close()
