"""Unit tests for the columnar batch layer, expression compiler, and
index-pushdown analysis behind :mod:`repro.engine.vectorized`."""

import pytest

from repro.algebra.ops import OutCol, Rel
from repro.engine.evaluator import RowResolver
from repro.engine.vectorized import (
    BATCH_SIZE,
    ColumnBatch,
    VectorizedExecutor,
    batches_from_rows,
    compile_scalar,
    rows_from_batches,
    selection_vector,
)
from repro.errors import ExecutionError, TypeError_
from repro.sql import ast
from repro.sql.parser import Parser
from repro.engine import access
from repro.optimizer import split_pushable_equalities


def pred(text: str) -> ast.Expr:
    return Parser(text).parse_expr()


# -- ColumnBatch --------------------------------------------------------


class TestColumnBatch:
    def test_row_round_trip(self):
        rows = [(1, "a"), (2, None), (None, "c")]
        batch = ColumnBatch.from_rows(rows, width=2)
        assert batch.length == 3
        assert batch.columns == [[1, 2, None], ["a", None, "c"]]
        assert batch.to_rows() == rows

    def test_empty(self):
        batch = ColumnBatch.empty(3)
        assert batch.length == 0 and batch.to_rows() == []

    def test_zero_width_preserves_cardinality(self):
        # 'select 1 from Dual'-style plans carry rows with no columns
        batch = ColumnBatch([], 4)
        assert batch.to_rows() == [(), (), (), ()]

    def test_take_gathers_in_order(self):
        batch = ColumnBatch.from_rows([(1, "a"), (2, "b"), (3, "c")], 2)
        taken = batch.take([2, 0, 2])
        assert taken.to_rows() == [(3, "c"), (1, "a"), (3, "c")]

    def test_concat_columns(self):
        left = ColumnBatch.from_rows([(1,), (2,)], 1)
        right = ColumnBatch.from_rows([("x",), ("y",)], 1)
        assert left.concat_columns(right).to_rows() == [(1, "x"), (2, "y")]

    def test_chunking_respects_batch_size(self):
        rows = [(i,) for i in range(10)]
        batches = list(batches_from_rows(rows, width=1, batch_size=4))
        assert [b.length for b in batches] == [4, 4, 2]
        assert rows_from_batches(batches) == rows

    def test_default_batch_size_is_bounded(self):
        rows = [(i,) for i in range(BATCH_SIZE + 1)]
        batches = list(batches_from_rows(rows, width=1, batch_size=BATCH_SIZE))
        assert [b.length for b in batches] == [BATCH_SIZE, 1]


# -- compiled expressions ----------------------------------------------

RESOLVER = RowResolver((OutCol(None, "a"), OutCol(None, "s")))


def run(expr_text: str, rows: list[tuple]) -> list:
    fn = compile_scalar(pred(expr_text), RESOLVER)
    return fn(ColumnBatch.from_rows(rows, width=2))


class TestCompiledScalars:
    def test_selection_vector_keeps_only_true(self):
        assert selection_vector([True, False, None, True]) == [0, 3]

    def test_comparison_null_propagation(self):
        assert run("a > 1", [(2, ""), (None, ""), (0, "")]) == [True, None, False]

    def test_comparison_both_sides_nonliteral(self):
        assert run("a = a", [(1, ""), (None, "")]) == [True, None]

    def test_null_literal_comparison_is_all_unknown(self):
        assert run("a = NULL", [(1, ""), (None, "")]) == [None, None]

    def test_flipped_literal(self):
        assert run("3 > a", [(1, ""), (5, ""), (None, "")]) == [True, False, None]

    def test_mixed_type_comparison_raises(self):
        with pytest.raises(TypeError_):
            run("a = 'x'", [(1, "y")])

    def test_bool_vs_number_comparison_raises(self):
        with pytest.raises(TypeError_):
            run("a = 1", [(True, "y")])

    def test_int_float_comparison_allowed(self):
        assert run("a = 1", [(1.0, "")]) == [True]

    def test_like_constant_pattern(self):
        assert run("s like 'a%'", [(0, "ab"), (0, "ba"), (0, None)]) == [
            True,
            False,
            None,
        ]

    def test_unbound_param_defers_until_rows_arrive(self):
        fn = compile_scalar(ast.Param("user_id"), RESOLVER)
        assert fn(ColumnBatch.empty(2)) == []  # row engine never evaluates it
        with pytest.raises(ExecutionError, match="unbound parameter"):
            fn(ColumnBatch.from_rows([(1, "x")], 2))

    def test_case_without_default_yields_null(self):
        out = run("case when a > 1 then 'big' end", [(2, ""), (0, "")])
        assert out == ["big", None]


# -- pushdown analysis --------------------------------------------------

REL = Rel("T", "t", ("id", "grp", "val"))


class TestPushdownAnalysis:
    def test_splits_equality_conjuncts(self):
        pushable, residual = split_pushable_equalities(
            pred("id = 7 and val > 2.0 and 'a' = grp"), REL
        )
        assert [(p.column, p.value) for p in pushable] == [("id", 7), ("grp", "a")]
        assert residual == pred("val > 2.0")

    def test_null_literal_not_pushable(self):
        pushable, residual = split_pushable_equalities(pred("id = NULL"), REL)
        assert pushable == [] and residual == pred("id = NULL")

    def test_or_and_not_block_pushdown(self):
        for text in ["id = 1 or grp = 'a'", "not (id = 1)"]:
            pushable, residual = split_pushable_equalities(pred(text), REL)
            assert pushable == [], text
            assert residual == pred(text)

    def test_foreign_binding_not_pushable(self):
        pushable, _ = split_pushable_equalities(pred("u.id = 1"), REL)
        assert pushable == []


def table_with_indexes(*indexes):
    """An empty ``T(id int, grp text, val float)`` with the given
    (columns, unique) indexes, in creation order."""
    from repro.catalog.schema import Column, TableSchema
    from repro.catalog.types import DataType
    from repro.storage import Table

    table = Table(
        TableSchema(
            "T",
            (
                Column("id", DataType.INT),
                Column("grp", DataType.TEXT),
                Column("val", DataType.FLOAT),
            ),
        )
    )
    for columns, unique in indexes:
        table.create_index(columns, unique=unique)
    return table


class TestAccessPathChooser:
    """:func:`repro.engine.access.choose` — which lookup a scan takes and
    which residual is left (the first three cases are the former
    single-column ``annotate_scan`` inputs)."""

    def test_picks_indexed_column(self):
        path = access.choose(
            table_with_indexes((("id",), False)),
            REL,
            pred("grp = 'a' and id = 7 and val > 2.0"),
        )
        assert path.index is not None
        assert path.index.column_names == ("id",)
        assert path.key == (7,)
        # the unconsumed equality stays in front of the residual
        assert path.residual == pred("grp = 'a' and val > 2.0")

    def test_without_index_full_scans(self):
        predicate = pred("id = 7")
        path = access.choose(table_with_indexes(), REL, predicate)
        assert path.index is None
        assert path.residual == predicate

    def test_lookup_consuming_whole_predicate_leaves_no_residual(self):
        path = access.choose(
            table_with_indexes((("id",), False)), REL, pred("id = 7")
        )
        assert path.index is not None
        assert path.residual is None

    def test_composite_prefix_is_a_lookup(self):
        path = access.choose(
            table_with_indexes((("grp", "id"), True)),
            REL,
            pred("val > 2.0 and grp = 'a'"),
        )
        assert path.index.column_names == ("grp", "id")
        assert path.key == ("a",)
        assert path.residual == pred("val > 2.0")

    def test_longest_pinned_prefix_wins(self):
        table = table_with_indexes((("grp",), False), (("grp", "id"), True))
        path = access.choose(table, REL, pred("id = 7 and grp = 'a'"))
        assert path.index.column_names == ("grp", "id")
        assert path.key == ("a", 7)
        assert path.residual is None

    def test_unpinned_leading_column_blocks_the_index(self):
        path = access.choose(
            table_with_indexes((("grp", "id"), True)), REL, pred("id = 7")
        )
        assert path.index is None

    def test_mistyped_literal_pins_nothing(self):
        table = table_with_indexes((("id",), True), (("grp",), False))
        for text in ("id = 'seven'", "id = true", "grp = 10"):
            path = access.choose(table, REL, pred(text))
            assert path.index is None, text
            assert path.residual == pred(text)

    def test_float_literal_pins_int_column(self):
        table = table_with_indexes((("id",), True))
        assert access.choose(table, REL, pred("id = 7.0")).key == (7.0,)


# -- executor over small batches ---------------------------------------


class TestSmallBatchExecution:
    """batch_size=2 forces every multi-batch code path on tiny data."""

    @pytest.fixture
    def db(self):
        from repro.db import Database

        db = Database()
        db.execute_script(
            """
            create table T(id int primary key, grp varchar(5), val float);
            insert into T values (1,'a',10.0),(2,'a',20.0),(3,'b',30.0),
                (4,'b',null),(5,'c',50.0),(6,'a',60.0),(7,null,70.0);
            """
        )
        return db

    def _run_small(self, db, sql):
        from repro.db import SessionContext, _QueryContext
        from repro.sql.parser import parse_statement

        session = SessionContext()
        plan = db.plan_query(parse_statement(sql), session, None)
        executor = VectorizedExecutor(
            _QueryContext(db, session, None), batch_size=2
        )
        return executor.execute(plan), executor

    @pytest.mark.parametrize(
        "sql",
        [
            "select * from T where val > 15.0",
            "select grp, count(*), sum(val) from T group by grp",
            "select a.id, b.id from T a, T b where a.grp = b.grp and a.id < b.id",
            "select distinct grp from T",
            "select id, val from T order by val desc limit 3",
            "select a.id, b.id from T a left join T b on a.id = b.id and b.val > 25.0",
        ],
    )
    def test_matches_row_engine(self, db, sql):
        from collections import Counter

        rows, _ = self._run_small(db, sql)
        oracle = db.execute_query(sql, engine="row")
        assert Counter(rows) == Counter(oracle.rows)

    def test_index_probe_counts_fetched_rows_only(self, db):
        rows, executor = self._run_small(db, "select * from T where id = 3")
        assert rows == [(3, "b", 30.0)]
        assert executor.index_probes == 1
        assert executor.rows_scanned == 1
