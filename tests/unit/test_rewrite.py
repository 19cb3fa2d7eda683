"""Unit tests for selection pushdown (repro.algebra.rewrite)."""

from collections import Counter

import pytest

from repro.db import Database
from repro.sql import parse_query
from repro.algebra import ops
from repro.algebra.rewrite import push_selections


@pytest.fixture
def db():
    database = Database()
    database.execute_script(
        """
        create table T(id int primary key, grp varchar(2), v int);
        create table U(id int primary key, t_id int, w int);
        insert into T values (1,'a',10),(2,'a',20),(3,'b',30);
        insert into U values (1,1,100),(2,1,200),(3,3,300);
        """
    )
    return database


def plan_of(db, sql):
    # plan_query already applies push_selections; build unpushed by hand
    from repro.algebra.translate import Translator

    return Translator(db.catalog).translate(parse_query(sql))


def count_ops(plan, kind):
    return sum(1 for node in ops.walk(plan) if isinstance(node, kind))


class TestPushdownShapes:
    def test_cross_join_becomes_inner(self, db):
        raw = plan_of(db, "select T.id from T, U where T.id = U.t_id")
        pushed = push_selections(raw)
        joins = [n for n in ops.walk(pushed) if isinstance(n, ops.Join)]
        assert joins and joins[0].kind == "inner"
        assert joins[0].predicate is not None

    def test_single_side_conjuncts_pushed_below(self, db):
        raw = plan_of(
            db, "select T.id from T, U where T.id = U.t_id and T.grp = 'a'"
        )
        pushed = push_selections(raw)
        join = next(n for n in ops.walk(pushed) if isinstance(n, ops.Join))
        # the grp filter must sit below the join, on the T side
        left_selects = [
            n for n in ops.walk(join.left) if isinstance(n, ops.Select)
        ]
        assert left_selects, pushed.pretty()
        assert "grp" in str(left_selects[0].predicate)

    def test_select_merge_through_nested_selects(self, db):
        raw = plan_of(
            db,
            "select id from (select * from T where v > 5) s where s.grp = 'a'",
        )
        pushed = push_selections(raw)
        # both conjuncts end up in (possibly one) select over the scan
        selects = [n for n in ops.walk(pushed) if isinstance(n, ops.Select)]
        assert selects

    def test_left_join_predicate_untouched(self, db):
        raw = plan_of(
            db, "select T.id from T left join U on T.id = U.t_id"
        )
        pushed = push_selections(raw)
        join = next(n for n in ops.walk(pushed) if isinstance(n, ops.Join))
        assert join.kind == "left"
        assert join.predicate is not None


class TestPushdownSemantics:
    QUERIES = [
        "select T.id, U.w from T, U where T.id = U.t_id",
        "select T.id from T, U where T.id = U.t_id and T.grp = 'a' and U.w > 150",
        "select T.grp, count(*) from T, U where T.id = U.t_id group by T.grp",
        "select t1.id, t2.id from T t1, T t2 where t1.v < t2.v",
        "select T.id from T, U where T.id = U.t_id and T.v + U.w > 100",
        "select distinct grp from T where v > 5",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_pushed_plan_equivalent(self, db, sql):
        session = db.connect().session
        raw = plan_of(db, sql)
        pushed = push_selections(raw)
        raw_rows = Counter(db.run_plan(raw, session).rows)
        pushed_rows = Counter(db.run_plan(pushed, session).rows)
        assert raw_rows == pushed_rows

    def test_pushdown_reduces_join_work(self, db):
        from repro.db import _QueryContext
        from repro.engine.executor import Executor

        session = db.connect().session
        sql = "select T.id from T, U where T.id = U.t_id and T.grp = 'b'"
        raw = plan_of(db, sql)
        pushed = push_selections(raw)

        def pairs(plan):
            executor = Executor(_QueryContext(db, session))
            executor.execute(plan)
            return executor.join_pairs_examined

        assert pairs(pushed) <= pairs(raw)


class TestPushedOncePerPlan:
    """plan_query returns a pushed plan and run_plan runs it as given."""

    def test_fresh_query_pushes_once(self, db):
        from repro.instrument import COUNTERS

        before = COUNTERS.get("plan.push")
        result = db.execute_query(
            "select T.id from T, U where T.id = U.t_id and T.grp = 'b'",
            prepared=False,
        )
        assert COUNTERS.get("plan.push") - before == 1
        assert result.rows == [(3,)]
