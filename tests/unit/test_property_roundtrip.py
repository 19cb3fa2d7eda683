"""Randomized properties: render/parse round-trips and engine scalar agreement.

A seeded stdlib-``random`` generator produces *type-correct* expression
ASTs over a small row schema (numeric / string / boolean sorts, depth
bounded).  Type-directed generation keeps every expression error-free —
comparisons stay same-sorted, arithmetic avoids ``/`` and ``%``, NOT
applies only to booleans.  A second generator lets errors in (division
and modulo by zero, mixed-sort comparisons, erroring IN items) to pin
that the vectorized engine short-circuits AND/OR/CASE/IN like the row
engine.

Properties, all deterministic (fixed seeds):

1. ``parse(render(ast)) == ast`` — the renderer emits exactly the text
   the parser maps back to the same tree (unary minus on literals is
   excluded: the parser constant-folds ``- 3`` to ``Literal(-3)``).
2. Both engines agree scalar-for-scalar on NULL-laden random rows, and
   on expressions that can raise, a batch raises exactly when some row
   raises on the row engine, and a one-row batch raises the same error.
3. The Kleene AND/OR/NOT truth tables, pinned exhaustively.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.ops import OutCol
from repro.engine.evaluator import Evaluator, RowResolver
from repro.engine.vectorized import ColumnBatch, compile_scalar
from repro.sql import ast
from repro.sql.parser import Parser
from repro.sql.render import render

# -- typed expression generator ----------------------------------------

#: row schema the generator draws column references from
NUM_COLUMNS = ("a", "b")
STR_COLUMNS = ("s", "t")

NUM_VALUES = [None, -2, 0, 1, 7, -1.5, 2.5, 100.0]
STR_VALUES = [None, "", "a", "ab", "b%", "x_y", "it's"]


class ExprGen:
    """Depth-bounded, sort-directed random expression generator."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def expr(self, sort: str, depth: int = 3) -> ast.Expr:
        if sort == "num":
            return self.num(depth)
        if sort == "str":
            return self.text(depth)
        return self.boolean(depth)

    # numeric sort ------------------------------------------------------
    def num(self, depth: int) -> ast.Expr:
        if depth <= 0:
            return self._num_leaf()
        pick = self.rng.randrange(8)
        if pick < 3:
            return self._num_leaf()
        if pick < 5:
            op = self.rng.choice(["+", "-", "*"])
            return ast.BinaryOp(op, self.num(depth - 1), self.num(depth - 1))
        if pick == 5:
            # unary minus on a column only: "- <literal>" would be
            # constant-folded by the parser and break the round-trip
            return ast.UnaryOp("-", ast.ColumnRef(None, self.rng.choice(NUM_COLUMNS)))
        if pick == 6:
            branches = tuple(
                (self.boolean(depth - 1), self.num(depth - 1))
                for _ in range(self.rng.randint(1, 2))
            )
            default = self.num(depth - 1) if self.rng.random() < 0.7 else None
            return ast.CaseExpr(branches, default)
        fn = self.rng.choice(["coalesce", "abs"])
        if fn == "coalesce":
            args = tuple(self.num(depth - 1) for _ in range(self.rng.randint(1, 3)))
            return ast.FuncCall("coalesce", args)
        return ast.FuncCall("abs", (self.num(depth - 1),))

    def _num_leaf(self) -> ast.Expr:
        if self.rng.random() < 0.5:
            return ast.ColumnRef(None, self.rng.choice(NUM_COLUMNS))
        return ast.Literal(self.rng.choice(NUM_VALUES))

    # string sort -------------------------------------------------------
    def text(self, depth: int) -> ast.Expr:
        if depth <= 0:
            return self._str_leaf()
        pick = self.rng.randrange(6)
        if pick < 3:
            return self._str_leaf()
        if pick < 5:
            name = self.rng.choice(["lower", "upper"])
            return ast.FuncCall(name, (self.text(depth - 1),))
        return ast.FuncCall(
            "coalesce",
            tuple(self.text(depth - 1) for _ in range(self.rng.randint(1, 2))),
        )

    def _str_leaf(self) -> ast.Expr:
        if self.rng.random() < 0.5:
            return ast.ColumnRef(None, self.rng.choice(STR_COLUMNS))
        return ast.Literal(self.rng.choice(STR_VALUES))

    # boolean sort ------------------------------------------------------
    def boolean(self, depth: int) -> ast.Expr:
        if depth <= 0:
            return self._bool_leaf()
        pick = self.rng.randrange(10)
        if pick < 3:
            return self._bool_leaf()
        if pick < 5:
            op = self.rng.choice(["and", "or"])
            return ast.BinaryOp(op, self.boolean(depth - 1), self.boolean(depth - 1))
        if pick == 5:
            return ast.UnaryOp("not", self.boolean(depth - 1))
        if pick == 6:
            sort = self.rng.choice(["num", "str"])
            return ast.IsNull(self.expr(sort, depth - 1), self.rng.random() < 0.5)
        if pick == 7:
            return ast.Between(
                self.num(depth - 1),
                self.num(depth - 1),
                self.num(depth - 1),
                negated=self.rng.random() < 0.3,
            )
        if pick == 8:
            sort = self.rng.choice(["num", "str"])
            items = tuple(
                self.expr(sort, 0) for _ in range(self.rng.randint(1, 3))
            )
            return ast.InList(
                self.expr(sort, depth - 1), items, negated=self.rng.random() < 0.3
            )
        return self._bool_leaf()

    def _bool_leaf(self) -> ast.Expr:
        op = self.rng.choice(["=", "<>", "<", "<=", ">", ">="])
        # same-sorted operands: mixed-type comparisons raise in both
        # engines, but the row engine may short-circuit past them
        if self.rng.random() < 0.6:
            return ast.BinaryOp(op, self.num(0), self.num(0))
        if self.rng.random() < 0.5:
            return ast.BinaryOp(op, self.text(0), self.text(0))
        pattern = self.rng.choice(["a%", "%b", "_", "%", "x_y", "it''s"[:3]])
        return ast.BinaryOp("like", self.text(0), ast.Literal(pattern))


# -- property 1: parse(render(ast)) == ast -----------------------------


@pytest.mark.parametrize("seed", range(200))
def test_render_parse_roundtrip(seed):
    gen = ExprGen(seed)
    sort = ("num", "str", "bool")[seed % 3]
    expr = gen.expr(sort, depth=4)
    text = render(expr)
    back = Parser(text).parse_expr()
    assert back == expr, f"round-trip diverged for {text!r}:\n{expr!r}\nvs\n{back!r}"


# -- property 2: engines agree on NULL-laden rows ----------------------


def _random_rows(rng: random.Random, count: int) -> list[tuple]:
    return [
        (
            rng.choice(NUM_VALUES),
            rng.choice(NUM_VALUES),
            rng.choice(STR_VALUES),
            rng.choice(STR_VALUES),
        )
        for _ in range(count)
    ]


RESOLVER = RowResolver(
    tuple(OutCol(None, name) for name in NUM_COLUMNS + STR_COLUMNS)
)


def _same_scalar(x, y) -> bool:
    # identical value AND type: True != 1 here, 2 != 2.0 here — the
    # engines must not even disagree on numeric widening
    return x is y or (type(x) is type(y) and x == y)


@pytest.mark.parametrize("seed", range(150))
def test_engines_agree_on_random_rows(seed):
    gen = ExprGen(seed * 7 + 1)
    sort = ("bool", "bool", "num", "str")[seed % 4]
    expr = gen.expr(sort, depth=4)
    rng = random.Random(seed * 13 + 5)
    rows = _random_rows(rng, 37)

    evaluator = Evaluator(RESOLVER)
    expected = [evaluator.evaluate(expr, row) for row in rows]

    compiled = compile_scalar(expr, RESOLVER)
    batch = ColumnBatch.from_rows(rows, width=4)
    actual = compiled(batch)

    assert len(actual) == len(expected)
    for i, (row_value, vec_value) in enumerate(zip(expected, actual)):
        assert _same_scalar(row_value, vec_value), (
            f"row {rows[i]} of expr {render(expr)}: "
            f"row engine {row_value!r} vs vectorized {vec_value!r}"
        )


class RaisingExprGen(ExprGen):
    """:class:`ExprGen` plus sub-expressions that raise on some rows:
    ``/`` and ``%`` (zero divisors), mixed-sort comparisons, and IN
    lists whose items may raise."""

    def num(self, depth: int) -> ast.Expr:
        if depth > 0 and self.rng.random() < 0.25:
            op = self.rng.choice(["/", "%"])
            return ast.BinaryOp(op, self.num(depth - 1), self.num(depth - 1))
        return super().num(depth)

    def boolean(self, depth: int) -> ast.Expr:
        if depth > 0 and self.rng.random() < 0.15:
            items = tuple(self.num(1) for _ in range(self.rng.randint(1, 3)))
            return ast.InList(
                self.num(depth - 1), items, negated=self.rng.random() < 0.3
            )
        return super().boolean(depth)

    def _bool_leaf(self) -> ast.Expr:
        if self.rng.random() < 0.1:
            op = self.rng.choice(["=", "<"])
            return ast.BinaryOp(op, self.num(0), self.text(0))
        return super()._bool_leaf()


def _row_outcome(evaluator: Evaluator, expr: ast.Expr, row: tuple):
    try:
        return ("ok", evaluator.evaluate(expr, row))
    except Exception as exc:  # noqa: BLE001 - the error *is* the outcome
        return ("raised", type(exc).__name__, str(exc))


@pytest.mark.parametrize("seed", range(150))
def test_engines_raise_alike_on_random_rows(seed):
    gen = RaisingExprGen(seed * 11 + 3)
    expr = gen.expr(("bool", "num")[seed % 2], depth=4)
    rows = _random_rows(random.Random(seed * 17 + 2), 37)
    evaluator = Evaluator(RESOLVER)
    compiled = compile_scalar(expr, RESOLVER)
    expected = [_row_outcome(evaluator, expr, row) for row in rows]

    for row, want in zip(rows, expected):
        try:
            (value,) = compiled(ColumnBatch.from_rows([row], width=4))
            got = ("ok", value)
        except Exception as exc:  # noqa: BLE001
            got = ("raised", type(exc).__name__, str(exc))
        assert got[0] == want[0] and (
            _same_scalar(got[1], want[1]) if got[0] == "ok" else got == want
        ), f"row {row} of expr {render(expr)}: row engine {want!r} vs {got!r}"

    raising = {o[1] for o in expected if o[0] == "raised"}
    try:
        actual = compiled(ColumnBatch.from_rows(rows, width=4))
    except Exception as exc:  # noqa: BLE001
        assert type(exc).__name__ in raising, f"{render(expr)} raised {exc!r}"
        return
    assert not raising, f"{render(expr)}: rows raise {raising}, batch did not"
    for want, value in zip(expected, actual):
        assert _same_scalar(want[1], value), render(expr)


# -- property 3: Kleene truth tables, pinned exhaustively --------------

TRI = (True, False, None)

#: (left, right) -> expected, for SQL three-valued AND
AND_TABLE = {
    (True, True): True,
    (True, False): False,
    (True, None): None,
    (False, True): False,
    (False, False): False,
    (False, None): False,
    (None, True): None,
    (None, False): False,
    (None, None): None,
}

OR_TABLE = {
    (True, True): True,
    (True, False): True,
    (True, None): True,
    (False, True): True,
    (False, False): False,
    (False, None): None,
    (None, True): True,
    (None, False): None,
    (None, None): None,
}

NOT_TABLE = {True: False, False: True, None: None}

_BOOL_RESOLVER = RowResolver((OutCol(None, "l"), OutCol(None, "r")))
_L = ast.ColumnRef(None, "l")
_R = ast.ColumnRef(None, "r")


def _both_engines(expr: ast.Expr, rows: list[tuple]) -> tuple[list, list]:
    evaluator = Evaluator(_BOOL_RESOLVER)
    row_out = [evaluator.evaluate(expr, row) for row in rows]
    vec_out = compile_scalar(expr, _BOOL_RESOLVER)(
        ColumnBatch.from_rows(rows, width=2)
    )
    return row_out, vec_out


def test_kleene_and_exhaustive():
    rows = [(l, r) for l in TRI for r in TRI]
    row_out, vec_out = _both_engines(ast.BinaryOp("and", _L, _R), rows)
    for (l, r), got_row, got_vec in zip(rows, row_out, vec_out):
        assert got_row is AND_TABLE[(l, r)], f"row engine: {l} AND {r}"
        assert got_vec is AND_TABLE[(l, r)], f"vectorized: {l} AND {r}"


def test_kleene_or_exhaustive():
    rows = [(l, r) for l in TRI for r in TRI]
    row_out, vec_out = _both_engines(ast.BinaryOp("or", _L, _R), rows)
    for (l, r), got_row, got_vec in zip(rows, row_out, vec_out):
        assert got_row is OR_TABLE[(l, r)], f"row engine: {l} OR {r}"
        assert got_vec is OR_TABLE[(l, r)], f"vectorized: {l} OR {r}"


def test_kleene_not_exhaustive():
    rows = [(value, value) for value in TRI]
    row_out, vec_out = _both_engines(ast.UnaryOp("not", _L), rows)
    for (value, _), got_row, got_vec in zip(rows, row_out, vec_out):
        assert got_row is NOT_TABLE[value], f"row engine: NOT {value}"
        assert got_vec is NOT_TABLE[value], f"vectorized: NOT {value}"


def test_kleene_nesting_agrees_with_tables():
    """(l AND r) OR NOT l — composed truth table, both engines."""
    expr = ast.BinaryOp(
        "or",
        ast.BinaryOp("and", _L, _R),
        ast.UnaryOp("not", _L),
    )
    rows = [(l, r) for l in TRI for r in TRI]
    row_out, vec_out = _both_engines(expr, rows)
    for (l, r), got_row, got_vec in zip(rows, row_out, vec_out):
        expected = OR_TABLE[(AND_TABLE[(l, r)], NOT_TABLE[l])]
        assert got_row is expected
        assert got_vec is expected


# -- prepared-statement rebinding properties ---------------------------
#
# Property 4: binding random literal tuples (NULLs and type-edge values
# included) into one fixed prepared template agrees with fresh
# execution, observable-for-observable.  Property 5: a literal that
# changes the Non-Truman validity outcome must get its own decision —
# never a hit on the cached decision of a different binding.

#: literal pools: NULL, zero/negative/huge numerics, empty / quoted /
#: wildcard-looking strings
REBIND_NUM = [None, 0, 1, -1, 2.5, -1.5, 1e16, 0.0, 3]
REBIND_STR = [None, "", "a", "b", "it's", "x_y", "A%", "nope"]


def _prepared_outcome(db, query, session, prepared):
    try:
        result = db.execute_query(
            query, session=session, mode="open", prepared=prepared
        )
    except Exception as exc:  # identical failures count as agreement
        return ("raised", type(exc).__name__, str(exc))
    return ("ok", result.columns, list(result.rows))


def test_random_rebinding_agrees_with_fresh():
    from repro.db import Database
    from repro.prepared import bind_skeleton, resolve_signature

    db = Database()
    db.execute("create table T(k int, v float, tag varchar(8))")
    for row in [
        "(1, 1.5, 'a')",
        "(2, null, 'b')",
        "(3, 2.5, null)",
        "(null, null, 'c')",
        "(0, 0.0, '')",
    ]:
        db.execute(f"insert into T values {row}")
    session = db.connect(mode="open").session

    sql = "select k, v, tag from T where (v > 0.5 and tag = 'a') or k = 1"
    skeleton, literals, _ = resolve_signature(db, sql)
    assert len(literals) == 3

    rng = random.Random(424242)
    for _ in range(80):
        values = (
            rng.choice(REBIND_NUM),
            rng.choice(REBIND_STR),
            rng.choice(REBIND_NUM),
        )
        bound = bind_skeleton(skeleton, values)
        fresh = _prepared_outcome(db, bound, session, prepared=False)
        cold = _prepared_outcome(db, bound, session, prepared=True)
        hot = _prepared_outcome(db, bound, session, prepared=True)
        assert cold == fresh, f"cold rebind diverges for {values!r}"
        assert hot == fresh, f"hot rebind diverges for {values!r}"


def test_null_rebinding_changes_signature_not_answers():
    """A NULL literal is never stripped into the template signature —
    binding NULL must fall through to a *different* template whose
    answers still match fresh execution."""
    from repro.db import Database
    from repro.nontruman.cache import query_signature
    from repro.prepared import bind_skeleton, resolve_signature

    db = Database()
    db.execute("create table T(k int, v float)")
    db.execute("insert into T values (1, 1.5)")
    db.execute("insert into T values (2, null)")
    session = db.connect(mode="open").session

    skeleton, literals, _ = resolve_signature(db, "select k from T where v > 1.0")
    bound_null = bind_skeleton(skeleton, (None,))
    null_skeleton, null_literals = query_signature(bound_null)
    assert null_skeleton != skeleton  # NULL stays inline
    assert null_literals == ()
    fresh = _prepared_outcome(db, bound_null, session, prepared=False)
    prep = _prepared_outcome(db, bound_null, session, prepared=True)
    assert prep == fresh
    assert fresh[0] == "ok" and fresh[2] == []  # v > NULL is UNKNOWN


def test_validity_flip_never_hits_foreign_decision():
    """user 11 may see only their own grades: rebinding the student_id
    literal from '11' to '12' flips the validity outcome, so the '12'
    binding must be decided fresh (and rejected), not served from the
    cached acceptance of the '11' binding — in either order, repeatedly."""
    from repro.db import Database
    from repro.errors import QueryRejectedError

    db = Database()
    db.execute("create table Grades(student_id varchar(8), grade float)")
    db.execute("insert into Grades values ('11', 3.5)")
    db.execute("insert into Grades values ('12', 2.0)")
    db.execute(
        "create authorization view MyGrades as "
        "select * from Grades where student_id = $user_id"
    )
    db.grant("MyGrades", "11")
    session = db.connect(user_id="11", mode="non-truman").session

    ok_sql = "select grade from Grades where student_id = '11'"
    bad_sql = "select grade from Grades where student_id = '12'"

    for _ in range(3):  # repeat: hot hits must stay correct
        rows = db.execute_query(
            ok_sql, session=session, mode="non-truman", prepared=True
        ).rows
        assert rows == [(3.5,)]
        with pytest.raises(QueryRejectedError) as prep_exc:
            db.execute_query(
                bad_sql, session=session, mode="non-truman", prepared=True
            )
        with pytest.raises(QueryRejectedError) as fresh_exc:
            db.execute_query(
                bad_sql, session=session, mode="non-truman", prepared=False
            )
        assert str(prep_exc.value) == str(fresh_exc.value)
