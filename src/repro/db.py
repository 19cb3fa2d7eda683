"""Database facade: the public entry point of the library.

A :class:`Database` owns the catalog, row storage, the grant registry,
update-authorization policies, and the access-control configuration.
Queries are admitted according to the selected model:

* ``"open"`` — no access control (the baseline substrate);
* ``"truman"`` — query modification (paper Section 3): every base
  relation is transparently replaced by the user's authorization view
  of it before execution;
* ``"non-truman"`` — the paper's model (Section 4): the query is tested
  for (unconditional or conditional) validity against the user's
  instantiated authorization views; valid queries run **unmodified**,
  invalid queries raise :class:`~repro.errors.QueryRejectedError`.

Typical usage::

    db = Database()
    db.execute_script(SCHEMA_SQL)
    db.execute("create authorization view MyGrades as "
               "select * from Grades where student_id = $user_id")
    db.grant("MyGrades", to_user="11")
    conn = db.connect(user_id="11", mode="non-truman")
    result = conn.query("select avg(grade) from Grades where student_id = '11'")
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

from repro.errors import (
    AccessControlError,
    BindError,
    DurabilityError,
    ExecutionError,
    GrantError,
    IntegrityError,
    ReproError,
    UnknownTableError,
    UnsupportedFeatureError,
)
from repro.sql import ast, parse_statement, parse_statements, render
from repro.algebra import ops
from repro.algebra.translate import Translator
from repro.authviews.registry import GrantRegistry, PUBLIC
from repro.authviews.session import SessionContext
from repro.authviews.views import AuthorizationView, InstantiatedView
from repro.catalog.catalog import Catalog, ViewDef
from repro.catalog.constraints import TotalParticipation
from repro.engine import ENGINES, make_executor
from repro.engine.evaluator import Evaluator, RowResolver
from repro.engine.executor import Executor
from repro.storage.table import Table

MODES = ("open", "truman", "non-truman", "motro")


@dataclass
class Result:
    """Query result: column names plus rows (bag semantics, in order)."""

    columns: tuple[str, ...]
    rows: list[tuple]

    def as_multiset(self) -> Counter:
        return Counter(self.rows)

    def scalar(self) -> object:
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def column(self, name: str) -> list[object]:
        lowered = name.lower()
        for index, col in enumerate(self.columns):
            if col.lower() == lowered:
                return [row[index] for row in self.rows]
        raise ExecutionError(f"no column {name!r} in result")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class _QueryContext:
    """ExecContext implementation bound to one database + session."""

    def __init__(self, db: "Database", session: SessionContext,
                 access_params: Optional[Mapping[str, object]] = None):
        self.db = db
        self.session = session
        self.access_params = dict(access_params or {})

    def table_rows(self, name: str) -> Iterable[tuple]:
        return self.db.table(name).rows()

    def table_handle(self, name: str) -> Table:
        """Storage-level handle; lets the vectorized engine reach hash
        indexes for pushdown scans."""
        return self.db.table(name)

    def view_plan(
        self, name: str, access_args: tuple[tuple[str, object], ...] = ()
    ) -> ops.Operator:
        """Plan for an authorization-view scan inside a witness query."""
        view = self.db.catalog.view(name)
        instantiated = AuthorizationView.from_def(view).instantiate(self.session)
        access_values = dict(self.access_params)
        access_values.update(dict(access_args))
        query = instantiated.bind_access_params(access_values)
        translator = Translator(
            self.db.catalog,
            param_values=self.session.param_values(),
            access_param_values=access_values,
        )
        from repro.algebra.rewrite import push_selections

        plan = push_selections(translator.translate(query))
        if view.column_names:
            renames = tuple(
                (col.ref(), new)
                for col, new in zip(plan.columns, view.column_names)
            )
            plan = ops.Project(plan, renames)
        return plan


class Connection:
    """A session-bound handle with a fixed access-control mode."""

    def __init__(self, db: "Database", session: SessionContext, mode: str):
        self.db = db
        self.session = session
        self.mode = mode

    def query(self, sql: Union[str, ast.QueryExpr],
              access_params: Optional[Mapping[str, object]] = None,
              engine: Optional[str] = None) -> Result:
        return self.db.execute_query(
            sql, session=self.session, mode=self.mode,
            access_params=access_params, engine=engine,
        )

    def execute(self, sql: Union[str, ast.Statement],
                access_params: Optional[Mapping[str, object]] = None,
                sync: bool = True) -> object:
        return self.db.execute(
            sql, session=self.session, mode=self.mode,
            access_params=access_params, sync=sync,
        )

    def check_validity(self, sql: Union[str, ast.QueryExpr]):
        """Run only the Non-Truman validity check; returns the decision."""
        return self.db.check_validity(sql, session=self.session)


class Database:
    """Relational database with fine-grained access control.

    By default everything lives in memory and evaporates with the
    process.  Passing ``data_dir`` (or using :meth:`open` /
    :meth:`save`) attaches the durability layer
    (:mod:`repro.durability`): every mutation is written to a
    CRC-framed write-ahead log, :meth:`checkpoint` snapshots the full
    state and truncates the log, and :meth:`open` recovers tables,
    indexes, the auth-view registry, and the policy-epoch/data-version
    counters after a crash.
    """

    def __init__(self, data_dir: Optional[str] = None,
                 durability_sync: str = "group"):
        self.catalog = Catalog()
        self._tables: dict[str, Table] = {}
        self.grants = GrantRegistry()
        #: AUTHORIZE policies (Section 4.4), managed by UpdateAuthorizer
        from repro.updates.authorize import UpdateAuthorizer

        self.update_authorizer = UpdateAuthorizer(self)
        #: Truman model: table name (lower) -> authorization view name
        self.truman_policy: dict[str, str] = {}
        #: VPD-style predicate policies (per-table WHERE fragments)
        from repro.truman.vpd import VpdPolicySet

        self.vpd_policies = VpdPolicySet()
        #: lazily-created validity checker (Non-Truman model)
        self._checker = None
        #: validity-decision cache (Section 5.6 optimization); shared
        #: across sessions, keyed on (user, query signature)
        from repro.nontruman.cache import ValidityCache

        self.validity_cache = ValidityCache()
        self.checker_options: dict[str, object] = {}
        #: prepared-statement template cache (paper Section 5.6); always
        #: populated lazily, consulted by the gateway and by
        #: ``execute_query(prepared=True)``
        from repro.prepared import PreparedStatementCache

        self.prepared = PreparedStatementCache(self)
        #: undo log for the active transaction (None = autocommit)
        self._txn_log: Optional[list[tuple]] = None
        #: ANALYZE snapshot for the optimizer's cost model
        from repro.optimizer.statistics import TableStatistics

        self.statistics = TableStatistics(self)
        #: execution engine used when no per-query override is given:
        #: "row" (tuple-at-a-time oracle) or "vectorized" (columnar)
        self.default_engine = "row"
        #: ReBAC subsystem (repro.rebac); set by attach_rebac
        self.rebac = None
        #: durability manager (repro.durability); None = in-memory
        self.durability = None
        if data_dir is not None:
            self._attach_durability(data_dir, sync=durability_sync)

    # -- durability lifecycle ---------------------------------------------

    @classmethod
    def open(cls, data_dir: str, sync: str = "group",
             injector: Optional[object] = None) -> "Database":
        """Open (or create) a durable database rooted at ``data_dir``.

        If the directory holds durable state, the latest valid snapshot
        is loaded and the WAL tail replayed (a torn final record is
        detected by CRC and truncated, never applied).  Otherwise an
        empty durable database is initialized there.
        """
        db = cls()
        db._attach_durability(data_dir, sync=sync, injector=injector)
        return db

    def save(self, data_dir: str, sync: str = "group") -> None:
        """Attach durable storage to this in-memory database.

        Writes an initial checkpoint of the current state to
        ``data_dir``; subsequent mutations are logged.  Refuses to save
        over a directory that already holds durable data.
        """
        from repro.durability.layout import has_durable_data

        if has_durable_data(data_dir):
            raise DurabilityError(
                f"{data_dir!r} already holds durable data; open it with "
                "Database.open or choose an empty directory"
            )
        self._attach_durability(data_dir, sync=sync)

    def _attach_durability(self, data_dir: str, sync: str = "group",
                           injector: Optional[object] = None) -> None:
        if self.durability is not None:
            raise DurabilityError(
                f"database is already durable at {self.durability.data_dir!r}"
            )
        from repro.durability.manager import DurabilityManager

        DurabilityManager(
            data_dir, sync_policy=sync, injector=injector
        ).attach(self)

    def checkpoint(self) -> int:
        """Snapshot all state + truncate the WAL; returns the LSN."""
        if self.durability is None:
            raise DurabilityError(
                "checkpoint requires a durable database "
                "(Database.open or save first)"
            )
        return self.durability.checkpoint()

    def close(self, checkpoint: bool = True) -> None:
        """Flush and close durable storage (no-op when in-memory)."""
        if self.durability is not None:
            self.durability.close(checkpoint=checkpoint)

    def _durable_commit(self) -> None:
        """Group-commit the WAL when durable and not inside BEGIN."""
        if self.durability is not None and self._txn_log is None:
            self.durability.commit()

    # -- connections ------------------------------------------------------

    def connect(self, user_id: Optional[object] = None, mode: str = "open",
                **extra) -> Connection:
        if mode not in MODES:
            raise AccessControlError(f"unknown access-control mode {mode!r}")
        time = extra.pop("time", None)
        location = extra.pop("location", None)
        session = SessionContext(
            user_id=user_id, time=time, location=location, extra=extra
        )
        return Connection(self, session, mode)

    def serve(self, **kwargs) -> "object":
        """Start a concurrent enforcement gateway over this database.

        Keyword arguments are forwarded to
        :class:`repro.service.EnforcementGateway` (``workers``,
        ``queue_size``, ``cache_shards``, ...).  The caller owns the
        gateway and should ``shutdown()`` it (or use it as a context
        manager).
        """
        from repro.service import EnforcementGateway

        return EnforcementGateway(self, **kwargs)

    # -- storage access ------------------------------------------------------

    def table(self, name: str) -> Table:
        table = self._tables.get(name.lower())
        if table is None:
            raise UnknownTableError(name)
        return table

    # -- script / statement execution -------------------------------------------

    def execute_script(self, sql: str) -> None:
        """Execute a ``;``-separated script of statements (open mode)."""
        for statement in parse_statements(sql):
            self.execute(statement)

    def execute(
        self,
        sql: Union[str, ast.Statement],
        session: Optional[SessionContext] = None,
        mode: str = "open",
        access_params: Optional[Mapping[str, object]] = None,
        sync: bool = True,
    ) -> object:
        """Execute any statement; returns a Result for queries, a count
        for DML, None for DDL.

        When durable, non-query statements are group-committed (WAL
        fsync) before returning unless ``sync=False`` — concurrent
        callers (the gateway) pass False and issue one shared
        :meth:`DurabilityManager.commit` per batch instead.
        """
        statement = parse_statement(sql) if isinstance(sql, str) else sql
        session = session or SessionContext()

        if isinstance(statement, ast.QueryExpr):
            return self.execute_query(
                statement, session=session, mode=mode, access_params=access_params
            )
        result = self._execute_statement(statement, session, mode)
        if sync:
            self._durable_commit()
        return result

    def _execute_statement(
        self, statement: ast.Statement, session: SessionContext, mode: str
    ) -> object:
        if isinstance(statement, ast.CreateTable):
            return self._create_table(statement)
        if isinstance(statement, ast.CreateView):
            self._create_view(statement)
            self._log_ddl(statement)
            return None
        if isinstance(statement, ast.DropStmt):
            if statement.kind == "table":
                self.catalog.drop_table(statement.name)
                self._tables.pop(statement.name.lower(), None)
            else:
                self.catalog.drop_view(statement.name)
            self.prepared.invalidate_relation(statement.name)
            self._log_ddl(statement)
            return None
        if isinstance(statement, ast.Grant):
            return self.grant(statement.object_name, to_user=statement.grantee)
        if isinstance(statement, ast.AuthorizeStmt):
            self.update_authorizer.add_policy(statement)
            self._log_ddl(statement)
            return None
        if isinstance(statement, ast.TransactionStmt):
            return self._transaction(statement.action)
        if isinstance(statement, ast.Insert):
            return self._insert(statement, session, mode)
        if isinstance(statement, ast.Update):
            return self._update(statement, session, mode)
        if isinstance(statement, ast.Delete):
            return self._delete(statement, session, mode)
        raise UnsupportedFeatureError(
            f"cannot execute statement {type(statement).__name__}"
        )

    def _log_ddl(self, statement: ast.Statement) -> None:
        if self.durability is not None:
            self.durability.log_ddl(render(statement))

    # -- DDL ------------------------------------------------------------------

    def _make_table(self, schema) -> Table:
        """Storage for one relation; the cluster coordinator overrides
        this to hash-partition the rows across its storage nodes."""
        return Table(schema)

    def _create_table(self, statement: ast.CreateTable) -> None:
        schema = self.catalog.create_table_from_ast(statement)
        table = self._make_table(schema)
        pk = self.catalog.primary_key(schema.name)
        if pk is not None:
            table.create_index(pk.columns, unique=True)
        for unique in self.catalog.uniques_for(schema.name):
            table.create_index(unique.columns, unique=True)
        self._tables[schema.name.lower()] = table
        self.prepared.invalidate_relation(schema.name)
        if self.durability is not None:
            self._log_ddl(statement)
            self.durability.register_table(table)

    def _create_view(self, statement: ast.CreateView) -> None:
        view = ViewDef(
            name=statement.name,
            query=statement.query,
            authorization=statement.authorization,
            column_names=statement.column_names,
        )
        self.catalog.create_view(view)
        self.prepared.invalidate_relation(statement.name)

    def grant(self, view_name: str, to_user: str, grantor: Optional[str] = None) -> None:
        """GRANT SELECT on an authorization view (PUBLIC = everyone)."""
        if not self.catalog.has_view(view_name):
            raise GrantError(f"no view named {view_name!r}")
        self.grants.grant(view_name, to_user, grantor)
        self.prepared.invalidate_user(to_user)
        self._durable_commit()

    def grant_public(self, view_name: str) -> None:
        self.grant(view_name, PUBLIC)

    def add_participation_constraint(self, constraint: TotalParticipation) -> None:
        """Declare a total-participation integrity constraint (used by U3)."""
        self.catalog.add_participation(constraint)
        if self.durability is not None:
            self.durability.log_participation(constraint)

    def set_truman_view(self, table_name: str, view_name: str) -> None:
        """Truman model: DBA maps a base table to its per-user view."""
        if not self.catalog.has_table(table_name):
            raise UnknownTableError(table_name)
        if not self.catalog.has_view(view_name):
            raise UnknownTableError(view_name)
        self.truman_policy[table_name.lower()] = view_name
        self.prepared.invalidate_relation(table_name)
        if self.durability is not None:
            self.durability.log_truman(table_name.lower(), view_name)

    # -- authorization views available to a user -----------------------------------

    def available_views(self, session: SessionContext) -> list[InstantiatedView]:
        """The user's instantiated authorization views (Section 4.1)."""
        result = []
        for view in self.catalog.views():
            if not view.authorization:
                continue
            if not self.grants.is_granted(view.name, session.user):
                continue
            result.append(AuthorizationView.from_def(view).instantiate(session))
        return result

    # -- query execution -------------------------------------------------------

    def execute_query(
        self,
        sql: Union[str, ast.QueryExpr],
        session: Optional[SessionContext] = None,
        mode: str = "open",
        access_params: Optional[Mapping[str, object]] = None,
        engine: Optional[str] = None,
        ctx=None,
        prepared: Optional[bool] = None,
    ) -> Result:
        """Run a query under the given access-control mode through the
        staged pipeline (:mod:`repro.pipeline`).

        ``prepared=True`` serves it from a prepared template (paper
        §5.6) with the template's own decision cache; queries a template
        cannot serve identically fall back to a fresh parse → check →
        plan transparently.  Errors propagate: an invalid Non-Truman
        query raises :class:`~repro.errors.QueryRejectedError` carrying
        its decision.
        """
        from repro.pipeline import (
            PREPARABLE_MODES,
            TEMPLATE_DECISIONS,
            QueryRun,
            resolve,
            run_query,
        )

        preparable = (
            bool(prepared) and not access_params and mode in PREPARABLE_MODES
        )
        statement, resolved = resolve(self, sql, preparable)
        if statement is not None and not isinstance(statement, ast.QueryExpr):
            raise BindError("execute_query requires a SELECT statement")
        run = QueryRun(
            self,
            session or SessionContext(),
            mode,
            statement,
            resolved,
            decisions=TEMPLATE_DECISIONS,
            engine=engine,
            ctx=ctx,
            access_params=access_params,
        )
        return run_query(run)

    def check_validity(
        self,
        sql: Union[str, ast.QueryExpr],
        session: Optional[SessionContext] = None,
        ctx=None,
    ):
        """Run the Non-Truman validity test; returns a ValidityDecision.

        ``ctx`` (a :class:`repro.service.context.QueryContext`) makes the
        inference cooperative: the matcher's cover search observes the
        request's deadline/cancel token and aborts mid-inference.
        """
        from repro.nontruman.checker import ValidityChecker

        query = parse_statement(sql) if isinstance(sql, str) else sql
        if not isinstance(query, ast.QueryExpr):
            raise BindError("check_validity requires a SELECT statement")
        session = session or SessionContext()
        checker = ValidityChecker(self, **self.checker_options)
        return checker.check(query, session, ctx=ctx)

    def _plan(
        self, query: ast.QueryExpr, session: SessionContext, **options
    ) -> ops.Operator:
        """Translate ``query`` (authorization views filtered by the
        session's grants) and push selections: the plan run_plan runs."""

        def view_ok(view: ViewDef) -> bool:
            if not view.authorization:
                return True
            return self.grants.is_granted(view.name, session.user)

        translator = Translator(
            self.catalog,
            param_values=session.param_values(),
            view_filter=view_ok,
            **options,
        )
        from repro.algebra.rewrite import push_selections
        from repro.instrument import COUNTERS

        COUNTERS.bump("plan.build")
        return push_selections(translator.translate(query))

    def plan_query(
        self,
        query: ast.QueryExpr,
        session: SessionContext,
        access_params: Optional[Mapping[str, object]] = None,
    ) -> ops.Operator:
        """Bind and translate a query to a selection-pushed plan."""
        return self._plan(query, session, access_param_values=access_params)

    def plan_template(
        self, query: ast.QueryExpr, session: SessionContext
    ) -> ops.Operator:
        """Plan a literal-stripped query *skeleton* (repro.prepared):
        like :meth:`plan_query` but ``$$_litN`` placeholders survive
        translation so literals can be bound into the plan later
        (pushdown is structure-only, so it commutes with binding)."""
        return self._plan(query, session, allow_access_params=True)

    def run_plan(
        self,
        plan: ops.Operator,
        session: Optional[SessionContext] = None,
        access_params: Optional[Mapping[str, object]] = None,
        engine: Optional[str] = None,
        ctx=None,
        compile_cache=None,
    ) -> Result:
        """Execute a logical plan as given (:meth:`plan_query` and
        :meth:`plan_template` return selection-pushed plans).

        ``compile_cache`` lets the vectorized engine reuse compiled
        kernels across executions of the same template.
        """
        session = session or SessionContext()
        engine = engine or self.default_engine
        if engine not in ENGINES:
            raise ExecutionError(
                f"unknown execution engine {engine!r} (expected one of {ENGINES})"
            )
        return self._execute_plan(
            plan, session, access_params, engine, ctx, compile_cache
        )

    def _execute_plan(
        self, plan, session, access_params, engine, ctx, compile_cache
    ) -> Result:
        """Run a plan on a known engine; the cluster coordinator
        overrides this to scatter aggregates across its shards."""
        executor = make_executor(
            engine,
            _QueryContext(self, session, access_params),
            ctx=ctx,
            compile_cache=compile_cache,
        )
        rows = executor.execute(plan)
        return Result(tuple(c.name for c in plan.columns), rows)

    # -- DML with integrity + update authorization --------------------------------

    def _eval_const(self, expr: ast.Expr, session: SessionContext) -> object:
        from repro.algebra import expr as exprs

        bound = exprs.substitute_params(expr, session.param_values())
        evaluator = Evaluator(RowResolver(()))
        return evaluator.evaluate(bound, ())

    def _insert(self, statement: ast.Insert, session: SessionContext, mode: str) -> int:
        self.validity_cache.invalidate_data()
        table = self.table(statement.table)
        schema = table.schema
        if statement.query is not None:
            source = self.execute_query(statement.query, session=session, mode=mode)
            value_rows = source.rows
        else:
            value_rows = [
                tuple(self._eval_const(v, session) for v in row)
                for row in statement.rows
            ]

        count = 0
        for values in value_rows:
            if statement.columns:
                if len(values) != len(statement.columns):
                    raise ExecutionError(
                        f"INSERT has {len(values)} values for "
                        f"{len(statement.columns)} columns"
                    )
                full = [None] * len(schema.columns)
                for col_name, value in zip(statement.columns, values):
                    full[schema.column_index(col_name)] = value
                row = tuple(full)
            else:
                row = tuple(values)
            self._check_row_constraints(schema.name, row)
            if mode != "open":
                self.update_authorizer.check_insert(schema.name, row, session)
            row_id = table.insert(row)
            self._log_undo(("insert", schema.name, row_id))
            count += 1
        return count

    def _update(self, statement: ast.Update, session: SessionContext, mode: str) -> int:
        self.validity_cache.invalidate_data()
        table = self.table(statement.table)
        schema = table.schema
        binding = schema.name
        resolver = RowResolver(
            tuple(ops.OutCol(binding, c) for c in schema.column_names)
        )
        evaluator = Evaluator(resolver)
        from repro.algebra import expr as exprs

        def bind(expr: ast.Expr) -> ast.Expr:
            expr = exprs.substitute_params(expr, session.param_values())

            def visit(node):
                if isinstance(node, ast.ColumnRef) and node.table is None:
                    return ast.ColumnRef(binding, node.name)
                return None

            return exprs.transform(expr, visit)

        where = bind(statement.where) if statement.where is not None else None
        assignments = [
            (schema.column_index(col), bind(expr)) for col, expr in statement.assignments
        ]
        changed_columns = tuple(col for col, _ in statement.assignments)

        count = 0
        for row_id, row in list(table.rows_with_ids()):
            if where is not None and not evaluator.matches(where, row):
                continue
            new_row = list(row)
            for ordinal, expr in assignments:
                new_row[ordinal] = evaluator.evaluate(expr, row)
            new_tuple = tuple(new_row)
            self._check_row_constraints(schema.name, new_tuple, ignore_row_id=row_id)
            if mode != "open":
                self.update_authorizer.check_update(
                    schema.name, row, new_tuple, changed_columns, session
                )
            old = table.update_row(row_id, new_tuple)
            self._log_undo(("update", schema.name, row_id, old))
            count += 1
        return count

    def _delete(self, statement: ast.Delete, session: SessionContext, mode: str) -> int:
        self.validity_cache.invalidate_data()
        table = self.table(statement.table)
        schema = table.schema
        binding = schema.name
        resolver = RowResolver(
            tuple(ops.OutCol(binding, c) for c in schema.column_names)
        )
        evaluator = Evaluator(resolver)
        from repro.algebra import expr as exprs

        where = None
        if statement.where is not None:
            where = exprs.substitute_params(
                statement.where, session.param_values()
            )

            def visit(node):
                if isinstance(node, ast.ColumnRef) and node.table is None:
                    return ast.ColumnRef(binding, node.name)
                return None

            where = exprs.transform(where, visit)

        count = 0
        for row_id, row in list(table.rows_with_ids()):
            if where is not None and not evaluator.matches(where, row):
                continue
            self._check_no_referencing_rows(schema.name, row)
            if mode != "open":
                self.update_authorizer.check_delete(schema.name, row, session)
            deleted = table.delete_row(row_id)
            self._log_undo(("delete", schema.name, deleted))
            count += 1
        return count

    # -- transactions -----------------------------------------------------------------

    def _log_undo(self, entry: tuple) -> None:
        if self._txn_log is not None:
            self._txn_log.append(entry)

    @property
    def in_transaction(self) -> bool:
        return self._txn_log is not None

    def begin(self) -> None:
        """Start a transaction; DML until COMMIT/ROLLBACK is undoable."""
        if self._txn_log is not None:
            raise ExecutionError("a transaction is already active")
        self._txn_log = []

    def commit(self) -> None:
        if self._txn_log is None:
            raise ExecutionError("no active transaction")
        self._txn_log = None
        self._durable_commit()

    def rollback(self) -> None:
        """Undo every change made since BEGIN, in reverse order."""
        if self._txn_log is None:
            raise ExecutionError("no active transaction")
        log, self._txn_log = self._txn_log, None
        for entry in reversed(log):
            kind = entry[0]
            table = self.table(entry[1])
            if kind == "insert":
                table.delete_row(entry[2])
            elif kind == "update":
                table.update_row(entry[2], entry[3])
            elif kind == "delete":
                table.insert(entry[2])
        self.validity_cache.invalidate_data()

    def _transaction(self, action: str) -> None:
        if action == "begin":
            self.begin()
        elif action == "commit":
            self.commit()
        else:
            self.rollback()

    # -- constraint enforcement -----------------------------------------------------

    def _check_row_constraints(
        self, table_name: str, row: tuple, ignore_row_id: Optional[int] = None
    ) -> None:
        """CHECK predicates and foreign keys for one candidate row.

        NOT NULL and uniqueness are enforced by the storage layer.
        """
        schema = self.catalog.table(table_name)
        resolver = RowResolver(
            tuple(ops.OutCol(table_name, c) for c in schema.column_names)
        )
        evaluator = Evaluator(resolver)
        from repro.algebra import expr as exprs

        for check in self.catalog.checks_for(table_name):

            def visit(node):
                if isinstance(node, ast.ColumnRef) and node.table is None:
                    return ast.ColumnRef(table_name, node.name)
                return None

            predicate = exprs.transform(check.predicate, visit)
            if evaluator.evaluate(predicate, row) is False:
                raise IntegrityError(
                    f"CHECK constraint violated on {table_name}: {check.predicate}"
                )

        for fk in self.catalog.foreign_keys_for(table_name):
            key = tuple(row[schema.column_index(c)] for c in fk.columns)
            if any(v is None for v in key):
                continue
            ref_table = self.table(fk.ref_table)
            index = ref_table.find_index(fk.ref_columns)
            if index is not None:
                if index.lookup(key):
                    continue
            else:
                ref_schema = ref_table.schema
                ordinals = [ref_schema.column_index(c) for c in fk.ref_columns]
                if any(
                    tuple(r[o] for o in ordinals) == key for r in ref_table.rows()
                ):
                    continue
            raise IntegrityError(
                f"foreign key violation: {table_name}({', '.join(fk.columns)}) = "
                f"{key!r} has no match in {fk.ref_table}"
            )

    def _check_no_referencing_rows(self, table_name: str, row: tuple) -> None:
        """RESTRICT semantics: refuse to delete a referenced row."""
        schema = self.catalog.table(table_name)
        for fk in self.catalog.foreign_keys():
            if fk.ref_table.lower() != table_name.lower():
                continue
            key = tuple(row[schema.column_index(c)] for c in fk.ref_columns)
            referencing = self.table(fk.table)
            ref_schema = referencing.schema
            ordinals = [ref_schema.column_index(c) for c in fk.columns]
            for other in referencing.rows():
                if tuple(other[o] for o in ordinals) == key:
                    raise IntegrityError(
                        f"cannot delete from {table_name}: row referenced by {fk.table}"
                    )

    def analyze(self) -> None:
        """Refresh optimizer statistics (row and distinct counts)."""
        self.statistics.analyze()

    def make_optimizer(self, **kwargs):
        """A VolcanoOptimizer wired to this database's statistics."""
        from repro.optimizer import VolcanoOptimizer

        return VolcanoOptimizer(
            self.statistics.row_count,
            distinct_count=self.statistics.distinct_count,
            **kwargs,
        )

    def validate_participations(self) -> list[str]:
        """Verify every declared total-participation constraint holds.

        Returns a list of violation descriptions (empty = consistent).
        Used by tests and workload generators; these constraints are
        assertions consumed by the inference rules, not enforced on DML.
        """
        from repro.algebra import expr as exprs

        violations: list[str] = []
        for constraint in self.catalog.participations():
            core = self.table(constraint.core_table)
            remainder = self.table(constraint.remainder_table)
            core_schema = core.schema
            rem_schema = remainder.schema

            core_resolver = RowResolver(
                tuple(ops.OutCol(None, c) for c in core_schema.column_names)
            )
            rem_resolver = RowResolver(
                tuple(ops.OutCol(None, c) for c in rem_schema.column_names)
            )
            core_eval = Evaluator(core_resolver)
            rem_eval = Evaluator(rem_resolver)

            rem_rows = [
                r
                for r in remainder.rows()
                if constraint.remainder_pred is None
                or rem_eval.matches(constraint.remainder_pred, r)
            ]
            rem_ordinals = [
                rem_schema.column_index(rc) for _, rc in constraint.join_pairs
            ]
            rem_keys = {tuple(r[o] for o in rem_ordinals) for r in rem_rows}
            core_ordinals = [
                core_schema.column_index(cc) for cc, _ in constraint.join_pairs
            ]
            for row in core.rows():
                if constraint.core_pred is not None and not core_eval.matches(
                    constraint.core_pred, row
                ):
                    continue
                key = tuple(row[o] for o in core_ordinals)
                if key not in rem_keys:
                    violations.append(f"{constraint}: core row {row!r} unmatched")
        return violations
