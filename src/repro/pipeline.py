"""The staged query pipeline: resolve → decide → plan/bind → execute.

Every query path runs these stages, written once: both
:meth:`repro.db.Database.execute_query` and the enforcement gateway (on
the primary or a read replica).  They enforce the paper's Non-Truman
contract (§4: a valid query runs unmodified, an invalid one is
rejected) and its §5.6 prepared-statement decisions.  Three things are
parameters of a :class:`QueryRun`, not code paths:

* the **target database** ``run.db``: the primary, or a replica's;
* the **plan source**: a prepared template when the resolve stage signed
  the query (``run.resolved``), else a fresh parse — a
  :class:`~repro.prepared.PreparedFallback` from the template lookup
  drops to the fresh source;
* the **decision cache** ``run.decisions``: the gateway's shared cache,
  :data:`TEMPLATE_DECISIONS` (the template's own), or None.

The stages raise typed errors (:class:`~repro.errors.QueryRejectedError`
carrying the decision, any other :class:`~repro.errors.ReproError`);
the caller propagates them or maps them to statuses.  An optional
``hook(stage, run)`` is called at the ``"decide"`` and ``"plan"`` stage
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from repro.errors import AccessControlError, QueryRejectedError
from repro.motro.model import motro_query
from repro.nontruman.cache import query_signature
from repro.nontruman.decision import ValidityDecision
from repro.prepared.pipeline import (
    PREPARABLE_MODES,
    decide_signed,
    get_or_build_template,
    resolve_signature,
)
from repro.prepared.template import PreparedFallback, bind_skeleton
from repro.sql import ast, parse_statement, render
from repro.truman.rewrite import truman_rewrite

#: ``QueryRun.decisions`` value selecting the prepared template's own
#: decision cache (no cache when the plan source is a fresh parse)
TEMPLATE_DECISIONS = "template"


def resolve(db, source, preparable: bool) -> tuple:
    """Resolve stage: SQL text or a parsed statement → ``(statement,
    resolved)``.

    ``resolved`` is the literal-stripped ``(skeleton, literals,
    signature_text)`` of a query when ``preparable``, and selects the
    template plan source.  ``statement`` is None when the text tier
    already knew the text: a repeated query string is not parsed again.
    Parse errors propagate.
    """
    if preparable and isinstance(source, str):
        resolved = db.prepared.lookup_text(source)
        if resolved is not None:
            return None, resolved
    statement = parse_statement(source) if isinstance(source, str) else source
    if preparable and isinstance(statement, ast.QueryExpr):
        try:
            resolved = resolve_signature(db, statement)
        except PreparedFallback:
            return statement, None
        if isinstance(source, str):
            db.prepared.remember_text(source, *resolved)
        return statement, resolved
    return statement, None


def audit_signature(statement, resolved: Optional[tuple], sql: str) -> str:
    """What the audit log records for a resolved request: the rendered
    literal-stripped skeleton of a query, the raw text of anything
    else."""
    if resolved is not None:
        return resolved[2]
    if isinstance(statement, ast.QueryExpr):
        return render(query_signature(statement)[0])
    return sql


@dataclass(eq=False)
class QueryRun:
    """One query's trip through the stages: its parameters, then what
    each stage found (read back by the gateway to build a response)."""

    db: object
    session: object
    mode: str
    #: the parsed query; None until bound from ``resolved`` on demand
    _query: Optional[ast.QueryExpr] = None
    resolved: Optional[tuple] = None
    decisions: object = None
    engine: Optional[str] = None
    ctx: object = None
    access_params: Optional[Mapping[str, object]] = None
    #: name of the read replica serving the run (None = primary)
    replica: Optional[str] = None
    #: the query to plan fresh: the Truman rewrite, else the query
    executable: Optional[ast.QueryExpr] = None
    template: object = None
    template_hit: bool = False
    #: True when the template lookup fell back to a fresh parse
    fallback: bool = False
    decision: Optional[ValidityDecision] = None
    #: True when the decision came from ``decisions``
    cache_hit: bool = False
    result: object = None

    @property
    def query(self) -> ast.QueryExpr:
        """The parsed query, bound from the signature on first use (a
        hot template hit never needs it)."""
        if self._query is None:
            skeleton, literals, _ = self.resolved
            self._query = bind_skeleton(skeleton, literals)
        return self._query


def run_query(run: QueryRun, hook: Optional[Callable] = None):
    """Run the decide → plan/bind → execute stages; returns the Result."""
    if run.resolved is not None:
        skeleton, literals, signature_text = run.resolved
        try:
            run.template, run.template_hit = get_or_build_template(
                run.db, skeleton, literals, run.session, run.mode, signature_text
            )
        except PreparedFallback:
            run.fallback = True
    if hook is not None:
        hook("decide", run)
    _decide(run)
    if hook is not None:
        hook("plan", run)
    if run.mode == "motro":
        # Motro's masking restricts the query and answers it itself
        run.result = motro_query(run.db, run.query, run.session)
        return run.result
    compile_cache = None
    if run.template is not None:
        plan = run.template.binder.bind(run.resolved[1])
        compile_cache = run.template.compile_cache
    else:
        query = run.query if run.executable is None else run.executable
        plan = run.db.plan_query(query, run.session, run.access_params)
    run.result = run.db.run_plan(
        plan,
        run.session,
        run.access_params,
        run.engine,
        run.ctx,
        compile_cache=compile_cache,
    )
    return run.result


def _decide(run: QueryRun) -> None:
    """Decide stage: the Non-Truman decision (raising
    :class:`QueryRejectedError` for an invalid query) or the Truman
    rewrite; open and Motro queries pass through."""
    mode = run.mode
    if mode == "non-truman":
        cache = run.decisions
        if cache is TEMPLATE_DECISIONS:
            cache = None if run.template is None else run.template.decisions
        if cache is None:
            run.decision = run.db.check_validity(run.query, run.session, ctx=run.ctx)
        else:
            if run.resolved is not None:
                skeleton, literals, _ = run.resolved
            else:
                skeleton, literals = query_signature(run._query)
            run.decision, run.cache_hit = decide_signed(
                run.db, cache, skeleton, literals, run.session, run.ctx,
                query=run._query,
            )
        if not run.decision.valid:
            raise QueryRejectedError(
                f"query rejected by Non-Truman model: {run.decision.reason}",
                decision=run.decision,
            )
    elif mode == "truman":
        if run.template is None:
            run.executable = truman_rewrite(run.db, run.query, run.session)
    elif mode not in ("open", "motro"):
        raise AccessControlError(f"unknown access-control mode {mode!r}")
