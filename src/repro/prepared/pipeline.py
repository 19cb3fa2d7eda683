"""The prepared plan source: signature → template → decision.

Used by the staged query pipeline (:mod:`repro.pipeline`):

* :func:`resolve_signature` — SQL text (or parsed query) to
  ``(skeleton, literals, signature_text)``, memoized per text.
* :func:`get_or_build_template` — the template-cache lookup/build.
* :func:`decide_signed` — Non-Truman decision for a signed query through
  a decision cache, served from it when the paper's §5.6 carry-over
  rule applies; :func:`decide_prepared` uses the template's own cache.

Anything a template cannot serve **identically** to the fresh path
raises :class:`~repro.prepared.template.PreparedFallback`, and the
pipeline plans from a fresh parse instead, so behavior (including error
messages) is preserved bit-for-bit.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import (
    BindError,
    CatalogError,
    ParameterError,
    UnknownTableError,
    UnsupportedFeatureError,
)
from repro.sql import ast, parse_statement, render
from repro.nontruman.cache import query_signature
from repro.nontruman.decision import ValidityDecision
from repro.prepared.template import (
    PlanBinder,
    PreparedFallback,
    PreparedTemplate,
    bind_skeleton,
    placeholder_names,
)

#: modes the pipeline serves; motro has its own bespoke path
PREPARABLE_MODES = ("open", "truman", "non-truman")


# ---------------------------------------------------------------------------
# Query introspection
# ---------------------------------------------------------------------------


def _walk_query_exprs(query: ast.QueryExpr):
    """Yield every expression node in ``query``, descending into set
    operations, derived tables, join conditions, and nested
    IN/EXISTS subqueries (unlike :func:`ast.walk_expr`)."""
    if isinstance(query, ast.SetOp):
        yield from _walk_query_exprs(query.left)
        yield from _walk_query_exprs(query.right)
        return

    def walk_expr(expr: ast.Expr):
        for node in ast.walk_expr(expr):
            yield node
            if isinstance(node, (ast.InSubquery, ast.ExistsSubquery)):
                yield from _walk_query_exprs(node.query)

    def walk_table(item: ast.TableExpr):
        if isinstance(item, ast.SubqueryRef):
            yield from _walk_query_exprs(item.query)
        elif isinstance(item, ast.JoinRef):
            yield from walk_table(item.left)
            yield from walk_table(item.right)
            if item.condition is not None:
                yield from walk_expr(item.condition)

    for item in query.items:
        if item.expr is not None:
            yield from walk_expr(item.expr)
    for from_item in query.from_items:
        yield from walk_table(from_item)
    for clause in (query.where, query.having):
        if clause is not None:
            yield from walk_expr(clause)
    for group in query.group_by:
        yield from walk_expr(group)
    for order in query.order_by:
        yield from walk_expr(order.expr)


def access_param_names(query: ast.QueryExpr) -> frozenset:
    """Names of every ``$$`` access parameter anywhere in ``query``."""
    return frozenset(
        node.name
        for node in _walk_query_exprs(query)
        if isinstance(node, ast.AccessParam)
    )


def collect_relations(db, query: ast.QueryExpr, mode: str) -> frozenset:
    """Lower-cased names of every relation the query transitively
    depends on: direct references, view-definition bodies (views are
    expanded at plan time), and Truman view substitutions."""
    names: set[str] = set()

    def add_name(name: str) -> None:
        key = name.lower()
        if key in names:
            return
        names.add(key)
        if db.catalog.has_view(key):
            walk_query(db.catalog.view(key).query)
        if mode == "truman":
            substituted = db.truman_policy.get(key)
            if substituted is not None:
                add_name(substituted)

    def walk_table(item: ast.TableExpr) -> None:
        if isinstance(item, ast.TableRef):
            add_name(item.name)
        elif isinstance(item, ast.SubqueryRef):
            walk_query(item.query)
        elif isinstance(item, ast.JoinRef):
            walk_table(item.left)
            walk_table(item.right)

    def walk_query(q: ast.QueryExpr) -> None:
        if isinstance(q, ast.SetOp):
            walk_query(q.left)
            walk_query(q.right)
            return
        for item in q.from_items:
            walk_table(item)
        for node in _walk_query_exprs(q):
            if isinstance(node, (ast.InSubquery, ast.ExistsSubquery)):
                walk_query(node.query)

    walk_query(query)
    return frozenset(names)


def params_key_for(session) -> tuple:
    """Hashable canonical form of the session's ``$param`` values (they
    are substituted into the plan at template-build time, so they are
    part of the cache key)."""
    items = tuple(sorted(session.param_values().items(), key=lambda kv: kv[0]))
    try:
        hash(items)
    except TypeError:
        raise PreparedFallback("unhashable session parameter values")
    return items


# ---------------------------------------------------------------------------
# Signature resolution (text tier)
# ---------------------------------------------------------------------------


def resolve_signature(db, source: Union[str, ast.QueryExpr]) -> tuple:
    """``(skeleton, literals, signature_text)`` for SQL text or a parsed
    query, memoizing the parse per distinct text."""
    if isinstance(source, str):
        cached = db.prepared.lookup_text(source)
        if cached is not None:
            return cached
        query = parse_statement(source)
        if not isinstance(query, ast.QueryExpr):
            raise PreparedFallback("not a query")
        skeleton, literals, signature_text = _sign_query(query)
        db.prepared.remember_text(source, skeleton, literals, signature_text)
        return skeleton, literals, signature_text
    return _sign_query(source)


def _sign_query(query: ast.QueryExpr) -> tuple:
    if access_param_names(query):
        # user-written $$ parameters (including any that could collide
        # with our _litN placeholders) go through the legacy path, which
        # raises the proper ParameterError or binds them explicitly
        raise PreparedFallback("query uses access-pattern parameters")
    skeleton, literals = query_signature(query)
    try:
        hash(skeleton)
        hash(literals)
    except TypeError:
        raise PreparedFallback("unhashable query signature")
    return skeleton, literals, render(skeleton)


# ---------------------------------------------------------------------------
# Template lookup / build
# ---------------------------------------------------------------------------


def template_key(skeleton, session, mode: str, params_key: tuple) -> tuple:
    return (skeleton, session.user, mode, params_key)


def get_or_build_template(
    db,
    skeleton,
    literals: tuple,
    session,
    mode: str,
    signature_text: Optional[str] = None,
) -> tuple:
    """Returns ``(template, hit)``; raises :class:`PreparedFallback`
    when the query cannot be templated."""
    if mode not in PREPARABLE_MODES:
        raise PreparedFallback(f"mode {mode!r} is not preparable")
    params_key = params_key_for(session)
    key = template_key(skeleton, session, mode, params_key)
    cache = db.prepared
    template = cache.lookup(key)
    if template is not None:
        if template.n_literals != len(literals):
            raise PreparedFallback("literal arity mismatch")
        return template, True
    cache.check_unpreparable(key, session.user)
    try:
        template = _build_template(
            db, skeleton, literals, session, mode, params_key, signature_text
        )
    except PreparedFallback:
        cache.note_unpreparable(key, session.user)
        raise
    cache.store(key, template)
    return template, False


def _build_template(
    db,
    skeleton,
    literals: tuple,
    session,
    mode: str,
    params_key: tuple,
    signature_text: Optional[str],
) -> PreparedTemplate:
    names = placeholder_names(len(literals))

    # Version stamps are observed *before* any compilation: a policy or
    # DDL change racing with the build leaves the template stale on
    # arrival (a later lookup re-validates and evicts), never
    # accidentally fresh.
    grant_version = db.grants.user_version(session.user)
    schema_version = db.catalog.schema_version
    vpd_version = db.vpd_policies.version
    policy_epoch = (db.grants.version, db.catalog.views_version)
    data_version = db.validity_cache.data_version

    exec_query = skeleton
    if mode == "truman":
        from repro.truman.rewrite import truman_rewrite

        try:
            exec_query = truman_rewrite(db, skeleton, session)
        except (CatalogError, BindError, ParameterError) as exc:
            raise PreparedFallback(f"truman rewrite failed: {exc}")

    extra = access_param_names(exec_query) - names
    if extra:
        # e.g. access-pattern parameters inside a substituted view body
        raise PreparedFallback(
            "access-pattern parameters survive templating: "
            + ", ".join(sorted(extra))
        )

    relations = set(collect_relations(db, skeleton, mode))
    if mode == "truman":
        relations |= collect_relations(db, exec_query, mode)
    if mode == "non-truman":
        # Decisions depend on the user's *available* authorization views
        # (and transitively on the relations those views mention), not
        # just on the relations the query names: redefining a granted
        # view can flip validity.  The granted *names* must come from
        # the grant registry, not the catalog's current view list — a
        # build racing a drop/create redefinition can observe the window
        # where the view is absent, and a template stamped without it
        # would never go stale when the view reappears.  The grant
        # record (and the per-name relation_version counter) both
        # survive that window.  Granting/revoking itself is already
        # covered by grant_version.
        granted = {
            record.view
            for record in db.grants.grants()
            if db.grants.is_granted(record.view, session.user)
        }
        for name in granted:
            relations.add(name)
            if db.catalog.has_view(name):
                view = db.catalog.view(name)
                if view.authorization:
                    relations |= collect_relations(db, view.query, mode)

    relation_versions = tuple(
        sorted((name, db.catalog.relation_version(name)) for name in relations)
    )

    try:
        plan = db.plan_template(exec_query, session)
    except (
        UnknownTableError,
        CatalogError,
        BindError,
        ParameterError,
        UnsupportedFeatureError,
    ) as exc:
        raise PreparedFallback(f"cannot plan template: {exc}")

    binder = PlanBinder(plan, names)
    if signature_text is None:
        signature_text = render(skeleton)
    template = PreparedTemplate(
        skeleton=skeleton,
        user=session.user,
        mode=mode,
        params_key=params_key,
        signature_text=signature_text,
        n_literals=len(literals),
        grant_version=grant_version,
        relation_versions=relation_versions,
        schema_version=schema_version,
        policy_epoch=policy_epoch,
        vpd_version=vpd_version,
        binder=binder,
    )
    # seed the decision data-version floor (purely informational here;
    # decisions are stamped individually on store)
    template.decisions.restore_data_version(data_version)
    return template


# ---------------------------------------------------------------------------
# Decisions and execution
# ---------------------------------------------------------------------------


def decide_signed(
    db, cache, skeleton, literals: tuple, session, ctx=None, query=None
) -> tuple:
    """``(decision, from_cache)`` for a signed query through a decision
    cache (the gateway's shared cache or a template's own, both applying
    the §5.6 carry-over rule).  A miss checks ``query`` (bound from the
    signature when not given) and stores the decision stamped with the
    data version observed before the check."""
    data_version = db.validity_cache.data_version
    cached = cache.lookup_signed(
        session.user, skeleton, literals, session.user_id,
        data_version=data_version,
    )
    if cached is not None:
        validity, reason = cached
        decision = ValidityDecision(validity=validity, reason=reason, from_cache=True)
        return decision, True
    if query is None:
        query = bind_skeleton(skeleton, literals)
    decision = db.check_validity(query, session, ctx=ctx)
    cache.store_signed(
        session.user,
        skeleton,
        literals,
        session.user_id,
        decision.validity,
        decision.reason,
        data_version=data_version,
    )
    return decision, False


def decide_prepared(
    db, template: PreparedTemplate, skeleton, literals: tuple, session, ctx=None
) -> ValidityDecision:
    """Non-Truman decision for one bound literal tuple, consulting the
    template's embedded decision cache first."""
    return decide_signed(
        db, template.decisions, skeleton, literals, session, ctx
    )[0]
