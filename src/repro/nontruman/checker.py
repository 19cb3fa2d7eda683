"""The Non-Truman validity checker (paper Sections 4-5).

Given a user query and a session, the checker decides whether the query
is **unconditionally valid** (Definition 4.1), **conditionally valid**
in the current database state (Definition 4.3), or invalid — in which
case the Non-Truman model rejects it.

Architecture:

1. the query is bound against the catalog; references to *granted*
   authorization views stay as :class:`~repro.algebra.ops.ViewRel`
   scans (rule U1), references to base tables must be justified;
2. set operations, ORDER BY, and LIMIT are handled structurally (rules
   U2/C2: an expression combining valid queries is valid);
3. SPJ and aggregate blocks are matched against the user's instantiated
   authorization views by :class:`~repro.nontruman.matching.BlockMatcher`
   (rules U2, U3a/b/c, C3a/b), recursively for derived tables and
   probe queries;
4. accepted queries carry an executable *witness* rewriting over view
   scans plus a rule-by-rule derivation trace.

Options mirror the paper's Section 5.6 optimizations: ``use_pruning``
(irrelevant-view elimination), ``use_cache`` (decision caching /
prepared statements), ``allow_conditional`` and ``allow_u3`` (rule-tier
ablations for experiment E7).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import (
    BindError,
    CatalogError,
    ParameterError,
    ReproError,
    UnsupportedFeatureError,
)
from repro.sql import ast
from repro.algebra import ops
from repro.algebra.rewrite import push_selections
from repro.algebra.translate import Translator
from repro.authviews.session import SessionContext
from repro.authviews.views import InstantiatedView
from repro.catalog.catalog import ViewDef
from repro.nontruman.blocks import AggBlock, BlockBuilder, SPJBlock
from repro.nontruman.decision import RuleApplication, Validity, ValidityDecision
from repro.nontruman.matching import BlockMatcher, CandidateView, Rewriting
from repro.nontruman.pruning import prune_views

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database


class ValidityChecker:
    """Decides query validity for one database."""

    def __init__(
        self,
        db: "Database",
        use_pruning: bool = True,
        use_cache: bool = False,
        allow_conditional: bool = True,
        allow_u3: bool = True,
        max_depth: int = 4,
        max_cover_nodes: int = 20000,
        enable_dependent_joins: bool = True,
        enable_overlap_covers: bool = True,
        enable_reaggregation: bool = True,
    ):
        self.db = db
        self.use_pruning = use_pruning
        self.use_cache = use_cache
        self.allow_conditional = allow_conditional
        self.allow_u3 = allow_u3
        self.max_depth = max_depth
        self.max_cover_nodes = max_cover_nodes
        self.enable_dependent_joins = enable_dependent_joins
        self.enable_overlap_covers = enable_overlap_covers
        self.enable_reaggregation = enable_reaggregation
        #: instrumentation for benchmarks
        self.views_considered = 0
        self.views_pruned = 0

    # ------------------------------------------------------------------

    def check(
        self,
        query: ast.QueryExpr,
        session: SessionContext,
        ctx=None,
    ) -> ValidityDecision:
        """Decide validity; ``ctx`` (a
        :class:`repro.service.context.QueryContext`) makes the inference
        cooperative — the matcher's cover search ticks it, so a
        deadline/cancel aborts *mid-inference* and nothing is cached.
        """
        from repro.instrument import COUNTERS

        COUNTERS.bump("validity.check")
        if self.use_cache:
            cached = self.db.validity_cache.lookup(
                session.user, query, session.user_id
            )
            if cached is not None:
                validity, reason = cached
                return ValidityDecision(
                    validity=validity, reason=reason, from_cache=True
                )

        decision = self._check_fresh(query, session, ctx)

        if self.use_cache:
            self.db.validity_cache.store(
                session.user, query, session.user_id, decision.validity, decision.reason
            )
        return decision

    def _check_fresh(
        self, query: ast.QueryExpr, session: SessionContext, ctx=None
    ) -> ValidityDecision:
        try:
            plan = self._bind(query, session)
        except (CatalogError, BindError, ParameterError, UnsupportedFeatureError) as exc:
            return ValidityDecision(
                validity=Validity.INVALID, reason=f"cannot bind query: {exc}"
            )

        views = self._candidate_views(query, session)
        matcher = BlockMatcher(
            catalog=self.db.catalog,
            views=views,
            probe_runner=lambda p: self._run_probe(p, session, ctx),
            subcheck=lambda p: None,  # replaced below (needs matcher ref)
            user=session.user,
            max_cover_nodes=self.max_cover_nodes,
            allow_conditional=self.allow_conditional,
            allow_u3=self.allow_u3,
            enable_dependent_joins=self.enable_dependent_joins,
            enable_overlap_covers=self.enable_overlap_covers,
            enable_reaggregation=self.enable_reaggregation,
            ctx=ctx,
        )
        matcher.subcheck = lambda p, depth=[0]: self._subcheck(p, matcher, depth)

        rewriting = self._rewrite_plan(plan, matcher, depth=0)
        if rewriting is None:
            return ValidityDecision(
                validity=Validity.INVALID,
                reason=(
                    "no rewriting in terms of the available authorization "
                    "views was found (rules U1-U3, C1-C3)"
                ),
            )
        validity = (
            Validity.CONDITIONAL if rewriting.conditional else Validity.UNCONDITIONAL
        )
        return ValidityDecision(
            validity=validity,
            reason="query answerable from authorization views",
            witness=rewriting.witness,
            trace=rewriting.trace,
            views_used=rewriting.views_used,
            probes_executed=rewriting.probes_executed,
        )

    # -- binding -----------------------------------------------------------

    def _bind(self, query: ast.QueryExpr, session: SessionContext) -> ops.Operator:
        def view_ok(view: ViewDef) -> bool:
            if not view.authorization:
                return True  # ordinary views are expanded inline
            return self.db.grants.is_granted(view.name, session.user)

        translator = Translator(
            self.db.catalog,
            param_values=session.param_values(),
            view_filter=view_ok,
            keep_view_scans=True,
            allow_access_params=True,
        )
        return translator.translate(query)

    # -- candidate views --------------------------------------------------------

    def _candidate_views(
        self, query: ast.QueryExpr, session: SessionContext
    ) -> list[CandidateView]:
        from repro.authviews.views import AuthorizationView

        # Prune on the raw stored definitions BEFORE instantiation — the
        # whole point of the §5.6 optimization is to avoid per-view work
        # for views that cannot participate.
        granted = [
            view_def
            for view_def in self.db.catalog.views()
            if view_def.authorization
            and self.db.grants.is_granted(view_def.name, session.user)
        ]
        self.views_considered = len(granted)
        if self.use_pruning:
            granted = prune_views(granted, query)
        self.views_pruned = self.views_considered - len(granted)

        candidates: list[CandidateView] = []
        for view_def in granted:
            try:
                instantiated = AuthorizationView.from_def(view_def).instantiate(
                    session
                )
            except ReproError:
                continue
            candidate = self._blockify_view(instantiated, session)
            if candidate is not None:
                candidates.append(candidate)
        return candidates

    def _blockify_view(
        self, instantiated: InstantiatedView, session: SessionContext
    ) -> Optional[CandidateView]:
        translator = Translator(
            self.db.catalog,
            param_values=session.param_values(),
            view_filter=lambda v: not v.authorization,  # no view nesting
            allow_access_params=True,
        )
        try:
            plan = translator.translate(instantiated.query)
        except ReproError:
            return None
        column_names = instantiated.definition.column_names
        if column_names:
            if len(column_names) != len(plan.columns):
                return None
            plan = ops.Project(
                plan,
                tuple(
                    (col.ref(), name)
                    for col, name in zip(plan.columns, column_names)
                ),
            )
        builder = BlockBuilder()
        block = builder.to_query_form(plan)
        if block is None:
            return None
        if isinstance(block, SPJBlock) and any(
            t.kind != "table" for t in block.tables
        ):
            return None
        output_names = tuple(c.name for c in plan.columns)
        if isinstance(block, SPJBlock) and len(block.outputs) != len(output_names):
            return None
        return CandidateView(
            name=instantiated.name, block=block, output_names=output_names
        )

    # -- plan-level recursion (rules U2/C2 over query structure) ---------------------

    def _rewrite_plan(
        self, plan: ops.Operator, matcher: BlockMatcher, depth: int
    ) -> Optional[Rewriting]:
        if depth > self.max_depth:
            return None

        if isinstance(plan, ops.SetOperation):
            left = self._rewrite_plan(plan.left, matcher, depth + 1)
            if left is None:
                return None
            right = self._rewrite_plan(plan.right, matcher, depth + 1)
            if right is None:
                return None
            return Rewriting(
                witness=ops.SetOperation(plan.op, plan.all, left.witness, right.witness),
                conditional=left.conditional or right.conditional,
                trace=left.trace
                + right.trace
                + [RuleApplication("U2", f"{plan.op} of valid queries")],
                views_used=tuple(
                    dict.fromkeys(left.views_used + right.views_used)
                ),
                probes_executed=left.probes_executed + right.probes_executed,
            )
        if isinstance(plan, ops.Sort):
            child = self._rewrite_plan(plan.child, matcher, depth)
            if child is None:
                return None
            return Rewriting(
                witness=ops.Sort(child.witness, plan.keys),
                conditional=child.conditional,
                trace=child.trace,
                views_used=child.views_used,
                probes_executed=child.probes_executed,
            )
        if isinstance(plan, ops.Limit):
            child = self._rewrite_plan(plan.child, matcher, depth)
            if child is None:
                return None
            return Rewriting(
                witness=ops.Limit(child.witness, plan.limit, plan.offset),
                conditional=child.conditional,
                trace=child.trace
                + [RuleApplication("U2", "LIMIT over a valid query")],
                views_used=child.views_used,
                probes_executed=child.probes_executed,
            )

        builder = BlockBuilder(ctx=matcher.ctx)
        agg = builder.to_agg(plan)
        if agg is not None:
            return matcher.match_agg(agg)
        spj = BlockBuilder(ctx=matcher.ctx).to_spj(plan)
        if spj is not None and not self._is_nonprogress(spj, plan):
            return matcher.match_spj(spj)
        return None

    @staticmethod
    def _is_nonprogress(block: SPJBlock, plan: ops.Operator) -> bool:
        """Guard against a block that just wraps the whole plan opaquely."""
        return (
            len(block.tables) == 1
            and block.tables[0].kind == "opaque"
            and block.tables[0].subplan is plan
        )

    # -- callbacks for the matcher -----------------------------------------------

    def _subcheck(
        self, plan: ops.Operator, matcher: BlockMatcher, depth_box
    ) -> Optional[Rewriting]:
        if depth_box[0] >= self.max_depth:
            return None
        depth_box[0] += 1
        try:
            return self._rewrite_plan(plan, matcher, depth=depth_box[0])
        finally:
            depth_box[0] -= 1

    def _run_probe(
        self, plan: ops.Operator, session: SessionContext, ctx=None
    ) -> bool:
        result = self.db.run_plan(push_selections(plan), session, ctx=ctx)
        return len(result.rows) > 0
