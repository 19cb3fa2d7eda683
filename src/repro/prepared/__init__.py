"""Prepared statements (paper §5.6): compile once, bind per request.

``repro.prepared`` caches the full compiled artifact of a query —
literal-stripped skeleton AST, translated algebra plan, Non-Truman
validity decisions, and vectorized kernels — keyed on
``(signature, user, mode, session params)`` and stamped with exact
policy/DDL version counters, so a hot repeated query skips
parse → check → plan entirely while remaining observationally identical
to fresh execution.  See :mod:`repro.prepared.cache` for the
invalidation invariants.
"""

from repro.prepared.cache import PreparedStatementCache
from repro.prepared.pipeline import (
    PREPARABLE_MODES,
    decide_prepared,
    decide_signed,
    get_or_build_template,
    resolve_signature,
)
from repro.prepared.template import (
    PlanBinder,
    PlanCompileCache,
    PreparedFallback,
    PreparedTemplate,
    bind_skeleton,
    placeholder_names,
)

__all__ = [
    "PREPARABLE_MODES",
    "PlanBinder",
    "PlanCompileCache",
    "PreparedFallback",
    "PreparedStatementCache",
    "PreparedTemplate",
    "bind_skeleton",
    "decide_prepared",
    "decide_signed",
    "get_or_build_template",
    "placeholder_names",
    "resolve_signature",
]
