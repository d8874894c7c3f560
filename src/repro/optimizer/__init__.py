"""Compression-aware query optimizer: logical IR, rewrite rules, chooser.

The planner emits the naive logical tree (:mod:`.logical`); ``RULES``
rewrite it (cost-gated: projection pruning, predicate pushdown,
selection reordering, filter+aggregate run fusion, common-subplan
sharing, format morphing), and a chooser keeps the naive tree whenever
rewriting is not estimated cheaper.  The executors run whichever tree
comes out.  See ``docs/optimizer.md``.
"""

from .binder import schema_infos, stats_from_columns
from .cost import CostContext, plan_cost, predicate_columns
from .explain import plan_digest, render_json, render_text
from .info import MorphDecision, OptimizerInfo, RuleFiring
from .logical import (
    ColumnInfo,
    DeriveNode,
    FilterNode,
    JoinNode,
    JoinSide,
    LogicalNode,
    MorphNode,
    OrderLimitNode,
    Plan,
    ProjectNode,
    ScanNode,
    WindowAggNode,
    find_node,
    iter_nodes,
    transform,
    where_of,
)
from .optimizer import OptimizeResult, optimize_plan, plan_for_engine
from .rules import (
    RULES,
    CommonSubplanSharing,
    FilterAggFusion,
    FormatMorph,
    PredicatePushdown,
    ProjectionPrune,
    RewriteRule,
    SelectionReorder,
    simplify_predicate,
)

__all__ = [
    "CostContext",
    "ColumnInfo",
    "CommonSubplanSharing",
    "DeriveNode",
    "FilterAggFusion",
    "FilterNode",
    "FormatMorph",
    "JoinNode",
    "JoinSide",
    "LogicalNode",
    "MorphDecision",
    "MorphNode",
    "OptimizeResult",
    "OptimizerInfo",
    "OrderLimitNode",
    "Plan",
    "PredicatePushdown",
    "ProjectionPrune",
    "ProjectNode",
    "RewriteRule",
    "RuleFiring",
    "RULES",
    "ScanNode",
    "SelectionReorder",
    "WindowAggNode",
    "find_node",
    "iter_nodes",
    "optimize_plan",
    "plan_cost",
    "plan_digest",
    "plan_for_engine",
    "predicate_columns",
    "render_json",
    "render_text",
    "schema_infos",
    "simplify_predicate",
    "stats_from_columns",
    "transform",
    "where_of",
]
