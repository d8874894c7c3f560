"""The optimizer driver: rewrite, choose.

``optimize_plan`` is the whole pipeline for one planned query: take the
planner's naive tree with the caller's catalogue knowledge bound on its
scan, run every rule in the static table (each rule's rewrite survives
only if the cost model prices it strictly cheaper), then have the
chooser compare the final tree against the naive baseline — if
rewriting did not help, the baseline tree ships unchanged
(``fallback=True``).  The result is the same :class:`Plan` with the
chosen tree as its root and the :class:`OptimizerInfo` decision record
that ``ServerReport`` and ``repro explain`` surface.

Executors build themselves from whichever tree they are handed, and a
rewrite never changes what a plan computes: pushdown and pruning are
already how the executor behaves (filters run first, the server only
materializes referenced columns), so those rules alter the *estimate*
and the rendering; cascade ordering and run fusion alter the execution
strategy.  The differential oracle's optimized leg holds every chosen
tree to bit-equality with its naive twin.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..core.calibration import CalibrationTable
from ..sql.planner import Planner
from ..stream.schema import Schema
from .binder import schema_infos
from .cost import CostContext, plan_cost
from .explain import plan_digest
from .info import MorphDecision, OptimizerInfo
from .logical import (
    ColumnInfo,
    LogicalNode,
    MorphNode,
    Plan,
    ScanNode,
    iter_nodes,
    transform,
)
from .rules import RULES


@dataclass
class OptimizeResult:
    """Everything one optimization pass produced."""

    plan: Plan                  # the plan to execute: chosen tree + decision
    baseline_root: LogicalNode  # the naive tree, catalogue knowledge bound

    @property
    def root(self) -> LogicalNode:
        return self.plan.root

    @property
    def info(self) -> OptimizerInfo:
        assert self.plan.opt is not None
        return self.plan.opt


def _with_infos(root: LogicalNode, infos: Mapping[str, ColumnInfo]) -> LogicalNode:
    """The tree with every scan's column infos taken from ``infos``."""

    def visit(node: LogicalNode) -> LogicalNode:
        if not isinstance(node, ScanNode):
            return node
        return dataclasses.replace(
            node,
            infos=tuple(infos.get(n, ColumnInfo(name=n)) for n in node.columns),
        )

    return transform(root, visit)


def optimize_plan(
    plan: Plan,
    infos: Optional[Mapping[str, ColumnInfo]] = None,
    rows: int = 4096,
    calibration: Optional[CalibrationTable] = None,
) -> OptimizeResult:
    """Rewrite and choose the tree of one naive plan."""
    if infos is None:
        infos = schema_infos(plan.schema)
    ctx = CostContext(infos=infos, rows=rows, calibration=calibration)
    baseline = _with_infos(plan.root, infos)
    baseline_cost = plan_cost(baseline, ctx)

    root = baseline
    all_firings = []
    for rule in RULES:
        root, firings = rule.apply(root, ctx)
        all_firings.extend(firings)

    estimated_cost = plan_cost(root, ctx)
    fallback = not all_firings or estimated_cost >= baseline_cost
    if fallback:
        root = baseline
        estimated_cost = baseline_cost
        all_firings = []

    rules_fired = []
    for firing in all_firings:
        if firing.rule not in rules_fired:
            rules_fired.append(firing.rule)

    morphs = tuple(
        MorphDecision(
            column=n.column, from_codec=n.from_codec, to_codec=n.to_codec
        )
        for n in iter_nodes(root)
        if isinstance(n, MorphNode)
    )

    info = OptimizerInfo(
        rules_fired=tuple(rules_fired),
        firings=tuple(all_firings),
        estimated_cost=estimated_cost,
        baseline_cost=baseline_cost,
        plan_digest=plan_digest(root),
        fallback=fallback,
        morphs=morphs,
    )
    return OptimizeResult(
        plan=dataclasses.replace(plan, root=root, opt=info),
        baseline_root=baseline,
    )


def plan_for_engine(
    catalog: Dict[str, Schema],
    query: str,
    optimize: bool = True,
    codec_hint: str = "",
    calibration: Optional[CalibrationTable] = None,
) -> Plan:
    """Plan and (by default) optimize a query for the engine.

    ``codec_hint`` names a pinned codec (the engine's ``static:<name>``
    modes) so the rules can price run/plane representations; adaptive
    modes pass no hint and rules that need run evidence refuse.
    """
    plan = Planner(catalog).plan_text(query)
    if not optimize:
        return plan
    infos = schema_infos(plan.schema, codec_hint=codec_hint)
    return optimize_plan(plan, infos, calibration=calibration).plan
