"""The logical plan: the one tree the planner emits, the rules rewrite and
the executors run.

The planner (:mod:`repro.sql.planner`) resolves a parsed script into a
small tree of frozen nodes in SQL evaluation order — scan, filter,
window-aggregate / join / derive, project, order/limit — and wraps it in
a :class:`Plan` together with the physical input schema and the query
profile.  The optimizer rewrites the tree (every rewrite builds a new
tree via :func:`dataclasses.replace`, so a rule can never corrupt the
plan it was given; CSD008 enforces this purity statically) and the
executors build themselves from whichever tree they are handed.

The node fields carry everything execution needs (resolved output
columns including hidden HAVING/ORDER BY aggregates, join sides, the
derived stream's consumers) plus the catalogue knowledge the cost model
prices rewrites with: per-column codec hints and statistics on the scan.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterator,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from ..errors import PlanningError
from ..stream.schema import Field, Schema
from ..stream.window import WindowSpec
from .info import OptimizerInfo

if TYPE_CHECKING:  # annotation-only: keeps this module a leaf of the import graph
    from ..core.query_profile import QueryProfile
    from ..sql.ast import Expr

# ----- resolved query vocabulary ---------------------------------------

OUT_KEY = "key"        # group-by key column
OUT_LAST = "last"      # non-aggregated column under windowing: last row
OUT_AGG = "aggregate"  # avg/sum/max/min/count
OUT_COLUMN = "column"  # plain per-tuple column (passthrough)
OUT_EXPR = "expr"      # arithmetic expression per tuple


@dataclass(frozen=True)
class OutputColumn:
    """One column of the query result."""

    name: str
    kind: str
    source_column: Optional[str] = None
    agg_func: Optional[str] = None
    expr: Optional["Expr"] = None
    out_field: Field = Field("out")
    #: decimals of the *source* field: aggregates computed in the stored
    #: fixed-point domain are rescaled by 10**src_decimals at output time
    src_decimals: int = 0

    def __post_init__(self) -> None:
        if self.kind in (OUT_KEY, OUT_LAST, OUT_COLUMN) and not self.source_column:
            raise PlanningError(f"output {self.name!r} needs a source column")
        if self.kind == OUT_AGG and not self.agg_func:
            raise PlanningError(f"output {self.name!r} needs an aggregate function")
        if self.kind == OUT_EXPR and self.expr is None:
            raise PlanningError(f"output {self.name!r} needs an expression")


@dataclass(frozen=True)
class LiteralPredicate:
    """``column <op> literal`` in the stored integer domain."""

    column: str
    op: str
    literal: int


@dataclass(frozen=True)
class PredicateGroup:
    """AND/OR tree over literal predicates (evaluated as boolean masks)."""

    op: str  # "and" | "or"
    children: Tuple["PredicateNode", ...]
    #: set by the optimizer's selection-reorder rule on a top-level AND:
    #: the executor evaluates the conjuncts as a short-circuit cascade
    #: (each child sees only the survivors of the previous one), in the
    #: order given.  Only meaningful for ``op == "and"``.
    ordered: bool = False


PredicateNode = Union[LiteralPredicate, PredicateGroup]


@dataclass(frozen=True)
class HavingPredicate:
    """``<output> <op> literal`` over the converted (user-domain) results.

    ``output`` names either a select-list column or a hidden aggregate the
    planner added solely for the HAVING evaluation.
    """

    output: str
    op: str
    literal: float


@dataclass(frozen=True)
class HavingGroup:
    """AND/OR tree over having predicates (mirrors :class:`PredicateGroup`
    but evaluated on converted per-window result rows)."""

    op: str  # "and" | "or"
    children: Tuple["HavingNode", ...]


HavingNode = Union[HavingPredicate, HavingGroup]


@dataclass(frozen=True)
class JoinSide:
    """One partition-window side of the join.

    ``probe_column`` is the window-side column whose values probe this
    side's state; ``key_column`` is the side's partition-by column.  They
    may differ (``A.ref == R.key``), which is what makes LEFT OUTER misses
    observable.
    """

    binding: str
    window: WindowSpec
    probe_column: str
    key_column: str
    outer: bool = False


@dataclass(frozen=True)
class ColumnInfo:
    """Catalogue knowledge about one stream column.

    ``codec_hint`` is set when the engine pins a codec (``static:<name>``
    modes); the statistics fields are populated only when the caller can
    sample the stream (``has_stats``), e.g. the differential oracle binds
    them from the case's batches and ``repro explain --stats`` from a
    seeded sample.  Rules that need statistics to win must refuse to fire
    without them.
    """

    name: str
    kind: str = "int"
    size_c: int = 8
    codec_hint: str = ""
    has_stats: bool = False
    avg_run_length: float = 0.0
    distinct: int = 0
    min_value: int = 0
    max_value: int = 0


# ----- nodes -----------------------------------------------------------


class LogicalNode:
    """Base class of the logical plan nodes (all frozen dataclasses)."""


@dataclass(frozen=True)
class ScanNode(LogicalNode):
    """Read a stream; optionally filter and project inside the scan.

    ``columns`` is what the scan emits (projection pruning shrinks it);
    ``predicate`` is a filter evaluated on the compressed representation
    before rows leave the scan (predicate pushdown moves it here).
    """

    stream: str
    columns: Tuple[str, ...]
    infos: Tuple[ColumnInfo, ...]
    #: columns the query actually touches (from the planner's profile);
    #: the executors materialize exactly these, and the prune rule
    #: shrinks ``columns`` to them
    referenced: Tuple[str, ...] = ()
    predicate: Optional[PredicateNode] = None

    def info_of(self, name: str) -> Optional[ColumnInfo]:
        for info in self.infos:
            if info.name == name:
                return info
        return None


@dataclass(frozen=True)
class MorphNode(LogicalNode):
    """Recompress one column of the child's output into another format.

    Mid-pipeline format morphing (MorphStore's holistic processing
    model): the column still *arrives* in its wire format — the morph is
    a server-side representation change before the downstream operator
    reads it, e.g. RLE runs re-encoded as bitmap planes ahead of an
    equality-heavy predicate.  The morph rule inserts this node above a
    scan and rewrites the scanned column's ``codec_hint`` to
    ``to_codec`` so the coster prices the downstream plan on the new
    layout; this node itself prices the one-off conversion.
    """

    child: LogicalNode
    column: str
    from_codec: str
    to_codec: str


@dataclass(frozen=True)
class FilterNode(LogicalNode):
    """Row filter above its child (the naive position of WHERE)."""

    child: LogicalNode
    predicate: PredicateNode


@dataclass(frozen=True)
class WindowAggNode(LogicalNode):
    """Count/time-window aggregation with optional grouping.

    ``outputs`` is every per-window column computed — the visible select
    list followed by hidden aggregates the planner added for HAVING and
    ORDER BY; ``having`` filters the converted per-window rows.
    ``fuse_column`` is set by the filter+aggregate fusion rule: the
    upstream predicate is evaluated at run granularity on that column and
    the column stays run-structured through aggregation.
    """

    child: LogicalNode
    window: WindowSpec
    group_keys: Tuple[str, ...]
    outputs: Tuple[OutputColumn, ...]
    having: Optional[HavingNode] = None
    fuse_column: str = ""

    @property
    def aggregates(self) -> Tuple[Tuple[str, str], ...]:
        """``(func, source_column)`` pairs, ``"*"`` for ``count(*)``."""
        return tuple(
            (o.agg_func or "", o.source_column or "*")
            for o in self.outputs
            if o.kind == OUT_AGG
        )


@dataclass(frozen=True)
class ProjectNode(LogicalNode):
    """Shape the final output columns (optionally distinct)."""

    child: LogicalNode
    outputs: Tuple[OutputColumn, ...]
    distinct: bool = False


@dataclass(frozen=True)
class OrderLimitNode(LogicalNode):
    """Per-window ORDER BY keys plus the optional LIMIT row cap.

    Keys name output (possibly hidden) columns; ties are broken on every
    visible column so the row order is deterministic across paths.
    """

    child: LogicalNode
    keys: Tuple[Tuple[str, bool], ...]  # (output name, descending)
    limit: Optional[int] = None


@dataclass(frozen=True)
class DeriveNode(LogicalNode):
    """A derived stream definition consumed by downstream window sources.

    ``consumers`` counts the window sources reading the derived stream;
    the common-subplan rule sets ``shared`` so the subplan is computed
    once per batch instead of once per consumer.
    """

    name: str
    child: LogicalNode
    consumers: int = 1
    shared: bool = False


@dataclass(frozen=True)
class JoinNode(LogicalNode):
    """Window x partition-state join (``[LEFT] JOIN ... ON``; Q3's comma
    form plans as the one-side join it abbreviates).

    ``schema`` is what the join sides see (the derived stream's output
    schema, or the input stream's); ``output_sides`` gives, for each
    output of the projection above, the index into ``sides`` it reads.
    """

    child: LogicalNode
    window: WindowSpec
    sides: Tuple[JoinSide, ...]
    schema: Schema
    output_sides: Tuple[int, ...]


@dataclass(frozen=True)
class Plan:
    """One planned query, as the pipeline, server and oracle receive it.

    ``root`` is the tree the executors run: the planner's naive tree, or
    the optimizer's chosen rewrite of it.  ``schema`` is the physical
    input stream the client compresses, ``profile`` the per-column
    direct-processing requirements, and ``opt`` the optimizer's decision
    record (None when the plan never went through the optimizer).
    """

    root: LogicalNode
    schema: Schema
    profile: "QueryProfile"
    opt: Optional[OptimizerInfo] = None


# ----- traversal -------------------------------------------------------

N = TypeVar("N", bound=LogicalNode)


def transform(
    node: LogicalNode, fn: Callable[[LogicalNode], LogicalNode]
) -> LogicalNode:
    """Bottom-up rewrite: apply ``fn`` to every node, children first."""
    updates = {}
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, LogicalNode):
            rewritten = transform(value, fn)
            if rewritten is not value:
                updates[f.name] = rewritten
    if updates:
        node = dataclasses.replace(node, **updates)
    return fn(node)


def iter_nodes(node: LogicalNode) -> Iterator[LogicalNode]:
    """Pre-order traversal of a logical tree."""
    yield node
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, LogicalNode):
            yield from iter_nodes(value)


def find_node(root: LogicalNode, node_type: Type[N]) -> Optional[N]:
    """The first node of ``node_type`` in pre-order, or None."""
    for node in iter_nodes(root):
        if isinstance(node, node_type):
            return node
    return None


def where_of(root: LogicalNode) -> Optional[PredicateNode]:
    """The WHERE predicate, from whichever Filter or Scan node holds it."""
    for node in iter_nodes(root):
        if isinstance(node, FilterNode):
            return node.predicate
        if isinstance(node, ScanNode) and node.predicate is not None:
            return node.predicate
    return None
