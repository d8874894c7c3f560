"""Query planner: binds parsed scripts to stream schemas, derives the
per-column direct-processing requirements of DESIGN.md §2, and emits the
naive logical tree (:mod:`repro.optimizer.logical`) in SQL evaluation
order.  Three tree shapes cover the dialect:

* window aggregation — ``Scan → Filter → WindowAgg → Project →
  OrderLimit`` over a single count/time-windowed source with optional
  group-by, HAVING and ORDER BY/LIMIT (Q1, Q2, Q4, Q5, Q6);
* passthrough — ``Scan → Filter → Project`` for ``[range unbounded]``
  per-tuple projection and selection, also the body of derived streams
  (Q3's SegSpeedStr);
* join — ``(Scan | Derive) → Join → Project``: a sliding window ⋈ one or
  more partition windows of the same stream, written ``[LEFT] JOIN ...
  ON``; Q3's comma form plans as the one-side ``JOIN ... ON`` it
  abbreviates.

The planner computes a :class:`~repro.core.query_profile.QueryProfile`
whose :class:`ColumnUse` entries tell both the cost model and the server
which columns can be served directly by which codecs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..compression.base import CAP_AFFINE, CAP_EQUALITY, CAP_ORDER
from ..core.query_profile import ColumnUse, QueryProfile
from ..errors import PlanningError
from ..optimizer.logical import (
    OUT_AGG,
    OUT_COLUMN,
    OUT_EXPR,
    OUT_KEY,
    OUT_LAST,
    ColumnInfo,
    DeriveNode,
    FilterNode,
    HavingGroup,
    HavingNode,
    HavingPredicate,
    JoinNode,
    JoinSide,
    LiteralPredicate,
    LogicalNode,
    OrderLimitNode,
    OutputColumn,
    Plan,
    PredicateGroup,
    PredicateNode,
    ProjectNode,
    ScanNode,
    WindowAggNode,
)
from ..stream.schema import KIND_FLOAT, KIND_INT, Field, Schema
from ..stream.window import MODE_COUNT, MODE_PARTITION, MODE_TIME, MODE_UNBOUNDED
from .ast import (
    AggregateCall,
    BoolExpr,
    BoolOp,
    ColumnRef,
    Comparison,
    JoinClause,
    Literal,
    Query,
    Script,
    SelectItem,
    SourceRef,
    column_refs,
)
from .parser import parse

# ----- helpers ----------------------------------------------------------


def _merge_use(uses: Dict[str, ColumnUse], new: ColumnUse) -> None:
    if new.name in uses:
        uses[new.name] = uses[new.name].merge(new)
    else:
        uses[new.name] = new


def _check_column(schema: Schema, ref: ColumnRef, context: str) -> Field:
    if ref.name not in schema:
        raise PlanningError(f"{context}: unknown column {ref.name!r} in {schema!r}")
    return schema[ref.name]


def _agg_output_field(func: str, src: Field, name: str) -> Field:
    if func == "count":
        return Field(name, KIND_INT, 8)
    if func == "avg":
        # averages of fixed-point ints are fractional
        return Field(
            name,
            KIND_FLOAT,
            8,
            decimals=max(src.decimals, 1) if src.kind == KIND_FLOAT else 1,
        )
    return Field(name, src.kind, src.size, decimals=src.decimals)


def _quantized_literal(value: Union[int, float], f: Field) -> int:
    """Map a query literal into the stored integer domain of a field."""
    if f.kind == KIND_FLOAT:
        scaled = value * f.scale
        rounded = int(round(scaled))
        if abs(scaled - rounded) > 1e-9:
            raise PlanningError(
                f"literal {value!r} is not representable with {f.decimals} "
                f"decimals of column {f.name!r}"
            )
        return rounded
    if isinstance(value, float) and not value.is_integer():
        raise PlanningError(
            f"fractional literal {value!r} on integer column {f.name!r}"
        )
    return int(value)


_CAP_BY_AGG = {
    "avg": frozenset({CAP_AFFINE}),
    "sum": frozenset({CAP_AFFINE}),
    "max": frozenset({CAP_ORDER}),
    "min": frozenset({CAP_ORDER}),
    "count": frozenset(),
}

#: the comparison with its operands swapped (``5 < x`` is ``x > 5``)
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}

_CAP_BY_COMPARE = {
    "==": frozenset({CAP_EQUALITY}),
    "!=": frozenset({CAP_EQUALITY}),
    "<": frozenset({CAP_ORDER}),
    "<=": frozenset({CAP_ORDER}),
    ">": frozenset({CAP_ORDER}),
    ">=": frozenset({CAP_ORDER}),
}


def _scan(stream: str, schema: Schema, profile: QueryProfile) -> ScanNode:
    """The naive scan: every schema column, WHERE still above it."""
    return ScanNode(
        stream=stream,
        columns=tuple(f.name for f in schema),
        infos=tuple(
            ColumnInfo(name=f.name, kind=f.kind, size_c=f.size) for f in schema
        ),
        referenced=tuple(sorted(profile.referenced)),
    )


def _filtered(node: LogicalNode, where: Optional[PredicateNode]) -> LogicalNode:
    return node if where is None else FilterNode(child=node, predicate=where)


def _comma_join_as_explicit(query: Query) -> Query:
    """Q3's comma form is sugar for ``JOIN ... ON``: the partition-windowed
    source becomes the one join side and WHERE its ON predicate; the
    explicit-join planner checks everything else."""
    on = query.where
    if not isinstance(on, Comparison):
        raise PlanningError("the join form needs exactly one join predicate")
    first, second = query.sources
    side, probe = (
        (first, second) if first.window.mode == MODE_PARTITION else (second, first)
    )
    return replace(
        query, sources=(probe,), joins=(JoinClause(source=side, on=on),), where=None
    )


# ----- planner ------------------------------------------------------


class Planner:
    """Plans scripts against a catalog of stream schemas."""

    def __init__(self, catalog: Dict[str, Schema]):
        self.catalog = dict(catalog)

    def plan_text(self, text: str) -> Plan:
        return self.plan(parse(text))

    def plan(self, script: Script) -> Plan:
        catalog = dict(self.catalog)
        derived_plans: Dict[str, Plan] = {}
        for derived in script.derived:
            plan, outputs = self._plan_passthrough_query(derived.query, catalog)
            derived_plans[derived.name] = plan
            catalog[derived.name] = Schema([o.out_field for o in outputs])
        main = script.main
        if len(main.sources) == 2 and not main.joins:
            main = _comma_join_as_explicit(main)
        if main.joins:
            return self._plan_explicit_join(main, catalog, derived_plans)
        if len(main.sources) != 1:
            raise PlanningError("queries must read one or two sources")
        window = main.sources[0].window
        if window.mode == MODE_UNBOUNDED:
            if script.derived:
                raise PlanningError("derived streams must feed a windowed main query")
            return self._plan_passthrough_query(main, catalog)[0]
        if window.mode not in (MODE_COUNT, MODE_TIME):
            raise PlanningError(
                "single-source main query needs a count or time window"
            )
        if script.derived:
            raise PlanningError(
                "derived streams are only supported with the join form of Q3"
            )
        return self._plan_window_agg(main, catalog)

    # ----- per-shape planning -------------------------------------------

    def _resolve_source(self, query: Query, catalog: Dict[str, Schema], idx: int = 0):
        source = query.sources[idx]
        if source.stream not in catalog:
            raise PlanningError(f"unknown stream {source.stream!r}")
        return source, catalog[source.stream]

    def _plan_window_agg(
        self, query: Query, catalog: Dict[str, Schema]
    ) -> Plan:
        source, schema = self._resolve_source(query, catalog)
        if query.distinct:
            raise PlanningError("distinct is not supported with window aggregation")
        uses: Dict[str, ColumnUse] = {}
        if source.window.mode == MODE_TIME:
            tc = source.window.time_column
            f = _check_column(schema, ColumnRef(tc), "time window")
            if f.kind != KIND_INT:
                raise PlanningError(
                    f"time window column {tc!r} must be an integer field"
                )
            # the scheduler reads timestamp values to assign windows
            _merge_use(uses, ColumnUse(tc, needs_values=True))
        group_keys: List[str] = []
        for ref in query.group_by:
            _check_column(schema, ref, "group by")
            group_keys.append(ref.name)
            _merge_use(
                uses,
                ColumnUse(
                    ref.name, caps=frozenset({CAP_EQUALITY}), positional=True
                ),
            )

        outputs: List[OutputColumn] = []
        has_aggregate = False
        for item in query.items:
            outputs.append(
                self._plan_agg_item(item, schema, set(group_keys), uses)
            )
            has_aggregate = has_aggregate or outputs[-1].kind == OUT_AGG
        if not has_aggregate and not group_keys:
            raise PlanningError(
                "a count-windowed query needs aggregates or group by; "
                "use [range unbounded] for per-tuple projection"
            )
        where = self._plan_where(query.where, schema, uses)
        hidden: List[OutputColumn] = []
        having = self._plan_having(query.having, schema, outputs, hidden, uses)
        order_by = self._plan_order_by(query, schema, outputs, hidden, uses)
        profile = QueryProfile(column_uses=uses)
        node: LogicalNode = WindowAggNode(
            child=_filtered(_scan(source.stream, schema, profile), where),
            window=source.window,
            group_keys=tuple(group_keys),
            outputs=tuple(outputs + hidden),
            having=having,
        )
        node = ProjectNode(child=node, outputs=tuple(outputs))
        if order_by or query.limit is not None:
            node = OrderLimitNode(child=node, keys=order_by, limit=query.limit)
        return Plan(root=node, schema=schema, profile=profile)

    def _plan_having(
        self,
        condition: Optional[BoolExpr],
        schema: Schema,
        outputs: Sequence[OutputColumn],
        hidden: List[OutputColumn],
        uses: Dict[str, ColumnUse],
    ) -> Optional[HavingNode]:
        if condition is None:
            return None
        counter = [0]
        return self._plan_having_node(
            condition, schema, outputs, hidden, uses, counter
        )

    def _plan_having_node(
        self,
        condition: BoolExpr,
        schema: Schema,
        outputs: Sequence[OutputColumn],
        hidden: List[OutputColumn],
        uses: Dict[str, ColumnUse],
        counter: List[int],
    ) -> HavingNode:
        if isinstance(condition, BoolOp):
            return HavingGroup(
                op=condition.op,
                children=tuple(
                    self._plan_having_node(
                        item, schema, outputs, hidden, uses, counter
                    )
                    for item in condition.items
                ),
            )
        comp = condition
        by_name = {o.name: o for o in outputs}
        left, right, op = comp.left, comp.right, comp.op
        if isinstance(left, Literal) and not isinstance(right, Literal):
            left, right, op = right, left, _FLIPPED[op]
        if not isinstance(right, Literal):
            raise PlanningError("having compares an aggregate to a literal")
        index = counter[0]
        counter[0] += 1
        if isinstance(left, AggregateCall):
            target = self._agg_target(
                left, schema, outputs, hidden, uses, f"__having_{index}"
            )
        elif isinstance(left, ColumnRef) and left.name in by_name:
            target = left.name
        else:
            raise PlanningError(
                "having supports aggregates or select-list names; "
                f"got {left!s}"
            )
        return HavingPredicate(target, op, float(right.value))

    def _plan_order_by(
        self,
        query: Query,
        schema: Schema,
        outputs: Sequence[OutputColumn],
        hidden: List[OutputColumn],
        uses: Dict[str, ColumnUse],
    ) -> Tuple[Tuple[str, bool], ...]:
        if query.limit is not None and not query.order_by:
            raise PlanningError(
                "limit requires an order by clause (unordered truncation "
                "would be nondeterministic)"
            )
        by_name = {o.name for o in outputs}
        keys: List[Tuple[str, bool]] = []
        for i, item in enumerate(query.order_by):
            expr = item.expr
            if (
                isinstance(expr, ColumnRef)
                and expr.table is None
                and expr.name in by_name
            ):
                target = expr.name
            elif isinstance(expr, AggregateCall):
                target = self._agg_target(
                    expr, schema, outputs, hidden, uses, f"__order_{i}"
                )
            else:
                raise PlanningError(
                    "order by supports select-list names or aggregates; "
                    f"got {expr!s}"
                )
            keys.append((target, item.desc))
        return tuple(keys)

    def _agg_target(
        self,
        agg: AggregateCall,
        schema: Schema,
        outputs: Sequence[OutputColumn],
        hidden: List[OutputColumn],
        uses: Dict[str, ColumnUse],
        name: str,
    ) -> str:
        wanted_col = agg.arg.name if agg.arg else None
        for o in list(outputs) + hidden:
            if (
                o.kind == OUT_AGG
                and o.agg_func == agg.func
                and o.source_column == wanted_col
            ):
                return o.name
        # no matching select item: compute a hidden aggregate
        src_field = Field(name, KIND_INT, 8)
        if agg.arg is not None:
            src_field = _check_column(schema, agg.arg, f"aggregate {agg.func}")
            _merge_use(uses, ColumnUse(agg.arg.name, caps=_CAP_BY_AGG[agg.func]))
        hidden.append(
            OutputColumn(
                name=name,
                kind=OUT_AGG,
                source_column=wanted_col,
                agg_func=agg.func,
                out_field=_agg_output_field(agg.func, src_field, name),
                src_decimals=src_field.decimals,
            )
        )
        return name

    def _plan_agg_item(
        self,
        item: SelectItem,
        schema: Schema,
        group_keys: set,
        uses: Dict[str, ColumnUse],
    ) -> OutputColumn:
        expr = item.expr
        name = item.output_name
        if isinstance(expr, AggregateCall):
            src_field = Field(name, KIND_INT, 8)
            if expr.arg is not None:
                src_field = _check_column(schema, expr.arg, f"aggregate {expr.func}")
                _merge_use(uses, ColumnUse(expr.arg.name, caps=_CAP_BY_AGG[expr.func]))
            return OutputColumn(
                name=name,
                kind=OUT_AGG,
                source_column=expr.arg.name if expr.arg else None,
                agg_func=expr.func,
                out_field=_agg_output_field(expr.func, src_field, name),
                src_decimals=src_field.decimals,
            )
        if isinstance(expr, ColumnRef):
            f = _check_column(schema, expr, "select")
            kind = OUT_KEY if expr.name in group_keys else OUT_LAST
            _merge_use(uses, ColumnUse(expr.name, positional=True))
            return OutputColumn(
                name=name,
                kind=kind,
                source_column=expr.name,
                out_field=Field(name, f.kind, f.size, decimals=f.decimals),
                src_decimals=f.decimals,
            )
        raise PlanningError(
            "window aggregation supports plain columns and aggregates; "
            f"got expression {expr!s}"
        )

    def _plan_passthrough_query(
        self, query: Query, catalog: Dict[str, Schema]
    ) -> Tuple[Plan, List[OutputColumn]]:
        source, schema = self._resolve_source(query, catalog)
        if source.window.mode != MODE_UNBOUNDED:
            raise PlanningError("passthrough queries use [range unbounded]")
        if query.group_by:
            raise PlanningError("group by requires a count window")
        if query.having is not None:
            raise PlanningError("having requires aggregation over a count window")
        if query.joins:
            raise PlanningError("join clauses require a windowed main query")
        if query.order_by or query.limit is not None:
            raise PlanningError(
                "order by / limit apply to windowed aggregation results"
            )
        uses: Dict[str, ColumnUse] = {}
        outputs: List[OutputColumn] = []
        for item in query.items:
            expr = item.expr
            name = item.output_name
            if isinstance(expr, AggregateCall):
                raise PlanningError("aggregates require a count window")
            if isinstance(expr, ColumnRef):
                f = _check_column(schema, expr, "select")
                if query.distinct:
                    # dedup runs on codes; only survivors are decoded
                    use = ColumnUse(
                        expr.name, caps=frozenset({CAP_EQUALITY}), positional=True
                    )
                else:
                    # every surviving row reaches the output (or the derived
                    # stream buffer), so the values themselves are needed
                    use = ColumnUse(expr.name, needs_values=True)
                _merge_use(uses, use)
                outputs.append(
                    OutputColumn(
                        name=name,
                        kind=OUT_COLUMN,
                        source_column=expr.name,
                        out_field=Field(name, f.kind, f.size, decimals=f.decimals),
                        src_decimals=f.decimals,
                    )
                )
                continue
            # arithmetic expression: needs values of every referenced column
            refs = column_refs(expr)
            if not refs:
                raise PlanningError(f"constant select item {expr!s} is not supported")
            for ref in refs:
                f = _check_column(schema, ref, "select expression")
                if f.kind != KIND_INT:
                    raise PlanningError(
                        f"arithmetic on float column {ref.name!r} is not supported; "
                        "aggregate it instead"
                    )
                _merge_use(uses, ColumnUse(ref.name, needs_values=True))
            outputs.append(
                OutputColumn(
                    name=name,
                    kind=OUT_EXPR,
                    expr=expr,
                    out_field=Field(name, KIND_INT, 8),
                )
            )
        where = self._plan_where(query.where, schema, uses)
        profile = QueryProfile(column_uses=uses)
        root = ProjectNode(
            child=_filtered(_scan(source.stream, schema, profile), where),
            outputs=tuple(outputs),
            distinct=query.distinct,
        )
        return Plan(root=root, schema=schema, profile=profile), outputs

    def _plan_where(
        self,
        condition: Optional[BoolExpr],
        schema: Schema,
        uses: Dict[str, ColumnUse],
    ) -> Optional[PredicateNode]:
        if condition is None:
            return None
        if isinstance(condition, BoolOp):
            return PredicateGroup(
                op=condition.op,
                children=tuple(
                    self._plan_where(item, schema, uses) for item in condition.items
                ),
            )
        comp = condition
        left, right, op = comp.left, comp.right, comp.op
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            left, right, op = right, left, _FLIPPED[op]
        if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
            raise PlanningError(
                "where supports column-vs-literal predicates here; "
                "column-vs-column equality belongs to the join form"
            )
        f = _check_column(schema, left, "where")
        _merge_use(uses, ColumnUse(left.name, caps=_CAP_BY_COMPARE[op]))
        return LiteralPredicate(left.name, op, _quantized_literal(right.value, f))

    def _plan_explicit_join(
        self,
        query: Query,
        catalog: Dict[str, Schema],
        derived_plans: Dict[str, Plan],
    ) -> Plan:
        """Plan the explicit ``[LEFT] JOIN ... ON`` form (multi-way, outer).

        One count/time-windowed probe source joins one or more
        ``[partition by k rows K]`` sides of the same stream.  Each ON
        predicate equates a probe-side column with the side's partition
        key; misses on a LEFT side emit the probe value for the key
        column and NaN for its other columns.  A lone inner side may keep
        ``rows K``; multi-way and LEFT sides keep one row per key.
        """
        if len(query.sources) != 1:
            raise PlanningError(
                "explicit join clauses take a single windowed FROM source"
            )
        if query.where is not None:
            raise PlanningError(
                "the explicit join form takes its predicates in ON clauses, "
                "not WHERE"
            )
        if query.having is not None or query.group_by:
            raise PlanningError("having/group by are not supported on joins")
        if query.order_by or query.limit is not None:
            raise PlanningError(
                "order by / limit apply to windowed aggregation results"
            )
        probe_src = query.sources[0]
        if probe_src.window.mode not in (MODE_COUNT, MODE_TIME):
            raise PlanningError(
                "the probe side of a join needs a count or time window"
            )
        if probe_src.stream not in catalog:
            raise PlanningError(f"unknown stream {probe_src.stream!r}")
        join_schema = catalog[probe_src.stream]

        bindings = {probe_src.binding}
        sides: List[JoinSide] = []
        for clause in query.joins:
            src = clause.source
            if src.stream != probe_src.stream:
                raise PlanningError(
                    "join sides must window the same stream as the probe "
                    f"side; got {src.stream!r}"
                )
            if src.window.mode != MODE_PARTITION:
                raise PlanningError(
                    "join sides need a [partition by <key> rows K] window"
                )
            if src.window.rows != 1 and (clause.outer or len(query.joins) > 1):
                raise PlanningError(
                    "multi-way and LEFT join sides keep the latest row only "
                    "([partition by <key> rows 1])"
                )
            if src.binding in bindings:
                raise PlanningError(
                    f"duplicate source binding {src.binding!r} in join"
                )
            bindings.add(src.binding)
            sides.append(
                self._plan_join_side(clause, probe_src, join_schema)
            )

        outputs: List[OutputColumn] = []
        output_sides: List[int] = []
        by_binding = {side.binding: i for i, side in enumerate(sides)}
        for item in query.items:
            expr = item.expr
            if not isinstance(expr, ColumnRef):
                raise PlanningError("the join form selects plain columns only")
            if expr.table is None:
                if len(sides) != 1:
                    raise PlanningError(
                        "multi-way joins need side-qualified output columns; "
                        f"got {expr!s}"
                    )
                side_idx = 0
            elif expr.table in by_binding:
                side_idx = by_binding[expr.table]
            else:
                raise PlanningError(
                    "the join form outputs columns of the partition sides; "
                    f"got {expr!s}"
                )
            f = _check_column(join_schema, expr, "select")
            side = sides[side_idx]
            name = item.output_name
            if side.outer and expr.name != side.key_column:
                # misses fill with NaN, so the output widens to float
                out_field = Field(name, KIND_FLOAT, 8, decimals=f.decimals)
            else:
                out_field = Field(name, f.kind, f.size, decimals=f.decimals)
            outputs.append(
                OutputColumn(
                    name=name,
                    kind=OUT_COLUMN,
                    source_column=expr.name,
                    out_field=out_field,
                    src_decimals=f.decimals,
                )
            )
            output_sides.append(side_idx)

        return self._join_tree(
            query,
            probe_src,
            join_schema,
            tuple(sides),
            outputs,
            tuple(output_sides),
            derived_plans,
        )

    def _join_tree(
        self,
        query: Query,
        probe_src: SourceRef,
        join_schema: Schema,
        sides: Tuple[JoinSide, ...],
        outputs: List[OutputColumn],
        output_sides: Tuple[int, ...],
        derived_plans: Dict[str, Plan],
    ) -> Plan:
        """``(Scan | Derive) → Join → Project``."""
        stream = probe_src.stream
        if probe_src.window.mode == MODE_TIME:
            tc = probe_src.window.time_column
            f = _check_column(join_schema, ColumnRef(tc), "join time window")
            if f.kind != KIND_INT:
                raise PlanningError(
                    f"time window column {tc!r} must be an integer field"
                )
        derived = derived_plans.get(stream)
        child: LogicalNode
        if derived is not None:
            # every window source over the derived stream would recompute
            # it per batch; the common-subplan rule shares it
            consumers = sum(src.stream == stream for src in query.sources)
            consumers += sum(c.source.stream == stream for c in query.joins)
            child = DeriveNode(name=stream, child=derived.root, consumers=consumers)
            schema, profile = derived.schema, derived.profile
        else:
            # Without a derived projection the join runs on values of the
            # referenced columns directly.
            uses: Dict[str, ColumnUse] = {}
            for out in outputs:
                _merge_use(uses, ColumnUse(out.source_column, needs_values=True))
            for side in sides:
                _merge_use(uses, ColumnUse(side.probe_column, needs_values=True))
                _merge_use(uses, ColumnUse(side.key_column, needs_values=True))
            if probe_src.window.mode == MODE_TIME:
                _merge_use(
                    uses,
                    ColumnUse(probe_src.window.time_column, needs_values=True),
                )
            profile = QueryProfile(column_uses=uses)
            schema = join_schema
            child = _scan(stream, schema, profile)
        join = JoinNode(
            child=child,
            window=probe_src.window,
            sides=sides,
            schema=join_schema,
            output_sides=output_sides,
        )
        root = ProjectNode(child=join, outputs=tuple(outputs), distinct=query.distinct)
        return Plan(root=root, schema=schema, profile=profile)

    def _plan_join_side(
        self, clause: JoinClause, probe_src: SourceRef, join_schema: Schema
    ) -> JoinSide:
        src = clause.source
        comp = clause.on
        if comp.op != "==" or not (
            isinstance(comp.left, ColumnRef) and isinstance(comp.right, ColumnRef)
        ):
            raise PlanningError("the ON predicate must be column == column")
        refs = {comp.left, comp.right}
        side_refs = [r for r in refs if r.table == src.binding]
        probe_refs = [
            r for r in refs if r.table in (None, probe_src.binding) and r not in side_refs
        ]
        if len(side_refs) != 1 or len(probe_refs) != 1:
            raise PlanningError(
                "the ON predicate must equate a probe-side column with the "
                f"joined side's key; got {comp.left!s} == {comp.right!s}"
            )
        key_ref, probe_ref = side_refs[0], probe_refs[0]
        if key_ref.name != src.window.partition_by:
            raise PlanningError(
                f"the side of {src.binding!r} must join on its partition-by "
                f"column {src.window.partition_by!r}; got {key_ref.name!r}"
            )
        kf = _check_column(join_schema, ColumnRef(key_ref.name), "join key")
        pf = _check_column(join_schema, ColumnRef(probe_ref.name), "join probe")
        if (pf.kind, pf.decimals) != (kf.kind, kf.decimals):
            raise PlanningError(
                f"join compares columns of mismatched types: "
                f"{probe_ref.name!r} vs {key_ref.name!r}"
            )
        return JoinSide(
            binding=src.binding,
            window=src.window,
            probe_column=probe_ref.name,
            key_column=key_ref.name,
            outer=clause.outer,
        )


def plan_query(text: str, catalog: Dict[str, Schema]) -> Plan:
    """Parse and plan a streaming SQL script in one call (naive tree)."""
    return Planner(catalog).plan_text(text)
