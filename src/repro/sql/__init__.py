"""Streaming SQL: lexer, parser, planner and executors (Table III dialect)."""

from ..optimizer.logical import (
    HavingGroup,
    HavingPredicate,
    JoinSide,
    LiteralPredicate,
    OutputColumn,
    Plan,
)
from .ast import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    Comparison,
    DerivedStream,
    JoinClause,
    Literal,
    OrderItem,
    Query,
    Script,
    SelectItem,
    SourceRef,
)
from .executor import (
    JoinExecutor,
    PassthroughExecutor,
    QueryResult,
    WindowAggExecutor,
    make_executor,
    plan_shape,
)
from .lexer import Token, tokenize
from .parser import parse, parse_query
from .planner import Planner, plan_query
from .unparse import to_sql

__all__ = [
    "AggregateCall",
    "BinaryOp",
    "ColumnRef",
    "Comparison",
    "DerivedStream",
    "JoinClause",
    "Literal",
    "OrderItem",
    "Query",
    "Script",
    "SelectItem",
    "SourceRef",
    "JoinExecutor",
    "PassthroughExecutor",
    "QueryResult",
    "WindowAggExecutor",
    "make_executor",
    "plan_shape",
    "Token",
    "tokenize",
    "parse",
    "parse_query",
    "to_sql",
    "HavingGroup",
    "HavingPredicate",
    "JoinSide",
    "LiteralPredicate",
    "OutputColumn",
    "Plan",
    "Planner",
    "plan_query",
]
