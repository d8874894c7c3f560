"""Relational operator kernels running directly on compressed codes."""

from .aggregation import (
    AGG_FUNCS,
    sliding_code_sums,
    sliding_extreme,
    window_aggregate,
)
from .base import ExecColumn, decoded_column
from .distinct import distinct_indices
from .groupby import GroupedWindowResult, combine_keys, window_group_aggregate
from .selection import COMPARISONS, compare_columns, compare_to_literal

__all__ = [
    "AGG_FUNCS",
    "sliding_code_sums",
    "sliding_extreme",
    "window_aggregate",
    "ExecColumn",
    "decoded_column",
    "distinct_indices",
    "GroupedWindowResult",
    "combine_keys",
    "window_group_aggregate",
    "COMPARISONS",
    "compare_columns",
    "compare_to_literal",
]
