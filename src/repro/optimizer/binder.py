"""Catalogue knowledge for the logical plan's scans.

The planner emits the naive tree with bare per-column infos (name, kind,
width); callers that know more — a pinned codec, or statistics sampled
from the stream — build richer :class:`ColumnInfo` maps here and hand
them to :func:`~repro.optimizer.optimize_plan`, which binds them onto the
scan before the rules price any rewrite.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from ..stats import ColumnStats
from ..stream.schema import Schema
from .logical import ColumnInfo


def schema_infos(
    schema: Schema,
    codec_hint: str = "",
    stats: Optional[Mapping[str, ColumnStats]] = None,
) -> Dict[str, ColumnInfo]:
    """Per-column catalogue info from a schema plus optional statistics."""
    infos: Dict[str, ColumnInfo] = {}
    for f in schema:
        st = stats.get(f.name) if stats else None
        if st is not None:
            infos[f.name] = ColumnInfo(
                name=f.name,
                kind=f.kind,
                size_c=f.size,
                codec_hint=codec_hint,
                has_stats=True,
                avg_run_length=float(st.avg_run_length),
                distinct=int(st.kindnum),
                min_value=int(st.min_value),
                max_value=int(st.max_value),
            )
        else:
            infos[f.name] = ColumnInfo(
                name=f.name, kind=f.kind, size_c=f.size, codec_hint=codec_hint
            )
    return infos


def stats_from_columns(
    schema: Schema, columns: Mapping[str, np.ndarray]
) -> Dict[str, ColumnStats]:
    """Column statistics from stored-domain value arrays (e.g. a sample)."""
    out: Dict[str, ColumnStats] = {}
    for f in schema:
        values = columns.get(f.name)
        if values is None or len(values) == 0:
            continue
        out[f.name] = ColumnStats.from_values(
            np.asarray(values, dtype=np.int64), size_c=f.size
        )
    return out
