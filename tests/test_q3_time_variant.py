"""Tests for the time-windowed Q3 variant (Linear Road's real semantics)."""

import numpy as np

from repro import CompressStreamDB, EngineConfig
from repro.datasets import Q3_TIME_TEXT, linear_road
from repro.optimizer import JoinNode, find_node
from repro.sql import plan_query, plan_shape
from repro.stream import MODE_TIME


def test_plans_as_time_join():
    plan = plan_query(Q3_TIME_TEXT, {"PosSpeedStr": linear_road.SCHEMA})
    assert plan_shape(plan.root) == "join"
    window = find_node(plan.root, JoinNode).window
    assert window.mode == MODE_TIME
    assert window.size == 30
    assert window.time_column == "timestamp"


def test_end_to_end_matches_baseline(fast_calibration):
    catalog = {"PosSpeedStr": linear_road.SCHEMA}
    outputs = {}
    for mode in ("baseline", "adaptive"):
        engine = CompressStreamDB(
            catalog,
            Q3_TIME_TEXT,
            EngineConfig(mode=mode, calibration=fast_calibration),
        )
        report = engine.run(
            linear_road.source(batch_size=4000, batches=3), collect_outputs=True
        )
        outputs[mode] = report.outputs
    base = outputs["baseline"]
    got = outputs["adaptive"]
    assert base.n_rows > 0
    assert got.n_rows == base.n_rows
    for name in base.columns:
        np.testing.assert_array_equal(got.columns[name], base.columns[name])


def test_each_window_covers_30_seconds(fast_calibration):
    catalog = {"PosSpeedStr": linear_road.SCHEMA}
    engine = CompressStreamDB(
        catalog, Q3_TIME_TEXT, EngineConfig(calibration=fast_calibration)
    )
    report = engine.run(
        linear_road.source(batch_size=4000, batches=3), collect_outputs=True
    )
    ts = report.outputs.columns["timestamp"]
    # latest-known positions always fall within closed 30s windows
    assert ts.min() >= 0
    # vehicles are distinct within each window: the smallest window span
    # groups rows whose timestamps lie within one 30-second extent
    assert report.outputs.n_rows == len(
        set(zip((ts // 30).tolist(), report.outputs.columns["vehicle"].tolist()))
    )
