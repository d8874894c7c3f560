"""Edge cases for the join executor: multi-row partitions, empty windows,
filtered derived streams, probe columns other than the key, the two
spellings of Q3, and example-script sanity."""

import py_compile
from pathlib import Path

import numpy as np
import pytest

from repro.errors import PlanningError
from repro.operators.base import decoded_column
from repro.sql import make_executor, plan_query
from repro.stream import Batch, Field, Schema

SCHEMA = Schema([Field("ts"), Field("k", "int", 4), Field("v", "int", 4)])
CATALOG = {"S": SCHEMA}


def run(text, columns, parts=None):
    plan = plan_query(text, CATALOG)
    ex = make_executor(plan)
    batch = Batch.from_values(SCHEMA, columns)
    bounds = parts or [batch.n]
    from repro.sql import QueryResult

    results = []
    prev = 0
    for b in bounds:
        part = batch.slice(prev, b)
        prev = b
        cols = {n: decoded_column(n, part.column(n)) for n in SCHEMA.names}
        results.append(ex.execute(cols, part.n))
    return QueryResult.merge(results)


class TestPartitionRows:
    TEXT2 = (
        "select L.ts, L.k from S [range 4 slide 4] as A, "
        "S [partition by k rows 2] as L where A.k == L.k"
    )

    def test_two_latest_rows_per_key(self):
        res = run(
            self.TEXT2,
            {"ts": [1, 2, 3, 4], "k": [7, 7, 7, 8], "v": [0, 0, 0, 0]},
        )
        # key 7: latest two rows (ts 2, 3); key 8: only one row exists;
        # keys in ascending order, each key's rows oldest first
        assert res.n_rows == 3
        np.testing.assert_array_equal(res.columns["ts"], [2, 3, 4])
        np.testing.assert_array_equal(res.columns["k"], [7, 7, 8])

    def test_rows_accumulate_across_batches(self):
        res = run(
            self.TEXT2,
            {
                "ts": [1, 2, 3, 4, 5, 6, 7, 8],
                "k": [9, 9, 9, 9, 9, 9, 9, 9],
                "v": [0] * 8,
            },
            parts=[4, 8],
        )
        # two windows; each emits the 2 latest rows of key 9 at window end
        assert res.n_rows == 4
        np.testing.assert_array_equal(res.columns["ts"], [3, 4, 7, 8])
        np.testing.assert_array_equal(res.columns["k"], [9, 9, 9, 9])


class TestExplicitSideRows:
    def test_lone_inner_side_keeps_rows_k(self):
        columns = {
            "ts": [1, 2, 3, 4, 5, 6, 7, 8],
            "k": [7, 7, 7, 8, 8, 7, 8, 8],
            "v": [0] * 8,
        }
        explicit = run(
            "select L.ts, L.k from S [range 4 slide 4] as A "
            "join S [partition by k rows 2] as L on A.k == L.k",
            columns,
        )
        comma = run(TestPartitionRows.TEXT2, columns)
        assert explicit.n_rows == comma.n_rows == 7
        np.testing.assert_array_equal(explicit.columns["ts"], [2, 3, 4, 3, 6, 7, 8])
        for name in ("ts", "k"):
            np.testing.assert_array_equal(explicit.columns[name], comma.columns[name])

    @pytest.mark.parametrize(
        "text",
        [
            "select L.ts from S [range 4] as A "
            "join S [partition by k rows 2] as L on A.k == L.k "
            "join S [partition by v rows 1] as M on A.v == M.v",
            "select L.ts from S [range 4] as A "
            "left join S [partition by k rows 2] as L on A.k == L.k",
        ],
    )
    def test_multi_way_and_left_sides_keep_one_row(self, text):
        with pytest.raises(PlanningError, match="rows 1"):
            plan_query(text, CATALOG)


class TestJoinWithDerivedFilter:
    def test_where_in_derived_stream(self):
        text = (
            "( select ts, k from S [range unbounded] where v >= 10 ) as F "
            "select L.ts from F [range 2 slide 2] as A, "
            "F [partition by k rows 1] as L where A.k == L.k"
        )
        res = run(
            text,
            {
                "ts": [1, 2, 3, 4, 5, 6],
                "k": [1, 1, 1, 1, 1, 1],
                "v": [0, 20, 30, 0, 40, 50],
            },
        )
        # rows with v<10 never enter the derived stream: windows form over
        # ts {2,3} and {5,6}; latest per window: ts 3 and ts 6
        assert res.n_rows == 2
        np.testing.assert_array_equal(res.columns["ts"], [3, 6])


class TestProbeOtherThanKey:
    def test_single_inner_side_probes_a_non_key_column(self):
        res = run(
            "select L.ts, L.k, L.v from S [range 4 slide 4] as A "
            "join S [partition by k rows 1] as L on A.v == L.k",
            {
                "ts": [1, 2, 3, 4, 5, 6, 7, 8],
                "k": [1, 2, 1, 3, 2, 5, 1, 2],
                "v": [2, 1, 9, 1, 5, 3, 2, 2],
            },
        )
        # window 1 probes v in {1, 2, 9}: keys 1 and 2 hit, 9 misses;
        # window 2 probes {2, 3, 5}: key 3's row is carried from window 1
        assert res.n_rows == 5
        np.testing.assert_array_equal(res.columns["ts"], [3, 2, 8, 4, 6])
        np.testing.assert_array_equal(res.columns["k"], [1, 2, 2, 3, 5])
        np.testing.assert_array_equal(res.columns["v"], [9, 1, 2, 1, 3])


class TestQ3Spellings:
    """Q3's comma form and its ``JOIN ... ON`` spelling are one query."""

    @staticmethod
    def texts():
        from repro.datasets import QUERIES

        comma = QUERIES["q3"].text()
        explicit = comma.replace(
            ", SegSpeedStr [partition", " join SegSpeedStr [partition"
        ).replace("where A.vehicle", "on A.vehicle")
        assert explicit != comma
        return comma, explicit

    def test_same_plan_digests(self):
        from repro.datasets import QUERIES
        from repro.optimizer import optimize_plan, plan_digest

        catalog = QUERIES["q3"].catalog
        for text in self.texts():
            plan = plan_query(text, catalog)
            assert plan_digest(plan.root) == "b308b24c7b113654"
            assert optimize_plan(plan).info.plan_digest == "254dfcebb762cd17"

    def test_bit_identical_outputs(self):
        from repro.core.engine import CompressStreamDB, EngineConfig
        from repro.datasets import QUERIES

        q3 = QUERIES["q3"]
        outputs = []
        for text in self.texts():
            engine = CompressStreamDB(
                q3.catalog,
                text,
                EngineConfig(bandwidth_mbps=None, profile_query=False),
            )
            source = q3.make_source(batch_size=600, batches=2, seed=0)
            outputs.append(engine.run(source, collect_outputs=True).outputs)
        comma, explicit = outputs
        assert comma.n_rows == explicit.n_rows == 35106
        assert list(comma.columns) == list(explicit.columns)
        for name, arr in comma.columns.items():
            assert arr.dtype == explicit.columns[name].dtype, name
            np.testing.assert_array_equal(arr, explicit.columns[name])


class TestExamplesCompile:
    @pytest.mark.parametrize(
        "name",
        [
            "quickstart.py",
            "smart_grid_monitoring.py",
            "linear_road_tolls.py",
            "cluster_anomaly.py",
            "edge_deployment.py",
        ],
    )
    def test_compiles(self, name):
        path = Path(__file__).resolve().parent.parent / "examples" / name
        assert path.exists()
        py_compile.compile(str(path), doraise=True)
