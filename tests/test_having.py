"""Tests for the HAVING clause across parser, planner and executors."""

import numpy as np
import pytest

from repro import CompressStreamDB, EngineConfig
from repro.errors import PlanningError
from repro.operators.base import decoded_column
from repro.optimizer import ProjectNode, WindowAggNode, find_node
from repro.sql import make_executor, parse_query, plan_query
from repro.sql.ast import BoolOp, Comparison
from repro.stream import Batch, Field, GeneratorSource, Schema

SCHEMA = Schema(
    [
        Field("ts", "int", 8),
        Field("k", "int", 4),
        Field("v", "float", 4, decimals=2),
    ]
)
CATALOG = {"S": SCHEMA}


def aggregation(plan):
    return find_node(plan.root, WindowAggNode)


def hidden_outputs(plan):
    """Computed columns beyond the visible select list."""
    visible = find_node(plan.root, ProjectNode).outputs
    return aggregation(plan).outputs[len(visible):]


def run_once(query, columns):
    plan = plan_query(query, CATALOG)
    ex = make_executor(plan)
    batch = Batch.from_values(SCHEMA, columns)
    cols = {n: decoded_column(n, batch.column(n)) for n in SCHEMA.names}
    return ex.execute(cols, batch.n)


class TestParsing:
    def test_having_parsed(self):
        q = parse_query(
            "select k, avg(v) from S [range 4] group by k having avg(v) > 2"
        )
        assert isinstance(q.having, Comparison)
        assert q.having.op == ">"

    def test_having_with_and(self):
        q = parse_query(
            "select k, avg(v) from S [range 4] group by k "
            "having avg(v) > 2 and count(*) >= 3"
        )
        assert isinstance(q.having, BoolOp)
        assert q.having.op == "and"
        assert len(q.having.items) == 2

    def test_having_with_or(self):
        q = parse_query(
            "select k, avg(v) from S [range 4] group by k "
            "having avg(v) > 2 or count(*) >= 3 and avg(v) < 1"
        )
        assert isinstance(q.having, BoolOp)
        assert q.having.op == "or"
        assert isinstance(q.having.items[1], BoolOp)
        assert q.having.items[1].op == "and"

    def test_having_without_group_by_is_allowed(self):
        q = parse_query("select avg(v) as m from S [range 4] having m > 2")
        assert q.having is not None


class TestPlanning:
    def test_reuses_select_aggregate(self):
        plan = plan_query(
            "select k, avg(v) as m from S [range 4] group by k having avg(v) > 2",
            CATALOG,
        )
        assert hidden_outputs(plan) == ()
        assert aggregation(plan).having.output == "m"

    def test_hidden_aggregate_created(self):
        plan = plan_query(
            "select k, avg(v) as m from S [range 4] group by k having max(v) > 2",
            CATALOG,
        )
        assert len(hidden_outputs(plan)) == 1
        assert hidden_outputs(plan)[0].agg_func == "max"
        # the hidden aggregate contributes capability requirements
        assert "order" in plan.profile.column_uses["v"].caps

    def test_alias_reference(self):
        plan = plan_query(
            "select k, sum(v) as total from S [range 4] group by k having total < 9",
            CATALOG,
        )
        assert aggregation(plan).having.output == "total"

    def test_flipped_literal(self):
        plan = plan_query(
            "select k, avg(v) as m from S [range 4] group by k having 2 < avg(v)",
            CATALOG,
        )
        assert aggregation(plan).having.op == ">"

    def test_unknown_alias_rejected(self):
        with pytest.raises(PlanningError):
            plan_query(
                "select k, avg(v) from S [range 4] group by k having ghost > 1",
                CATALOG,
            )

    def test_non_literal_rhs_rejected(self):
        with pytest.raises(PlanningError):
            plan_query(
                "select k, avg(v) from S [range 4] group by k having avg(v) > max(v)",
                CATALOG,
            )

    def test_having_on_passthrough_rejected(self):
        with pytest.raises(PlanningError):
            plan_query("select k from S [range unbounded] having k > 1", CATALOG)

    def test_having_on_join_rejected(self):
        with pytest.raises(PlanningError):
            plan_query(
                "select L.ts from S [range 4] as A, S [partition by k rows 1] as L "
                "where A.k == L.k having count(*) > 1",
                CATALOG,
            )


class TestExecution:
    COLUMNS = {
        "ts": np.arange(8),
        "k": [1, 1, 2, 2, 1, 1, 2, 2],
        "v": [30.0, 40.0, 5.0, 6.0, 50.0, 60.0, 7.0, 8.0],
    }

    def test_grouped_filtering(self):
        res = run_once(
            "select k, avg(v) as m from S [range 4 slide 4] group by k "
            "having avg(v) > 20",
            self.COLUMNS,
        )
        np.testing.assert_array_equal(res.columns["k"], [1, 1])
        np.testing.assert_array_equal(res.columns["m"], [35.0, 55.0])

    def test_hidden_aggregate_not_in_output(self):
        res = run_once(
            "select k from S [range 4 slide 4] group by k having avg(v) > 20",
            self.COLUMNS,
        )
        assert set(res.columns) == {"k"}
        np.testing.assert_array_equal(res.columns["k"], [1, 1])

    def test_global_having(self):
        res = run_once(
            "select ts, avg(v) as m from S [range 4 slide 4] having m > 21",
            self.COLUMNS,
        )
        assert res.n_rows == 1
        np.testing.assert_array_equal(res.columns["ts"], [7])

    def test_all_rows_filtered(self):
        res = run_once(
            "select k, avg(v) as m from S [range 4 slide 4] group by k "
            "having avg(v) > 1000",
            self.COLUMNS,
        )
        assert res.n_rows == 0

    def test_or_having(self):
        # group 2 of the first window (avg 5.5) survives via the OR arm
        res = run_once(
            "select k, avg(v) as m from S [range 4 slide 4] group by k "
            "having avg(v) > 20 or m < 6",
            self.COLUMNS,
        )
        np.testing.assert_array_equal(res.columns["k"], [1, 2, 1])
        np.testing.assert_array_equal(res.columns["m"], [35.0, 5.5, 55.0])

    def test_equality_having_on_count(self):
        res = run_once(
            "select k, count(*) as c from S [range 8 slide 8] group by k "
            "having c == 4",
            self.COLUMNS,
        )
        assert res.n_rows == 2  # both groups have exactly 4 rows


class TestEndToEndCompressed:
    def test_having_matches_baseline_under_compression(self, fast_calibration):
        query = (
            "select k, avg(v) as m, count(*) as c from S [range 16 slide 16] "
            "group by k having avg(v) >= 25"
        )

        def make(i):
            rng = np.random.default_rng(100 + i)
            return {
                "ts": np.arange(256) + i * 256,
                "k": rng.integers(0, 4, 256),
                "v": np.round(rng.integers(0, 200, 256) / 4, 2),
            }

        results = {}
        for mode in ("baseline", "adaptive", "static:dict"):
            engine = CompressStreamDB(
                CATALOG, query, EngineConfig(mode=mode, calibration=fast_calibration)
            )
            rep = engine.run(
                GeneratorSource(SCHEMA, make, limit=3), collect_outputs=True
            )
            results[mode] = rep.outputs
        base = results.pop("baseline")
        assert base.n_rows > 0
        assert (base.columns["m"] >= 25).all()
        for mode, outputs in results.items():
            assert outputs.n_rows == base.n_rows, mode
            for name in base.columns:
                np.testing.assert_allclose(outputs.columns[name], base.columns[name])
