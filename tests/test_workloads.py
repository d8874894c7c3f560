"""Tests for repro.workloads: traces, corpus, fixtures and replay."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.errors import WorkloadError
from repro.optimizer import JoinNode, OrderLimitNode, find_node
from repro.sql.executor import QueryResult, plan_shape
from repro.sql.planner import Planner
from repro.workloads import (
    QUERIES,
    TRACES,
    bless_entries,
    check_fixture,
    decode_fixture,
    encode_fixture,
    fixture_path,
    get_entry,
    get_trace,
    load_fixture,
    replay,
    run_baseline,
    run_fleet,
    run_single,
    save_fixture,
    select_entries,
)


class TestTraces:
    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_deterministic(self, name):
        trace = TRACES[name]
        a = list(trace.make_source(batch_size=64, batches=4, seed=3))
        b = list(trace.make_source(batch_size=64, batches=4, seed=3))
        for ba, bb in zip(a, b):
            for f in trace.schema:
                np.testing.assert_array_equal(ba.column(f.name), bb.column(f.name))

    def test_seed_changes_data(self):
        trace = TRACES["smart_grid_spikes"]
        a = next(iter(trace.make_source(batch_size=64, batches=1, seed=1)))
        b = next(iter(trace.make_source(batch_size=64, batches=1, seed=2)))
        assert not np.array_equal(a.column("value"), b.column("value"))

    def test_phases_cycle(self):
        trace = TRACES["codec_flip_adversarial"]
        source = trace.make_source(batch_size=32, batches=None, seed=0)
        names = [source.phase_for_batch(i).name for i in range(0, 8, 2)]
        assert names == ["constant", "ramp", "noise", "dict"]

    def test_flip_ref_misses_keys(self):
        # ref spans 4x the key domain: the outer-join miss path stays hot
        trace = TRACES["codec_flip_adversarial"]
        batch = next(iter(trace.make_source(batch_size=256, batches=1, seed=0)))
        assert batch.column("ref").max() >= 8 > batch.column("key").max()

    def test_unknown_trace(self):
        with pytest.raises(WorkloadError):
            get_trace("nope")


class TestCorpus:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_entry_plans(self, name):
        entry = QUERIES[name]
        plan = Planner(entry.catalog).plan_text(entry.sql)
        assert plan is not None

    def test_new_surface_coverage(self):
        tagged = [e for e in QUERIES.values() if e.tags and "paper" not in e.tags]
        assert len(tagged) >= 6
        all_tags = {t for e in tagged for t in e.tags}
        assert {
            "order-limit",
            "or-predicate",
            "having-or",
            "multiway-join",
            "outer-join",
        } <= all_tags

    def test_multiway_is_three_sources(self):
        entry = get_entry("flip_multiway")
        plan = Planner(entry.catalog).plan_text(entry.sql)
        assert plan_shape(plan.root) == "join"
        # probe + two partition sides
        assert len(find_node(plan.root, JoinNode).sides) == 2

    def test_outer_side_planned(self):
        entry = get_entry("flip_outer")
        plan = Planner(entry.catalog).plan_text(entry.sql)
        assert plan_shape(plan.root) == "join"
        sides = find_node(plan.root, JoinNode).sides
        assert [side.outer for side in sides] == [False, True]

    def test_order_limit_planned(self):
        entry = get_entry("sg_top_plugs")
        plan = Planner(entry.catalog).plan_text(entry.sql)
        assert plan_shape(plan.root) == "window-agg"
        order = find_node(plan.root, OrderLimitNode)
        assert order.limit == 3 and len(order.keys) == 2

    def test_select_filters_compose(self):
        quick_sg = select_entries(trace="smart_grid_spikes", quick=True)
        assert [e.name for e in quick_sg] == ["sg_top_plugs"]

    def test_empty_selection_rejected(self):
        with pytest.raises(WorkloadError):
            select_entries(trace="smart_grid_spikes", names=["q1"])

    def test_unknown_query(self):
        with pytest.raises(WorkloadError):
            get_entry("q99")

    def test_serve_duck_type(self):
        entry = get_entry("sg_top_plugs")
        assert entry.text(slide=entry.window) == entry.sql
        assert set(entry.catalog) == {"SmartGridStr"}


class TestFixtures:
    def _result(self):
        return QueryResult(
            columns={
                "k": np.array([2, 1, 1], dtype=np.int64),
                "v": np.array([np.nan, 0.5, 1.5]),
            },
            n_rows=3,
        )

    def test_encode_decode_roundtrip_with_nan(self):
        entry = get_entry("q1")
        doc = encode_fixture(entry, self._result())
        assert json.dumps(doc)  # strict JSON: NaN went to null
        restored = decode_fixture(doc)
        assert restored.n_rows == 3
        assert np.isnan(restored.columns["v"]).sum() == 1
        assert restored.columns["k"].dtype == np.int64

    def test_save_load_check(self, tmp_path):
        entry = get_entry("q1")
        result = self._result()
        save_fixture(entry, result, tmp_path)
        assert check_fixture(entry, result, tmp_path) is None

    def test_mismatch_reported_not_raised(self, tmp_path):
        entry = get_entry("q1")
        save_fixture(entry, self._result(), tmp_path)
        other = self._result()
        other.columns["k"] = other.columns["k"] + 1
        detail = check_fixture(entry, other, tmp_path)
        assert detail is not None and "k" in detail

    def test_missing_fixture_raises(self, tmp_path):
        with pytest.raises(WorkloadError):
            load_fixture("q1", tmp_path)

    def test_stale_geometry_raises(self, tmp_path):
        entry = get_entry("q1")
        save_fixture(entry, self._result(), tmp_path)
        doc = json.loads(fixture_path("q1", tmp_path).read_text())
        doc["geometry"]["batches"] += 1
        fixture_path("q1", tmp_path).write_text(json.dumps(doc))
        with pytest.raises(WorkloadError):
            check_fixture(entry, self._result(), tmp_path)

    def test_version_mismatch_raises(self, tmp_path):
        entry = get_entry("q1")
        save_fixture(entry, self._result(), tmp_path)
        doc = json.loads(fixture_path("q1", tmp_path).read_text())
        doc["version"] = 99
        fixture_path("q1", tmp_path).write_text(json.dumps(doc))
        with pytest.raises(WorkloadError):
            load_fixture("q1", tmp_path)


class TestGoldenReplay:
    """The committed fixtures are the expected results — Q1-Q6 + surface."""

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_single_engine_matches_golden(self, name):
        entry = QUERIES[name]
        detail = check_fixture(entry, run_single(entry))
        assert detail is None, detail

    def test_fleet_path_matches_golden(self):
        entry = get_entry("flip_outer")
        detail = check_fixture(entry, run_fleet(entry))
        assert detail is None, detail

    def test_baseline_blessed(self):
        # the committed fixture must equal the decode-first reference
        entry = get_entry("sg_having_or")
        detail = check_fixture(entry, run_baseline(entry))
        assert detail is None, detail

    def test_outer_join_fixture_has_misses(self):
        doc = load_fixture("flip_outer")
        w = doc["columns"]["refW"]["values"]
        assert any(v is None for v in w) and any(v is not None for v in w)
        # key column of the outer side keeps the probe value on a miss
        assert doc["columns"]["refW"]["dtype"] == "float"


class TestReplayCampaign:
    def test_bless_then_replay(self, tmp_path):
        rep = replay(
            names=["sg_top_plugs"],
            paths=("single",),
            bless=True,
            fixture_dir=tmp_path,
        )
        assert rep.blessed == ["sg_top_plugs"]
        assert rep.pass_rate == 1.0 and rep.checks == 1

    def test_tampered_fixture_scores_not_raises(self, tmp_path):
        entry = get_entry("cm_busy_users")
        bless_entries([entry], tmp_path)
        path = fixture_path(entry.name, tmp_path)
        doc = json.loads(path.read_text())
        doc["columns"]["totalCPU"]["values"][0] += 1.0
        path.write_text(json.dumps(doc))
        rep = replay(names=[entry.name], paths=("single",), fixture_dir=tmp_path)
        assert rep.pass_rate == 0.0
        assert rep.failures[0].detail

    def test_unknown_path_rejected(self):
        with pytest.raises(WorkloadError):
            replay(names=["q1"], paths=("warp",))

    def test_report_json_shape(self, tmp_path):
        rep = replay(
            names=["flip_order_limit"],
            paths=("single",),
            bless=True,
            fixture_dir=tmp_path,
        )
        doc = rep.to_json()
        assert doc["pass_rate"] == 1.0
        assert doc["outcomes"][0]["query"] == "flip_order_limit"
        assert doc["outcomes"][0]["tuples"] > 0


class TestWorkloadsCLI:
    def test_quick_passes(self, capsys, tmp_path):
        out_json = tmp_path / "report.json"
        code = main(["workloads", "--quick", "--no-fleet", "--json", str(out_json)])
        assert code == 0
        out = capsys.readouterr().out
        assert "pass rate    100.0%" in out
        doc = json.loads(out_json.read_text())
        assert doc["failed"] == 0

    def test_unknown_query_is_usage_error(self, capsys):
        assert main(["workloads", "--query", "q99"]) == 2
        assert "error" in capsys.readouterr().err
