"""Integration tests for the pipeline and the engine facade."""

import numpy as np
import pytest

from repro import CompressStreamDB, EngineConfig, SystemParams
from repro.errors import EngineError
from repro.optimizer import ScanNode, find_node
from repro.stream import ArraySource, Field, GeneratorSource, Schema

SCHEMA = Schema(
    [
        Field("ts", "int", 8),
        Field("k", "int", 4),
        Field("v", "float", 4, decimals=2),
    ]
)
QUERY = "select ts, k, avg(v) as m from S [range 16 slide 16] group by k"


def source(batches=4, n=256, seed=0):
    def make(i):
        rng = np.random.default_rng(seed + i)
        return {
            "ts": np.arange(n) + i * n,
            "k": rng.integers(0, 4, n),
            "v": np.round(rng.integers(0, 200, n) / 4, 2),
        }

    return GeneratorSource(SCHEMA, make, limit=batches)


def engine(mode="adaptive", calibration=None, **cfg):
    return CompressStreamDB(
        {"S": SCHEMA},
        QUERY,
        EngineConfig(mode=mode, calibration=calibration, **cfg),
    )


class TestEngineModes:
    def test_unknown_mode_rejected(self):
        with pytest.raises(EngineError):
            engine(mode="turbo")

    def test_unknown_static_codec_rejected(self):
        with pytest.raises(EngineError):
            engine(mode="static:zstd")

    def test_schema_shorthand_catalog(self):
        e = CompressStreamDB(SCHEMA, QUERY, stream_name="S")
        assert find_node(e.plan.root, ScanNode).stream == "S"

    def test_with_mode_copies(self, fast_calibration):
        e = engine(calibration=fast_calibration)
        b = e.with_mode("baseline")
        assert b.config.mode == "baseline"
        assert e.config.mode == "adaptive"


class TestRunReports:
    def test_baseline_run_accounting(self, fast_calibration):
        rep = engine("baseline", fast_calibration).run(source())
        assert rep.profiler.batches == 4
        assert rep.tuples == 4 * 256
        assert rep.space_saving == 0.0
        assert rep.compression_ratio == 1.0
        assert rep.throughput > 0
        assert rep.avg_latency > 0

    def test_adaptive_saves_space_and_bytes(self, fast_calibration):
        base = engine("baseline", fast_calibration).run(source())
        adaptive = engine("adaptive", fast_calibration).run(source())
        assert adaptive.space_saving > 0.3
        assert adaptive.profiler.bytes_sent < base.profiler.bytes_sent
        assert adaptive.profiler.bytes_uncompressed == base.profiler.bytes_uncompressed

    def test_results_identical_across_modes(self, fast_calibration):
        reports = {
            mode: engine(mode, fast_calibration).run(source(), collect_outputs=True)
            for mode in ("baseline", "adaptive", "static:bd", "static:bitmap")
        }
        base = reports.pop("baseline").outputs
        for mode, rep in reports.items():
            assert rep.outputs.n_rows == base.n_rows, mode
            for name in base.columns:
                np.testing.assert_allclose(
                    rep.outputs.columns[name], base.columns[name],
                    err_msg=f"{mode}:{name}",
                )

    def test_max_batches_limits_run(self, fast_calibration):
        rep = engine("baseline", fast_calibration).run(
            source(batches=10), max_batches=3
        )
        assert rep.profiler.batches == 3

    def test_breakdown_fractions_sum_to_one(self, fast_calibration):
        rep = engine("adaptive", fast_calibration).run(source())
        assert sum(rep.breakdown().values()) == pytest.approx(1.0)

    def test_summary_string(self, fast_calibration):
        rep = engine("baseline", fast_calibration).run(source())
        assert "throughput" in rep.summary()

    def test_decision_log_populated(self, fast_calibration):
        rep = engine("adaptive", fast_calibration).run(source())
        assert rep.decision_log
        assert set(rep.final_choices) == {"ts", "k", "v"}


class TestWaitAccounting:
    def test_lazy_choice_charges_wait(self, fast_calibration):
        cfg = dict(calibration=fast_calibration, params=SystemParams(t_wait=0.01))
        lazy = engine("static:bd", **cfg).run(source())
        eager = engine("static:ns", **cfg).run(source())
        assert lazy.stage_seconds()["wait"] == pytest.approx(0.04)
        assert eager.stage_seconds()["wait"] == 0.0


class TestBandwidthEffect:
    @pytest.mark.parametrize("mbps,faster", [(10, True), (None, False)])
    def test_compression_pays_only_when_network_is_bottleneck(
        self, fast_calibration, mbps, faster
    ):
        base = engine("baseline", fast_calibration, bandwidth_mbps=mbps).run(source())
        comp = engine("static:ns", fast_calibration, bandwidth_mbps=mbps).run(source())
        if faster:
            assert comp.total_seconds < base.total_seconds
        # single-node: compression cannot reduce transmission (there is none)
        if mbps is None:
            assert comp.stage_seconds()["trans"] == 0.0


class TestArraySource:
    def test_batches_and_tail(self):
        cols = {
            "ts": np.arange(100),
            "k": np.zeros(100, dtype=np.int64),
            "v": np.zeros(100),
        }
        src = ArraySource(SCHEMA, cols, batch_size=32)
        sizes = [b.n for b in src]
        assert sizes == [32, 32, 32]  # tail of 4 dropped
        src_tail = ArraySource(SCHEMA, cols, batch_size=32, keep_tail=True)
        assert [b.n for b in src_tail] == [32, 32, 32, 4]
