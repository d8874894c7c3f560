"""Tests for the engine extensions: hybrid single-tuple mode, forced
decode (ablation), queueing channel with arrival model, multi-hop paths."""

import numpy as np
import pytest

from repro import CompressStreamDB, EngineConfig, SystemParams
from repro.errors import ChannelError
from repro.net import Hop, MultiHopChannel, QueuedChannel
from repro.stream import Field, GeneratorSource, Schema

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


def engine(fast_calibration, **cfg):
    return CompressStreamDB(
        {"S": SCHEMA},
        QUERY,
        EngineConfig(calibration=fast_calibration, **cfg),
    )


class TestHybridMode:
    def test_small_batches_bypass_compression(self, fast_calibration):
        e = engine(fast_calibration, mode="static:bd", hybrid_threshold=512)
        rep = e.run(source(n=256))  # below the threshold
        assert rep.space_saving == 0.0
        assert rep.final_choices == {}  # selector never consulted

    def test_large_batches_still_compress(self, fast_calibration):
        e = engine(fast_calibration, mode="static:bd", hybrid_threshold=64)
        rep = e.run(source(n=256))
        assert rep.space_saving > 0.0

    def test_hybrid_results_correct(self, fast_calibration):
        base = engine(fast_calibration, mode="baseline").run(
            source(), collect_outputs=True
        )
        hybrid = engine(
            fast_calibration, mode="adaptive", hybrid_threshold=10_000
        ).run(source(), collect_outputs=True)
        for name in base.outputs.columns:
            np.testing.assert_allclose(
                hybrid.outputs.columns[name], base.outputs.columns[name]
            )

    def test_negative_threshold_rejected(self, fast_calibration):
        from repro.core import Client, StaticSelector
        from repro.core.query_profile import QueryProfile

        with pytest.raises(ValueError):
            Client(SCHEMA, StaticSelector("ns"), QueryProfile(), hybrid_threshold=-1)


class TestForceDecode:
    def test_results_identical(self, fast_calibration):
        direct = engine(fast_calibration, mode="static:ns").run(
            source(), collect_outputs=True
        )
        decoded = engine(
            fast_calibration, mode="static:ns", force_decode=True
        ).run(source(), collect_outputs=True)
        for name in direct.outputs.columns:
            np.testing.assert_allclose(
                decoded.outputs.columns[name], direct.outputs.columns[name]
            )

    def test_forced_decode_books_decompression_time(self, fast_calibration):
        direct = engine(fast_calibration, mode="static:ns").run(source())
        decoded = engine(fast_calibration, mode="static:ns", force_decode=True).run(
            source()
        )
        assert direct.stage_seconds()["decompress"] == 0.0
        assert decoded.stage_seconds()["decompress"] > 0.0

    def test_bytes_on_wire_unchanged(self, fast_calibration):
        direct = engine(fast_calibration, mode="static:bd").run(source())
        decoded = engine(fast_calibration, mode="static:bd", force_decode=True).run(
            source()
        )
        assert direct.profiler.bytes_sent == decoded.profiler.bytes_sent


class TestQueuedChannel:
    def test_no_queue_when_link_is_fast(self):
        ch = QueuedChannel(bandwidth_mbps=8000.0)  # 1 GB/s
        t1, d1 = ch.send(1000, ready_time=0.0)
        t2, d2 = ch.send(1000, ready_time=1.0)
        assert ch.queue_seconds == 0.0
        assert d2 == pytest.approx(1.0 + ch.transmit_seconds(1000))

    def test_queue_builds_under_saturation(self):
        ch = QueuedChannel(bandwidth_mbps=8.0)  # 1 MB/s
        # three 1 MB batches all ready at t=0: 2nd waits 1 s, 3rd waits 2 s
        delays = []
        for _ in range(3):
            seconds, _ = ch.send(1_000_000, ready_time=0.0)
            delays.append(seconds)
        assert delays == pytest.approx([1.0, 2.0, 3.0])
        assert ch.queue_seconds == pytest.approx(3.0)

    def test_negative_ready_time_rejected(self):
        with pytest.raises(ChannelError):
            QueuedChannel(bandwidth_mbps=8.0).send(1, ready_time=-1.0)

    def test_ship_without_ready_time_is_transmit(self):
        queued = QueuedChannel(bandwidth_mbps=8.0, latency_s=0.01)
        plain = QueuedChannel(bandwidth_mbps=8.0, latency_s=0.01)
        assert queued.ship(1000, None) == plain.transmit(1000)
        assert queued.bytes_sent == plain.bytes_sent == 1000
        assert queued.link_free_at == 0.0  # no queue clock was touched

    def test_reset_clears_clock(self):
        ch = QueuedChannel(bandwidth_mbps=8.0)
        ch.send(1_000_000, ready_time=0.0)
        ch.reset()
        assert ch.link_free_at == 0.0
        assert ch.queue_seconds == 0.0

    def test_engine_arrival_model(self, fast_calibration):
        # a baseline stream overloading a thin link must show queueing in
        # its transmission time; compression relieves it
        params = SystemParams(arrival_rate_tps=5e6)
        slow = engine(
            fast_calibration, mode="baseline", bandwidth_mbps=2, params=params
        ).run(source(batches=6))
        compressed = engine(
            fast_calibration, mode="static:bd", bandwidth_mbps=2, params=params
        ).run(source(batches=6))
        assert compressed.stage_seconds()["trans"] < slow.stage_seconds()["trans"]


class TestMultiHop:
    def test_times_sum_over_hops(self):
        path = MultiHopChannel(
            [Hop("uplink", 8.0, 0.5), Hop("backbone", 80.0, 0.1)]
        )
        expected = (1_000_000 / 1e6 + 0.5) + (1_000_000 / 1e7 + 0.1)
        assert path.transmit_seconds(1_000_000) == pytest.approx(expected)

    def test_bottleneck_reported(self):
        path = MultiHopChannel([Hop("a", 10.0), Hop("b", 1000.0)])
        assert path.bandwidth_mbps == 10.0

    def test_breakdown_accumulates(self):
        path = MultiHopChannel([Hop("a", 8.0), Hop("b", 80.0)])
        path.transmit(1_000_000)
        path.transmit(1_000_000)
        (name_a, sec_a), (name_b, sec_b) = path.breakdown()
        assert (name_a, name_b) == ("a", "b")
        assert sec_a == pytest.approx(2.0)
        assert sec_b == pytest.approx(0.2)

    def test_local_handoff_hop(self):
        path = MultiHopChannel([Hop("ipc", None, 0.001), Hop("wan", 100.0)])
        assert path.transmit_seconds(0) == pytest.approx(0.001)

    def test_needs_hops(self):
        with pytest.raises(ChannelError):
            MultiHopChannel([])

    def test_hop_validation(self):
        with pytest.raises(ChannelError):
            Hop("bad", -5.0)
        with pytest.raises(ChannelError):
            Hop("bad", 5.0, latency_s=-1)

    def test_engine_with_multihop_factory(self, fast_calibration):
        def factory():
            return MultiHopChannel.sensor_edge_cloud(uplink_mbps=5.0)

        base = engine(
            fast_calibration, mode="baseline", channel_factory=factory
        ).run(source())
        comp = engine(
            fast_calibration, mode="adaptive", channel_factory=factory
        ).run(source())
        # the thin uplink makes compression pay off strongly
        assert comp.total_seconds < base.total_seconds
        assert comp.space_saving > 0.3
