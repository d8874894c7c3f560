"""Pinned per-batch shipping over every link setup the engine and fleet use.

The engine (``CompressStreamDB.run``) and the fleet (``TenantSession.step``)
ship batches over the same five link shapes: a plain link, a queued link
fed by an arrival model, and fault-injecting wrappers around each (plus a
faulty multi-hop path, engine only).  The literals below were recorded
from a run and must not move when the shipping code is restructured:
they hold the exact virtual seconds, attempts, bytes and recovery
counters each setup produces.
"""

import numpy as np
import pytest

from repro import CompressStreamDB, EngineConfig, SystemParams
from repro.net import FaultProfile, FaultyChannel, Hop, MultiHopChannel
from repro.net.transport import ReliabilityConfig
from repro.serve import TenantSession, TenantSpec
from repro.stream import Field, GeneratorSource, Schema

SCHEMA = Schema(
    [
        Field("ts", "int", 8),
        Field("k", "int", 4),
        Field("v", "float", 4, decimals=2),
    ]
)
QUERY = "select ts, k, avg(v) as m from S [range 16 slide 16] group by k"

LOSSY = FaultProfile(drop_rate=0.25, corrupt_rate=0.15, duplicate_rate=0.1, seed=5)
RETRIES = ReliabilityConfig(max_retries=1)
ARRIVALS = 400_000.0


def _multihop():
    return FaultyChannel(
        MultiHopChannel([Hop("uplink", 8.0, 0.002), Hop("backbone", 1000.0, 0.01)]),
        hop_profiles=[LOSSY, FaultProfile(stall_rate=0.3, seed=2)],
    )


#: EngineConfig overrides per link setup
ENGINE_SETUPS = {
    "plain": dict(),
    "queued-arrivals": dict(params=SystemParams(arrival_rate_tps=ARRIVALS)),
    "faulty-plain": dict(fault_profile=LOSSY, reliability=RETRIES),
    "faulty-queued-arrivals": dict(
        fault_profile=LOSSY,
        reliability=RETRIES,
        params=SystemParams(arrival_rate_tps=ARRIVALS),
    ),
    "faulty-multihop": dict(channel_factory=_multihop, reliability=RETRIES),
}

#: TenantSpec overrides per link setup (the fleet has no multi-hop links)
SESSION_SETUPS = {
    "plain": dict(),
    "queued-arrivals": dict(arrival_rate_tps=ARRIVALS),
    "faulty-plain": dict(fault_profile=LOSSY, reliability=RETRIES),
    "faulty-queued-arrivals": dict(
        fault_profile=LOSSY, reliability=RETRIES, arrival_rate_tps=ARRIVALS
    ),
}


def _source(batches=6, n=512):
    def make(i):
        rng = np.random.default_rng(40 + i)
        return {
            "ts": np.arange(n) + i * n,
            "k": rng.integers(0, 4, n),
            "v": np.round(rng.integers(0, 200, n) / 4, 2),
        }

    return GeneratorSource(SCHEMA, make, limit=batches)


def run_engine(setup, calibration):
    engine = CompressStreamDB(
        {"S": SCHEMA},
        QUERY,
        EngineConfig(
            bandwidth_mbps=8.0,
            latency_s=0.001,
            calibration=calibration,
            profile_query=False,
            **ENGINE_SETUPS[setup],
        ),
    )
    return engine.run(_source())


def step_session(setup):
    spec = TenantSpec(
        tenant="pin",
        query="q1",
        batches=6,
        batch_size=512,
        seed=11,
        mode="static:ns",
        bandwidth_mbps=8.0,
        latency_s=0.001,
        **SESSION_SETUPS[setup],
    )
    session = TenantSession(spec)
    steps = []
    while True:
        outcome = session.step(0.0)
        if outcome.kind == "done":
            return session, steps
        steps.append((outcome.kind, outcome.virtual_seconds, outcome.attempts))


def fault_counters(report):
    faults = report.faults
    if faults is None:
        return None
    return (
        faults.injected_total,
        faults.detected,
        faults.retried,
        faults.recovered,
        faults.quarantined,
        faults.quarantined_tuples,
        faults.corrupt_frames,
        faults.timeouts,
        faults.duplicates_discarded,
    )


ENGINE_BYTES = {
    "faulty-multihop": 31696,
    "faulty-plain": 31696,
    "faulty-queued-arrivals": 31696,
    "plain": 19832,
    "queued-arrivals": 19832,
}

#: (injected, detected, retried, recovered, quarantined, quarantined
#: tuples, corrupt frames, timeouts, duplicates discarded)
ENGINE_FAULTS = {
    "faulty-multihop": (9, 3, 3, 2, 1, 512, 1, 3, 0),
    "faulty-plain": (6, 3, 3, 2, 1, 512, 1, 3, 0),
    "faulty-queued-arrivals": (6, 3, 3, 2, 1, 512, 1, 3, 0),
    "plain": None,
    "queued-arrivals": None,
}

#: per-batch transmission seconds where no arrival model feeds the
#: measured compress time into the link's ready time
ENGINE_TRANS = {
    "faulty-multihop": [
        0.065564288,
        0.141064064,
        0.091080192,
        0.06560460800000001,
        0.091064064,
        0.015572352000000001,
    ],
    "faulty-plain": [
        0.004536,
        0.069008,
        0.069024,
        0.004576,
        0.069008,
        0.004543999999999999,
    ],
    "plain": [0.004312, 0.00428, 0.004288, 0.004352, 0.00428, 0.00432],
}

#: (kind, virtual seconds, attempts) per session step
SESSION_STEPS = {
    "faulty-plain": [
        ("delivered", 0.009012, 1),
        ("quarantined", 0.07602400000000001, 2),
        ("delivered", 0.07602400000000001, 2),
        ("delivered", 0.009012, 1),
        ("delivered", 0.07602400000000001, 2),
        ("delivered", 0.009012, 1),
    ],
    "faulty-queued-arrivals": [
        ("delivered", 0.009012, 1),
        ("quarantined", 0.081756, 2),
        ("delivered", 0.1545, 2),
        ("delivered", 0.160232, 1),
        ("delivered", 0.232976, 2),
        ("delivered", 0.23870799999999998, 1),
    ],
    "plain": [("delivered", 0.008632, 1)] * 6,
    "queued-arrivals": [
        ("delivered", 0.008632, 1),
        ("delivered", 0.013984000000000002, 1),
        ("delivered", 0.019336, 1),
        ("delivered", 0.024687999999999995, 1),
        ("delivered", 0.030039999999999997, 1),
        ("delivered", 0.035392, 1),
    ],
}

SESSION_BYTES = {
    "faulty-plain": 54108,
    "faulty-queued-arrivals": 54108,
    "plain": 33792,
    "queued-arrivals": 33792,
}


@pytest.mark.parametrize("setup", sorted(ENGINE_SETUPS))
def test_engine_ships_pinned_bytes_and_faults(setup, fast_calibration):
    report = run_engine(setup, fast_calibration)
    assert report.profiler.bytes_sent == ENGINE_BYTES[setup]
    assert fault_counters(report) == ENGINE_FAULTS[setup]
    if setup in ENGINE_TRANS:
        # no arrival model: the link time is a pure function of the bytes
        trans = [timing.trans for timing in report.profiler.per_batch]
        assert trans == ENGINE_TRANS[setup]


@pytest.mark.parametrize("setup", sorted(SESSION_SETUPS))
def test_session_steps_pinned(setup):
    session, steps = step_session(setup)
    assert steps == SESSION_STEPS[setup]
    assert session.channel.bytes_sent == SESSION_BYTES[setup]
