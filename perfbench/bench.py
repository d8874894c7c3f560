"""Workloads, timed loop, correctness check and metrics of the benchmark.

Every workload follows the same order, and only step 5 is timed:

1. generate the inputs from the seed (lists of batches, nothing lazy);
2. run the uncompressed decode-first engine (``mode="baseline"``) over the
   same inputs and keep its per-batch results as the reference;
3. set up several times — import (in a fresh interpreter), calibration,
   engine/plan/optimizer and pipeline or supervisor construction — and keep
   the median as ``setup_s``;
4. warm up once, untimed;
5. run closed-loop rounds over the inputs until ``seconds`` of timed wall
   clock have accumulated.  A round is built untimed (pipelines with fresh
   decode caches, or a fresh supervisor) and checked untimed against the
   reference.

The per-batch probes (:class:`Probe`) are hooks on the program's public
entry points; a traced run adds spans on every layer (:func:`layer_spans`).
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import fleet_inputs
from spans import Instrument

from repro import CompressStreamDB, EngineConfig, FaultProfile, ReliabilityConfig
from repro.core import client as client_mod
from repro.core import decode_cache as decode_cache_mod
from repro.core import engine as engine_mod
from repro.core import selector as selector_mod
from repro.core import server as server_mod
from repro.core.calibration import CalibrationTable, calibrate
from repro.core.decode_cache import DecodeCache
from repro.datasets.queries import QUERIES
from repro.errors import ReproError
from repro.net import channel as channel_mod
from repro.net import transport as transport_mod
from repro.oracle.differential import compare_results
from repro.serve import session as session_mod
from repro.serve import supervisor as supervisor_mod
from repro.serve.report import ServeReport
from repro.sql import executor as executor_mod
from repro.sql.executor import QueryResult
from repro.stream import window as window_mod
from repro.stream.batch import Batch
from repro.stream.dynamics import DynamicWorkload
from repro.workloads.corpus import QUERIES as CORPUS
from repro.workloads.traces import TRACES

BENCH_DIR = Path(__file__).resolve().parent
#: codec timings the adaptive selector reads instead of a per-process
#: calibration, whose timing noise flips near-tied codec choices between
#: runs and makes ``wire_bytes_per_tuple`` bimodal
CALIBRATION_FILE = BENCH_DIR / "codec_calibration.json"
#: modules a workload's process imports before it can do anything
IMPORTS = ("repro", "repro.serve.supervisor", "repro.workloads.corpus")
BANDWIDTH_MBPS = 500.0
SETUP_REPEATS = 5
ROOT_SPAN = "bench.run"


# ----- per-batch probes ---------------------------------------------------


class Probe:
    """Batch-boundary timestamps, link accounting and captured results."""

    def __init__(self, instrument: Instrument, step_batches: bool):
        self.instrument = instrument
        #: the fleet's batch boundary is the tenant step, not the compress call
        self.step_batches = step_batches
        self.latencies_s: List[float] = []
        self.results: List[QueryResult] = []
        self.batches_in = 0
        self.tuples_in = 0
        self.tuples_delivered = 0
        self.link_s = 0.0
        self.link_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._t0 = 0.0
        self._batch_link = 0.0

    def install(self, quantum_s: float = 0.0) -> None:
        ins = self.instrument
        ins.patch(client_mod.Client, "compress_batch", before=self._on_compress)
        ins.patch(channel_mod.Channel, "transmit", after=self._on_transmit)
        if self.step_batches:
            self._quantum_s = quantum_s
            ins.patch(
                session_mod.TenantSession,
                "step",
                before=self._on_step,
                after=self._on_step_done,
            )
        else:
            ins.patch(server_mod.Server, "process", after=self._on_processed)

    def _on_compress(self, client, batch, *_) -> None:
        self.batches_in += 1
        self.tuples_in += batch.n
        if not self.step_batches:
            self.instrument.batch = self.batches_in
            self._batch_link = 0.0
            self._t0 = time.perf_counter()

    def _on_transmit(self, seconds, channel, nbytes) -> None:
        self.link_bytes += int(nbytes)
        self._batch_link += seconds
        if not self.step_batches:
            self.link_s += seconds

    def _on_processed(self, report, server, batch) -> None:
        wall = time.perf_counter() - self._t0
        self.latencies_s.append(wall + self._batch_link)
        self.tuples_delivered += batch.n
        self.results.append(report.result)

    def _on_step(self, session, now) -> None:
        self.instrument.batch += 1
        self._batch_link = 0.0
        self._t0 = time.perf_counter()

    def _on_step_done(self, outcome, session, now) -> None:
        wall = time.perf_counter() - self._t0
        if outcome.kind == session_mod.DONE:
            return
        # virtual_seconds = link + retransmit seconds + the fixed quantum
        link = outcome.virtual_seconds - self._quantum_s
        self.link_s += link
        if outcome.delivered:
            self.latencies_s.append(wall + link)
            self.tuples_delivered += outcome.tuples


# ----- correctness --------------------------------------------------------


def result_digest(result: QueryResult) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(result.columns):
        col = result.columns[name]
        h.update(name.encode() + str(col.dtype).encode())
        h.update(col.tobytes())
    return h.digest()


class Checker:
    """Compares captured results with the decode-first reference.

    A result byte-identical to one already found equal for the same batch
    is not compared again, so repeated passes cost one digest each.
    """

    def __init__(self, reference: Dict[str, List[QueryResult]]):
        self.reference = reference
        self._verified: Dict[Tuple[str, int], set] = {}
        self.mismatches: List[str] = []

    def matches(self, stream: str, index: int, result: QueryResult) -> bool:
        key = (stream, index)
        digest = result_digest(result)
        if digest in self._verified.get(key, ()):
            return True
        problem = compare_results(self.reference[stream][index], result)
        if problem is not None:
            self.mismatches.append(f"{stream} batch {index}: {problem}")
            return False
        self._verified.setdefault(key, set()).add(digest)
        return True


def capture_results(engine: CompressStreamDB, batches: List[Batch]) -> List[QueryResult]:
    """Per-batch results of one engine run over ``batches``."""
    results: List[QueryResult] = []
    with Instrument(tracing=False) as ins:
        ins.patch(
            server_mod.Server,
            "process",
            after=lambda report, *_: results.append(report.result),
        )
        engine.run(batches)
    return results


# ----- workloads ----------------------------------------------------------


@dataclass
class CodecRecord:
    """Codec decisions of one query stream during a timed loop."""

    redecisions: int = 0
    #: column choices that changed from one decision to the next
    switches: int = 0
    demotions: int = 0
    last: Dict[str, str] = field(default_factory=dict)


class ClientLog:
    """Folds client decision logs into per-query records, once per entry.

    A client that lives across passes keeps appending to its logs, so each
    client's already-counted length is remembered.
    """

    def __init__(self) -> None:
        self.queries: Dict[str, CodecRecord] = {}
        self._seen: "weakref.WeakKeyDictionary[Any, Tuple[int, int]]" = (
            weakref.WeakKeyDictionary()
        )

    def update(self, query: str, client) -> None:
        record = self.queries.setdefault(query, CodecRecord())
        decisions, demotions = self._seen.get(client, (0, 0))
        log = client.decision_log
        previous = log[decisions - 1] if decisions else None
        for choice in log[decisions:]:
            if previous is not None:
                record.switches += sum(
                    previous.get(col) != codec for col, codec in choice.items()
                )
            record.redecisions += 1
            previous = choice
        if previous is not None:
            record.last = dict(previous)
        record.demotions += len(client.demotions) - demotions
        self._seen[client] = (len(log), len(client.demotions))


class WindowAgg:
    """Adaptive engines, one per Table III query, run back to back."""

    QUERIES = ("q1", "q2", "q4", "q5", "q6")
    #: batches of each query's stream; a round runs every stream once
    BATCHES = 3

    def __init__(self) -> None:
        self.streams: Dict[str, List[Batch]] = {}
        self.engines: Dict[str, CompressStreamDB] = {}
        self.pipelines: Dict[str, Any] = {}

    def sql(self, query: str) -> str:
        cfg = QUERIES[query]
        return cfg.text(slide=cfg.window)

    def generate(self, seed: int, tiny: bool) -> None:
        for i, query in enumerate(self.QUERIES):
            cfg = QUERIES[query]
            # the paper's geometry: 100 windows per batch (200 for cluster)
            windows = 2 if tiny else cfg.windows_per_batch
            source = cfg.make_source(
                batch_size=windows * cfg.window,
                batches=2 if tiny else self.BATCHES,
                seed=seed * 16 + i,
            )
            self.streams[query] = list(source)

    def config(self, mode: str, table: CalibrationTable) -> EngineConfig:
        # profile_query=False: selection reads the stored calibration only,
        # never a wall-clock measurement of the first batch
        return EngineConfig(
            mode=mode,
            bandwidth_mbps=BANDWIDTH_MBPS,
            profile_query=False,
            calibration=table,
        )

    def build(self) -> None:
        table = CalibrationTable.load(CALIBRATION_FILE)
        self.engines = {
            q: CompressStreamDB(
                QUERIES[q].catalog, self.sql(q), self.config("adaptive", table)
            )
            for q in self.QUERIES
        }
        self.pipelines = {q: e.make_pipeline() for q, e in self.engines.items()}

    def reference(self) -> Dict[str, List[QueryResult]]:
        table = CalibrationTable.load(CALIBRATION_FILE)
        return {
            q: capture_results(
                CompressStreamDB(
                    QUERIES[q].catalog, self.sql(q), self.config("baseline", table)
                ),
                self.streams[q],
            )
            for q in self.QUERIES
        }

    def pin_calibration(self, instrument: Instrument) -> None:
        """Nothing to pin: engines take the stored table in their config."""

    def warm_up(self) -> None:
        for q in self.QUERIES:
            self.engines[q].run(self.streams[q][:2])

    def quantum_s(self) -> float:
        return 0.0

    def pipeline(self, query: str):
        """The query's one long-lived pipeline, with a fresh decode cache.

        Tumbling windows end on batch boundaries, so no executor state
        crosses rounds; the client keeps its choices and re-decides every
        ``redecide_every`` batches as on an endless stream.  The cache is
        emptied because the rounds repeat the same payloads, which a live
        stream would not.
        """
        pipeline = self.pipelines[query]
        pipeline.server.cache = DecodeCache()
        return pipeline

    def units(self) -> Iterator[Tuple[str, Callable[[], Any]]]:
        for q in self.QUERIES:
            yield q, functools.partial(self.pipeline, q)

    def execute(self, unit: str, pipeline) -> Any:
        return pipeline.run(self.streams[unit])

    def verify(self, unit: str, pipeline, probe: Probe, checker: Checker) -> None:
        compressed = probe.batches_in - probe.attempted
        probe.attempted += compressed
        for index, result in enumerate(probe.results):
            if not checker.matches(unit, index, result):
                probe.failed += 1
        # a batch compressed but never processed raised on the way
        probe.failed += compressed - len(probe.results)
        probe.results.clear()

    def clients(self, unit: str, pipeline) -> List[Tuple[str, Any]]:
        return [(unit, pipeline.client)]


class DriftFleet:
    """One supervisor serving four tenants over phase-shifting traces.

    The join tenant also carries the partition-window state layer
    (``stream.window``), which has no workload of its own.
    """

    #: group-by with ORDER BY/LIMIT, a three-source partition-window join,
    #: an equality OR filter, and group-by on codec-flipping data
    TENANTS = ("sg_top_plugs", "flip_multiway", "cm_event_filter", "flip_order_limit")
    #: drop and corrupt rate each, so about 5% of frames arrive damaged
    LOSS_RATE = 0.025
    CHECKPOINT_EVERY = 8
    #: one trace phase per re-decision period, so every re-decision meets
    #: a new regime and the best codec keeps changing
    PHASE_BATCHES = EngineConfig().redecide_every

    def __init__(self) -> None:
        self.batch_size = 2048
        self.batches = 4 * self.PHASE_BATCHES
        self.seed = 0
        self.inputs: Dict[str, List[Batch]] = {}
        self.specs: List[session_mod.TenantSpec] = []

    def generate(self, seed: int, tiny: bool) -> None:
        phase_batches = self.PHASE_BATCHES
        if tiny:
            self.batch_size, self.batches, phase_batches = 256, 4, 2
        self.seed = seed
        for i, query in enumerate(self.TENANTS):
            trace = TRACES[CORPUS[query].trace]
            source = DynamicWorkload(
                schema=trace.schema,
                phases=trace.phases,
                batch_size=self.batch_size,
                batches_per_phase=phase_batches,
                seed=seed * 16 + i,
                limit=self.batches,
            )
            self.inputs[query] = list(source)

    def build(self) -> None:
        fleet_inputs.QUERIES.clear()
        for query, batches in self.inputs.items():
            fleet_inputs.QUERIES[query] = fleet_inputs.Pregenerated(
                CORPUS[query], batches
            )
        # link faults are seeded by tenant only, so every pass of every run
        # retransmits the same frames: retransmit waits are most of the
        # modeled link time, and a per-run draw would move throughput and
        # the latency tail with the draw's luck
        self.specs = [
            session_mod.TenantSpec(
                tenant=f"tenant{i}-{query}",
                query=query,
                query_module=fleet_inputs.__name__,
                batches=self.batches,
                batch_size=self.batch_size,
                seed=self.seed * 16 + i,
                bandwidth_mbps=BANDWIDTH_MBPS,
                fault_profile=FaultProfile.lossy(self.LOSS_RATE, seed=i),
                reliability=ReliabilityConfig(),
                checkpoint_every=self.CHECKPOINT_EVERY,
            )
            for i, query in enumerate(self.TENANTS)
        ]
        self.new_supervisor()

    def pin_calibration(self, instrument: Instrument) -> None:
        """Serve tenants from the stored table.

        ``TenantSpec`` carries no calibration, so the engine's lookup of
        the process-wide default is redirected to the stored table.
        """
        table = CalibrationTable.load(CALIBRATION_FILE)
        instrument.replace(engine_mod, "default_calibration", lambda: table)

    def new_supervisor(self) -> supervisor_mod.ServeSupervisor:
        return supervisor_mod.ServeSupervisor(self.specs)

    def reference(self) -> Dict[str, List[QueryResult]]:
        return {
            query: capture_results(
                CompressStreamDB(
                    CORPUS[query].catalog,
                    CORPUS[query].text(),
                    EngineConfig(mode="baseline", profile_query=False),
                ),
                batches,
            )
            for query, batches in self.inputs.items()
        }

    def warm_up(self) -> None:
        self.new_supervisor().run()

    def quantum_s(self) -> float:
        return self.specs[0].service_quantum_s

    def units(self) -> Iterator[Tuple[str, Callable[[], Any]]]:
        yield "fleet", self.new_supervisor

    def execute(self, unit: str, supervisor) -> Any:
        return supervisor.run()

    def verify(self, unit: str, supervisor, probe: Probe, checker: Checker) -> None:
        for spec in self.specs:
            outputs = supervisor.outputs(spec.tenant)
            probe.attempted += spec.batches
            for index in range(spec.batches):
                got = outputs.get(index)
                if got is None or not checker.matches(spec.query, index, got):
                    # dead-lettered, shed, quarantined or wrong
                    probe.failed += 1

    def clients(self, unit: str, supervisor) -> List[Tuple[str, Any]]:
        return [
            (r.spec.query, r.session.client)
            for r in supervisor.runners
            if r.session is not None
        ]


WORKLOADS = {
    "window-agg": WindowAgg,
    "drift-fleet": DriftFleet,
}


# ----- set-up -------------------------------------------------------------


def import_seconds(root: Path) -> float:
    """Seconds a fresh interpreter spends importing the program."""
    code = (
        "import time\n"
        "t0 = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in IMPORTS)
        + "print(time.perf_counter() - t0)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


@dataclass
class SetupTimes:
    total_s: List[float] = field(default_factory=list)
    import_s: List[float] = field(default_factory=list)
    calibration_s: List[float] = field(default_factory=list)
    plan_s: List[float] = field(default_factory=list)


def measure_setup(workload, root: Path, repeats: int) -> SetupTimes:
    """Set up ``repeats`` times; the last set-up's objects are kept.

    Each sample charges what a fresh process pays before its first batch:
    importing the program, the codec calibration ``default_calibration()``
    runs on first use, and building engines, plans and pipelines or the
    supervisor.  The benchmark then selects codecs from the stored table,
    so that the choices do not depend on this calibration's timing noise.
    """
    times = SetupTimes()
    planning = [0.0]
    started = [0.0]

    def plan_start(*_):
        started[0] = time.perf_counter()

    def plan_end(*_):
        planning[0] += time.perf_counter() - started[0]

    with Instrument(tracing=False) as ins:
        ins.patch(engine_mod, "plan_for_engine", before=plan_start, after=plan_end)
        for _ in range(repeats):
            imported = import_seconds(root)
            t0 = time.perf_counter()
            calibrate()
            t1 = time.perf_counter()
            planning[0] = 0.0
            workload.build()
            t2 = time.perf_counter()
            times.import_s.append(imported)
            times.calibration_s.append(t1 - t0)
            times.plan_s.append(planning[0])
            times.total_s.append(imported + (t2 - t0))
    return times


# ----- the timed loop -----------------------------------------------------


def layer_spans() -> List[Tuple[Any, str, str]]:
    """(owner, attribute, span name) for every traced layer entry point."""
    return [
        (client_mod.Client, "compress_batch", "core.client.compress_batch"),
        (client_mod, "column_stats_from_batches", "core.selector.stats"),
        (selector_mod.AdaptiveSelector, "select", "core.selector.select"),
        (selector_mod.StaticSelector, "select", "core.selector.select"),
        (transport_mod.ReliableTransport, "send_batch", "net.transport.send_batch"),
        (transport_mod, "serialize_batch", "wire.serialize"),
        (transport_mod, "deserialize_batch", "wire.deserialize"),
        (server_mod.Server, "process", "core.server.process"),
        (decode_cache_mod.DecodeCache, "decompress", "core.decode_cache.decompress"),
        (decode_cache_mod.DecodeCache, "morph", "core.decode_cache.morph"),
        (executor_mod.WindowAggExecutor, "execute", "sql.executor.execute"),
        (executor_mod.PassthroughExecutor, "execute", "sql.executor.execute"),
        (executor_mod.JoinExecutor, "execute", "sql.executor.execute"),
        (executor_mod, "window_group_aggregate", "operators.window_group_aggregate"),
        (executor_mod, "window_aggregate", "operators.window_aggregate"),
        (window_mod.PartitionWindowState, "update", "stream.window.update"),
        (window_mod.PartitionWindowState, "lookup", "stream.window.lookup"),
        (session_mod.TenantSession, "step", "serve.session.step"),
        (session_mod.TenantSession, "state_bytes", "serve.checkpoint.state_bytes"),
        (supervisor_mod.ServeSupervisor, "run", "serve.supervisor.run"),
    ]


def install_counters(ins: Instrument) -> None:
    """Counts taken at the same boundaries as the spans (traced runs only)."""
    counts = ins.counts
    cache_before: List[Tuple[int, int, int, int]] = []

    def compressed(outcome, client, batch, *_):
        counts["compression.raw_bytes"] += batch.uncompressed_nbytes
        counts["compression.bytes"] += outcome.batch.nbytes

    def processed(report, *_):
        counts["core.server.process.columns_direct"] += len(report.direct_columns)
        counts["core.server.process.columns_decoded"] += len(report.decoded_columns)
        counts["core.server.process.columns_morphed"] += len(report.morphed_columns)

    def cache_enter(cache, *_):
        cache_before.append(
            (cache.hits, cache.misses, cache.morph_hits, cache.morph_misses)
        )

    def cache_exit(_result, cache, *_):
        hits, misses, morph_hits, morph_misses = cache_before.pop()
        counts["core.decode_cache.hits"] += cache.hits - hits
        counts["core.decode_cache.misses"] += cache.misses - misses
        counts["core.decode_cache.morph_hits"] += cache.morph_hits - morph_hits
        counts["core.decode_cache.morph_misses"] += cache.morph_misses - morph_misses

    def window_updated(_result, state, *_):
        counts["stream.window.calls"] += 1
        # state size: the most partition keys any state held
        counts["stream.window.keys"] = max(counts["stream.window.keys"], len(state))

    def window_probed(*_):
        counts["stream.window.calls"] += 1

    def fallback(*_):
        counts["core.client.fallbacks"] += 1

    def checkpointed(payload, *_):
        counts["serve.checkpoint.bytes"] += len(payload)

    ins.patch(client_mod.Client, "compress_batch", after=compressed)
    ins.patch(client_mod.Client, "_record_failure", after=fallback)
    ins.patch(server_mod.Server, "process", after=processed)
    for method in ("decompress", "morph"):
        ins.patch(
            decode_cache_mod.DecodeCache, method, before=cache_enter, after=cache_exit
        )
    ins.patch(window_mod.PartitionWindowState, "update", after=window_updated)
    ins.patch(window_mod.PartitionWindowState, "lookup", after=window_probed)
    ins.patch(session_mod.TenantSession, "state_bytes", after=checkpointed)


@dataclass
class LoopResult:
    wall_s: float
    rounds: int
    probe: Probe
    instrument: Instrument
    serve: Dict[str, float]
    codecs: ClientLog


def timed_loop(workload, checker: Checker, seconds: float, tracing: bool) -> LoopResult:
    """Closed-loop rounds until ``seconds`` of timed wall clock accumulate."""
    serve = {"retries": 0.0, "dead_letters": 0.0, "deferred_steps": 0.0, "trips": 0.0}
    codecs = ClientLog()
    rounds = 0
    timed = 0.0
    with Instrument(tracing=tracing) as ins:
        if tracing:
            for owner, attr, name in layer_spans():
                ins.patch(owner, attr, span=name)
            install_counters(ins)
        probe = Probe(ins, step_batches=isinstance(workload, DriftFleet))
        probe.install(workload.quantum_s())
        while timed < seconds:
            rounds += 1
            for unit, prepare in workload.units():
                runner = prepare()
                outcome = None
                # the root span is the timed region: its self time is the
                # wall clock no layer span accounts for
                root = ins.open(ROOT_SPAN)
                try:
                    outcome = workload.execute(unit, runner)
                except ReproError as exc:
                    probe.errors.append(f"{unit}: {type(exc).__name__}: {exc}")
                finally:
                    ins.close(root)
                timed += ins.duration(root)
                workload.verify(unit, runner, probe, checker)
                for query, client in workload.clients(unit, runner):
                    codecs.update(query, client)
                if isinstance(outcome, ServeReport):
                    serve["deferred_steps"] += outcome.deferred_steps
                    for tenant in outcome.tenants:
                        serve["retries"] += tenant.retries
                        serve["dead_letters"] += tenant.dead_letters
                        serve["trips"] += tenant.breaker_trips
    return LoopResult(timed, rounds, probe, ins, serve, codecs)


# ----- metrics ------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(loop: LoopResult, setup: SetupTimes) -> Dict[str, Tuple[float, str]]:
    p = loop.probe
    lat = p.latencies_s or [0.0]
    return {
        "throughput_tps": (p.tuples_delivered / (loop.wall_s + p.link_s), "tuples/s"),
        "batch_latency_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "batch_latency_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "wire_bytes_per_tuple": (p.link_bytes / max(p.tuples_in, 1), "bytes"),
        "ok_batch_frac": (1.0 - p.failed / max(p.attempted, 1), "fraction"),
        "setup_s": (statistics.median(setup.total_s), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MiB",
        ),
    }


def per_layer(
    loop: LoopResult, untraced: LoopResult, setup: SetupTimes
) -> Dict[str, Tuple[float, str]]:
    table = loop.instrument.span_table()
    counts = loop.instrument.counts
    p = loop.probe

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return table.get(name, {}).get("calls", 0)

    columns = [
        counts["core.server.process.columns_" + kind]
        for kind in ("direct", "decoded", "morphed")
    ]
    records = loop.codecs.queries.values()

    def cost(result: LoopResult) -> float:
        return result.wall_s / max(result.probe.tuples_delivered, 1)

    m: Dict[str, Tuple[float, str]] = {
        "core.client.compress_batch.calls": (calls("core.client.compress_batch"), "count"),
        "core.client.compress_batch.self_s": (self_s("core.client.compress_batch"), "s"),
        "compression.ratio": (
            counts["compression.raw_bytes"] / max(counts["compression.bytes"], 1),
            "ratio",
        ),
        "core.client.fallbacks": (counts["core.client.fallbacks"], "count"),
        "core.client.demotions": (float(sum(r.demotions for r in records)), "count"),
        "core.selector.stats_s": (self_s("core.selector.stats"), "s"),
        "core.selector.select_s": (self_s("core.selector.select"), "s"),
        "core.selector.redecisions": (calls("core.selector.select"), "count"),
        "core.selector.codec_switches": (float(sum(r.switches for r in records)), "count"),
        "net.channel.link_s": (p.link_s, "s"),
        "net.channel.bytes": (float(p.link_bytes), "bytes"),
        "net.transport.send_batch_s": (self_s("net.transport.send_batch"), "s"),
        "net.transport.retries": (loop.serve["retries"], "count"),
        "net.transport.dead_letters": (loop.serve["dead_letters"], "count"),
        "wire.serialize_s": (self_s("wire.serialize"), "s"),
        "wire.deserialize_s": (self_s("wire.deserialize"), "s"),
        "core.server.process.self_s": (self_s("core.server.process"), "s"),
        "core.server.process.columns_direct": (columns[0], "count"),
        "core.server.process.columns_decoded": (columns[1], "count"),
        "core.server.process.columns_morphed": (columns[2], "count"),
        "core.server.process.direct_ratio": (columns[0] / max(sum(columns), 1), "ratio"),
        "core.decode_cache.decompress_s": (
            self_s("core.decode_cache.decompress") + self_s("core.decode_cache.morph"),
            "s",
        ),
        "core.decode_cache.hits": (counts["core.decode_cache.hits"], "count"),
        "core.decode_cache.misses": (counts["core.decode_cache.misses"], "count"),
        "core.decode_cache.morph_hits": (counts["core.decode_cache.morph_hits"], "count"),
        "core.decode_cache.morph_misses": (
            counts["core.decode_cache.morph_misses"],
            "count",
        ),
        "sql.executor.execute_s": (self_s("sql.executor.execute"), "s"),
        "operators.window_group_aggregate_s": (
            self_s("operators.window_group_aggregate"),
            "s",
        ),
        "operators.window_group_aggregate.calls": (
            calls("operators.window_group_aggregate"),
            "count",
        ),
        "operators.window_aggregate_s": (self_s("operators.window_aggregate"), "s"),
        "stream.window.update_s": (self_s("stream.window.update"), "s"),
        "stream.window.lookup_s": (self_s("stream.window.lookup"), "s"),
        "stream.window.calls": (counts["stream.window.calls"], "count"),
        "stream.window.keys": (counts["stream.window.keys"], "count"),
        "serve.session.step_s": (self_s("serve.session.step"), "s"),
        "serve.supervisor.self_s": (self_s("serve.supervisor.run"), "s"),
        "serve.checkpoint.state_bytes_s": (self_s("serve.checkpoint.state_bytes"), "s"),
        "serve.checkpoint.bytes": (counts["serve.checkpoint.bytes"], "bytes"),
        "serve.admission.deferred_steps": (loop.serve["deferred_steps"], "count"),
        "serve.breaker.trips": (loop.serve["trips"], "count"),
        "core.calibration.default_calibration_s": (
            statistics.median(setup.calibration_s),
            "s",
        ),
        "optimizer.plan_s": (statistics.median(setup.plan_s), "s"),
        "import_s": (statistics.median(setup.import_s), "s"),
        "unattributed_s": (self_s(ROOT_SPAN), "s"),
        "trace.wall_s": (loop.wall_s, "s"),
        "trace.batches": (float(len(p.latencies_s)), "count"),
        "trace.overhead_frac": (cost(loop) / cost(untraced) - 1.0, "fraction"),
    }
    return m


# ----- one run ------------------------------------------------------------


@dataclass
class RunOutcome:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    notes: List[str]
    latency_samples: int
    instrument: Optional[Instrument] = None


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    tiny: bool = False,
    setup_repeats: int = SETUP_REPEATS,
) -> RunOutcome:
    workload = WORKLOADS[name]()
    workload.generate(seed, tiny)
    with Instrument(tracing=False) as pin:
        workload.pin_calibration(pin)
        checker = Checker(workload.reference())
        setup = measure_setup(workload, root, setup_repeats)
        workload.warm_up()
        # a traced run splits its time: untraced first, for the overhead
        loop = timed_loop(workload, checker, seconds / (2 if trace else 1), False)
        final = loop
        if trace:
            final = timed_loop(workload, checker, seconds / 2, tracing=True)
            metrics = per_layer(final, loop, setup)
        else:
            metrics = end_to_end(loop, setup)
    p = final.probe
    attempted = p.attempted + (loop.probe.attempted if trace else 0)
    failed = p.failed + (loop.probe.failed if trace else 0)
    correct = not checker.mismatches and failed == 0 and attempted > 0
    samples = len(loop.probe.latencies_s)
    notes = [
        f"timed {loop.wall_s:.2f}s in {loop.rounds} rounds, {samples} batch latencies",
        f"calibration: stored table {CALIBRATION_FILE.relative_to(root)}",
    ]
    for query, record in final.codecs.queries.items():
        assignment = " ".join(f"{col}={codec}" for col, codec in record.last.items())
        notes.append(
            f"codecs {query}: {record.redecisions} re-decisions, "
            f"{record.switches} column switches; last: {assignment}"
        )
    notes.extend(checker.mismatches[:10])
    notes.extend((loop.probe.errors + (p.errors if trace else []))[:10])
    return RunOutcome(
        correct=correct,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        notes=notes,
        latency_samples=samples,
        instrument=final.instrument if trace else None,
    )
