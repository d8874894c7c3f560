"""End-to-end pipeline: source -> client -> channel -> server (Fig. 4).

The pipeline drives the four cost-model stages per batch.  It maintains a
lookahead buffer over the source so the client's selector can "scan the
next five batches" exactly as Sec. IV-B describes, and it measures the
query profile (baseline memory/compute split for Eq. 8) on the first batch
with a throwaway executor before the run starts.

One batch's transmit-and-query step is :func:`ship_batch`, shared with
the serving layer's :class:`~repro.serve.session.TenantSession`.  Under an
arrival model it hands the batch's ready time to the channel, whose
``ship`` decides whether the batch queues (only a
:class:`~repro.net.channel.QueuedChannel` does).

When the channel is a :class:`~repro.net.faults.FaultyChannel`
(:func:`make_transport`), batches additionally travel as real binary
frames through ``serialize_batch``/``deserialize_batch`` under the
reliable transport (:mod:`repro.net.transport`): corrupted or dropped
frames are retransmitted with capped exponential backoff in virtual time,
and batches that exhaust their retries are quarantined instead of
crashing the run.  The resulting :class:`~repro.net.faults.FaultReport`
rides on the :class:`RunReport`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, Optional

from ..net.channel import Channel
from ..net.faults import FaultReport, FaultyChannel
from ..net.transport import ReliabilityConfig, ReliableTransport
from ..operators.base import decoded_column
from ..optimizer.logical import Plan
from ..sql.executor import QueryResult, make_executor
from ..stream.batch import Batch, CompressedBatch
from ..stream.schema import Schema
from .client import Client
from .cost_model import SystemParams
from .metrics import RunReport
from .profiler import BatchTiming, Profiler
from .server import Server, ServerReport


def measure_query_profile(plan: Plan, batch: Batch, memory_fraction: float) -> None:
    """Fill ``plan.profile`` timings from one uncompressed execution.

    Runs the query on plain values with a fresh (discarded) executor, then
    splits the measured time into the memory-bound share that compression
    scales down (Eq. 8 divides it by r') and the compute share it cannot.
    """
    executor = make_executor(plan)
    columns = {
        name: decoded_column(name, batch.column(name))
        for name in plan.profile.referenced
    }
    t0 = time.perf_counter()
    executor.execute(columns, batch.n)
    elapsed = time.perf_counter() - t0
    plan.profile.mem_seconds = elapsed * memory_fraction
    plan.profile.op_seconds = elapsed * (1.0 - memory_fraction)


@dataclass(frozen=True)
class Shipment:
    """What shipping one compressed batch to the server cost and yielded."""

    #: virtual link seconds, including queueing, retransmits and backoff
    seconds: float
    #: bytes that crossed the link (every attempt's envelope when framed)
    bytes_sent: int
    attempts: int
    #: the server's report; None when the batch was dead-lettered
    report: Optional[ServerReport]


def make_transport(
    channel: Channel, schema: Schema, reliability: Optional[ReliabilityConfig]
) -> Optional[ReliableTransport]:
    """The reliable transport an unreliable channel needs, else None."""
    if isinstance(channel, FaultyChannel):
        return ReliableTransport(channel, schema, reliability)
    return None


def ship_batch(
    batch: CompressedBatch,
    channel: Channel,
    transport: Optional[ReliableTransport],
    server: Server,
    ready_time: Optional[float],
) -> Shipment:
    """Send one compressed batch and query whatever arrives.

    With a transport the batch travels as framed, retransmitted envelopes
    and may be dead-lettered; without one it crosses ``channel`` raw.
    ``ready_time`` is when the batch became ready under an arrival model;
    the channel decides whether it queues on it.
    """
    if transport is None:
        seconds = channel.ship(batch.nbytes, ready_time)
        return Shipment(seconds, batch.nbytes, 1, server.process(batch))
    sent = transport.send_batch(batch, ready_time=ready_time)
    report = None if sent.delivered is None else server.process(sent.delivered)
    return Shipment(sent.seconds, sent.bytes_on_wire, sent.attempts, report)


class Pipeline:
    """Sequential compress -> transmit -> decompress -> query loop."""

    def __init__(
        self,
        plan: Plan,
        client: Client,
        server: Server,
        channel: Channel,
        params: SystemParams = SystemParams(),
        profile_first_batch: bool = True,
        reliability: Optional[ReliabilityConfig] = None,
    ):
        self.plan = plan
        self.client = client
        self.server = server
        self.channel = channel
        self.params = params
        self.profile_first_batch = profile_first_batch
        self.reliability = reliability

    def run(
        self,
        source: Iterable[Batch],
        max_batches: Optional[int] = None,
        collect_outputs: bool = False,
    ) -> RunReport:
        profiler = Profiler()
        outputs = [] if collect_outputs else None
        iterator = iter(source)
        lookahead: Deque[Batch] = deque()

        def refill() -> None:
            while len(lookahead) < self.client.lookahead:
                try:
                    lookahead.append(next(iterator))
                except StopIteration:
                    break

        refill()
        if self.profile_first_batch and lookahead:
            measure_query_profile(
                self.plan, lookahead[0], self.params.memory_fraction
            )

        transport = make_transport(self.channel, self.plan.schema, self.reliability)
        rate = self.params.arrival_rate_tps
        processed = 0
        arrived_tuples = 0
        while lookahead and (max_batches is None or processed < max_batches):
            batch = lookahead.popleft()
            refill()
            outcome = self.client.compress_batch(batch, upcoming=tuple(lookahead))
            # under an arrival model a batch is ready once its last tuple
            # has arrived and it has been compressed
            ready: Optional[float] = None
            if rate is not None:
                arrived_tuples += batch.n
                ready = arrived_tuples / rate + outcome.seconds
            any_lazy = any(
                not name_is_eager(codec_name)
                for codec_name in outcome.choices.values()
            )
            shipped = ship_batch(
                outcome.batch, self.channel, transport, self.server, ready
            )
            # a dead-lettered batch spent its time and bytes but never
            # reached the query
            report = shipped.report
            timing = BatchTiming(
                wait=self.params.t_wait if any_lazy else 0.0,
                compress=outcome.seconds,
                trans=shipped.seconds,
                decompress=report.decompress_seconds if report else 0.0,
                query=report.query_seconds if report else 0.0,
            )
            profiler.record_batch(
                timing,
                tuples=batch.n,
                bytes_sent=shipped.bytes_sent,
                bytes_uncompressed=batch.uncompressed_nbytes,
            )
            if outputs is not None and report is not None:
                outputs.append(report.result)
            processed += 1

        faults: Optional[FaultReport] = None
        if transport is not None:
            faults = transport.report
            faults.injected = self.channel.injected_counts
            faults.codec_demotions = list(self.client.demotions)
        elif self.client.demotions:
            faults = FaultReport(codec_demotions=list(self.client.demotions))

        return RunReport(
            profiler=profiler,
            outputs=QueryResult.merge(outputs) if outputs is not None else None,
            decision_log=list(self.client.decision_log),
            final_choices=self.client.current_choices,
            faults=faults,
        )


def name_is_eager(codec_name: str) -> bool:
    """Whether a codec (by registry name) compresses without batch wait."""
    from ..compression.registry import get_codec

    return not get_codec(codec_name).is_lazy
