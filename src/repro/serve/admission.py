"""Admission control, queue watermarks and backpressure signalling.

Three cooperating mechanisms keep one hot tenant from stalling the
serving layer:

* a **token bucket** paces the aggregate service rate in virtual time —
  each processed batch spends one token, tokens refill at
  ``refill_per_s`` virtual seconds, and a tenant with no token available
  simply waits (the supervisor advances the clock to the next refill
  instead of spinning);
* **queue-depth watermarks**: per-tenant queues of arrived-but-unserved
  batches are bounded.  Crossing the high watermark sheds load
  *deterministically* — reject-newest, and when several tenants' arrivals
  tie within one scheduling round the victim order comes from one seeded
  RNG stream, so a campaign with the same seed sheds the same batches;
* **backpressure frames**: crossing the high watermark also pushes an
  ``XOFF`` control envelope back to the tenant's client through the
  existing transport wire format (its bytes are charged to the tenant's
  channel); the client pauses its arrivals until depth drains to the low
  watermark and an ``XON`` releases it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ServeError
from ..net.transport import pack_envelope, unpack_envelope

#: reserved transport sequence number for serving-layer control frames;
#: data envelopes count up from zero and never legitimately reach it
CONTROL_SEQ = 0xFFFFFFFF

_XOFF = b"XOFF"
_XON = b"XON"


def backpressure_frame(pause: bool) -> bytes:
    """An XOFF/XON control envelope in the existing wire format."""
    return pack_envelope(CONTROL_SEQ, _XOFF if pause else _XON)


def parse_backpressure_frame(frame: bytes) -> bool:
    """True for XOFF (pause), False for XON (resume)."""
    seq, payload = unpack_envelope(frame)
    if seq != CONTROL_SEQ or payload not in (_XOFF, _XON):
        raise ServeError("not a backpressure control frame")
    return payload == _XOFF


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs of the admission gate (rates are per virtual second)."""

    bucket_capacity: float = 32.0
    refill_per_s: float = 256.0
    #: per-tenant queue depth that trips shedding + XOFF
    high_watermark: int = 8
    #: depth at which a paused tenant gets its XON
    low_watermark: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.bucket_capacity < 1 or not math.isfinite(self.bucket_capacity):
            raise ServeError("bucket_capacity must be >= 1 and finite")
        if self.refill_per_s <= 0 or not math.isfinite(self.refill_per_s):
            raise ServeError("refill_per_s must be positive and finite")
        if self.high_watermark < 1:
            raise ServeError("high_watermark must be >= 1")
        if not 0 <= self.low_watermark <= self.high_watermark:
            raise ServeError("need 0 <= low_watermark <= high_watermark")


class TokenBucket:
    """A deterministic token bucket driven by the virtual clock."""

    def __init__(self, capacity: float, refill_per_s: float, start: float = 0.0):
        if capacity < 1 or refill_per_s <= 0:
            raise ServeError("token bucket needs capacity >= 1 and a positive rate")
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)
        self._tokens = float(capacity)
        self._updated = float(start)

    def _refill(self, now: float) -> None:
        if now < self._updated:
            raise ServeError("token bucket observed time moving backwards")
        self._tokens = min(
            self.capacity, self._tokens + (now - self._updated) * self.refill_per_s
        )
        self._updated = now

    def try_take(self, now: float, tokens: float = 1.0) -> bool:
        self._refill(now)
        if self._tokens + 1e-12 >= tokens:
            self._tokens -= tokens
            return True
        return False

    def next_available_at(self, now: float, tokens: float = 1.0) -> float:
        """Earliest virtual time at which ``tokens`` will be available."""
        self._refill(now)
        if self._tokens >= tokens:
            return now
        return now + (tokens - self._tokens) / self.refill_per_s


class AdmissionController:
    """Token-bucket admission plus watermark-driven shedding decisions."""

    def __init__(self, config: AdmissionConfig):
        self.config = config
        self.bucket = TokenBucket(config.bucket_capacity, config.refill_per_s)
        self._rng = np.random.default_rng(config.seed)
        self.admitted = 0
        self.deferred = 0
        self.shed_total = 0

    def admit(self, now: float) -> bool:
        """Spend one service token; False defers the tenant this round."""
        if self.bucket.try_take(now):
            self.admitted += 1
            return True
        self.deferred += 1
        return False

    def next_admission_at(self, now: float) -> float:
        return self.bucket.next_available_at(now)

    def shed(self, offered: Sequence[Tuple[str, int]]) -> List[Tuple[str, int]]:
        """Decide how many queued batches each tenant must drop.

        ``offered`` is ``(tenant, queue_depth)`` per tenant, in the
        supervisor's fixed scheduling order.  Every tenant above the high
        watermark sheds down to it (reject-newest: the dropped batches
        are the most recent arrivals).  Tenants with equal over-watermark
        excess are shed in an order drawn from the seeded RNG stream, so
        ties break reproducibly rather than by dict ordering accidents.
        Returns ``(tenant, batches_to_shed)`` pairs, shed order.
        """
        over = [
            (tenant, depth - self.config.high_watermark)
            for tenant, depth in offered
            if depth > self.config.high_watermark
        ]
        if not over:
            return []
        # group by excess so equally-overloaded tenants tiebreak by seed
        by_excess: dict = {}
        for tenant, excess in over:
            by_excess.setdefault(excess, []).append(tenant)
        decisions: List[Tuple[str, int]] = []
        for excess in sorted(by_excess, reverse=True):
            tied = by_excess[excess]
            order = self._rng.permutation(len(tied))
            for i in order:
                decisions.append((tied[int(i)], excess))
                self.shed_total += excess
        return decisions
