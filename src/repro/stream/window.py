"""Window semantics: count-based sliding windows and partition windows.

The dialect of Table III uses three window forms:

* ``[range N slide M]`` — count-based sliding window of N tuples advancing
  by M tuples;
* ``[range unbounded]`` — per-tuple pass-through (used by Q3's derived
  stream);
* ``[partition by col rows K]`` — the most recent K tuples per partition
  key (Q3's "latest position per vehicle").

Sliding windows may span batches; :class:`WindowScheduler` (count) and
:class:`TimeWindowScheduler` (time) lay out each batch's window extents
for the paper's *batch buffer* (Sec. VI): the executor retains the tail of
the previous batch so cross-batch windows are computed without
re-transmission.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PlanningError
from .batch import Batch

MODE_COUNT = "count"
MODE_TIME = "time"
MODE_UNBOUNDED = "unbounded"
MODE_PARTITION = "partition"


@dataclass(frozen=True)
class WindowSpec:
    """Parsed window clause.

    ``count`` windows measure tuples; ``time`` windows measure units of a
    monotone timestamp column (``time_column``), producing ragged windows
    that close when the stream's time passes their end.
    """

    mode: str
    size: int = 0
    slide: int = 1
    partition_by: str = ""
    rows: int = 0
    time_column: str = ""

    def __post_init__(self) -> None:
        if self.mode not in (MODE_COUNT, MODE_TIME, MODE_UNBOUNDED, MODE_PARTITION):
            raise PlanningError(f"unknown window mode {self.mode!r}")
        if self.mode in (MODE_COUNT, MODE_TIME):
            if self.size <= 0:
                raise PlanningError(f"{self.mode} window needs a positive range")
            if self.slide <= 0:
                raise PlanningError(f"{self.mode} window needs a positive slide")
        if self.mode == MODE_TIME and not self.time_column:
            raise PlanningError("time window needs a timestamp column")
        if self.mode == MODE_PARTITION:
            if not self.partition_by:
                raise PlanningError("partition window needs a key column")
            if self.rows <= 0:
                raise PlanningError("partition window needs positive rows")

    @classmethod
    def count(cls, size: int, slide: int = 1) -> "WindowSpec":
        return cls(mode=MODE_COUNT, size=size, slide=slide)

    @classmethod
    def time(
        cls, size: int, slide: int, time_column: str = "timestamp"
    ) -> "WindowSpec":
        return cls(mode=MODE_TIME, size=size, slide=slide, time_column=time_column)

    @classmethod
    def unbounded(cls) -> "WindowSpec":
        return cls(mode=MODE_UNBOUNDED)

    @classmethod
    def partition(cls, key: str, rows: int) -> "WindowSpec":
        return cls(mode=MODE_PARTITION, partition_by=key, rows=rows)


@dataclass(frozen=True)
class WindowLayout:
    """Window extents for one fed batch, in merged coordinates.

    ``carry`` tuples from the previous batch precede the new batch in the
    merged coordinate system (merged length = carry + n).  ``retain_start``
    is where the tail that must be buffered for the next batch begins; when
    it equals the merged length nothing is retained.
    """

    carry: int
    windows: Tuple[Tuple[int, int], ...]
    retain_start: int


class WindowScheduler:
    """Counts-only cross-batch window bookkeeping.

    The executor pairs this with its own (decoded) tail buffers: windows of
    batches that need no carried tuples run *directly on compressed codes*;
    batches with cross-boundary windows fall back to buffered values, since
    code spaces of different batches (dictionary, base...) are not
    comparable.  The benchmark configurations size batches as whole numbers
    of windows, so the direct path dominates, matching the paper's setup of
    "each batch contains 100 windows".
    """

    def __init__(self, spec: WindowSpec):
        if spec.mode != MODE_COUNT:
            raise PlanningError("WindowScheduler requires a count window")
        self.spec = spec
        self._pending = 0
        self._skip = 0

    def feed(self, n: int) -> WindowLayout:
        if n < 0:
            raise PlanningError("cannot feed a negative number of tuples")
        carry = self._pending
        total = carry + n
        size, slide = self.spec.size, self.spec.slide
        start = self._skip
        windows: List[Tuple[int, int]] = []
        while start + size <= total:
            windows.append((start, start + size))
            start += slide
        if start >= total:
            self._pending = 0
            self._skip = start - total
            retain_start = total
        else:
            self._pending = total - start
            self._skip = 0
            retain_start = start
        return WindowLayout(
            carry=carry, windows=tuple(windows), retain_start=retain_start
        )

    @property
    def pending(self) -> int:
        return self._pending


class TimeWindowScheduler:
    """Cross-batch bookkeeping for time-based windows.

    Windows are aligned to the stream's first timestamp t0: window k spans
    ``[t0 + k*slide, t0 + k*slide + size)`` in timestamp units.  A window
    is emitted once the stream's time passes its end (in-order streams act
    as their own watermark); trailing windows still open at the end of a
    feed stay pending.  Feeding returns extents as *index* ranges into the
    merged (carried tail + new) coordinate system, so the executor's value
    kernels stay identical to the count-window path, just with ragged
    window sizes.

    Timestamps must be non-decreasing; out-of-order input raises
    :class:`~repro.errors.PlanningError` (this engine models in-order
    streams, as the paper's datasets are).
    """

    def __init__(self, spec: WindowSpec):
        if spec.mode != MODE_TIME:
            raise PlanningError("TimeWindowScheduler requires a time window")
        self.spec = spec
        self._t0: Optional[int] = None
        self._next_window = 0     # index k of the next window to emit
        self._pending = 0         # carried tuples (tail of previous feed)
        self._last_ts: Optional[int] = None

    def _window_bounds(self, k: int) -> Tuple[int, int]:
        start = self._t0 + k * self.spec.slide
        return start, start + self.spec.size

    def feed(self, timestamps: np.ndarray) -> WindowLayout:
        ts = np.asarray(timestamps, dtype=np.int64)
        carry = self._pending
        n_new = ts.size - carry
        if n_new < 0:
            raise PlanningError("fed fewer timestamps than the carried tail")
        if ts.size and (np.diff(ts) < 0).any():
            raise PlanningError("time windows require non-decreasing timestamps")
        if self._last_ts is not None and ts.size > carry and ts[carry] < self._last_ts:
            raise PlanningError("time windows require non-decreasing timestamps")
        if ts.size:
            if self._t0 is None:
                self._t0 = int(ts[0])
            self._last_ts = int(ts[-1])
        windows: List[Tuple[int, int]] = []
        if ts.size == 0 or self._t0 is None:
            return WindowLayout(carry=carry, windows=(), retain_start=ts.size)
        stream_time = int(ts[-1])
        k = self._next_window
        while True:
            w_start, w_end = self._window_bounds(k)
            if stream_time < w_end:
                break  # still open: needs future tuples to close
            lo = int(np.searchsorted(ts, w_start, side="left"))
            hi = int(np.searchsorted(ts, w_end, side="left"))
            if hi > lo:
                windows.append((lo, hi))
            # empty windows (no tuples in span) emit nothing, like the
            # count path where windows always have tuples by construction
            k += 1
        self._next_window = k
        next_start, _ = self._window_bounds(k)
        retain_start = int(np.searchsorted(ts, next_start, side="left"))
        self._pending = ts.size - retain_start
        return WindowLayout(
            carry=carry, windows=tuple(windows), retain_start=retain_start
        )

    @property
    def pending(self) -> int:
        return self._pending


class PartitionWindowState:
    """Most-recent-K-rows-per-key state for ``[partition by c rows K]``."""

    def __init__(self, spec: WindowSpec):
        if spec.mode != MODE_PARTITION:
            raise PlanningError("PartitionWindowState requires a partition window")
        self.spec = spec
        # key -> per-column arrays of the last `rows` tuples (oldest first)
        self._state: Dict[int, Dict[str, np.ndarray]] = {}

    def update(self, batch: Batch) -> None:
        """Absorb a batch, retaining the latest ``rows`` tuples per key."""
        keys = batch.column(self.spec.partition_by)
        if keys.size == 0:
            return
        rows = self.spec.rows
        # Process per distinct key; take the last `rows` occurrences.
        uniques, inverse = np.unique(keys, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        sorted_inverse = inverse[order]
        boundaries = np.nonzero(sorted_inverse[1:] != sorted_inverse[:-1])[0] + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [keys.size]])
        for ui, (s, e) in enumerate(zip(starts, ends)):
            idx = order[s:e]  # positions of this key, in arrival order
            take = idx[-rows:]
            key = int(uniques[ui])
            fresh = {
                name: batch.column(name)[take] for name in batch.schema.names
            }
            prior = self._state.get(key)
            if prior is not None and take.size < rows:
                fresh = {
                    name: np.concatenate([prior[name], fresh[name]])[-rows:]
                    for name in fresh
                }
            self._state[key] = fresh

    def latest_aligned(
        self, keys: np.ndarray, names: Sequence[str]
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        """Latest row per requested key, aligned with ``keys``.

        Unlike :meth:`lookup`, missing keys are *not* skipped: the result
        has exactly ``len(keys)`` rows per column (zeros where the key has
        no state) plus a boolean ``found`` mask, which is what the outer
        join needs to fill misses.  Requires a ``rows 1`` window — deeper
        retention has no single aligned row per key.
        """
        if self.spec.rows != 1:
            raise PlanningError(
                "latest_aligned requires a [partition by <key> rows 1] window"
            )
        keys = np.asarray(keys, dtype=np.int64)
        found = np.zeros(keys.size, dtype=bool)
        columns = {
            name: np.zeros(keys.size, dtype=np.int64) for name in names
        }
        for i, key in enumerate(keys):
            rows = self._state.get(int(key))
            if rows is None:
                continue
            found[i] = True
            for name in names:
                columns[name][i] = rows[name][-1]
        return columns, found

    def lookup(self, keys: np.ndarray) -> Dict[str, np.ndarray]:
        """Latest rows for the given keys, flattened in key order.

        Keys with no state are skipped (no tuple has arrived for them yet).
        """
        if not self._state:
            return {}
        collected: Dict[str, List[np.ndarray]] = {}
        for key in np.asarray(keys, dtype=np.int64):
            rows = self._state.get(int(key))
            if rows is None:
                continue
            for name, arr in rows.items():
                collected.setdefault(name, []).append(arr)
        return {
            name: np.concatenate(parts) for name, parts in collected.items()
        }

    def __len__(self) -> int:
        return len(self._state)
