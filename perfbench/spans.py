"""In-memory span tracing around the program's layer entry points.

The benchmark never edits the program: it replaces attributes (methods on
classes, functions on modules) with wrappers from the outside and puts the
originals back when the :class:`Instrument` is closed.  A name is wrapped
where its caller looks it up, so a function imported with ``from x import
f`` is patched in the importing module, not only where it is defined.

Two kinds of wrapper share one mechanism:

* a *hook* runs plain callbacks before and after the call; the benchmark's
  probes use hooks to take per-batch timestamps and capture results, and
  they are installed in untraced runs too;
* a *span* additionally records ``[name, start, end, parent, batch]`` in
  memory.  Spans nest through a stack, so a layer's self time is its
  duration minus the time of the spans opened inside it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Hook = Callable[..., Any]

#: record layout: name, start, end, parent record index (-1 = none), batch id
NAME, START, END, PARENT, BATCH = range(5)


class Instrument:
    """Owns every patch, span and counter of one benchmark run."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.records: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: batch id stamped on new spans (set by the batch-start probe)
        self.batch = -1
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ----- spans ----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.records.append([name, time.perf_counter(), 0.0, parent, self.batch])
        index = len(self.records) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.records[index][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.records[index][NAME]!r} closed out of order")

    def duration(self, index: int) -> float:
        return self.records[index][END] - self.records[index][START]

    # ----- patching -------------------------------------------------------

    def patch(
        self,
        owner: Any,
        attr: str,
        span: Optional[str] = None,
        before: Optional[Hook] = None,
        after: Optional[Hook] = None,
    ) -> None:
        """Wrap ``owner.attr``; a span is recorded only when tracing.

        ``before(*args)`` runs ahead of the call and ``after(result,
        *args)`` after it returns, both outside the span.
        """
        original = getattr(owner, attr)
        own = attr in vars(owner)
        record = span if self.tracing else None
        instrument = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            if record is None:
                result = original(*args, **kwargs)
            else:
                index = instrument.open(record)
                try:
                    result = original(*args, **kwargs)
                finally:
                    instrument.close(index)
            if after is not None:
                after(result, *args)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original if own else None))

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Swap ``owner.attr`` for ``value`` until the patches close."""
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        self._patches.append((owner, attr, original if attr in vars(owner) else None))

    def close_patches(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Instrument":
        return self

    def __exit__(self, *exc) -> None:
        self.close_patches()

    # ----- derived numbers ------------------------------------------------

    def span_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.records)
        for rec in self.records:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        table: Dict[str, Dict[str, float]] = {}
        for rec, children in zip(self.records, child_time):
            row = table.setdefault(rec[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = rec[END] - rec[START]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - children
        return table

    def dump(self, path, extra: Dict[str, Any]) -> None:
        """Write every span and counter as one JSON document."""
        doc = {
            "fields": ["name", "start", "end", "parent", "batch"],
            "spans": self.records,
            "counts": dict(self.counts),
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
