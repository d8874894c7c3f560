"""Stream sources: adapters that feed batches into the engine.

A source is anything iterable over :class:`~repro.stream.batch.Batch`
objects sharing one schema.  :class:`ArraySource` replays pre-generated
columns (how the benchmarks drive the engine deterministically);
:class:`GeneratorSource` wraps a per-batch generator callback (how the
dataset generators and the dynamic workload produce unbounded streams).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Mapping, Optional

import numpy as np

from ..errors import SchemaError
from .batch import Batch
from .schema import Schema


class ArraySource:
    """Replays fixed per-column arrays as batches of ``batch_size`` tuples.

    The final partial batch is dropped by default (streaming engines work
    at batch granularity); pass ``keep_tail=True`` to emit it.
    """

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, np.ndarray],
        batch_size: int,
        keep_tail: bool = False,
    ):
        if batch_size <= 0:
            raise SchemaError("batch_size must be positive")
        self.schema = schema
        self.batch_size = batch_size
        self.keep_tail = keep_tail
        self._full = Batch.from_values(schema, columns)

    def __iter__(self) -> Iterator[Batch]:
        n = self._full.n
        stop = n if self.keep_tail else (n // self.batch_size) * self.batch_size
        for start in range(0, stop, self.batch_size):
            end = min(start + self.batch_size, stop)
            if end > start:
                yield self._full.slice(start, end)


class GeneratorSource:
    """Unbounded source: calls ``make_batch(batch_index)`` per batch.

    ``limit`` bounds iteration for experiments; None means unbounded.
    """

    def __init__(
        self,
        schema: Schema,
        make_batch: Callable[[int], Dict[str, np.ndarray]],
        limit: Optional[int] = None,
    ):
        self.schema = schema
        self._make_batch = make_batch
        self.limit = limit

    def __iter__(self) -> Iterator[Batch]:
        index = 0
        while self.limit is None or index < self.limit:
            columns = self._make_batch(index)
            yield Batch.from_values(self.schema, columns)
            index += 1
