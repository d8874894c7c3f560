"""Query registry the drift-fleet tenants resolve their inputs through.

``TenantSpec(query_module=...)`` makes each tenant session look its query
up in a module-level ``QUERIES`` dict and call ``make_source`` on the
entry.  The benchmark fills this registry with corpus queries whose
sources are batches generated before the timer starts, so the serving
layer receives only those batches and never runs a generator while timed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.stream.batch import Batch
from repro.workloads.corpus import CorpusEntry

#: query name -> entry; filled by the benchmark before it builds tenants
QUERIES: Dict[str, "Pregenerated"] = {}


class Pregenerated:
    """A corpus query whose stream is a fixed list of batches."""

    def __init__(self, entry: CorpusEntry, batches: List[Batch]):
        self.entry = entry
        self.batches = batches
        self.catalog = entry.catalog
        self.window = entry.window

    def text(self, slide: Optional[int] = None) -> str:
        return self.entry.text(slide)

    def make_source(self, batch_size: int, batches: int, seed: int = 0) -> List[Batch]:
        if batch_size != self.batches[0].n or batches > len(self.batches):
            raise ValueError(
                f"{self.entry.name}: asked for {batches} x {batch_size} tuples, "
                f"generated {len(self.batches)} x {self.batches[0].n}"
            )
        return self.batches[:batches]
