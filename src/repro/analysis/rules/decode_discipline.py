"""CSD001: the direct path decodes only through the DecodeCache.

The paper's central claim is that operators execute *on compressed
data*; any stray ``decode()``/``decompress()`` on a hot path silently
reintroduces the decompress-then-query model the engine exists to
avoid.  The only sanctioned full-column decode is
``DecodeCache.decompress`` (content-addressed, accounted as decompress
time); anything else needs a ``# lint: force-decode`` waiver stating
why the decode is bounded (e.g. one value per window).

The rule is one taint query over the linked call graph: every function
in the direct-path files is an entry, and a decode site on a non-cache
receiver is a sink wherever it is reached — in the operator itself or
in a helper any number of hops away.  Propagation stops at the layers
whose job is decoding (``DecodeCache`` and the codec package), and
findings in helpers carry the witness call chain from the entry.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

from ..callgraph import CallGraph, FunctionNode
from ..dataflow import find_flows, mark_flow_edges
from ..findings import Finding
from ..project import Project
from .base import GraphRule

#: method names that materialize values from compressed representations
DECODE_METHODS = frozenset(
    {"decode", "decompress", "decode_codes", "decode_all", "force_decompress"}
)

#: receiver names through which a full decode is sanctioned
CACHE_RECEIVERS = frozenset({"cache", "decode_cache"})

#: files on the direct-on-compressed execution path (the entries)
DIRECT_PATHS: Tuple[str, ...] = (
    "src/repro/operators/",
    "src/repro/core/server.py",
)

#: paths where decoding is the sanctioned job: propagation stops here,
#: and decode sites inside them are not sinks
SANCTIONED_PATHS: Tuple[str, ...] = (
    "src/repro/compression/",
    "src/repro/core/decode_cache.py",
)


def _decode_sites(node: FunctionNode) -> Iterator[Tuple[str, int]]:
    """Materialization call sites of one function summary."""
    if node.relpath.startswith(SANCTIONED_PATHS):
        return
    direct = node.relpath.startswith(DIRECT_PATHS)
    for site in node.summary.get("sites", []):
        line = site.get("line", node.line)
        if site.get("strcodec") and not direct:
            continue  # bytes.decode("utf-8"): a text codec, not a column
        if site["kind"] == "attr":
            parts = site["path"].split(".")
            if parts[-1] not in DECODE_METHODS:
                continue
            if len(parts) >= 2 and parts[-2] in CACHE_RECEIVERS:
                continue
            yield site["path"], line
        elif site["kind"] == "method":
            if site["method"] in DECODE_METHODS:
                yield site["method"], line


class DecodeDisciplineRule(GraphRule):
    rule_id = "CSD001"
    title = "decode-discipline"
    waiver_tag = "force-decode"
    rationale = (
        "Direct-on-compressed operators and the server hot loop may only "
        "materialize values through DecodeCache.decompress.  Every "
        "decode()/decompress()/decode_codes()/decode_all() call they "
        "reach — inline or through any number of helper hops, unless the "
        "path passes through DecodeCache or the codec package — must "
        "carry a '# lint: force-decode' waiver explaining why the decode "
        "is bounded and intentional."
    )

    def finish(self, project: Project) -> Iterable[Finding]:
        graph = project.graph
        if not isinstance(graph, CallGraph):
            return
        entries = [n.qualname for n in graph.functions_in(DIRECT_PATHS)]
        sanitizers = {n.qualname for n in graph.functions_in(SANCTIONED_PATHS)}
        for flow in find_flows(graph, entries, _decode_sites, sanitizers):
            mark_flow_edges(project.edge_taints, flow, self.title)
            node = graph.function(flow.node)
            assert node is not None
            yield self.flag_at(
                project,
                node.relpath,
                flow.line,
                f"{flow.detail}() materializes compressed data on the "
                f"direct path: {flow.render_path()}; route through "
                "DecodeCache or waive at this site with "
                "'# lint: force-decode <why bounded>'",
            )
