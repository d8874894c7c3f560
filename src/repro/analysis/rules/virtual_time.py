"""CSD005: the network stack and the serving layer run in virtual time.

``repro.net`` simulates channels, faults and the recovery transport in
*virtual* time, and ``repro.serve`` schedules restart backoff, breaker
cooldowns and admission refill on the same
:class:`~repro.serve.clock.VirtualClock`: latency, backoff and stalls
are computed quantities, so runs are bit-reproducible and a simulated
slow link costs no real seconds.  A single ``time.sleep`` or wall-clock
read would couple results to the host clock and break campaign and
kill-and-recover replays.  Two checks enforce it:

* no module under ``src/repro/net/`` or ``src/repro/serve/`` imports
  ``time``/``datetime``;
* no function reachable over the call graph from those packages calls
  a wall-clock or ambient-entropy API (``time.time``,
  ``datetime.now``, ``time.sleep``, ``os.urandom`` …) in any module.
  ``time.perf_counter`` stays allowed, consistent with CSD003, and
  propagation stops at the CSD003 allowlist files (CLI surface, bench
  runner), whose wall-clock use is documented provenance.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..callgraph import CallGraph
from ..dataflow import external_sink, find_flows, mark_flow_edges
from ..findings import Finding
from ..project import Project, SourceFile
from .base import Rule, forbidden_imports
from .determinism import ALLOWLIST, WALL_CLOCK_CALLS

#: the virtual-time surface: import-ban scope and call-closure entries
VIRTUAL_TIME_PATHS: Tuple[str, ...] = ("src/repro/net/", "src/repro/serve/")

FORBIDDEN_MODULES = frozenset({"time", "datetime"})

#: sinks beyond CSD003's computation set: sleeping couples simulated
#: time to real seconds; os.urandom is ambient entropy
EXTRA_SINKS = frozenset({"time.sleep", "os.urandom"})

_SINKS = frozenset(WALL_CLOCK_CALLS) | EXTRA_SINKS


class VirtualTimeRule(Rule):
    rule_id = "CSD005"
    title = "virtual-time"
    waiver_tag = "wall-clock"
    needs_graph = True
    rationale = (
        "Transport retry/backoff, fault stalls, restart backoff and "
        "breaker cooldowns are computed in virtual seconds; importing "
        "wall-clock APIs into repro.net or repro.serve, or reaching a "
        "wall-clock read anywhere in their call closure, would make "
        "recovery timing machine-dependent and replays irreproducible."
    )

    def applies(self, sf: SourceFile) -> bool:
        return sf.relpath.startswith(VIRTUAL_TIME_PATHS)

    def visit(self, sf: SourceFile, project: Project) -> Iterable[Finding]:
        if sf.tree is None:
            return
        package = "repro." + sf.relpath.split("/")[2]
        for node, module in forbidden_imports(sf.tree, FORBIDDEN_MODULES):
            yield self.flag(
                sf,
                node,
                f"{package} imports wall-clock module {module!r}; it runs "
                "in virtual time",
            )

    def finish(self, project: Project) -> Iterable[Finding]:
        graph = project.graph
        if not isinstance(graph, CallGraph):
            return
        entries = [n.qualname for n in graph.functions_in(VIRTUAL_TIME_PATHS)]
        sanitizers = {n.qualname for n in graph.functions_in(tuple(ALLOWLIST))}
        facts = external_sink(_SINKS.__contains__)
        for flow in find_flows(graph, entries, facts, sanitizers):
            mark_flow_edges(project.edge_taints, flow, self.title)
            node = graph.function(flow.node)
            assert node is not None
            yield self.flag_at(
                project,
                node.relpath,
                flow.line,
                f"{flow.detail}() is reachable from the virtual-time "
                f"surface: {flow.render_path()}; compute the value from "
                "virtual time / seeded RNG or waive at this site with "
                "'# lint: wall-clock <why>'",
            )
