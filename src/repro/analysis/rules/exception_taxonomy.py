"""CSD004: subsystem error taxonomy and no silent exception swallows.

Callers distinguish failing subsystems by exception type alone: the
recovery transport NACKs on :class:`WireFormatError`, the adaptive
selector skips codecs on :class:`CodecError`, and the differential
oracle treats anything else as an engine bug.  A stray ``ValueError``
in the wire layer or a swallowed ``except Exception`` therefore breaks
fault recovery and fuzzing in ways no test pinpoints.  Two checks:

* raises, proven over the call graph from every ``repro.wire`` and
  ``repro.compression`` function.  A raise inside those packages must
  derive from the package's own root (:class:`WireFormatError`,
  :class:`CodecError`).  A raise in any other module they reach — a
  helper raising on a wire function's behalf — must resolve to the
  engine's typed :class:`ReproError` tree (the serializer drives the
  whole selector/cost-model stack, whose own typed errors are correct)
  or be a control-flow raise (``StopIteration``, ``NotImplementedError``
  on ABC stubs …).  Class hierarchies are resolved project-wide;
  findings in helpers carry the witness call chain;
* handlers, per file everywhere: no bare ``except:`` and no
  ``except Exception:`` whose body is only ``pass``/``continue``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..callgraph import CallGraph, FunctionNode
from ..dataflow import find_flows, mark_flow_edges
from ..findings import Finding
from ..project import Project, SourceFile
from .base import Rule, dotted_name

#: package prefix -> root exception classes its raises must derive from
PACKAGE_TAXONOMY: Dict[str, Tuple[str, ...]] = {
    "src/repro/wire/": ("WireFormatError",),
    "src/repro/compression/": ("CodecError",),
}

#: the engine-wide typed taxonomy root for raises outside the packages
ENGINE_TAXONOMY_ROOT = "ReproError"

#: raises that are control flow or programming-error signals, not
#: subsystem errors the transport/selector branch on
CONTROL_FLOW_RAISES = frozenset(
    {
        "StopIteration",
        "StopAsyncIteration",
        "NotImplementedError",
        "AssertionError",
        "KeyboardInterrupt",
        "SystemExit",
        "TypeError",
    }
)

_SWALLOW_BODIES = (ast.Pass, ast.Continue)
_BROAD_HANDLERS = frozenset({"Exception", "BaseException"})


def _package(relpath: str) -> Optional[str]:
    """The taxonomy package prefix ``relpath`` lies in, if any."""
    return next((p for p in PACKAGE_TAXONOMY if relpath.startswith(p)), None)


class ExceptionTaxonomyRule(Rule):
    rule_id = "CSD004"
    title = "exception-taxonomy"
    waiver_tag = "broad-except"
    needs_graph = True
    rationale = (
        "The recovery transport, adaptive selector and differential "
        "oracle all branch on exception type; raising outside a "
        "subsystem's taxonomy — in the wire/codec packages or in any "
        "helper they reach — or silently swallowing Exception corrupts "
        "those decisions without failing any test."
    )

    def visit(self, sf: SourceFile, project: Project) -> Iterable[Finding]:
        if sf.tree is None:
            return
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.flag(
                    sf,
                    node,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt; "
                    "name the exception types",
                )
                continue
            name = dotted_name(node.type)
            if name in _BROAD_HANDLERS and self._is_silent(node.body):
                yield self.flag(
                    sf,
                    node,
                    f"'except {name}: pass' silently swallows every "
                    "subsystem error; narrow it or waive with "
                    "'# lint: broad-except <why>'",
                )

    @staticmethod
    def _is_silent(body: List[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, _SWALLOW_BODIES):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # docstring / ellipsis
            return False
        return True

    def finish(self, project: Project) -> Iterable[Finding]:
        graph = project.graph
        if not isinstance(graph, CallGraph):
            return
        package_allowed = {
            prefix: graph.class_descendants(roots)
            for prefix, roots in PACKAGE_TAXONOMY.items()
        }
        package_roots = tuple(
            sorted({root for roots in PACKAGE_TAXONOMY.values() for root in roots})
        )
        engine_allowed = (
            graph.class_descendants(package_roots + (ENGINE_TAXONOMY_ROOT,))
            | CONTROL_FLOW_RAISES
        )

        def raise_facts(node: FunctionNode) -> Iterator[Tuple[str, int]]:
            package = _package(node.relpath)
            allowed = engine_allowed if package is None else package_allowed[package]
            for raised in node.summary.get("raises", []):
                if raised["name"] not in allowed:
                    yield raised["name"], raised["line"]

        entries = [n.qualname for n in graph.functions_in(tuple(PACKAGE_TAXONOMY))]
        for flow in find_flows(graph, entries, raise_facts):
            mark_flow_edges(project.edge_taints, flow, self.title)
            node = graph.function(flow.node)
            assert node is not None
            package = _package(node.relpath)
            if package is not None:
                message = (
                    f"{package.split('/')[2]} package raises {flow.detail}; "
                    f"its taxonomy allows only "
                    f"{' / '.join(PACKAGE_TAXONOMY[package])} subclasses so "
                    "callers can branch on subsystem"
                )
            else:
                message = (
                    f"raise {flow.detail} is reachable from a wire/codec "
                    f"path: {flow.render_path()}; raise a typed "
                    f"{ENGINE_TAXONOMY_ROOT}-taxonomy subclass "
                    f"({'/'.join(package_roots)} for wire/codec code) so the "
                    "transport and selector can branch on subsystem, or "
                    "waive with '# lint: broad-except <why>'"
                )
            yield self.flag_at(project, node.relpath, flow.line, message)
