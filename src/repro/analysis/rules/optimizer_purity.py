"""CSD008: optimizer rules are pure plan-to-plan transforms.

The optimizer's correctness story rests on the rewrite rules being
*referentially transparent*: a rule sees a logical plan plus catalogue
statistics and returns a plan — nothing else.  Three mechanically
checkable consequences, enforced over ``src/repro/optimizer/``:

* no wall-clock or entropy imports (``time``, ``datetime``, ``random``):
  plan choices must be reproducible from (query, stats) alone, or EXPLAIN
  goldens and the differential oracle's optimized leg stop being
  deterministic;
* no decompression during planning (calls to any of CSD001's
  ``DECODE_METHODS``): rules price compressed
  representations through :mod:`repro.optimizer.cost`; touching payloads
  at plan time would smuggle data-dependent work into what must be a
  metadata-only phase;
* every :class:`RewriteRule` subclass must be registered in the static
  ``RULES`` tuple literal of :mod:`repro.optimizer.rules` — an
  unregistered rule silently never runs, and a dynamically-built table
  defeats static auditing of what can rewrite a plan.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from ..findings import Finding
from ..project import Project, SourceFile
from .base import Rule, forbidden_imports
from .decode_discipline import DECODE_METHODS

OPTIMIZER_PREFIX = "src/repro/optimizer/"

FORBIDDEN_MODULES = frozenset({"time", "datetime", "random"})

RULE_BASE = "RewriteRule"
RULES_TABLE = "RULES"


def _base_names(node: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


class OptimizerPurityRule(Rule):
    rule_id = "CSD008"
    title = "optimizer-purity"
    waiver_tag = "plan-transform"
    rationale = (
        "Rewrite rules must be pure AST/plan transforms: no wall-clock "
        "or entropy imports, no decompression of payloads at plan time, "
        "and every RewriteRule subclass registered in the static RULES "
        "tuple so the active rule set is statically auditable."
    )

    def applies(self, sf: SourceFile) -> bool:
        return sf.relpath.startswith(OPTIMIZER_PREFIX)

    def visit(self, sf: SourceFile, project: Project) -> Iterable[Finding]:
        if sf.tree is None:
            return
        yield from self._check_imports(sf)
        yield from self._check_decode_calls(sf)
        yield from self._check_registration(sf)

    # ----- wall clock / entropy ----------------------------------------

    def _check_imports(self, sf: SourceFile) -> Iterable[Finding]:
        for node, module in forbidden_imports(sf.tree, FORBIDDEN_MODULES):
            yield self.flag(
                sf,
                node,
                f"optimizer imports {module!r}; plan rewrites must be "
                "reproducible from the query and statistics alone",
            )

    # ----- no decompression at plan time -------------------------------

    def _check_decode_calls(self, sf: SourceFile) -> Iterable[Finding]:
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in DECODE_METHODS:
                yield self.flag(
                    sf,
                    node,
                    f"optimizer calls .{func.attr}(); planning is a "
                    "metadata-only phase — price representations via the "
                    "cost model instead of touching payloads",
                )

    # ----- static RULES registration -----------------------------------

    def _check_registration(self, sf: SourceFile) -> Iterable[Finding]:
        subclasses: List[ast.ClassDef] = []
        registered: Set[str] = set()
        table_node = None
        for node in sf.tree.body:
            if isinstance(node, ast.ClassDef):
                if RULE_BASE in _base_names(node):
                    subclasses.append(node)
                continue
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            else:
                continue
            if not (isinstance(target, ast.Name) and target.id == RULES_TABLE):
                continue
            table_node = node
            if not isinstance(value, ast.Tuple):
                yield self.flag(
                    sf,
                    node,
                    "RULES must be a static tuple literal of rule "
                    "instances, not a computed value",
                )
                continue
            for element in value.elts:
                if (
                    isinstance(element, ast.Call)
                    and isinstance(element.func, ast.Name)
                    and not element.args
                    and not element.keywords
                ):
                    registered.add(element.func.id)
                else:
                    yield self.flag(
                        sf,
                        element,
                        "RULES entries must be bare RuleClass() "
                        "instantiations so the active rule set is "
                        "statically readable",
                    )
        if subclasses and table_node is None:
            for cls in subclasses:
                yield self.flag(
                    sf,
                    cls,
                    f"RewriteRule subclass {cls.name!r} defined in a "
                    "module with no static RULES table; unregistered "
                    "rules never run",
                )
            return
        for cls in subclasses:
            if cls.name not in registered:
                yield self.flag(
                    sf,
                    cls,
                    f"RewriteRule subclass {cls.name!r} is not "
                    "registered in the static RULES table",
                )
