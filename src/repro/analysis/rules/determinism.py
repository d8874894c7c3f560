"""CSD003: every random draw is seeded; no wall-clock in results.

The differential oracle, the fault injector and the golden-format
digests are only reproducible because every random draw flows through a
seeded ``np.random.Generator`` and no result depends on the wall clock.
This rule forbids ``time.time``/``datetime.now``-style calls, the
stdlib ``random`` module, the legacy ``np.random.*`` global generator
and *unseeded* ``np.random.default_rng()`` — everywhere except a small
documented allowlist (CLI surface, bench-runner environment capture).
``time.perf_counter`` is deliberately allowed: measuring elapsed time
does not change any computed result.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable

from ..findings import Finding
from ..project import Project, SourceFile
from .base import Rule, canonical_call_path, forbidden_imports, import_aliases

#: call targets that leak wall-clock time into computation
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: files exempt from this rule, with the reason on record
ALLOWLIST: Dict[str, str] = {
    # the CLI is the human surface; argparse defaults and progress output
    # may reference the environment without affecting engine results
    "src/repro/cli.py": "interactive surface, not engine computation",
    # the bench runner stamps results with a creation timestamp and
    # captures the host environment — provenance, not computation
    "src/repro/bench/runner.py": "environment capture and provenance",
}

#: scan scope: engine sources and benchmarks (tests manage their own
#: seeds through hypothesis and fixtures)
SCOPE = ("src/repro/", "benchmarks/")


class DeterminismRule(Rule):
    rule_id = "CSD003"
    title = "determinism"
    waiver_tag = "nondeterminism"
    rationale = (
        "Seeded np.random.Generator draws are the only sanctioned "
        "randomness: the differential oracle replays cases byte-for-byte "
        "and the fault injector's campaigns must be reproducible from a "
        "seed alone, so wall-clock reads, stdlib random and unseeded "
        "generators are forbidden outside the documented allowlist."
    )

    def applies(self, sf: SourceFile) -> bool:
        if sf.relpath in ALLOWLIST:
            return False
        return any(sf.relpath.startswith(p) for p in SCOPE)

    def visit(self, sf: SourceFile, project: Project) -> Iterable[Finding]:
        if sf.tree is None:
            return
        for node, _ in forbidden_imports(sf.tree, frozenset({"random"})):
            yield self.flag(
                sf,
                node,
                "stdlib random is unseeded global state; use a seeded "
                "np.random.Generator",
            )
        aliases = import_aliases(sf.tree)
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            path = canonical_call_path(node.func, aliases)
            if path is None:
                continue
            if path in WALL_CLOCK_CALLS:
                yield self.flag(
                    sf,
                    node,
                    f"{path}() reads the wall clock; results must be "
                    "reproducible from seeds and virtual time",
                )
            elif path == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    yield self.flag(
                        sf,
                        node,
                        "np.random.default_rng() without a seed is "
                        "entropy-seeded; pass an explicit seed",
                    )
            elif path.startswith("numpy.random."):
                yield self.flag(
                    sf,
                    node,
                    f"{path}() drives numpy's legacy global RNG; use a "
                    "seeded np.random.Generator",
                )
