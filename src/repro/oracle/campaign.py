"""Campaign runner: N seeded cases x three paths x every pool codec.

A campaign iterates the workload generator, runs each case through the
three-way differential, accumulates the codec x operator coverage
matrix, and on divergence shrinks the case and writes a deterministic
repro file.  ``python -m repro oracle`` is a thin CLI over this module.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..compression.registry import PAPER_POOL
from ..core.profiler import CoverageMatrix
from .differential import DifferentialConfig, Mismatch, MutateHook, run_case
from .generator import WorkloadGenerator
from .replay import save_case
from .shrinker import shrink_case


@dataclass(frozen=True)
class CampaignConfig:
    cases: int = 100
    seed: int = 0
    codecs: Tuple[str, ...] = PAPER_POOL
    shrink: bool = True
    #: repro files land here (created lazily, only on divergence)
    out_dir: str = "oracle-repros"
    #: campaign fails if any codec is hit by fewer operator kinds (0 = off)
    min_kinds: int = 0
    #: stop after this many diverging cases (their repros are enough)
    max_failures: int = 5
    #: test-only fault injection, threaded into the differential config
    mutate: Optional[MutateHook] = None
    #: run the optimized-plan leg on every case (``--no-optimize`` in the
    #: CLI skips it; the optimizer-smoke CI job gates on zero mismatches)
    optimized: bool = True


@dataclass
class CampaignResult:
    config: CampaignConfig
    cases_run: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)
    repro_paths: List[str] = field(default_factory=list)
    coverage: CoverageMatrix = field(default_factory=CoverageMatrix)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.undercovered()

    def undercovered(self):
        return self.coverage.undercovered(self.config.codecs, self.config.min_kinds)


ProgressFn = Callable[[int, int], None]


def run_campaign(
    config: CampaignConfig, progress: Optional[ProgressFn] = None
) -> CampaignResult:
    generator = WorkloadGenerator(config.seed)
    diff_config = DifferentialConfig(
        codecs=config.codecs,
        mutate=config.mutate,
        optimized_leg=config.optimized,
    )
    result = CampaignResult(config=config)
    failing_cases = 0
    for index in range(config.cases):
        case = generator.case(index)
        outcome = run_case(case, diff_config)
        result.cases_run += 1
        result.coverage.merge(outcome.coverage)
        if outcome.mismatches:
            failing_cases += 1
            result.mismatches.extend(outcome.mismatches)
            first = outcome.mismatches[0]
            repro = case
            if config.shrink:
                try:
                    repro = shrink_case(case, first.codec, first.path, diff_config)
                except Exception:  # lint: broad-except (best-effort shrink)
                    pass  # a failed shrink still leaves the original repro
            os.makedirs(config.out_dir, exist_ok=True)
            path = os.path.join(
                config.out_dir,
                f"case{case.case_id:05d}_{first.codec}_{first.path}.json",
            )
            result.repro_paths.append(
                save_case(
                    repro,
                    path,
                    codec=first.codec,
                    mismatch_path=first.path,
                    detail=first.detail,
                )
            )
            if failing_cases >= config.max_failures:
                break
        if progress is not None:
            progress(index + 1, config.cases)
    return result
