"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload window-agg --seed 1 --seconds 10 --trace 0

Workloads: ``window-agg`` and ``drift-fleet`` (see README.md next to this
file).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run, and also writes every
span to ``.perfbench/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when every result matched the decode-first reference.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("window-agg", "drift-fleet")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, tiny: bool = False, setup_repeats: int = 0) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import bench

    started = time.perf_counter()
    outcome = bench.run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        ROOT,
        tiny=tiny,
        setup_repeats=setup_repeats or bench.SETUP_REPEATS,
    )
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}: {outcome.attempted} batches attempted, "
        f"{outcome.failed} failed, {outcome.latency_samples} latency samples, "
        f"{time.perf_counter() - started:.1f}s total"
    )
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:42s} {value:16.6g} {unit}")
    for note in outcome.notes:
        print(f"  {note}")
    if outcome.instrument is not None:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        outcome.instrument.dump(
            path, {"workload": args.workload, "seed": args.seed, "notes": outcome.notes}
        )
        print(f"  spans written to {path.relative_to(ROOT)}")
    metrics = {
        name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
        for name, (value, unit) in outcome.metrics.items()
    }
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
