"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.ROOT / "src"))

import bench  # noqa: E402
from spans import Instrument  # noqa: E402

from repro.core.server import Server  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run_cli(capsys, workload: str, trace: int):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", str(trace)],
        tiny=True,
        setup_repeats=1,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_named_metric(capsys, workload, trace):
    code, doc = _run_cli(capsys, workload, trace)
    assert code == 0
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in doc["metrics"].items()
    }
    for metric in doc["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def _perturb_first_result(report, *_):
    """Shift one output value of the first batch the server answers."""
    if _perturb_first_result.done:
        return
    _perturb_first_result.done = True
    name = sorted(report.result.columns)[0]
    report.result.columns[name] = report.result.columns[name] + 1


@pytest.mark.parametrize("workload", ["window-agg", "drift-fleet"])
def test_perturbed_result_is_counted_failed(monkeypatch, capsys, workload):
    # perturb inside the timed loop only: the reference must stay intact
    original = bench.timed_loop

    def perturbed_loop(*args, **kwargs):
        _perturb_first_result.done = False
        with Instrument(tracing=False) as ins:
            ins.patch(Server, "process", after=_perturb_first_result)
            return original(*args, **kwargs)

    monkeypatch.setattr(bench, "timed_loop", perturbed_loop)
    code, doc = _run_cli(capsys, workload, 0)
    assert code != 0
    assert doc["correct"] is False
    assert doc["failed"] == 1
    assert doc["metrics"]["ok_batch_frac"]["value"] < 1.0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_self_times_and_unattributed_add_up_to_traced_wall(workload):
    outcome = bench.run(workload, 5, 0.3, True, run.ROOT, tiny=True, setup_repeats=1)
    table = outcome.instrument.span_table()
    wall = table[bench.ROOT_SPAN]["total_s"]
    assert wall == pytest.approx(outcome.metrics["trace.wall_s"][0])
    layers = sum(row["self_s"] for name, row in table.items() if name != bench.ROOT_SPAN)
    unattributed = outcome.metrics["unattributed_s"][0]
    assert unattributed >= 0.0
    assert layers + unattributed == pytest.approx(wall, rel=1e-9)


def test_span_self_time_subtracts_children(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    monkeypatch.setattr("spans.time.perf_counter", lambda: next(ticks))
    ins = Instrument(tracing=True)
    root = ins.open("root")  # 0 .. 10
    child = ins.open("a")  # 1 .. 3
    ins.close(child)
    child = ins.open("b")  # 4 .. 7
    ins.close(child)
    ins.close(root)
    table = ins.span_table()
    assert table["root"]["self_s"] == pytest.approx(5.0)
    assert table["a"]["self_s"] == pytest.approx(2.0)
    assert table["b"]["self_s"] == pytest.approx(3.0)


def test_patches_are_restored():
    before = Server.process
    with Instrument(tracing=True) as ins:
        ins.patch(Server, "process", span="core.server.process")
        assert Server.process is not before
    assert Server.process is before


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "window-agg"]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
