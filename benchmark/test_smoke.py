"""Smoke tests of the benchmark itself, on tiny shapes.

They live outside ``tests/`` so the package's test suite neither collects
nor waits for them.  Run from the repository root:

    python3 -m pytest -q benchmark/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tracing

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402  (needs the package on the path)

BENCH_DIR = Path(__file__).resolve().parent
TINY = {
    "cli-ingest": {"p": 6, "k": 20, "r": 2, "N": 40, "score_contexts": 2},
    "fit-desk": {"p": 8, "k": 40, "r": 3, "N": 60, "small": (20, 10, 8, 0.5)},
    "select-rank": {"p": 10, "k": 20, "r": 3, "N": 200, "candidates": (2, 3, 5)},
    "bench-trials": {"p": 6, "k": 20, "r": 2, "trials": 2},
}


def _run(monkeypatch, capsys, name, trace, seed=3):
    monkeypatch.setitem(workloads.SHAPES, name, TINY[name])
    rc = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0.01",
                   "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return rc, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(monkeypatch, capsys, name):
    rc, result = _run(monkeypatch, capsys, name, trace=0)
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_between_runs(monkeypatch, capsys, name):
    runs = [_run(monkeypatch, capsys, name, trace=1) for _ in range(2)]
    counts = []
    for rc, result in runs:
        assert rc == 0 and result["correct"]
        assert set(result["metrics"]) == {n for n, _, _ in tracing.PER_LAYER}
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count" and k != "trace.spans"})
    assert counts[0] == counts[1]
    assert counts[0]["decompose.fit_calls"] >= 1


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "fit-desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _span(sid, start, end, parent=None, thread=1):
    return {"id": sid, "name": sid, "start": start, "end": end, "parent": parent,
            "run": "r", "thread": thread}


def test_self_time_is_duration_minus_children_in_one_thread():
    spans = [_span("root", 0.0, 10.0), _span("a", 1.0, 4.0, "root"),
             _span("b", 2.0, 3.0, "a"), _span("c", 5.0, 9.0, "root")]
    own = tracing.self_times(spans)
    assert own == pytest.approx({"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0})


def test_self_times_of_concurrent_threads_sum_to_wall_time():
    spans = [_span("root", 0.0, 10.0), _span("w1", 1.0, 9.0, "root", thread=2),
             _span("w2", 3.0, 7.0, "root", thread=3)]
    own = tracing.self_times(spans)
    assert sum(own.values()) == pytest.approx(10.0)
    assert own == pytest.approx({"root": 2.0, "w1": 6.0, "w2": 2.0})
