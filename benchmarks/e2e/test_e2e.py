"""Tests of the end-to-end benchmark: ``python -m pytest benchmarks/e2e``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

if not run.locate_source():  # pragma: no cover - only outside a checkout
    pytest.skip("repro sources not found", allow_module_level=True)

import compare  # noqa: E402
from harness import PROBE_REFERENCE_S, Bracketed, HostSampler, drive, scaled  # noqa: E402
from workloads import BATCH_TIMEOUT_S, fastest, past_timer_scaled  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_exactly_the_listed_metrics(workload, trace):
    record, result = run.measure(workload, seed=3, seconds=1.0, trace=trace, tiny=True)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [entry["name"] for entry in wanted]
    for entry in wanted:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert metric["value"] is not None and math.isfinite(metric["value"])
    assert result["correct"], record["checks"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert record["env"]["seed"] == 3 and record["env"]["workload_config"]
    json.dumps(record)  # the record line must serialize


def test_traced_run_evicts_no_span_and_counts_what_it_writes():
    record, result = run.measure("online_drift", seed=2, seconds=1.0, trace=True, tiny=True)
    checks = {c["name"]: c["ok"] for c in record["checks"]}
    assert checks["no_span_evicted"]
    log = run.ROOT / record["info"]["span_log"]
    with open(log, encoding="utf-8") as handle:
        written = sum(1 for line in handle if line.strip())
    assert result["metrics"]["trace.spans"]["value"] == written > 0


def test_eviction_is_detected(monkeypatch):
    monkeypatch.setattr(run, "MAX_SPANS", 8)
    record, result = run.measure("train_eager", seed=2, seconds=1.0, trace=True, tiny=True)
    assert not result["correct"] and result["failed"] > 0
    assert not {c["name"]: c["ok"] for c in record["checks"]}["no_span_evicted"]


def test_open_loop_times_from_the_due_time():
    """A 50 ms stall is charged to every request queued behind it."""
    stall = 0.05
    due = [0.0] + [0.005 * i for i in range(1, 10)] + [0.2]

    def call(index):
        if index == 0:
            time.sleep(stall)
        return index

    result = drive(call, due, senders=1)
    assert result.n_errors == 0 and not np.isnan(result.latency).any()
    assert result.results == list(range(len(due)))
    for index in range(1, 10):
        assert result.latency[index] >= stall - due[index] - 1e-3
        assert result.late[index] >= stall - due[index] - 1e-3
    # Long after the stall the sender is on time again.
    assert result.late[-1] < 0.02 and result.latency[-1] < 0.02


def test_fastest_takes_each_operations_best_repeat_but_keeps_failures():
    per_rep = [[3.0, 1.0, math.inf], [2.0, 4.0, 0.5], [5.0, 2.0, 0.1]]
    assert fastest(per_rep).tolist() == [2.0, 1.0, math.inf]


def test_scaled_divides_each_operation_by_its_probes():
    ref = PROBE_REFERENCE_S
    # One rep ran at the reference speed, one at half of it, one at a
    # third: scaled, all three read the same.
    reps = [
        Bracketed([1.0, 4.0], [ref, ref], [ref, ref]),
        Bracketed([2.0, 8.0], [2 * ref, 2 * ref], [2 * ref, 2 * ref]),
        Bracketed([3.0, 12.0], [3 * ref, 3 * ref], [3 * ref, 3 * ref]),
    ]
    assert scaled(reps) == pytest.approx(np.array([[1.0, 4.0]] * 3))
    # The speed is the mean of the probe before and the probe after.
    assert scaled([Bracketed([3.0], [ref], [2 * ref])]) == pytest.approx(np.array([[2.0]]))


def test_serve_latency_keeps_the_batch_timer_and_scales_the_rest():
    timer = BATCH_TIMEOUT_S
    latency = np.array([timer / 2, timer, timer + 0.004, math.inf])
    assert past_timer_scaled(latency, 0.5).tolist() == pytest.approx(
        [timer / 2, timer, timer + 0.002, math.inf]
    )


def test_host_sampler_reads_the_host_and_its_own_cpu():
    with HostSampler(every=0.01) as sampler:
        time.sleep(0.05)
    assert len(sampler.readings) >= 2 and min(sampler.readings) > 0
    assert sampler.cpu_seconds >= sum(sampler.readings)
    assert sampler.speed_factor() > 0


def _pairs(base, delta, n=10):
    parent = [base + 0.1 * i for i in range(n)]
    return parent, [p + delta for p in parent]


def test_compare_gain_needs_nine_of_ten_wins_and_a_median_beyond_the_iqr():
    parent, change = _pairs(100.0, 5.0)
    assert compare.judge(parent, change, "higher", 0.1).status == "gain"
    # Same shift, lower-is-better: every pair loses, 5% is within the bound.
    assert compare.judge(parent, change, "lower", 0.1).status == "ok"
    # 8 wins of 10 is not enough.
    eight = change[:8] + [p - 1.0 for p in parent[8:]]
    verdict = compare.judge(parent, eight, "higher", 0.1)
    assert (verdict.wins, verdict.status) == (8, "ok")
    # 10 wins, but the medians differ by less than the parent's IQR.
    small = [p + 0.01 for p in parent]
    assert compare.judge(parent, small, "higher", 0.1).status == "ok"
    # Fewer than 10 pairs never claim a gain.
    assert compare.judge(parent[:9], change[:9], "higher", 0.1).status == "ok"


def test_compare_regression_and_unresolved():
    parent, _ = _pairs(100.0, 0.0)
    worse = [p * 0.8 for p in parent]
    assert compare.judge(parent, worse, "higher", 0.15).status == "regression"
    assert compare.judge(parent, worse, "higher", 0.25).status == "ok"
    wide = [50.0, 80.0, 100.0, 120.0, 150.0]
    assert compare.judge(wide, [95.0] * 5, "higher", 0.1).status == "unresolved"
    assert compare.judge(wide, [200.0] * 5, "higher", 0.1).status == "better"


def _write_runs(directory: Path, values):
    directory.mkdir()
    for seed, value in enumerate(values):
        metrics = {
            entry["name"]: {"value": value, "unit": entry["unit"]}
            for entry in SPEC["end_to_end"]
        }
        record = {"workload": "serve", "seed": seed, "trace": 0, "seconds": 1,
                  "metrics": metrics, "env": {"seed": seed}}
        (directory / f"run{seed}.out").write_text(
            json.dumps(record) + "\n" + json.dumps({"metrics": metrics}) + "\n"
        )


def test_compare_cli_prints_one_row_per_workload(tmp_path, capsys):
    _write_runs(tmp_path / "parent", [100.0 + i for i in range(10)])
    _write_runs(tmp_path / "change", [50.0 + i for i in range(10)])
    code = compare.main([str(tmp_path / "parent"), str(tmp_path / "change")])
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 1 and rows[0].startswith("serve")
    assert "throughput_per_s=regression" in rows[0]
    assert "latency_p50_ms=gain" in rows[0]
    assert code == 1
    assert compare.main(["--summary", str(tmp_path / "parent")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["workloads"]["serve"]["metrics"]["setup_s"]["median"] == 104.5


def test_fails_without_the_program_sources(tmp_path):
    """A checkout holding only the benchmark exits non-zero, printing nothing."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
