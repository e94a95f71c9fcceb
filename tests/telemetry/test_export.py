"""Tests for the BENCH_*.json exporter."""

import json
import os
import platform

import numpy as np
import pytest

from repro.optim import EpochRecord, TrainingHistory
from repro.telemetry import (
    MetricsRegistry,
    bench_filename,
    bench_payload,
    write_bench_json,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_registry():
    clock = FakeClock()
    reg = MetricsRegistry(clock=clock)
    reg.counter("train/batches").inc(10)
    reg.gauge("em/estep_refreshes").set(6)
    with reg.timer("phase/estep"):
        clock.now += 1.25
    with reg.timer("phase/grad"):
        clock.now += 3.0
    return reg


def make_history():
    return TrainingHistory(records=[
        EpochRecord(epoch=0, train_loss=1.0, elapsed_seconds=2.0,
                    cumulative_seconds=2.0),
        EpochRecord(epoch=1, train_loss=0.5, elapsed_seconds=2.0,
                    cumulative_seconds=4.0, val_accuracy=0.75),
    ])


def test_bench_payload_from_registry_and_history():
    payload = bench_payload("fig5_im50", metrics=make_registry(),
                            history=make_history(), extra={"im": 50})
    assert payload["bench"] == "fig5_im50"
    assert payload["schema_version"] == 1
    assert payload["metrics"]["counters"]["train/batches"] == 10
    assert payload["phases"] == {"estep": 1.25, "grad": 3.0}
    assert payload["history"]["losses"] == [1.0, 0.5]
    assert payload["history"]["val_accuracy"] == [None, 0.75]
    assert payload["history"]["converged_epoch"] is None
    assert payload["extra"] == {"im": 50}
    json.dumps(payload)  # fully serializable


def test_bench_payload_accepts_snapshot_dict():
    snapshot = make_registry().snapshot()
    payload = bench_payload("x", metrics=snapshot)
    assert payload["phases"]["estep"] == 1.25
    assert payload["metrics"] == snapshot


def test_bench_payload_rejects_bad_metrics():
    with pytest.raises(TypeError):
        bench_payload("x", metrics=[1, 2, 3])


def test_bench_payload_converts_numpy_types():
    payload = bench_payload("x", extra={"acc": np.float64(0.5),
                                        "ns": np.arange(3)})
    assert payload["extra"]["acc"] == 0.5
    assert payload["extra"]["ns"] == [0, 1, 2]
    json.dumps(payload)


def test_bench_payload_records_environment():
    env = bench_payload("x")["env"]
    assert env["cpu_count"] == os.cpu_count()
    if hasattr(os, "sched_getaffinity"):
        assert env["cpu_affinity"] == sorted(os.sched_getaffinity(0))
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert set(env["blas"]) == {"name", "version"}
    assert env["git_sha"] is None or len(env["git_sha"]) == 40
    json.dumps(env)


def test_bench_env_git_sha_is_null_without_git(monkeypatch):
    monkeypatch.setenv("PATH", "")
    assert bench_payload("x")["env"]["git_sha"] is None


def test_bench_filename_sanitizes():
    assert bench_filename("fig5_im50").endswith("BENCH_fig5_im50.json")
    assert bench_filename("Ig=500&Im=50", directory="/tmp") == \
        "/tmp/BENCH_Ig_500_Im_50.json"


def test_write_bench_json_roundtrip(tmp_path):
    payload = bench_payload("roundtrip", metrics=make_registry(),
                            history=make_history())
    path = write_bench_json(str(tmp_path / "BENCH_roundtrip.json"), payload)
    loaded = json.loads(open(path).read())
    assert loaded == payload


def test_write_bench_json_requires_bench_field(tmp_path):
    with pytest.raises(ValueError):
        write_bench_json(str(tmp_path / "x.json"), {"metrics": {}})
