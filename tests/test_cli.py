"""Tests for the ``python -m repro`` experiment CLI."""

import numpy as np
import pytest

from repro.cli import build_parser, main


def test_parser_accepts_all_experiments():
    parser = build_parser()
    for name in ("table2", "table4", "table5", "table6", "table7",
                 "table8", "fig3", "fig4", "fig5", "fig6", "fig7", "all"):
        args = parser.parse_args([name])
        assert args.experiment == name


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["table99"])


def test_table2_runs(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "breast-canc" in out
    assert "ionosphere" in out


def test_table7_subset_fast(capsys):
    assert main(["table7", "--fast", "--datasets", "hepatitis"]) == 0
    out = capsys.readouterr().out
    assert "hepatitis" in out
    assert "GM" in out


def test_unknown_dataset_rejected(capsys):
    assert main(["table7", "--datasets", "mnist"]) == 2


def test_fig5_fast_runs(capsys):
    assert main(["fig5", "--fast", "--epochs", "3"]) == 0
    out = capsys.readouterr().out
    assert "Im=50" in out
    assert "baseline" in out


def test_parser_accepts_telemetry_flags():
    args = build_parser().parse_args(
        ["fig5", "--telemetry-out", "run.jsonl", "--log-metrics"]
    )
    assert args.telemetry_out == "run.jsonl"
    assert args.log_metrics is True
    args = build_parser().parse_args(["table2"])
    assert args.telemetry_out is None
    assert args.log_metrics is False


def test_parser_accepts_serve_commands():
    parser = build_parser()
    args = parser.parse_args(["serve", "--requests", "40", "--max-batch", "8"])
    assert args.experiment == "serve"
    assert args.requests == 40 and args.max_batch == 8
    args = parser.parse_args(
        ["predict", "--registry", "models", "--input", "rows.npy", "--proba"]
    )
    assert args.experiment == "predict" and args.proba is True


def test_serve_smoke_and_predict_roundtrip(tmp_path, capsys):
    registry = str(tmp_path / "models")
    assert main(["serve", "--fast", "--requests", "40", "--max-batch", "8",
                 "--registry", registry]) == 0
    out = capsys.readouterr().out
    assert "serve smoke test OK" in out
    assert "published synthetic-readmission:v0001" in out

    # The published model is self-describing: predict scores rows from a
    # file against the registry with no retraining.
    import json

    meta = json.loads(
        (tmp_path / "models" / "synthetic-readmission" / "v0001.meta.json")
        .read_text()
    )
    rows = np.random.default_rng(0).normal(size=(3, meta["n_features"]))
    inputs = tmp_path / "rows.npy"
    np.save(inputs, rows)
    assert main(["predict", "--registry", registry,
                 "--input", str(inputs)]) == 0
    out = capsys.readouterr().out
    printed = [line for line in out.splitlines()
               if line.strip() in {"0", "1"}]
    assert len(printed) == 3


def test_serve_smoke_accounts_rows_when_every_batch_fails(
    tmp_path, monkeypatch, capsys
):
    from repro.serve import ModelServer

    def failing_dispatch(self, *args, **kwargs):
        raise RuntimeError("every batch fails")

    # Each failed batch is rescued row by row, so no batch ever succeeds
    # and the batch-size histogram is never created.
    monkeypatch.setattr(ModelServer, "_dispatch", failing_dispatch)
    assert main(["serve", "--fast", "--requests", "40", "--max-batch", "8",
                 "--chaos", "--registry", str(tmp_path / "models")]) == 0
    out = capsys.readouterr().out
    assert "serve smoke test OK" in out
    assert "batches=0" in out and "rescued=40" in out


def test_predict_requires_registry_and_input():
    with pytest.raises(SystemExit):
        main(["predict"])


def test_telemetry_flags_write_log_and_print_summary(tmp_path, capsys):
    import json

    path = tmp_path / "fig5.jsonl"
    assert main(["fig5", "--fast", "--epochs", "2",
                 "--telemetry-out", str(path), "--log-metrics"]) == 0
    events = [json.loads(line) for line in path.read_text().splitlines()]
    kinds = {e["event"] for e in events}
    assert {"train_start", "em_step", "epoch_end", "train_end"} <= kinds
    # fig5 trains 6 GM settings + 1 baseline = 7 runs in one log.
    assert {e["run"] for e in events} == set(range(7))
    epoch_end = next(e for e in events if e["event"] == "epoch_end")
    assert set(epoch_end["phases"]) == {"estep", "grad", "mstep", "sgd"}
    assert epoch_end["gm_state"]  # per-layer pi/lambda present
    # --log-metrics prints each run's phase summary to stderr.
    err = capsys.readouterr().err
    assert "phase/estep" in err
    assert "train/batches" in err


def test_parser_accepts_observability_flags():
    parser = build_parser()
    args = parser.parse_args(
        ["serve", "--metrics-port", "0", "--trace-out", "spans.jsonl",
         "--trace-sample", "0.5"]
    )
    assert args.metrics_port == 0
    assert args.trace_out == "spans.jsonl"
    assert args.trace_sample == 0.5
    args = parser.parse_args(["metrics", "--from-json", "snap.json"])
    assert args.experiment == "metrics" and args.from_json == "snap.json"
    args = parser.parse_args(
        ["trace", "summarize", "--span-log", "spans.jsonl",
         "--trace-id", "abc123"]
    )
    assert args.experiment == "trace"
    assert args.subaction == "summarize"
    assert args.span_log == "spans.jsonl" and args.trace_id == "abc123"


def test_serve_with_tracing_and_metrics_port(tmp_path, capsys):
    spans = tmp_path / "spans.jsonl"
    assert main(["serve", "--fast", "--requests", "30", "--max-batch", "8",
                 "--trace-out", str(spans), "--metrics-port", "0"]) == 0
    out = capsys.readouterr().out
    assert "serve smoke test OK" in out
    assert "0 problems" in out  # self-scrape validated cleanly
    assert "traces: started=" in out

    # The span log is a parseable narrative of the replay...
    import json
    records = [json.loads(line)
               for line in spans.read_text().splitlines()]
    names = {r["name"] for r in records}
    assert "serve/request" in names

    # ...that `repro trace summarize` turns into a table + tree.
    assert main(["trace", "summarize", "--span-log", str(spans)]) == 0
    out = capsys.readouterr().out
    assert "serve/request" in out
    assert "p99_ms" in out
    assert "critical path" in out


def test_trace_summarize_argument_errors(tmp_path):
    with pytest.raises(SystemExit):
        main(["trace", "frobnicate", "--span-log", "x.jsonl"])
    with pytest.raises(SystemExit):
        main(["trace", "summarize"])  # missing --span-log
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(SystemExit):
        main(["trace", "summarize", "--span-log", str(empty)])


def test_metrics_command_renders_snapshot(tmp_path, capsys):
    import json

    snapshot = {
        "metrics": {
            "counters": {"serve/requests_total": 9.0},
            "gauges": {"serve/queue_depth": 1.0},
        }
    }
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(snapshot))
    assert main(["metrics", "--from-json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "repro_serve_requests_total 9" in out
    assert "# TYPE repro_serve_queue_depth gauge" in out


def test_metrics_command_requires_from_json():
    with pytest.raises(SystemExit):
        main(["metrics"])


def test_metrics_command_rejects_snapshotless_json(tmp_path, capsys):
    import json

    path = tmp_path / "nometrics.json"
    path.write_text(json.dumps({"bench": "trace", "extra": {}}))
    with pytest.raises(SystemExit) as excinfo:
        main(["metrics", "--from-json", str(path)])
    assert excinfo.value.code == 1
    assert "no metrics snapshot found" in capsys.readouterr().err
