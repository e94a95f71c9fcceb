"""Sharded serving: aggregate QPS across a shard-count sweep + chaos drill.

Replays the same closed-loop burst against
:class:`repro.serve.sharding.server.ShardedModelServer` at shard counts
1 / 2 / 4 / ``os.cpu_count()`` (deduplicated), over the same seeded MLP
and synthetic rows as ``bench_serve_throughput``, and writes
``BENCH_serve_sharded.json`` with per-shard-count QPS and latency
percentiles plus a :mod:`repro.loadgen` heavy-tail run and a
kill-one-worker chaos drill.

Asserted claims:

- the served hard labels are **bit-identical** at every shard count and
  against a direct per-row model loop (float64 slab transport is
  lossless; only BLAS batch shapes could differ, and those affect
  probabilities by ulps, never thresholded labels);
- the chaos drill (SIGKILL one of two workers at the schedule midpoint)
  answers **every** scheduled request with zero errors and records a
  respawn;
- **aggregate scaling**: 4 shards deliver >= 2.5x the 1-shard QPS.
  This last gate needs real parallel hardware, so it is enforced only
  when ``os.cpu_count() >= 4`` — on smaller machines the sweep is still
  measured and recorded, and the JSON says the gate was skipped (a
  1-core box physically cannot scale process-parallel scoring).

Run standalone (CI) or under pytest-benchmark like the other benches::

    PYTHONPATH=src python benchmarks/bench_serve_sharded.py --quick
    PYTHONPATH=src python -m pytest benchmarks/bench_serve_sharded.py

Run as a script it uses one BLAS thread per process, as
``bench_serve_throughput.py`` does; the forked shards inherit it.  On a
2-CPU host, unpinned OpenBLAS pools in the shards and the parent made
the 1-shard row read anywhere from 1.9k to 85k rows/s, which leaves the
scaling gate judging noise.
"""

import os

if __name__ == "__main__":
    # Must be set before numpy is imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from repro.datasets.preprocessing import TabularEncoder  # noqa: E402
from repro.datasets.synthetic import (  # noqa: E402
    CategoricalSpec,
    TabularSchema,
    generate_dataset,
)
from repro.loadgen import LoadGenerator, TrafficMix, build_schedule  # noqa: E402
from repro.nn import Network  # noqa: E402
from repro.nn.layers import Dense, ReLU  # noqa: E402
from repro.serve.sharding import ShardedModelServer  # noqa: E402
from repro.telemetry import (  # noqa: E402
    bench_filename,
    bench_payload,
    write_bench_json,
)

WIDTHS = (256, 128)
SCALING_FLOOR = 2.5
SCALING_SHARDS = 4


def build_workload(quick: bool):
    """Encoded synthetic-dataset rows plus a seeded MLP to score them."""
    schema = TabularSchema(
        n_continuous=24,
        categorical=(
            CategoricalSpec("ward", 6),
            CategoricalSpec("payer", 4),
            CategoricalSpec("admission", 3),
        ),
        predictive_fraction=0.4,
    )
    n_rows = 512 if quick else 2048
    table, _labels, _weights = generate_dataset(
        schema, n_samples=n_rows, rng=np.random.default_rng(7)
    )
    x = TabularEncoder().fit_transform(table)
    rng = np.random.default_rng(11)
    d = x.shape[1]
    model = Network([
        Dense("fc1", d, WIDTHS[0], rng=rng),
        ReLU("r1"),
        Dense("fc2", WIDTHS[0], WIDTHS[1], rng=rng),
        ReLU("r2"),
        Dense("head", WIDTHS[1], 2, rng=rng),
    ], name="serve-mlp")
    return x, model


def shard_counts():
    """1 / 2 / 4 / core-count, deduplicated and sorted."""
    cores = os.cpu_count() or 1
    return sorted({1, 2, 4, cores})


def sharded_burst(model, x, n_shards, repeats=3):
    """Closed-loop burst at one shard count; best-of-N pass is reported."""
    server = ShardedModelServer(
        model=model,
        n_shards=n_shards,
        n_features=x.shape[1],
        max_batch_size=32,
        batch_timeout=0.0,
        max_queue=len(x) + 8,     # no shedding: measure the sharded path
        cache_size=0,             # every request must cross to a worker
        monitor_interval=0.05,
    )
    with server:
        server.predict_many(x[:64])  # warm-up, untimed
        best = None
        for _ in range(repeats):
            start = time.perf_counter()
            labels = np.array(server.predict_many(x))
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        stats = server.stats()
    return labels, len(x) / best, stats


def chaos_drill(model, x, n_requests=400):
    """Kill one of two workers mid-replay; every request must answer."""
    schedule = build_schedule(
        TrafficMix.closed_loop(), n_requests, min(64, len(x)), seed=2018
    )
    server = ShardedModelServer(
        model=model, n_shards=2, n_features=x.shape[1],
        cache_size=0, monitor_interval=0.02,
    )
    with server:
        report = LoadGenerator(
            server, schedule, x[:64], workers=8, mix_name="closed_loop",
            kill_shard_at=(n_requests // 2, 1),
        ).run()
        respawns = sum(h.respawns for h in server.supervisor.handles)
    return {
        "n_scheduled": n_requests,
        "n_answered": report.n_requests,
        "errors": report.errors,
        "dropped": n_requests - report.n_requests,
        "respawns": respawns,
        "qps": report.qps,
    }


def heavy_tail_run(model, x, n_requests=600):
    """One seeded heavy-tail mix replay for the per-shard table."""
    mix = TrafficMix.heavy_tail(mean_gap=0.0)
    schedule = build_schedule(mix, n_requests, min(64, len(x)), seed=2018)
    server = ShardedModelServer(
        model=model, n_shards=2, n_features=x.shape[1],
        monitor_interval=0.05,
    )
    with server:
        report = LoadGenerator(
            server, schedule, x[:64], workers=8, mix_name=mix.name,
        ).run()
    return report


def run_benchmark(quick: bool = False):
    x, model = build_workload(quick)
    reference = np.array([model.predict(row[np.newaxis, :])[0] for row in x])
    cores = os.cpu_count() or 1

    sweep = []
    labels_by_count = {}
    for n_shards in shard_counts():
        labels, qps, stats = sharded_burst(model, x, n_shards)
        labels_by_count[n_shards] = labels
        entry = {
            "shards": n_shards,
            "qps": qps,
            "mean_batch_size": stats["mean_batch_size"],
            "p50_ms": stats.get("latency_p50_ms"),
            "p99_ms": stats.get("latency_p99_ms"),
            "shard_requests": stats["shard_requests"],
        }
        sweep.append(entry)

    bit_identical = all(
        np.array_equal(labels, reference)
        for labels in labels_by_count.values()
    )
    by_count = {entry["shards"]: entry["qps"] for entry in sweep}
    scaling = (
        by_count[SCALING_SHARDS] / by_count[1]
        if SCALING_SHARDS in by_count else None
    )
    scaling_gate = (
        "enforced" if cores >= SCALING_SHARDS
        else f"skipped (cpu_count={cores} < {SCALING_SHARDS}: "
             "process-parallel scoring cannot scale on this machine)"
    )

    chaos = chaos_drill(model, x)
    tail_report = heavy_tail_run(model, x)

    payload = bench_payload(
        "serve_sharded",
        extra={
            "quick": quick,
            "cpu_count": cores,
            "n_requests": int(len(x)),
            "n_features": int(x.shape[1]),
            "model": f"mlp {x.shape[1]}-{WIDTHS[0]}-{WIDTHS[1]}-2",
            "sweep": sweep,
            "scaling_qps_4_over_1": scaling,
            "scaling_floor": SCALING_FLOOR,
            "scaling_gate": scaling_gate,
            "bit_identical_predictions": bit_identical,
            "chaos_kill_one_worker": chaos,
            "heavy_tail": tail_report.to_dict(),
        },
    )
    path = write_bench_json(bench_filename("serve_sharded"), payload)
    return payload, path


def check_claims(payload):
    extra = payload["extra"]
    assert extra["bit_identical_predictions"], (
        "sharded labels differ from the per-row reference"
    )
    chaos = extra["chaos_kill_one_worker"]
    assert chaos["dropped"] == 0, f"chaos drill dropped {chaos['dropped']}"
    assert chaos["errors"] == 0, f"chaos drill errored {chaos['errors']}"
    assert chaos["respawns"] >= 1, "worker was killed but never respawned"
    if extra["scaling_gate"] == "enforced":
        assert extra["scaling_qps_4_over_1"] >= extra["scaling_floor"], (
            f"4-shard scaling {extra['scaling_qps_4_over_1']:.2f}x < "
            f"{extra['scaling_floor']}x"
        )


def format_report(payload, path):
    extra = payload["extra"]
    lines = ["=== sharded serving: shard-count sweep ==="]
    for entry in extra["sweep"]:
        p50 = entry["p50_ms"]
        p99 = entry["p99_ms"]
        lines.append(
            f"shards={entry['shards']:<2d} qps={entry['qps']:9.0f}  "
            f"mean_batch={entry['mean_batch_size']:5.1f}  "
            f"p50={p50:8.3f}ms  p99={p99:8.3f}ms"
        )
    scaling = extra["scaling_qps_4_over_1"]
    if scaling is not None:
        lines.append(
            f"scaling 4/1: {scaling:.2f}x (gate {extra['scaling_gate']})"
        )
    chaos = extra["chaos_kill_one_worker"]
    lines.append(
        f"chaos: answered {chaos['n_answered']}/{chaos['n_scheduled']} "
        f"dropped={chaos['dropped']} errors={chaos['errors']} "
        f"respawns={chaos['respawns']}"
    )
    lines.append(
        f"bit-identical predictions: {extra['bit_identical_predictions']}"
    )
    lines.append(f"wrote {path}")
    return "\n".join(lines)


def test_serve_sharded(benchmark, report):
    from conftest import run_once

    payload, path = run_once(benchmark, lambda: run_benchmark(quick=False))
    report(format_report(payload, path))
    check_claims(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller burst for CI smoke runs")
    args = parser.parse_args(argv)
    payload, path = run_benchmark(quick=args.quick)
    print(format_report(payload, path))
    check_claims(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
