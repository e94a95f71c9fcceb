"""Serving throughput: micro-batched vs. unbatched dispatch.

Replays a burst of single-row predict requests against the
``repro.serve`` stack twice — once with micro-batching enabled
(``max_batch_size=32``) and once fully unbatched (``max_batch_size=1``)
— over the same MLP scoring the same synthetic-dataset rows, and writes
``BENCH_serve.json`` with QPS and p50/p99 latency for both modes.
A third record, ``single_block``, sends the same rows one
``max_batch_size``-row ``predict_many`` at a time — the online loop's
call shape, a lone full block that the caller scores on its own
thread — and reports calls/s and p50/p99 per call.  A fourth,
``single_rows``, is the e2e ``serve`` workload's traffic shape: two
threads send single-row ``predict`` calls to a server with default
settings (2 ms ``batch_timeout``, 2 dispatch slots), and it reports process
CPU µs per request, batches, mean batch size and p50/p99 per call.

Both modes send the burst through ``predict_many``, which keys its rows
in one pass and queues the misses as blocks of at most
``max_batch_size`` rows.  Batched mode therefore pays one queue
hand-off and one NumPy forward pass per 32-row block, unbatched mode
one of each per row: the gap measures what coalescing rows into blocks
saves in hand-offs and model calls together, not the model call alone.
The run asserts the paper-stack deployment claims:

- batched QPS >= 3x unbatched QPS at batch size 32;
- the served hard predictions are bit-identical across the batched
  path, the unbatched path, the single-block calls, the single-row
  calls and a direct per-row model loop (probability scores may differ
  by ulps — BLAS reduction order depends on the batch shape — but
  labels must not).

Run standalone (CI) or under pytest-benchmark like the other benches::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py --quick
    PYTHONPATH=src python -m pytest benchmarks/bench_serve_throughput.py

Run as a script it uses one BLAS thread, as ``benchmarks/e2e/run.py``
does, so OpenBLAS's thread pool cannot compete with the sending threads
for the CPUs in an unpinned run.
"""

import os

if __name__ == "__main__":
    # Must be set before numpy is imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from repro.datasets.preprocessing import TabularEncoder  # noqa: E402
from repro.datasets.synthetic import (  # noqa: E402
    CategoricalSpec,
    TabularSchema,
    generate_dataset,
)
from repro.nn import Network  # noqa: E402
from repro.nn.layers import Dense, ReLU  # noqa: E402
from repro.serve import ModelServer  # noqa: E402
from repro.telemetry import (  # noqa: E402
    bench_filename,
    bench_payload,
    write_bench_json,
)

BATCH_SIZE = 32
WIDTHS = (768, 384)
#: Timed single-block calls at least: ten of them lie beyond the p99.
BLOCK_CALLS = 1000
#: Threads sending the ``single_rows`` calls, as in the e2e ``serve``.
SENDERS = 2


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
    n_rows = 768 if quick else 4096
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


def make_server(model, x, max_batch_size):
    """The server every mode measures, at ``max_batch_size``."""
    return ModelServer(
        model=model,
        max_batch_size=max_batch_size,
        batch_timeout=0.0,        # burst load keeps the queue full anyway
        max_queue=len(x) + 8,     # no shedding: measure the queued path only
        workers=1,                # single dispatcher = clean mode comparison
        cache_size=0,             # every request must hit the model
    )


def serve_burst(model, x, max_batch_size, repeats=3):
    """Push every row through a server; returns (labels, qps, stats).

    The first pass is an untimed warm-up (BLAS first-touch); the burst
    then repeats and the best pass is reported, the usual way to reject
    scheduler noise on shared CI runners.
    """
    server = make_server(model, x, max_batch_size)
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


def serve_single_blocks(model, x):
    """One ``BATCH_SIZE``-row ``predict_many`` at a time over every row.

    After an untimed warm-up call, passes over the rows repeat until at
    least ``BLOCK_CALLS`` calls are timed.  Returns the labels of every
    pass (one row per pass), calls/s over all of them and the per-call
    seconds.
    """
    blocks = [x[lo:lo + BATCH_SIZE] for lo in range(0, len(x), BATCH_SIZE)]
    passes = -(-BLOCK_CALLS // len(blocks))
    labels, calls = [], []
    with make_server(model, x, BATCH_SIZE) as server:
        server.predict_many(blocks[0])  # warm-up, untimed
        for _ in range(passes):
            for block in blocks:
                start = time.perf_counter()
                labels += server.predict_many(block)
                calls.append(time.perf_counter() - start)
    calls = np.array(calls)
    return np.array(labels).reshape(passes, -1), len(calls) / calls.sum(), calls


def serve_single_rows(model, x):
    """Every row as one single-row ``predict`` call, from ``SENDERS`` threads.

    The server has default settings; each thread sends every
    ``SENDERS``-th row, one call at a time.  After an untimed warm-up
    the cache and metrics are cleared, so the timed pass starts cold.
    Returns the labels in row order, the per-call seconds, the process
    CPU seconds per call and the server's stats of the timed pass.
    """
    labels = [None] * len(x)
    calls = np.zeros(len(x))
    with ModelServer(model=model) as server:
        server.predict_many(x[:64])  # warm-up, untimed
        server.cache.clear()
        server.metrics.reset()

        def send(first):
            for i in range(first, len(x), SENDERS):
                start = time.perf_counter()
                labels[i] = server.predict(x[i])
                calls[i] = time.perf_counter() - start

        senders = [
            threading.Thread(target=send, args=(first,))
            for first in range(SENDERS)
        ]
        cpu = time.process_time()
        for sender in senders:
            sender.start()
        for sender in senders:
            sender.join()
        cpu = time.process_time() - cpu
        stats = server.stats()
    return np.array(labels), calls, cpu / len(x), stats


def run_benchmark(quick: bool = False):
    x, model = build_workload(quick)
    reference = np.array([model.predict(row[np.newaxis, :])[0] for row in x])

    batched_labels, batched_qps, batched = serve_burst(model, x, BATCH_SIZE)
    unbatched_labels, unbatched_qps, unbatched = serve_burst(model, x, 1)
    block_labels, block_calls_per_s, block_calls = serve_single_blocks(
        model, x
    )
    row_labels, row_calls, row_cpu, rows = serve_single_rows(model, x)

    bit_identical = bool(
        np.array_equal(batched_labels, reference)
        and np.array_equal(unbatched_labels, reference)
        and all(np.array_equal(labels, reference) for labels in block_labels)
        and np.array_equal(row_labels, reference)
    )
    speedup = batched_qps / unbatched_qps

    payload = bench_payload(
        "serve",
        metrics=batched["metrics"],
        extra={
            "quick": quick,
            "n_requests": int(len(x)),
            "n_features": int(x.shape[1]),
            "model": f"mlp {x.shape[1]}-{WIDTHS[0]}-{WIDTHS[1]}-2",
            "batched": {
                "max_batch_size": BATCH_SIZE,
                "qps": batched_qps,
                "mean_batch_size": batched["mean_batch_size"],
                "p50_ms": batched["latency_p50_ms"],
                "p99_ms": batched["latency_p99_ms"],
            },
            "unbatched": {
                "max_batch_size": 1,
                "qps": unbatched_qps,
                "mean_batch_size": unbatched["mean_batch_size"],
                "p50_ms": unbatched["latency_p50_ms"],
                "p99_ms": unbatched["latency_p99_ms"],
            },
            "single_block": {
                "max_batch_size": BATCH_SIZE,
                "calls": int(len(block_calls)),
                "calls_per_s": block_calls_per_s,
                "rows_per_s": block_calls_per_s * BATCH_SIZE,
                "p50_ms": float(np.quantile(block_calls, 0.50) * 1e3),
                "p99_ms": float(np.quantile(block_calls, 0.99) * 1e3),
            },
            "single_rows": {
                "server": "ModelServer defaults",
                "senders": SENDERS,
                "calls": int(len(row_calls)),
                "cpu_us_per_request": row_cpu * 1e6,
                "batches": rows["batches"],
                "mean_batch_size": rows["mean_batch_size"],
                "p50_ms": float(np.quantile(row_calls, 0.50) * 1e3),
                "p99_ms": float(np.quantile(row_calls, 0.99) * 1e3),
            },
            "speedup_qps": speedup,
            "bit_identical_predictions": bit_identical,
        },
    )
    path = write_bench_json(bench_filename("serve"), payload)
    return payload, path


def check_claims(payload):
    extra = payload["extra"]
    assert extra["bit_identical_predictions"], (
        "served labels differ between batched/unbatched/single-block/"
        "single-row/per-row paths"
    )
    assert extra["speedup_qps"] >= 3.0, (
        f"micro-batching speedup {extra['speedup_qps']:.2f}x < 3x "
        f"(batched {extra['batched']['qps']:.0f} qps, "
        f"unbatched {extra['unbatched']['qps']:.0f} qps)"
    )
    # The batched run must have genuinely coalesced.
    assert extra["batched"]["mean_batch_size"] > BATCH_SIZE / 2


def format_report(payload, path):
    extra = payload["extra"]
    lines = ["=== serving throughput: micro-batched vs unbatched ==="]
    for mode in ("batched", "unbatched"):
        m = extra[mode]
        lines.append(
            f"{mode:10s} qps={m['qps']:9.0f}  mean_batch={m['mean_batch_size']:5.1f}"
            f"  p50={m['p50_ms']:8.3f}ms  p99={m['p99_ms']:8.3f}ms"
        )
    block = extra["single_block"]
    lines.append(
        f"{'1 block':10s} calls/s={block['calls_per_s']:7.0f}  "
        f"rows/s={block['rows_per_s']:8.0f}  p50={block['p50_ms']:8.3f}ms  "
        f"p99={block['p99_ms']:8.3f}ms  ({block['calls']} calls of "
        f"{block['max_batch_size']} rows)"
    )
    single = extra["single_rows"]
    lines.append(
        f"{'1 row':10s} cpu={single['cpu_us_per_request']:6.0f}us/req  "
        f"batches={single['batches']:5.0f}  "
        f"mean_batch={single['mean_batch_size']:5.2f}  "
        f"p50={single['p50_ms']:8.3f}ms  p99={single['p99_ms']:8.3f}ms  "
        f"({single['calls']} calls from {single['senders']} threads)"
    )
    lines.append(
        f"speedup: {extra['speedup_qps']:.2f}x at batch size "
        f"{extra['batched']['max_batch_size']}  "
        f"(bit-identical predictions: {extra['bit_identical_predictions']})"
    )
    lines.append(f"wrote {path}")
    return "\n".join(lines)


def test_serve_throughput(benchmark, report):
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
