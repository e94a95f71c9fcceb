"""Tracing overhead: serve QPS with tracing disabled vs enabled.

Replays the same single-row predict burst through the ``repro.serve``
stack three times — tracing disabled, tracing enabled but fully
unsampled (``sample_rate=0.0``: every request pays the context capture
and span bookkeeping, none pays payload recording), and tracing at the
default head-sampling rate (0.1) — and writes ``BENCH_trace.json``
with QPS for each mode.

The claim this run enforces is the tentpole's cost budget:

- QPS with tracing at the **default sampling rate** is within 5% of
  the untraced QPS (``overhead_pct <= 5``);
- the served hard predictions are bit-identical across all three
  modes — tracing is observability, never behaviour.

Run standalone (CI) or under pytest-benchmark like the other benches::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py --quick
    PYTHONPATH=src python -m pytest benchmarks/bench_trace_overhead.py
"""

import argparse
import statistics
import sys
import time

import numpy as np

from repro.datasets.preprocessing import TabularEncoder
from repro.datasets.synthetic import CategoricalSpec, TabularSchema, generate_dataset
from repro.nn import Network
from repro.nn.layers import Dense, ReLU
from repro.serve import ModelServer
from repro.telemetry import bench_filename, bench_payload, write_bench_json
from repro.telemetry.trace import DEFAULT_SAMPLE_RATE, Tracer

BATCH_SIZE = 32
WIDTHS = (1024, 512)
MAX_OVERHEAD_PCT = 5.0


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
    ], name="trace-mlp")
    return x, model


def measure_modes(model, x, tracers, repeats=4, chunk=96):
    """Per-mode QPS and overhead via paired, request-interleaved timing.

    Driven as *sequential single-row predicts* so each request is its
    own root span and head sampling applies per request exactly as in
    production traffic.  A single-threaded driver is deliberate: a
    thread-pool driver measures GIL/scheduler contention between the
    driver threads leading each other's batches, which on a shared runner
    swings per-mode QPS by 10-25% between bursts — an order of
    magnitude more than the effect under test.

    The estimator is built for noisy shared runners, where CPU
    frequency and neighbour load drift on millisecond timescales:

    - every row is scored by **all modes back to back** (order rotating
      per row), so paired measurements share the same machine state;
    - per-row times accumulate into per-``chunk`` sums, and each
      chunk yields one traced-vs-disabled elapsed ratio — pairing
      cancels drift that poisons any comparison of separately-timed
      bursts;
    - the overhead estimate is the **median** of those ratios, so a
      spike must corrupt half the chunks to move it.
    """
    servers = {
        mode: ModelServer(
            model=model,
            max_batch_size=BATCH_SIZE,
            batch_timeout=0.0,
            max_queue=len(x) + 8,
            workers=1,
            cache_size=0,         # every request must hit the model
            tracer=tracer,
        )
        for mode, tracer in tracers.items()
    }
    modes = list(tracers)
    traced_modes = [mode for mode in modes if tracers[mode] is not None]
    chunks = [x[i:i + chunk] for i in range(0, len(x), chunk)]
    ratios = {mode: [] for mode in traced_modes}
    total = {mode: 0.0 for mode in modes}
    labels = {}
    clock = time.perf_counter
    try:
        for mode, server in servers.items():  # warm-up + label capture
            labels[mode] = np.array([server.predict(row) for row in x])
        rotation = 0
        for _ in range(repeats):
            for rows in chunks:
                elapsed = {mode: 0.0 for mode in modes}
                for row in rows:
                    order = modes[rotation % 3:] + modes[:rotation % 3]
                    rotation += 1
                    for mode in order:
                        server = servers[mode]
                        start = clock()
                        server.predict(row)
                        elapsed[mode] += clock() - start
                for mode in traced_modes:
                    ratios[mode].append(elapsed[mode] / elapsed["disabled"])
                for mode in modes:
                    total[mode] += elapsed[mode]
    finally:
        for server in servers.values():
            server.close()
    qps = {mode: len(x) * repeats / total[mode] for mode in modes}
    overhead_pct = {
        mode: max(0.0, (statistics.median(ratios[mode]) - 1.0) * 100.0)
        for mode in traced_modes
    }
    return labels, qps, overhead_pct


def run_benchmark(quick: bool = False):
    x, model = build_workload(quick)

    tracers = {
        "disabled": None,
        "unsampled": Tracer(sample_rate=0.0),
        "sampled": Tracer(sample_rate=DEFAULT_SAMPLE_RATE),
    }
    labels, qps, overhead_pct = measure_modes(model, x, tracers)
    modes = {
        mode: {
            "qps": qps[mode],
            "tracer": tracer.stats() if tracer is not None else None,
        }
        for mode, tracer in tracers.items()
    }
    for mode, pct in overhead_pct.items():
        modes[mode]["overhead_pct"] = pct

    bit_identical = bool(
        np.array_equal(labels["sampled"], labels["disabled"])
        and np.array_equal(labels["unsampled"], labels["disabled"])
    )

    payload = bench_payload(
        "trace",
        metrics={},
        extra={
            "quick": quick,
            "n_requests": int(len(x)),
            "n_features": int(x.shape[1]),
            "model": f"mlp {x.shape[1]}-{WIDTHS[0]}-{WIDTHS[1]}-2",
            "sample_rate": DEFAULT_SAMPLE_RATE,
            "max_overhead_pct": MAX_OVERHEAD_PCT,
            "modes": modes,
            "bit_identical_predictions": bit_identical,
        },
    )
    path = write_bench_json(bench_filename("trace"), payload)
    return payload, path


def check_claims(payload):
    extra = payload["extra"]
    assert extra["bit_identical_predictions"], (
        "served labels differ between traced and untraced runs"
    )
    sampled = extra["modes"]["sampled"]
    assert sampled["overhead_pct"] <= MAX_OVERHEAD_PCT, (
        f"tracing at sample_rate={extra['sample_rate']} costs "
        f"{sampled['overhead_pct']:.2f}% QPS "
        f"(> {MAX_OVERHEAD_PCT}% budget; "
        f"untraced {extra['modes']['disabled']['qps']:.0f} qps, "
        f"traced {sampled['qps']:.0f} qps)"
    )
    # The sampled run must have really sampled roughly 1 in 10 roots.
    tracer = sampled["tracer"]
    assert tracer["started"] > 0
    assert 0 < tracer["sampled"] < tracer["started"]


def format_report(payload, path):
    extra = payload["extra"]
    lines = ["=== tracing overhead: serve QPS by tracer mode ==="]
    for mode in ("disabled", "unsampled", "sampled"):
        m = extra["modes"][mode]
        overhead = (
            f"  overhead={m['overhead_pct']:5.2f}%"
            if "overhead_pct" in m else ""
        )
        sampled = (
            f"  spans={m['tracer']['sampled']}/{m['tracer']['started']}"
            if m["tracer"] else ""
        )
        lines.append(f"{mode:10s} qps={m['qps']:9.0f}{overhead}{sampled}")
    lines.append(
        f"budget: <= {extra['max_overhead_pct']}% at "
        f"sample_rate={extra['sample_rate']}  "
        f"(bit-identical predictions: {extra['bit_identical_predictions']})"
    )
    lines.append(f"wrote {path}")
    return "\n".join(lines)


def test_trace_overhead(benchmark, report):
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
