"""End-to-end benchmark: one workload, measured end to end or per layer.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload train_eager --seed 1
    python3 benchmarks/e2e/run.py --workload serve --seed 1 --trace 1

``--seconds`` is the measuring budget of one run; it defaults to
``run_seconds`` in ``BENCHMARK.json``.  ``--trace 0`` (the default)
measures the end-to-end metrics of ``BENCHMARK.json`` with tracing
off.  ``--trace 1`` runs one rep of the workload untraced and one
traced, reports the per-layer metrics from the traced rep and the
tracing overhead from the pair, and writes every span to
``benchmarks/e2e/out/`` for ``repro trace summarize``.

Standard output gets two JSON lines: the full record (metrics, checks,
workload config, environment fingerprint), then the result line
``{"correct", "attempted", "failed", "metrics"}``.  A readable table
goes to standard error.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import os

# One BLAS thread: the load comes from this process alone, on a
# 2-core machine.  Must be set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
#: Ring-buffer capacity of the traced pass; far above the ~80k spans
#: of the largest traced run, and the run fails if any span is evicted.
MAX_SPANS = 2_000_000


def locate_source() -> bool:
    """Put the checkout's ``src/`` first on ``sys.path``; False if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    return True


def pin_one_cpu() -> None:
    """Confine this process, and every thread it starts, to one CPU.

    On a small VM a thread hand-off to the other vCPU costs a wake-up
    whose latency follows the host's load.  Alternating pinned and
    unpinned runs over the same minutes on a 2-vCPU VM, online_drift
    read 132-177 loop steps/s unpinned and 178-218 pinned, bulk
    predict_many 15.9k-23.2k rows/s unpinned and 16.2k-18.3k pinned.
    Unpinned where the platform has no CPU affinity or refuses it.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:  # a sandbox may forbid it; measure unpinned
        print(f"run.py: not pinned to one CPU: {exc}", file=sys.stderr)


def load_spec() -> Dict[str, Any]:
    """The benchmark definition at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None  # not a git checkout: never search parent directories
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def fingerprint(seed: int, config: Dict[str, Any]) -> Dict[str, Any]:
    """What a later reader needs to tell whether two records compare."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy older than 1.26
        blas = None
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": (
            sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "workload_config": config,
    }


def _write_spans(spans: list, workload: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True, default=str) + "\n")
    return path


def measure(
    workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one workload; returns ``(record, result)``.

    Raises ``ValueError`` when the workload produced other metric names
    than ``BENCHMARK.json`` lists for this mode.
    """
    from repro.telemetry.trace import Tracer
    from workloads import WORKLOADS, Check

    spec = load_spec()
    run = WORKLOADS[workload]
    wanted = spec["per_layer" if trace else "end_to_end"]
    info: Dict[str, Any] = {}
    if not trace:
        outcome = run(seed, seconds, tiny=tiny)
        values = dict(outcome.end_to_end)
        checks = list(outcome.checks)
        attempted = outcome.attempted
    else:
        plain = run(seed, seconds, reps=1, tiny=tiny)
        tracer = Tracer(sample_rate=1.0, max_buffered=MAX_SPANS)
        outcome = run(seed, seconds, reps=1, tracer=tracer, tiny=tiny)
        spans = tracer.buffer.spans()
        evicted = tracer.buffer.exported - len(spans)
        path = _write_spans(spans, workload, seed)
        info["span_log"] = str(path.relative_to(ROOT))
        # A layer this workload never runs (conv on serve) reads 0.
        values = {entry["name"]: 0.0 for entry in wanted}
        values.update(outcome.per_layer)
        values["trace.overhead_frac"] = (
            plain.end_to_end["throughput_per_s"]
            / outcome.end_to_end["throughput_per_s"] - 1.0
        )
        values["trace.spans"] = float(len(spans))
        checks = plain.checks + outcome.checks + [
            Check("no_span_evicted", evicted == 0, evicted)
        ]
        attempted = plain.attempted + outcome.attempted
    names = [entry["name"] for entry in wanted]
    if set(values) != set(names):
        raise ValueError(
            f"{workload}: metrics {sorted(set(values) ^ set(names))} "
            "differ from BENCHMARK.json"
        )
    units = {entry["name"]: entry["unit"] for entry in wanted}
    metrics = {
        name: {
            "value": values[name] if math.isfinite(values[name]) else None,
            "unit": units[name],
        }
        for name in names
    }
    failed = sum(check.failed for check in checks if not check.ok)
    correct = all(check.ok for check in checks) and all(
        m["value"] is not None for m in metrics.values()
    )
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed if correct else max(failed, 1)),
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        **result,
        "checks": [
            {"name": c.name, "ok": c.ok, "failed": c.failed} for c in checks
        ],
        "info": {**outcome.info, **info},
        "env": fingerprint(seed, outcome.config),
    }
    return record, result


def format_table(record: Dict[str, Any]) -> str:
    """Readable summary of one record."""
    lines = [
        f"== {record['workload']} seed={record['seed']} "
        f"trace={record['trace']} correct={record['correct']} "
        f"attempted={record['attempted']} failed={record['failed']}"
    ]
    for name, metric in record["metrics"].items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:28s} {shown:>14s} {metric['unit']}")
    for check in record["checks"]:
        lines.append(
            f"  check {check['name']:32s} {'ok' if check['ok'] else 'FAILED'}"
        )
    for key, value in record["info"].items():
        lines.append(f"  info  {key:32s} {value}")
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="measuring budget (default: BENCHMARK.json run_seconds)")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: per-layer metrics from a traced pass (bare --trace means 1)",
    )
    args = parser.parse_args(argv)
    if not locate_source():
        print(f"run.py: no repro sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"run.py: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    pin_one_cpu()
    seconds = load_spec()["run_seconds"] if args.seconds is None else args.seconds
    if seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    record, result = measure(args.workload, args.seed, seconds, bool(args.trace))
    print(format_table(record), file=sys.stderr)
    print(json.dumps(record, sort_keys=True, default=str))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
