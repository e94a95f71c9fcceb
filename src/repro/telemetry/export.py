"""Bench exporter: serialize a run's metrics to ``BENCH_*.json`` dicts.

The benchmark harness persists each reproduced figure/table as a small
JSON document so successive perf PRs can diff per-phase costs instead of
only end-to-end wall-clock.  The shape is deliberately flat and stable::

    {
      "bench": "fig5_im50",
      "schema_version": 1,
      "env": {"cpu_count": ..., "cpu_affinity": [...], "python": ...,
              "numpy": ..., "blas": {"name": ..., "version": ...},
              "git_sha": ... or null},
      "metrics": {"counters": ..., "gauges": ..., "histograms": ..., "timers": ...},
      "phases": {"estep": 1.23, "grad": 4.56, ...},
      "history": {"losses": [...], "cumulative_seconds": [...],
                  "val_accuracy": [...], "converged_epoch": null},
      "extra": {...}
    }
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from .callbacks import _jsonable
from .metrics import MetricsRegistry

__all__ = ["bench_payload", "bench_filename", "write_bench_json"]

SCHEMA_VERSION = 1


def _git_sha() -> Optional[str]:
    """HEAD of the git checkout holding this source tree, if any."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _bench_env() -> Dict[str, Any]:
    """Where a bench ran, so two records are compared knowingly.

    CPU count and the CPUs this process may run on, the Python, numpy
    and BLAS versions, and the git sha of the source tree.  A value
    that cannot be determined is ``None``.
    """
    try:
        affinity: Optional[List[int]] = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        affinity = None
    try:
        config: Mapping[str, Any] = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no ``mode``
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "git_sha": _git_sha(),
    }


def bench_payload(
    name: str,
    metrics: Optional[MetricsRegistry] = None,
    history=None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build the ``BENCH_*.json``-shaped dict for one benchmark run.

    Parameters
    ----------
    name:
        Benchmark identifier (becomes the ``bench`` field and the
        default filename stem).
    metrics:
        The run's registry; ``metrics.snapshot()`` and the ``phase/``
        timer totals are embedded.  A plain snapshot dict (as stored on
        :class:`~repro.experiments.deep.DeepResult`) is also accepted.
    history:
        Optional :class:`~repro.optim.trainer.TrainingHistory`; its
        per-epoch series are embedded.
    extra:
        Free-form benchmark-specific fields (e.g. the swept ``Im``).

    The ``env`` block records where the run happened: CPU count and
    affinity, Python, numpy and BLAS versions, and the git sha, each
    ``None`` when unavailable.
    """
    payload: Dict[str, Any] = {
        "bench": name, "schema_version": SCHEMA_VERSION, "env": _bench_env(),
    }
    if isinstance(metrics, MetricsRegistry):
        payload["metrics"] = metrics.snapshot()
        payload["phases"] = metrics.phase_seconds()
    elif isinstance(metrics, dict):
        payload["metrics"] = metrics
        timers = metrics.get("timers", {})
        payload["phases"] = {
            n[len("phase/"):]: t["total_seconds"]
            for n, t in timers.items() if n.startswith("phase/")
        }
    elif metrics is not None:
        raise TypeError(
            f"metrics must be a MetricsRegistry or snapshot dict, "
            f"got {type(metrics).__name__}"
        )
    if history is not None:
        payload["history"] = {
            "losses": [r.train_loss for r in history.records],
            "cumulative_seconds": [r.cumulative_seconds for r in history.records],
            "val_accuracy": [r.val_accuracy for r in history.records],
            "converged_epoch": history.converged_epoch,
        }
    if extra:
        payload["extra"] = dict(extra)
    return _jsonable(payload)


def bench_filename(name: str, directory: str = ".") -> str:
    """The canonical ``BENCH_<name>.json`` path for a benchmark."""
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in name)
    return os.path.join(directory, f"BENCH_{safe}.json")


def write_bench_json(path: str, payload: Dict[str, Any]) -> str:
    """Write ``payload`` (from :func:`bench_payload`) to ``path``."""
    if "bench" not in payload:
        raise ValueError("payload is missing the 'bench' field")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
