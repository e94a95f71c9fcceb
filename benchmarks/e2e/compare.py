"""Compare benchmark runs of a parent commit and a change.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmarks/e2e/compare.py --summary RUNS_DIR

Each directory holds the standard output of untraced ``run.py``
invocations, one invocation per file (any file name).  Runs pair up by
workload and seed, so run the same seeds on both commits, alternating
which commit runs first.

For every end-to-end metric on every workload the verdict is one of:

- ``gain`` -- at least 10 pairs, the change wins at least 9/10 of them
  (ties count for neither side), and the medians differ by more than
  the parent's interquartile range;
- ``better`` / ``unresolved`` -- the parent's own spread (IQR / median)
  is wider than the metric's bound, so no-regression cannot be shown:
  ``better`` when every change run beats every parent run;
- ``regression`` -- the change's median is worse than the parent's by
  more than the bound in ``BENCHMARK.json``;
- ``ok`` -- within the bound.

One row is printed per workload.  The exit code is 1 when any metric
regressed.  ``--summary`` prints the median and quartiles of each
metric per workload as JSON (how ``baseline.json`` was made).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory: Path) -> Dict[str, List[Dict[str, Any]]]:
    """Untraced run records in ``directory``, grouped by workload."""
    runs: Dict[str, List[Dict[str, Any]]] = {}
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and record.get("trace") == 0 and "workload" in record:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Verdict:
    """The outcome for one metric on one workload."""

    status: str
    change: float  # relative median change, positive = better
    wins: int
    pairs: int
    parent: Tuple[float, float, float]
    child: Tuple[float, float, float]


def judge(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Verdict:
    """Apply the win/IQR gain rule and the no-regression bound.

    ``parent[i]`` and ``change[i]`` are one pair (same workload, same
    seed).  ``better`` is ``"higher"`` or ``"lower"``.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = min(len(parent), len(change))
    p_q, c_q = quartiles(parent), quartiles(change)
    base = abs(p_q[1]) or 1.0
    change_rel = sign * (c_q[1] - p_q[1]) / base
    spread = (p_q[2] - p_q[0]) / base
    if (
        pairs >= MIN_PAIRS
        and wins >= WIN_SHARE * pairs
        and sign * (c_q[1] - p_q[1]) > p_q[2] - p_q[0]
    ):
        status = "gain"
    elif spread > bound:
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        status = "better" if all_better else "unresolved"
    elif -change_rel > bound:
        status = "regression"
    else:
        status = "ok"
    return Verdict(status, change_rel, wins, pairs, p_q, c_q)


def _pairs(
    parent: List[Dict[str, Any]], change: List[Dict[str, Any]], metric: str
) -> Tuple[List[float], List[float]]:
    """Values of ``metric`` for the runs of both sides that share a seed."""
    def by_seed(runs: List[Dict[str, Any]]) -> Dict[int, List[float]]:
        table: Dict[int, List[float]] = {}
        for run in runs:
            value = run["metrics"].get(metric, {}).get("value")
            if value is not None:
                table.setdefault(run["seed"], []).append(value)
        return table

    left, right = by_seed(parent), by_seed(change)
    p_vals, c_vals = [], []
    for seed in sorted(set(left) & set(right)):
        for p, c in zip(left[seed], right[seed]):
            p_vals.append(p)
            c_vals.append(c)
    return p_vals, c_vals


def compare(
    parent: Dict[str, List[Dict[str, Any]]],
    change: Dict[str, List[Dict[str, Any]]],
    spec: Dict[str, Any],
) -> Dict[str, Dict[str, Verdict]]:
    """``{workload: {metric: Verdict}}`` for every shared workload."""
    table: Dict[str, Dict[str, Verdict]] = {}
    for workload in sorted(set(parent) & set(change)):
        row = {}
        for entry in spec["end_to_end"]:
            p_vals, c_vals = _pairs(parent[workload], change[workload], entry["name"])
            if p_vals:
                row[entry["name"]] = judge(
                    p_vals, c_vals, entry["better"], entry["bound"]
                )
        table[workload] = row
    return table


def _spread(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.4g}[{q[0]:.4g}-{q[2]:.4g}]"


def format_rows(table: Dict[str, Dict[str, Verdict]]) -> str:
    """One row per workload: each metric's verdict, median change, wins,
    and each side's median [q1-q3]."""
    lines = []
    for workload, row in table.items():
        cells = [
            f"{metric}={v.status}({v.change:+.1%}, wins {v.wins}/{v.pairs}, "
            f"{_spread(v.parent)} -> {_spread(v.child)})"
            for metric, v in row.items()
        ]
        lines.append(f"{workload:14s} " + "  ".join(cells))
    return "\n".join(lines)


def summarize(runs: Dict[str, List[Dict[str, Any]]]) -> Dict[str, Any]:
    """Median and quartiles of each metric per workload, with a fingerprint."""
    out: Dict[str, Any] = {"workloads": {}}
    for workload, records in sorted(runs.items()):
        metrics = {}
        for name, first in records[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in records]
            q1, q2, q3 = quartiles(values)
            metrics[name] = {
                "unit": first["unit"], "median": q2, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / abs(q2) if q2 else None,
            }
        env = dict(records[0]["env"])
        env.pop("seed", None)
        out["workloads"][workload] = {
            "runs": len(records),
            "seeds": sorted(r["seed"] for r in records),
            "seconds": records[0]["seconds"],
            "metrics": metrics,
            "env": env,
        }
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+", type=Path, metavar="DIR")
    parser.add_argument("--summary", action="store_true",
                        help="summarize one directory of runs as JSON")
    args = parser.parse_args(argv)
    if args.summary:
        if len(args.dirs) != 1:
            parser.error("--summary takes one directory")
        print(json.dumps(summarize(load_runs(args.dirs[0])), indent=2, sort_keys=True))
        return 0
    if len(args.dirs) != 2:
        parser.error("expected PARENT_DIR CHANGE_DIR")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    table = compare(load_runs(args.dirs[0]), load_runs(args.dirs[1]), spec)
    if not table:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    print(format_rows(table))
    regressed = any(v.status == "regression" for row in table.values() for v in row.values())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
