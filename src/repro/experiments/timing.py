"""Lazy-update timing experiments: Figures 5, 6 and 7.

The paper measures wall-clock training time as a function of the lazy
update intervals:

- **Figure 5**: cumulative time vs. epoch for ``Im`` in {1, 2, 5, 10,
  20, 50} (with ``Ig = Im``, ``E = 2``) against the L2 baseline, plus
  total convergence time per ``Im``.  Expected shape: linear growth,
  ``Im = 1`` slowest, ``Im = 50`` ~4x faster, L2 fastest.
- **Figure 6**: convergence time with ``Im = 50`` fixed and ``Ig`` in
  {50, 100, 200, 500}: increasing ``Ig`` keeps shaving time.
- **Figure 7**: cumulative time vs. epoch for the warm-up length ``E``
  in {1, 2, 5, 10, 20, 50}: smaller ``E`` is proportionally cheaper
  (E=1 is ~70% of E=50) with no accuracy drop.

Timings here are real wall-clock measurements of the numpy framework;
the *ratios*, not the absolute seconds, are the reproduction target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core import LazyUpdateSchedule
from .deep import DeepResult, DeepRunConfig, load_image_data, train_deep

__all__ = [
    "TimingCurve",
    "timing_bench_config",
    "run_im_sweep",
    "run_ig_sweep",
    "run_warmup_sweep",
    "format_phase_table",
    "speedup_table",
]


def timing_bench_config(**overrides) -> DeepRunConfig:
    """The calibrated configuration for the Figure 5-7 timing sweeps.

    Small images with many small batches make the per-iteration EM cost
    a material fraction of total step time — the regime the paper's GPU
    setup was in.  On CPU the E-step kernel keeps eager EM to about a
    third of an iteration, so the lazy update saves ~1.5x at Im=50
    rather than the paper's ~4x.
    """
    defaults = dict(
        model="alex", image_size=8, n_train=300, n_test=100, epochs=12,
        width_scale=1.0, batch_size=10, noise=0.7,
    )
    defaults.update(overrides)
    return DeepRunConfig(**defaults)


@dataclass(frozen=True)
class TimingCurve:
    """Per-epoch cumulative seconds for one setting, plus the endpoint.

    Carries the run's per-phase timer totals (``phase_seconds``, from
    the trainer's :class:`~repro.telemetry.metrics.MetricsRegistry`) and
    the cumulative E-/M-step refresh counts, so sweeps can attribute
    savings to the phase the lazy schedule actually skipped instead of
    inferring them from whole-run wall-clock.
    """

    label: str
    epochs: np.ndarray
    cumulative_seconds: np.ndarray
    total_seconds: float
    test_accuracy: float
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    estep_refreshes: int = 0
    mstep_refreshes: int = 0

    @classmethod
    def from_result(cls, label: str, result: DeepResult) -> "TimingCurve":
        times = result.history.cumulative_times()
        gauges = result.metrics.get("gauges", {})
        return cls(
            label=label,
            epochs=np.arange(1, times.size + 1),
            cumulative_seconds=times,
            total_seconds=float(times[-1]) if times.size else 0.0,
            test_accuracy=result.test_accuracy,
            phase_seconds=result.phase_seconds(),
            estep_refreshes=int(gauges.get("em/estep_refreshes") or 0),
            mstep_refreshes=int(gauges.get("em/mstep_refreshes") or 0),
        )

    def em_seconds(self) -> float:
        """Total time in the regularizer phases (E-step + M-step)."""
        return (self.phase_seconds.get("estep", 0.0)
                + self.phase_seconds.get("mstep", 0.0))


def run_im_sweep(
    config: DeepRunConfig,
    im_values: Sequence[int] = (1, 2, 5, 10, 20, 50),
    eager_epochs: int = 2,
    include_baseline: bool = True,
) -> List[TimingCurve]:
    """Figure 5: one curve per ``Im`` (with ``Ig = Im``) plus L2 baseline."""
    data = load_image_data(config)
    curves: List[TimingCurve] = []
    for im in im_values:
        schedule = LazyUpdateSchedule(
            model_interval=im, gm_interval=im, eager_epochs=eager_epochs
        )
        result = train_deep(config, method="gm", schedule=schedule, data=data)
        curves.append(TimingCurve.from_result(f"Im={im}", result))
    if include_baseline:
        result = train_deep(config, method="l2", data=data)
        curves.append(TimingCurve.from_result("baseline", result))
    return curves


def run_ig_sweep(
    config: DeepRunConfig,
    im: int = 50,
    ig_values: Sequence[int] = (50, 100, 200, 500),
    eager_epochs: int = 2,
) -> List[TimingCurve]:
    """Figure 6: ``Im`` fixed, GM-parameter interval ``Ig`` increasing."""
    data = load_image_data(config)
    curves = []
    for ig in ig_values:
        if ig < im:
            raise ValueError(f"Ig ({ig}) should be >= Im ({im}), per Section V-F2")
        schedule = LazyUpdateSchedule(
            model_interval=im, gm_interval=ig, eager_epochs=eager_epochs
        )
        result = train_deep(config, method="gm", schedule=schedule, data=data)
        curves.append(TimingCurve.from_result(f"Ig={ig}&Im={im}", result))
    return curves


def run_warmup_sweep(
    config: DeepRunConfig,
    e_values: Sequence[int] = (1, 2, 5, 10, 20, 50),
    im: int = 50,
    include_baseline: bool = True,
) -> List[TimingCurve]:
    """Figure 7: warm-up length ``E`` sweep at fixed intervals."""
    data = load_image_data(config)
    curves = []
    for e in e_values:
        schedule = LazyUpdateSchedule(
            model_interval=im, gm_interval=im, eager_epochs=e
        )
        result = train_deep(config, method="gm", schedule=schedule, data=data)
        curves.append(TimingCurve.from_result(f"E={e}", result))
    if include_baseline:
        result = train_deep(config, method="l2", data=data)
        curves.append(TimingCurve.from_result("baseline", result))
    return curves


def format_phase_table(curves: Sequence[TimingCurve]) -> str:
    """Per-phase timer breakdown for a sweep (seconds per phase).

    The direct Figs. 5-7 measurement: E-step/M-step cost per setting
    from the trainer's phase timers, next to the refresh counts the
    lazy schedule allowed.
    """
    from .tables import format_table

    phases = ("estep", "grad", "mstep", "sgd")
    rows = []
    for curve in curves:
        rows.append(
            [curve.label]
            + [f"{curve.phase_seconds.get(p, 0.0):.2f}s" for p in phases]
            + [str(curve.estep_refreshes), str(curve.mstep_refreshes)]
        )
    return format_table(
        ["Setting", "E-step", "grad", "M-step", "SGD",
         "#E-steps", "#M-steps"],
        rows,
    )


def speedup_table(curves: Sequence[TimingCurve]) -> Dict[str, Tuple[float, float]]:
    """``{label: (total_seconds, speedup_vs_slowest)}`` for a sweep."""
    if not curves:
        raise ValueError("curves must be non-empty")
    slowest = max(c.total_seconds for c in curves)
    return {
        c.label: (c.total_seconds, slowest / max(c.total_seconds, 1e-12))
        for c in curves
    }
