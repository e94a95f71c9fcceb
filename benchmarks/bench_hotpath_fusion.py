"""Hot-path E-step kernel: the one training path, in float64 and float32.

Trains the Alex-CIFAR timing configuration (the Figures 5-7 setup, run
*eagerly* so the EM machinery fires every iteration) twice:

- ``float64`` — the model as built;
- ``float32`` — the model cast to float32 (``model_dtype``), so the
  E-step kernel evaluates the densities in float32 too.

It writes ``BENCH_hotpath.json`` with per-phase attribution (the
``phase/estep`` … ``phase/sgd`` timer totals per mode), a per-layer
table of forward and backward seconds and calls per mode (``layers``,
timed by a wrapper local to this bench), and checks that the run is the
same experiment as the legacy two-evaluation path it replaced:

- every float64 epoch loss is within 1e-12 of the legacy losses
  frozen below from the committed ``BENCH_hotpath.json`` of that path;
- the float32 final loss is within 1e-3 of the legacy final loss
  (single-precision scale);
- one density evaluation per E-step refresh: 1440 on the full run,
  where the legacy path evaluated 2880.

The float64 loss gate also certifies the conv, pool and LRN arithmetic
(the channel-last window unfold cropped to the taps that reach the
input, the phase-split transposed-conv input gradient, slice pooling,
the LRN window sum): every forward and backward of the model feeds
those losses.  Alex-CIFAR's convolutions all have stride 1, so the gate
sees one phase; ``tests/nn`` checks the strided phases.  The payload's
``env`` block records the host, library versions and git sha the run
used.

The ``resnet`` record times the paper's second model the same way:
``resnet_bench_config`` (ResNet at bench scale, float64, eager GM) for
2 epochs (1 with ``--quick``), with a row per layer and per child of
each residual block, so the stride-2 convolutions of ``3a`` and ``4a``
(``3a-br1-conv1``, ``3a-br2-conv``, ...) have rows of their own.  A
block's row includes its children's time.  It has no gate.

The speed of this path is measured end to end by the ``train_eager``
and ``train_lazy`` workloads of ``benchmarks/e2e`` (parent against
change), not here: the legacy path this bench used to time against no
longer exists.

Run standalone (CI) or under pytest-benchmark like the other benches::

    PYTHONPATH=src python benchmarks/bench_hotpath_fusion.py --quick
    PYTHONPATH=src python -m pytest benchmarks/bench_hotpath_fusion.py
"""

import argparse
import sys
import time

import numpy as np

from repro.experiments.deep import load_image_data, resnet_bench_config, train_deep
from repro.experiments.timing import timing_bench_config
from repro.telemetry import Callback, bench_filename, bench_payload, write_bench_json

# Per-epoch training losses of the legacy path (two density evaluations
# per iteration, reference arithmetic) on the 12-epoch configuration,
# from the committed BENCH_hotpath.json it wrote.  The learning rate is
# constant, so a shorter run follows the first epochs of this one.
LEGACY_LOSSES = (
    2.3348888519160864,
    2.2125066463555374,
    2.058670602864405,
    1.7435361582026154,
    1.5129916886160872,
    1.4160775765099158,
    1.3042552499644628,
    1.268103008109435,
    1.2173429867532046,
    1.2984305985430469,
    1.17776653175829,
    1.2147094466419233,
)
LEGACY_DENSITY_EVALS = 2880
MAX_LOSS_DIFF = 1e-12
# float32 accumulates rounding over the whole SGD trajectory, so its
# final loss is compared at single-precision scale.
MAX_LOSS_DIFF_F32 = 1e-3

MODES = {"float64": None, "float32": np.float32}

PHASES = ("estep", "grad", "mstep", "sgd")


class LayerTimer(Callback):
    """Seconds spent in, and calls of, each layer's ``forward`` and
    ``backward`` during ``fit``, for every layer and every child of a
    composite layer (``children()``).

    The wrappers go onto the layer instances at train start and come off
    at train end, so the model code carries no timers and the final
    accuracy evaluation stays out of the table.
    """

    def __init__(self):
        self.layers = {}
        self._wrapped = []

    def on_train_start(self, ctx):
        self._wrap_layers(ctx.model.layers)

    def _wrap_layers(self, layers):
        for layer in layers:
            row = self.layers.setdefault(
                layer.name, {"fwd_s": 0.0, "bwd_s": 0.0, "fwd_calls": 0, "bwd_calls": 0}
            )
            self._wrap(layer, "forward", row, "fwd")
            self._wrap(layer, "backward", row, "bwd")
            children = getattr(layer, "children", None)
            if callable(children):
                self._wrap_layers(children())

    def _wrap(self, layer, attr, row, column):
        inner = getattr(layer, attr)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                row[f"{column}_s"] += time.perf_counter() - start
                row[f"{column}_calls"] += 1

        setattr(layer, attr, timed)
        self._wrapped.append((layer, attr))

    def on_train_end(self, history, ctx):
        for layer, attr in self._wrapped:
            delattr(layer, attr)
        self._wrapped.clear()


def run_benchmark(quick: bool = False):
    config = timing_bench_config(epochs=3 if quick else 12)
    data = load_image_data(config)
    legacy = LEGACY_LOSSES[: config.epochs]

    modes = {}
    for mode, model_dtype in MODES.items():
        timer = LayerTimer()
        result = train_deep(
            config, data=data, model_dtype=model_dtype, callbacks=[timer]
        )
        losses = [float(v) for v in result.history.losses()]
        gauges = result.metrics.get("gauges", {})
        modes[mode] = {
            "wall_seconds": float(result.history.cumulative_times()[-1]),
            "phases": {
                p: result.phase_seconds().get(p, 0.0) for p in PHASES
            },
            "losses": losses,
            "final_loss": losses[-1],
            "test_accuracy": result.test_accuracy,
            "density_evals": int(gauges.get("em/density_evals") or 0),
            "estep_refreshes": int(gauges.get("em/estep_refreshes") or 0),
            "max_loss_abs_diff": max(
                abs(a - b) for a, b in zip(losses, legacy)
            ),
            "final_loss_abs_diff": abs(losses[-1] - legacy[-1]),
            "layers": timer.layers,
        }

    resnet_config = resnet_bench_config(epochs=1 if quick else 2)
    timer = LayerTimer()
    result = train_deep(resnet_config, callbacks=[timer])
    resnet = {
        "config": config_record(resnet_config),
        "wall_seconds": float(result.history.cumulative_times()[-1]),
        "phases": {p: result.phase_seconds().get(p, 0.0) for p in PHASES},
        "losses": [float(v) for v in result.history.losses()],
        "layers": timer.layers,
    }

    payload = bench_payload(
        "hotpath",
        metrics={},
        extra={
            "quick": quick,
            "config": config_record(config),
            "legacy_losses": list(legacy),
            "max_loss_diff": MAX_LOSS_DIFF,
            "max_loss_diff_f32": MAX_LOSS_DIFF_F32,
            "modes": modes,
            "resnet": resnet,
        },
    )
    path = write_bench_json(bench_filename("hotpath"), payload)
    return payload, path


def config_record(config):
    return {
        "model": config.model,
        "image_size": config.image_size,
        "n_train": config.n_train,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
    }


def check_claims(payload):
    extra = payload["extra"]
    f64, f32 = extra["modes"]["float64"], extra["modes"]["float32"]
    assert f64["max_loss_abs_diff"] <= MAX_LOSS_DIFF, (
        f"float64 epoch losses differ from the legacy path by up to "
        f"{f64['max_loss_abs_diff']:.2e} (> {MAX_LOSS_DIFF:.0e})"
    )
    assert f32["final_loss_abs_diff"] <= MAX_LOSS_DIFF_F32, (
        f"float32 final loss differs from the legacy path by "
        f"{f32['final_loss_abs_diff']:.2e} (> {MAX_LOSS_DIFF_F32:.0e})"
    )
    # One density evaluation per E-step refresh: an eager iteration
    # shares it between g_reg and the M-step statistics, where the
    # legacy path evaluated twice per refresh.
    refreshes_per_epoch = LEGACY_DENSITY_EVALS // 2 // len(LEGACY_LOSSES)
    expected = refreshes_per_epoch * extra["config"]["epochs"]
    for mode, m in extra["modes"].items():
        assert m["density_evals"] == m["estep_refreshes"] == expected, (
            f"{mode}: {m['density_evals']} density evaluations for "
            f"{m['estep_refreshes']} E-step refreshes (expected {expected})"
        )


def format_report(payload, path):
    extra = payload["extra"]
    lines = ["=== hot-path E-step kernel: training wall-clock by mode ==="]
    lines.append(
        f"{'mode':10s} {'wall':>7s} "
        + " ".join(f"{p:>7s}" for p in PHASES)
        + f" {'max|dloss|':>11s} {'#dens':>6s}"
    )
    for mode, m in extra["modes"].items():
        lines.append(
            f"{mode:10s} {m['wall_seconds']:6.2f}s "
            + " ".join(f"{m['phases'][p]:6.2f}s" for p in PHASES)
            + f" {m['max_loss_abs_diff']:11.1e} {m['density_evals']:6d}"
        )
    modes = extra["modes"]
    lines.append("per layer, forward/backward seconds:")
    lines.append(f"{'layer':10s} " + " ".join(f"{m:>15s}" for m in modes))
    for name in next(iter(modes.values()))["layers"]:
        cells = (modes[m]["layers"][name] for m in modes)
        lines.append(
            f"{name:10s} "
            + " ".join(f"{c['fwd_s']:7.3f}/{c['bwd_s']:<7.3f}" for c in cells)
        )
    resnet = extra["resnet"]
    lines.append(
        f"resnet (float64, {resnet['config']['epochs']} epochs, "
        f"{resnet['wall_seconds']:.2f}s): per layer, forward/backward "
        f"seconds and ms per call:"
    )
    for name, c in resnet["layers"].items():
        lines.append(
            f"{name:14s} {c['fwd_s']:7.3f}/{c['bwd_s']:<7.3f} "
            f"{1e3 * c['fwd_s'] / c['fwd_calls']:7.3f}/"
            f"{1e3 * c['bwd_s'] / c['bwd_calls']:<7.3f}"
        )
    lines.append(
        f"gates: float64 epoch losses within {extra['max_loss_diff']:.0e} "
        f"of legacy, float32 final loss within "
        f"{extra['max_loss_diff_f32']:.0e}, one density evaluation per "
        f"E-step refresh"
    )
    lines.append(f"wrote {path}")
    return "\n".join(lines)


def test_hotpath_fusion(benchmark, report):
    from conftest import run_once

    payload, path = run_once(benchmark, lambda: run_benchmark(quick=False))
    report(format_report(payload, path))
    check_claims(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer epochs for CI smoke runs")
    args = parser.parse_args(argv)
    payload, path = run_benchmark(quick=args.quick)
    print(format_report(payload, path))
    check_claims(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
