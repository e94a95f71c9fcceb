"""Continuous learning: online-EM fidelity + drift recovery under traffic.

Two claims about the ``repro.online`` closed loop, written to
``BENCH_online.json``:

1. **Stationary fidelity** — on a fixed weight vector, the online EM
   recursion (decayed sufficient statistics, the one decayed M-step of
   :class:`repro.online.em.DecayedGMRegularizer`, run through
   ``upt_gm_param``) converges to the *same* mixture as batch EM
   (:func:`repro.core.em.em_step`): final ``pi`` agree within 1e-3
   absolute and ``lambda`` within 1e-3 relative, including the collapse
   to the same effective component count.

2. **Drift recovery** — a model batch-trained before a label-flipping
   distribution shift serves a drifting stream through the full loop
   (live serving via :class:`~repro.serve.server.ModelServer`, online
   ``partial_fit``, cadence publishing, shadow evaluation, promotion by
   hot-swap).  The run must publish and promote at least one candidate,
   answer **every** request (zero drops), and finish with post-drift
   holdout accuracy within 2 points of a from-scratch retrain on
   post-drift data.

Run standalone (CI) or under pytest-benchmark like the other benches::

    PYTHONPATH=src python benchmarks/bench_online.py --quick
    PYTHONPATH=src python -m pytest benchmarks/bench_online.py
"""

import argparse
import sys

import numpy as np

from repro.core.em import em_step
from repro.core.gm_regularizer import GMRegularizer
from repro.linear.logistic import LogisticRegression
from repro.online import (
    ContinuousLoop,
    DecayedGMRegularizer,
    DriftStream,
    OnlineTrainer,
    PromotionPolicy,
    PublishTriggers,
    RegistryPublisher,
    ShadowEvaluator,
)
from repro.optim.trainer import Trainer
from repro.rng import spawn
from repro.serve import ModelRegistry, ModelServer
from repro.telemetry import bench_filename, bench_payload, write_bench_json
from repro.telemetry.metrics import MetricsRegistry

#: Batch-vs-online agreement tolerance (pi absolute, lambda relative).
EM_TOLERANCE = 1e-3
#: Drift gate: online live accuracy within this of a from-scratch retrain.
RETRAIN_GAP = 0.02


def run_stationary(quick: bool):
    """Batch EM vs decayed-statistics online EM on fixed weights."""
    n_dim = 200 if quick else 400
    w = spawn(5, 1).normal(0.0, 0.1, size=n_dim)
    reference = GMRegularizer(n_dim)
    a, b = reference._a, reference._b
    alpha = reference._alpha

    batch = reference.mixture
    for _ in range(200):
        batch = em_step(batch, w, alpha[: batch.n_components], a, b)

    # The decayed recursion is a damped iteration (step size 1 - rho);
    # 500 steps at rho=0.8 reaches the shared fixed point to ~1e-11.
    online = DecayedGMRegularizer(n_dim, rho=0.8)
    for _ in range(500):
        online.upt_gm_param(w)
    mixture = online.mixture
    if mixture.n_components != batch.n_components:
        pi_diff = lam_rel = float("inf")
    else:
        pi_diff = float(np.abs(batch.pi - mixture.pi).max())
        lam_rel = float(
            np.abs(batch.lam - mixture.lam).max() / np.abs(batch.lam).max()
        )
    return {
        "n_dimensions": n_dim,
        "batch_components": int(batch.n_components),
        "online_components": int(mixture.n_components),
        "pi_abs_diff": pi_diff,
        "lam_rel_diff": lam_rel,
        "tolerance": EM_TOLERANCE,
    }


def run_drift(quick: bool, metrics: MetricsRegistry):
    """The closed loop over a label-flipping stream, served end to end."""
    n_features = 12
    steps = 80 if quick else 160
    drift_at = steps // 3
    stream = DriftStream(n_features=n_features, batch_size=32, drift_at=drift_at)

    # Seed the live model with a *batch* pre-drift training run — the
    # deployment the drift then invalidates.
    x0, y0 = stream.holdout(1024, batch_index=0)
    model = LogisticRegression(
        n_features,
        regularizer=DecayedGMRegularizer(n_features, rho=0.9, warmup_steps=10),
        rng=spawn(9, 2),
    )
    Trainer(model, lr=0.5, batch_size=64).fit(
        x0, y0, epochs=5, rng=spawn(9, 3)
    )

    registry = ModelRegistry()
    registry.register(
        "drift-demo",
        lambda: LogisticRegression(n_features, weight_init_std=0.0),
    )
    registry.publish("drift-demo", model, activate=True)

    trainer = OnlineTrainer(model, lr=0.3, n_reference=1024, metrics=metrics)
    publisher = RegistryPublisher(
        registry, "drift-demo", PublishTriggers(every_steps=10),
        metrics=metrics,
    )
    shadow = ShadowEvaluator(
        registry, "drift-demo", fraction=0.5, metrics=metrics
    )
    policy = PromotionPolicy(min_samples=20, metrics=metrics)
    server = ModelServer(registry=registry, name="drift-demo")
    loop = ContinuousLoop(
        trainer, publisher, shadow, policy, server=server, metrics=metrics
    )
    with server:
        status = loop.run(stream, steps)

    # Post-drift holdout: the loop's final live model vs a from-scratch
    # retrain that saw only post-drift data.
    x_eval, y_eval = stream.holdout(1000, batch_index=steps)
    live = registry.active("drift-demo").model
    online_accuracy = float(np.mean(live.predict(x_eval) == y_eval))

    x_post, y_post = stream.holdout(1024, batch_index=drift_at)
    scratch = LogisticRegression(
        n_features,
        regularizer=GMRegularizer(n_features),
        rng=spawn(9, 4),
    )
    Trainer(scratch, lr=0.5, batch_size=64).fit(
        x_post, y_post, epochs=5, rng=spawn(9, 5)
    )
    scratch_accuracy = float(np.mean(scratch.predict(x_eval) == y_eval))

    return {
        "steps": steps,
        "drift_at": drift_at,
        "status": status,
        "online_accuracy": online_accuracy,
        "scratch_accuracy": scratch_accuracy,
        "accuracy_gap": scratch_accuracy - online_accuracy,
        "max_gap": RETRAIN_GAP,
    }


def run_benchmark(quick: bool):
    metrics = MetricsRegistry()
    stationary = run_stationary(quick)
    drift = run_drift(quick, metrics)
    payload = bench_payload(
        "online",
        metrics=metrics,
        extra={"stationary": stationary, "drift": drift},
    )
    path = write_bench_json(bench_filename("online"), payload)
    return payload, path


def check_claims(payload):
    stationary = payload["extra"]["stationary"]
    assert stationary["online_components"] == stationary["batch_components"], (
        f"online EM kept {stationary['online_components']} components, "
        f"batch EM {stationary['batch_components']}"
    )
    assert stationary["pi_abs_diff"] <= EM_TOLERANCE, (
        f"online pi deviates from batch EM by {stationary['pi_abs_diff']:.2e}"
    )
    assert stationary["lam_rel_diff"] <= EM_TOLERANCE, (
        f"online lambda deviates from batch EM by "
        f"{stationary['lam_rel_diff']:.2e}"
    )
    drift = payload["extra"]["drift"]
    status = drift["status"]
    assert status["published_total"] >= 1, "no candidate was published"
    assert status["promotions"] >= 1, "no candidate was promoted"
    assert status["dropped_requests"] == 0, (
        f"{status['dropped_requests']} requests dropped"
    )
    assert drift["accuracy_gap"] <= RETRAIN_GAP, (
        f"online loop trails from-scratch retrain by "
        f"{drift['accuracy_gap']:.3f} (> {RETRAIN_GAP})"
    )


def format_report(payload, path):
    stationary = payload["extra"]["stationary"]
    drift = payload["extra"]["drift"]
    status = drift["status"]
    lines = ["=== online EM: stationary fidelity vs batch EM ==="]
    lines.append(
        f"components: batch={stationary['batch_components']} "
        f"online={stationary['online_components']}  "
        f"pi_abs_diff={stationary['pi_abs_diff']:.2e}  "
        f"lam_rel_diff={stationary['lam_rel_diff']:.2e}  "
        f"(tolerance {stationary['tolerance']})"
    )
    lines.append("=== continuous loop: drift recovery under traffic ===")
    lines.append(
        f"steps={drift['steps']} drift_at={drift['drift_at']}  "
        f"published={status['published_total']} "
        f"promotions={status['promotions']} "
        f"rollbacks={status['rollbacks']}  "
        f"requests={status['requests_total']} "
        f"dropped={status['dropped_requests']}"
    )
    lines.append(
        f"post-drift accuracy: online={drift['online_accuracy']:.3f} "
        f"from-scratch={drift['scratch_accuracy']:.3f} "
        f"gap={drift['accuracy_gap']:+.3f} (max {drift['max_gap']})"
    )
    lines.append(f"wrote {path}")
    return "\n".join(lines)


def test_online(benchmark, report):
    from conftest import run_once

    payload, path = run_once(benchmark, lambda: run_benchmark(quick=False))
    report(format_report(payload, path))
    check_claims(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller stream for CI smoke runs")
    args = parser.parse_args(argv)
    payload, path = run_benchmark(quick=args.quick)
    print(format_report(payload, path))
    check_claims(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
