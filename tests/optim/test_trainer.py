"""Unit tests for the Algorithm 1/2 training loop."""

import numpy as np
import pytest

from repro.core import GMRegularizer, L2Regularizer, LazyUpdateSchedule
from repro.linear import LogisticRegression
from repro.optim import (
    ConstantLR,
    NonFiniteError,
    Parameter,
    StepDecayLR,
    Trainer,
)
from repro.telemetry.callbacks import EarlyStopping
from repro.telemetry.events import Callback


class QuadraticModel:
    """Minimal TrainableModel: loss = 0.5 * ||w - x_mean||^2 per batch."""

    def __init__(self, dim, regularizer=None):
        self.w = np.zeros(dim)
        self._params = [Parameter("w", self.w, regularizer)]

    def parameters(self):
        return self._params

    def loss_and_gradients(self, x, y):
        target = x.mean(axis=0)
        diff = self.w - target
        return 0.5 * float(diff @ diff), [diff.copy()]

    def predict(self, x):
        return np.zeros(x.shape[0], dtype=np.int64)


def make_data(rng, n=64, dim=4):
    x = rng.normal(size=(n, dim)) + 3.0
    y = np.zeros(n, dtype=np.int64)
    return x, y


def test_trainer_reduces_loss(rng):
    x, y = make_data(rng)
    model = QuadraticModel(4)
    history = Trainer(model, lr=0.3, batch_size=16).fit(
        x, y, epochs=30, rng=rng
    )
    assert history.records[-1].train_loss < history.records[0].train_loss
    assert np.allclose(model.w, x.mean(axis=0), atol=0.5)


def test_history_records_every_epoch(rng):
    x, y = make_data(rng)
    history = Trainer(QuadraticModel(4), lr=0.1, batch_size=16).fit(
        x, y, epochs=5, rng=rng
    )
    assert [r.epoch for r in history.records] == [0, 1, 2, 3, 4]
    assert history.converged_epoch is None
    assert np.all(np.diff(history.cumulative_times()) >= 0.0)


def test_convergence_early_stop(rng):
    x, y = make_data(rng)
    stopper = EarlyStopping(min_delta=1e-6, patience=2)
    trainer = Trainer(QuadraticModel(4), lr=0.5, batch_size=64)
    history = trainer.fit(x, y, epochs=200, rng=rng, callbacks=[stopper])
    assert history.converged_epoch is not None
    assert history.converged_epoch == stopper.stopped_epoch
    assert len(history.records) == history.converged_epoch + 1 < 200


class RecordsLastGoodStep(Callback):
    """Copies every parameter and the mixture after each finished batch."""

    def on_batch_end(self, info, ctx):
        mixture = getattr(ctx.model.regularizer, "mixture", None)
        self.values = [p.value.copy() for p in ctx.parameters]
        self.mixture = (
            None if mixture is None else (mixture.pi.copy(), mixture.lam.copy())
        )


@pytest.mark.parametrize(
    "make_reg",
    [lambda: None, lambda: L2Regularizer(strength=1.0),
     lambda: GMRegularizer(n_dimensions=10)],
    ids=["none", "l2", "gm"],
)
def test_nonfinite_loss_is_named_before_any_parameter_moves(rng, make_reg):
    """One NaN input row raises at its own iteration, in phase 'grad',
    and leaves the weights and pi/lambda as the previous step left them."""
    x = rng.normal(size=(80, 10))
    y = (x[:, 0] > 0).astype(np.int64)
    x[37, 2] = np.nan  # batch 2 of 16 rows without shuffling
    model = LogisticRegression(10, regularizer=make_reg(), rng=rng)
    recorder = RecordsLastGoodStep()
    trainer = Trainer(model, lr=0.3, batch_size=16, shuffle=False)
    with pytest.raises(
        NonFiniteError, match=r"iteration 2 in phase 'grad'"
    ) as raised:
        trainer.fit(x, y, epochs=3, callbacks=[recorder])
    assert isinstance(raised.value, ValueError)
    for param, value in zip(model.parameters(), recorder.values):
        assert np.array_equal(param.value, value)
        assert np.all(np.isfinite(param.value))
    if recorder.mixture is not None:
        pi, lam = recorder.mixture
        assert np.array_equal(model.regularizer.mixture.pi, pi)
        assert np.array_equal(model.regularizer.mixture.lam, lam)
    assert trainer.state().iteration == 2


def test_validation_accuracy_recorded(rng):
    x, y = make_data(rng)
    history = Trainer(QuadraticModel(4), lr=0.1, batch_size=16).fit(
        x, y, epochs=2, rng=rng, x_val=x, y_val=y
    )
    assert history.records[-1].val_accuracy == 1.0  # predicts all zeros


def test_reg_scale_is_one_over_n(rng):
    # With the quadratic model at its optimum, the only gradient is the
    # regularizer's, scaled by 1/N.
    x, y = make_data(rng, n=50)
    target = x.mean(axis=0)
    model = QuadraticModel(4, regularizer=L2Regularizer(strength=100.0))
    model.w[...] = target
    trainer = Trainer(model, lr=1.0, batch_size=50, shuffle=False)
    trainer.fit(x, y, epochs=1, rng=rng)
    # One step: w <- w - lr * (0 + (1/50) * 100 * w) = w * (1 - 2) = -w.
    assert np.allclose(model.w, -target, atol=1e-9)


def test_lr_schedule_applied_per_epoch(rng):
    x, y = make_data(rng)
    sched = StepDecayLR(0.5, {1: 1e-12})  # lr collapses after epoch 0
    model = QuadraticModel(4)
    Trainer(model, lr=sched, batch_size=64).fit(x, y, epochs=1, rng=rng)
    w_after_first = model.w.copy()
    Trainer(model, lr=ConstantLR(1e-12), batch_size=64).fit(
        x, y, epochs=1, rng=rng
    )
    assert np.allclose(model.w, w_after_first, atol=1e-9)


def test_gm_regularizer_em_runs_inside_training(rng):
    x = rng.normal(size=(80, 10))
    y = (x[:, 0] > 0).astype(np.int64)
    reg = GMRegularizer(n_dimensions=10)
    model = LogisticRegression(10, regularizer=reg, rng=rng)
    Trainer(model, lr=0.3, batch_size=16).fit(x, y, epochs=4, rng=rng)
    # 80/16 = 5 batches x 4 epochs = 20 iterations of eager EM.
    assert reg.mstep_count == 20
    assert reg.estep_count >= 20


def test_lazy_schedule_reduces_em_invocations(rng):
    x = rng.normal(size=(80, 10))
    y = (x[:, 0] > 0).astype(np.int64)
    sched = LazyUpdateSchedule(model_interval=5, gm_interval=10, eager_epochs=1)
    reg = GMRegularizer(n_dimensions=10, schedule=sched)
    model = LogisticRegression(10, regularizer=reg, rng=rng)
    Trainer(model, lr=0.3, batch_size=16).fit(x, y, epochs=4, rng=rng)
    # Epoch 0 eager: 5 E-steps; epochs 1-3 (its 5..19): every 5th -> 3.
    assert reg.estep_count == 8
    # M-steps: epoch 0: 5; its 10 -> 1.
    assert reg.mstep_count == 6


def test_invalid_arguments_rejected(rng):
    x, y = make_data(rng)
    with pytest.raises(ValueError):
        Trainer(QuadraticModel(4), batch_size=0)
    with pytest.raises(ValueError):
        Trainer(QuadraticModel(4)).fit(x, y, epochs=0, rng=rng)
    with pytest.raises(ValueError):
        Trainer(QuadraticModel(4)).fit(x, y[:-1], epochs=1, rng=rng)


def test_augment_hook_called(rng):
    x, y = make_data(rng)
    calls = []

    def augment(batch, _rng):
        calls.append(batch.shape[0])
        return batch

    Trainer(QuadraticModel(4), lr=0.1, batch_size=16).fit(
        x, y, epochs=1, rng=rng, augment=augment
    )
    assert sum(calls) == 64


def test_injectable_clock_drives_epoch_records(rng):
    # A fake clock advancing 1.0 per read makes every recorded duration
    # an exact integer -- no sleeping, no tolerance windows.
    ticks = iter(float(i) for i in range(100_000))
    x, y = make_data(rng)
    trainer = Trainer(QuadraticModel(4), lr=0.1, batch_size=16,
                      clock=lambda: next(ticks))
    history = trainer.fit(x, y, epochs=3, rng=rng)
    for record in history.records:
        assert record.elapsed_seconds == int(record.elapsed_seconds) > 0
    deltas = np.diff(history.cumulative_times())
    assert np.all(deltas > 0)
    # Both epoch records and phase timers use the same injected clock.
    assert trainer.metrics.clock is not None
    assert all(v == int(v) for v in trainer.metrics.phase_seconds().values())


def test_phase_timers_cover_all_algorithm2_phases(rng):
    x, y = make_data(rng)
    trainer = Trainer(QuadraticModel(4), lr=0.1, batch_size=16)
    trainer.fit(x, y, epochs=2, rng=rng)
    phases = trainer.metrics.phase_seconds()
    assert set(phases) == {"estep", "grad", "mstep", "sgd"}
    # 64/16 = 4 batches x 2 epochs: each phase timed once per batch.
    assert trainer.metrics.timer("phase/grad").count == 8
    assert trainer.metrics.counter("train/batches").value == 8
    assert trainer.metrics.counter("train/epochs").value == 2


def test_metrics_reset_between_fits(rng):
    x, y = make_data(rng)
    trainer = Trainer(QuadraticModel(4), lr=0.1, batch_size=16)
    trainer.fit(x, y, epochs=2, rng=rng)
    trainer.fit(x, y, epochs=1, rng=rng)
    # Counters reflect only the most recent fit.
    assert trainer.metrics.counter("train/epochs").value == 1
    assert trainer.metrics.counter("train/batches").value == 4


def test_em_refresh_gauges_published_for_gm_runs(rng):
    x = rng.normal(size=(80, 10))
    y = (x[:, 0] > 0).astype(np.int64)
    reg = GMRegularizer(n_dimensions=10)
    model = LogisticRegression(10, regularizer=reg, rng=rng)
    trainer = Trainer(model, lr=0.3, batch_size=16)
    trainer.fit(x, y, epochs=4, rng=rng)
    gauges = trainer.metrics.snapshot()["gauges"]
    assert gauges["em/estep_refreshes"] == reg.estep_count
    assert gauges["em/mstep_refreshes"] == reg.mstep_count
    # No GM regularizer -> no EM gauges at all.
    plain = Trainer(QuadraticModel(4), lr=0.1, batch_size=16)
    plain.fit(*make_data(rng), epochs=1, rng=rng)
    assert "em/estep_refreshes" not in plain.metrics.snapshot()["gauges"]


def test_shuffle_off_is_deterministic(rng):
    x, y = make_data(rng)
    m1, m2 = QuadraticModel(4), QuadraticModel(4)
    Trainer(m1, lr=0.1, batch_size=16, shuffle=False).fit(
        x, y, epochs=3, rng=np.random.default_rng(1)
    )
    Trainer(m2, lr=0.1, batch_size=16, shuffle=False).fit(
        x, y, epochs=3, rng=np.random.default_rng(999)
    )
    assert np.allclose(m1.w, m2.w)


def test_fit_emits_training_spans_under_ambient_tracer(rng):
    from repro.telemetry.trace import Tracer, use_tracer

    x, y = make_data(rng)
    tracer = Tracer(sample_rate=1.0)
    with use_tracer(tracer):
        Trainer(QuadraticModel(4), lr=0.1, batch_size=16).fit(
            x, y, epochs=3, rng=rng
        )
    spans = tracer.buffer.spans()
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    fit = by_name["train/fit"]
    assert len(fit) == 1
    assert fit[0]["parent_id"] is None
    assert fit[0]["attributes"]["epochs"] == 3

    epochs = by_name["train/epoch"]
    assert len(epochs) == 3
    assert [e["attributes"]["epoch"] for e in epochs] == [0, 1, 2]
    for epoch in epochs:
        assert epoch["trace_id"] == fit[0]["trace_id"]
        assert epoch["parent_id"] == fit[0]["span_id"]
        assert "loss" in epoch["attributes"]

    # Per-phase synthetic children hang off their epoch span.
    phase_spans = [s for s in spans if s["name"].startswith("train/phase") or
                   s["name"] in ("train/estep", "train/grad",
                                 "train/mstep", "train/sgd")]
    assert phase_spans, "expected per-phase child spans"
    epoch_ids = {e["span_id"] for e in epochs}
    for span in phase_spans:
        assert span["parent_id"] in epoch_ids
        assert span["duration"] >= 0.0


def test_fit_without_tracer_adds_no_spans(rng):
    from repro.telemetry.trace import current_span, current_tracer

    x, y = make_data(rng)
    Trainer(QuadraticModel(4), lr=0.1, batch_size=16).fit(
        x, y, epochs=1, rng=rng
    )
    assert current_tracer() is None
    assert current_span() is None
