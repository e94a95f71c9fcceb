"""OnlineTrainer: streaming partial_fit and the shared TrainerState path."""

import numpy as np
import pytest

from repro.core import GMRegularizer, LazyUpdateSchedule
from repro.linear.logistic import LogisticRegression
from repro.online import DecayedGMRegularizer, DriftStream, OnlineTrainer
from repro.optim import ConstantLR, NonFiniteError
from repro.optim.trainer import Trainer
from repro.telemetry.metrics import MetricsRegistry


def make_model(n_features=10, seed=0, **reg_kwargs):
    return LogisticRegression(
        n_features,
        regularizer=DecayedGMRegularizer(n_features, **reg_kwargs),
        rng=np.random.default_rng(seed),
    )


class TestPartialFit:
    def test_learns_a_stationary_stream(self):
        stream = DriftStream(n_features=10, batch_size=32, seed=11)
        model = make_model(rho=0.9, warmup_steps=5)
        trainer = OnlineTrainer(model, lr=0.5, n_reference=1024)
        for x, y in stream.batches(60):
            trainer.partial_fit(x, y)
        x_eval, y_eval = stream.holdout(500)
        accuracy = float(np.mean(model.predict(x_eval) == y_eval))
        assert accuracy > 0.9

    def test_step_result_bookkeeping(self):
        stream = DriftStream(n_features=10, batch_size=16, seed=3)
        trainer = OnlineTrainer(make_model(), lr=0.2)
        x, y = stream.next_batch()
        first = trainer.partial_fit(x, y)
        assert first.step == 0
        assert first.samples_seen == 16
        assert first.loss_ewma == pytest.approx(first.loss)
        second = trainer.partial_fit(*stream.next_batch())
        assert second.step == 1
        assert second.samples_seen == 32
        assert trainer.step_count == 2
        assert trainer.samples_seen == 32
        assert np.isfinite(second.loss_ewma)

    def test_loss_ewma_smooths(self):
        stream = DriftStream(n_features=10, batch_size=16, seed=3)
        trainer = OnlineTrainer(make_model(), lr=0.2)
        first = trainer.partial_fit(*stream.next_batch())
        second = trainer.partial_fit(*stream.next_batch())
        expected = 0.9 * first.loss_ewma + 0.1 * second.loss
        assert second.loss_ewma == pytest.approx(expected)

    def test_sample_count_mismatch_rejected(self):
        trainer = OnlineTrainer(make_model())
        with pytest.raises(ValueError, match="sample count"):
            trainer.partial_fit(np.zeros((4, 10)), np.zeros(3))

    def test_single_row_is_reshaped(self):
        trainer = OnlineTrainer(make_model())
        result = trainer.partial_fit(np.zeros(10), np.zeros(1))
        assert result.samples_seen == 1

    def test_scalar_label_for_a_single_row(self):
        """``partial_fit(row, label)`` is the one-row batch
        ``partial_fit(row[None], [label])``; a scalar label for several
        rows is still a count mismatch."""
        row = np.linspace(-1.0, 1.0, 10)
        scalar = OnlineTrainer(make_model(), lr=0.2)
        batch = OnlineTrainer(make_model(), lr=0.2)
        for label in (1, np.int64(0), 1):
            got = scalar.partial_fit(row, label)
            want = batch.partial_fit(row[None, :], np.array([label]))
            assert got == want
        with pytest.raises(ValueError, match="sample count"):
            scalar.partial_fit(np.zeros((3, 10)), 1)

    def test_metrics_populated(self):
        metrics = MetricsRegistry()
        trainer = OnlineTrainer(make_model(), metrics=metrics)
        stream = DriftStream(n_features=10, batch_size=8, seed=5)
        for x, y in stream.batches(3):
            trainer.partial_fit(x, y)
        assert metrics.counter("online/steps_total").value == 3
        assert metrics.counter("online/samples_total").value == 24
        assert metrics.gauge("online/loss_ewma").value is not None
        assert metrics.timer("phase/estep").count == 3
        assert metrics.timer("phase/sgd").count == 3

    def test_warmup_refreshes_through_stacked_prepare(self, monkeypatch):
        """The E-step of each streamed step runs in ``stacked_prepare``,
        on the steps the per-layer warm-up test
        (``test_warmup_steps_are_eager_then_lazy_intervals_apply``)
        asserts: every warm-up step, then only the Im = Ig = 4 ticks."""
        import repro.optim.trainer as step_module

        served = []
        stacked_prepare = step_module.stacked_prepare

        def recording(*args, **kwargs):
            served.append(stacked_prepare(*args, **kwargs))
            return served[-1]

        monkeypatch.setattr(step_module, "stacked_prepare", recording)
        model = make_model(
            n_features=16,
            rho=0.9,
            warmup_steps=3,
            schedule=LazyUpdateSchedule(
                model_interval=4, gm_interval=4, eager_epochs=1
            ),
        )
        reg = model.regularizer
        trainer = OnlineTrainer(model, lr=0.1)
        stream = DriftStream(n_features=16, batch_size=8, seed=2)
        estep_counts, mstep_counts = [], []
        for x, y in stream.batches(8):
            trainer.partial_fit(x, y)
            estep_counts.append(reg.estep_count)
            mstep_counts.append(reg.mstep_count)
        assert served == [1, 1, 1, 0, 1, 0, 0, 0]
        assert estep_counts == [1, 2, 3, 3, 4, 4, 4, 4]
        assert mstep_counts == [1, 2, 3, 3, 4, 4, 4, 4]
        # Each M-step ran on its own step's E-step statistics.
        assert reg.density_evals == 4

    def test_n_reference_validation(self):
        with pytest.raises(ValueError, match="n_reference"):
            OnlineTrainer(make_model(), n_reference=0)

    def test_nonfinite_loss_is_named_before_any_parameter_moves(self):
        stream = DriftStream(n_features=10, batch_size=16, seed=8)
        model = make_model(rho=0.9)
        trainer = OnlineTrainer(model, lr=0.2)
        for x, y in stream.batches(2):
            trainer.partial_fit(x, y)
        before = [p.value.copy() for p in model.parameters()]
        pi, lam = model.regularizer.pi.copy(), model.regularizer.lam.copy()
        x, y = stream.next_batch()
        x[3, 0] = np.nan
        with pytest.raises(
            NonFiniteError, match=r"iteration 2 in phase 'grad'"
        ):
            trainer.partial_fit(x, y)
        for param, value in zip(model.parameters(), before):
            assert np.array_equal(param.value, value)
        assert np.array_equal(model.regularizer.pi, pi)
        assert np.array_equal(model.regularizer.lam, lam)
        assert trainer.step_count == 2


def assert_states_equal(a, b):
    assert a.iteration == b.iteration
    assert a.em.keys() == b.em.keys()
    for name in a.em:
        for field in ("pi", "lam", "resp_sum", "weighted_sq"):
            left, right = getattr(a.em[name], field), getattr(b.em[name], field)
            assert (left is None) == (right is None)
            assert left is None or np.array_equal(left, right)
        assert a.em[name].estep_count == b.em[name].estep_count
        assert a.em[name].mstep_count == b.em[name].mstep_count


@pytest.mark.parametrize("reg_cls", [GMRegularizer, DecayedGMRegularizer])
def test_one_epoch_of_fit_is_partial_fit_over_its_batches(reg_cls):
    """Both loops run one step: an unshuffled epoch of ``fit`` and
    ``partial_fit`` over the same batches, with ``n_reference = N`` and
    the same constant rate, end bit-identical."""
    x, y = DriftStream(n_features=10, batch_size=32, seed=4).holdout(96)
    models = [
        LogisticRegression(
            10, regularizer=reg_cls(10), rng=np.random.default_rng(5)
        )
        for _ in range(2)
    ]
    batch = Trainer(
        models[0], lr=ConstantLR(0.3), momentum=0.9, batch_size=32,
        shuffle=False,
    )
    batch.fit(x, y, epochs=1)
    online = OnlineTrainer(
        models[1], lr=ConstantLR(0.3), momentum=0.9, n_reference=96
    )
    for lo in range(0, 96, 32):
        online.partial_fit(x[lo:lo + 32], y[lo:lo + 32])
    for fitted, streamed in zip(*(m.parameters() for m in models)):
        assert np.array_equal(fitted.value, streamed.value)
    assert np.array_equal(models[0].regularizer.pi, models[1].regularizer.pi)
    assert np.array_equal(
        models[0].regularizer.lam, models[1].regularizer.lam
    )
    assert_states_equal(batch.state(), online.state())


class TestTrainerStateHandoff:
    """Batch Trainer and OnlineTrainer share one typed snapshot."""

    def test_batch_to_online_handoff(self):
        stream = DriftStream(n_features=10, batch_size=32, seed=21)
        x0, y0 = stream.holdout(512, batch_index=0)

        batch_model = make_model(seed=4, rho=0.9, warmup_steps=2)
        batch_trainer = Trainer(batch_model, lr=0.5, batch_size=64)
        batch_trainer.fit(x0, y0, epochs=3, rng=np.random.default_rng(1))
        snapshot = batch_trainer.state()

        online_model = make_model(seed=99, rho=0.9, warmup_steps=2)
        online = OnlineTrainer(online_model, lr=0.3)
        online.load_state(snapshot)

        assert online.step_count == snapshot.iteration
        restored = online_model.regularizer
        np.testing.assert_allclose(
            restored.mixture.pi, batch_model.regularizer.mixture.pi
        )
        np.testing.assert_allclose(
            restored.mixture.lam, batch_model.regularizer.mixture.lam
        )

    def test_online_state_roundtrip(self):
        stream = DriftStream(n_features=10, batch_size=32, seed=21)
        model = make_model(seed=4, rho=0.8)
        trainer = OnlineTrainer(model, lr=0.3)
        for x, y in stream.batches(10):
            trainer.partial_fit(x, y)
        snapshot = trainer.state()
        assert snapshot.iteration == 10
        reg_state = snapshot.em["weights"]
        assert reg_state.resp_sum is not None

        resumed_model = make_model(seed=123, rho=0.8)
        resumed = OnlineTrainer(resumed_model, lr=0.3)
        resumed.load_state(snapshot)
        np.testing.assert_allclose(
            resumed_model.regularizer._resp_sum,
            model.regularizer._resp_sum,
        )
        assert resumed.step_count == 10
