"""ShadowEvaluator mirroring and the PromotionPolicy decision rules."""

import dataclasses

import numpy as np
import pytest

from repro.linear.logistic import LogisticRegression
from repro.online import PromotionPolicy, ShadowEvaluator
from repro.online.promotion import HOLD, PROMOTE, REJECT
from repro.online.shadow import ShadowReport
from repro.serve import ModelRegistry
from repro.telemetry.trace import Tracer, use_tracer


def make_registry(name="shadowed", d=4):
    registry = ModelRegistry()
    registry.register(name, lambda: LogisticRegression(d, weight_init_std=0.0))
    return registry


def constant_model(d=4, sign=1.0):
    """A model predicting by the sign of the first feature (scaled)."""
    model = LogisticRegression(d, weight_init_std=0.0)
    model.weights[0] = sign * 10.0
    return model


def report(**overrides):
    base = dict(
        candidate_version="v0002",
        live_version="v0001",
        samples=100,
        agreement=1.0,
        live_accuracy=None,
        candidate_accuracy=None,
        live_latency_mean=0.0,
        candidate_latency_mean=0.0,
    )
    base.update(overrides)
    return ShadowReport(**base)


class TestShadowEvaluator:
    def test_fraction_validation(self):
        registry = make_registry()
        with pytest.raises(ValueError, match="fraction"):
            ShadowEvaluator(registry, "shadowed", fraction=0.0)
        with pytest.raises(ValueError, match="fraction"):
            ShadowEvaluator(registry, "shadowed", fraction=1.5)

    def test_no_candidate_means_no_mirroring(self):
        registry = make_registry()
        shadow = ShadowEvaluator(registry, "shadowed", fraction=1.0)
        assert shadow.observe(np.zeros(4), 0) is None
        assert shadow.report() is None

    def test_full_fraction_mirrors_every_request(self):
        registry = make_registry()
        live = constant_model(sign=1.0)
        registry.publish("shadowed", live, activate=True)
        candidate = registry.publish("shadowed", constant_model(sign=1.0))
        shadow = ShadowEvaluator(registry, "shadowed", fraction=1.0)
        shadow.set_candidate(candidate)

        rng = np.random.default_rng(0)
        for _ in range(20):
            row = rng.normal(size=4)
            live_prediction = live.predict(row.reshape(1, -1))[0]
            label = int(row[0] > 0)
            shadow.observe(row, live_prediction, label=label)
        window = shadow.report()
        assert window.samples == 20
        assert window.agreement == 1.0
        assert window.live_accuracy == 1.0
        assert window.candidate_accuracy == 1.0
        assert window.candidate_version == candidate

    def test_disagreeing_candidate_scores_below_live(self):
        registry = make_registry()
        live = constant_model(sign=1.0)
        registry.publish("shadowed", live, activate=True)
        inverted = registry.publish("shadowed", constant_model(sign=-1.0))
        shadow = ShadowEvaluator(registry, "shadowed", fraction=1.0)
        shadow.set_candidate(inverted)

        rng = np.random.default_rng(1)
        for _ in range(30):
            row = rng.normal(size=4)
            live_prediction = live.predict(row.reshape(1, -1))[0]
            shadow.observe(row, live_prediction, label=int(row[0] > 0))
        window = shadow.report()
        assert window.agreement < 0.2
        assert window.candidate_accuracy < window.live_accuracy

    def test_sampling_is_deterministic_per_seed(self):
        def mirrored_count(seed):
            registry = make_registry()
            registry.publish("shadowed", constant_model(), activate=True)
            candidate = registry.publish("shadowed", constant_model())
            shadow = ShadowEvaluator(
                registry, "shadowed", fraction=0.5, seed=seed
            )
            shadow.set_candidate(candidate)
            for i in range(50):
                shadow.observe(np.full(4, float(i)), 1)
            window = shadow.report()
            return 0 if window is None else window.samples

        assert mirrored_count(123) == mirrored_count(123)
        counts = {mirrored_count(seed) for seed in (1, 2, 3, 4, 5)}
        # Not all seeds land on the same subset size.
        assert 0 < min(counts) and max(counts) < 50

    def test_observe_many_matches_an_observe_loop(self):
        def evaluator():
            registry = make_registry()
            live = constant_model(sign=1.0)
            registry.publish("shadowed", live, activate=True)
            other = LogisticRegression(4, weight_init_std=0.0)
            other.weights[1] = 10.0  # splits on another feature
            shadow = ShadowEvaluator(
                registry, "shadowed", fraction=0.5, seed=11
            )
            shadow.set_candidate(registry.publish("shadowed", other))
            return live, shadow

        rng = np.random.default_rng(2)
        x = rng.normal(size=(64, 4))
        labels = (x[:, 0] > 0).astype(int)
        live, looped = evaluator()
        _live, blocked = evaluator()
        served = list(live.predict(x))
        one_by_one = [
            looped.observe(row, prediction, label=label)
            for row, prediction, label in zip(x, served, labels)
        ]
        in_blocks = blocked.observe_many(
            x[:32], served[:32], labels=labels[:32]
        ) + blocked.observe_many(x[32:], served[32:], labels=labels[32:])
        assert one_by_one == in_blocks
        assert any(v is None for v in in_blocks)
        assert any(v is not None for v in in_blocks)

        def without_latency(window):
            return dataclasses.replace(
                window, live_latency_mean=0.0, candidate_latency_mean=0.0
            )

        window = blocked.report()
        assert without_latency(window) == without_latency(looped.report())
        assert 0.0 < window.agreement < 1.0
        assert window.candidate_accuracy < window.live_accuracy
        assert (
            blocked.metrics.snapshot()["counters"]
            == looped.metrics.snapshot()["counters"]
        )

    def test_new_candidate_resets_window(self):
        registry = make_registry()
        registry.publish("shadowed", constant_model(), activate=True)
        first = registry.publish("shadowed", constant_model())
        second = registry.publish("shadowed", constant_model())
        shadow = ShadowEvaluator(registry, "shadowed", fraction=1.0)
        shadow.set_candidate(first)
        shadow.observe(np.ones(4), 1)
        assert shadow.report().samples == 1
        shadow.set_candidate(second)
        assert shadow.report() is None
        shadow.clear_candidate()
        assert shadow.candidate_version is None


class TestPromotionPolicy:
    def test_no_report_no_decision(self):
        assert PromotionPolicy().decide(None, step=5) is None

    def test_insufficient_samples_holds(self):
        decision = PromotionPolicy(min_samples=30).decide(
            report(samples=10), step=1
        )
        assert decision.action == HOLD
        assert decision.reason.startswith("insufficient_samples")
        assert decision.evidence["samples"] == 10

    def test_labeled_gain_promotes(self):
        decision = PromotionPolicy(min_samples=10).decide(
            report(live_accuracy=0.6, candidate_accuracy=0.9), step=2
        )
        assert decision.action == PROMOTE
        assert decision.reason.startswith("accuracy_gain")

    def test_labeled_drop_rejects(self):
        decision = PromotionPolicy(min_samples=10, max_accuracy_drop=0.02).decide(
            report(live_accuracy=0.9, candidate_accuracy=0.6), step=2
        )
        assert decision.action == REJECT
        assert decision.reason.startswith("accuracy_drop")

    def test_labeled_inconclusive_holds(self):
        decision = PromotionPolicy(
            min_samples=10, min_accuracy_gain=0.05, max_accuracy_drop=0.1
        ).decide(report(live_accuracy=0.90, candidate_accuracy=0.91), step=2)
        assert decision.action == HOLD

    def test_unlabeled_agreement_promotes(self):
        policy = PromotionPolicy(min_samples=10, min_agreement=0.9)
        assert policy.decide(report(agreement=0.95), step=0).action == PROMOTE
        assert policy.decide(report(agreement=0.5), step=0).action == HOLD

    def test_check_rollback(self):
        policy = PromotionPolicy(max_accuracy_drop=0.02)
        assert policy.check_rollback(0.80, 0.95) is True
        assert policy.check_rollback(0.94, 0.95) is False
        assert policy.check_rollback(None, 0.95) is False
        assert policy.check_rollback(0.80, None) is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_samples": 0},
            {"min_agreement": 1.5},
            {"max_accuracy_drop": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PromotionPolicy(**kwargs)

    def test_decision_emitted_as_span_event(self):
        """The verdict is reconstructable from the trace buffer."""
        tracer = Tracer()
        policy = PromotionPolicy(min_samples=10)
        with use_tracer(tracer):
            decision = policy.decide(
                report(live_accuracy=0.6, candidate_accuracy=0.9), step=4
            )
        events = [
            event
            for span in tracer.buffer.spans()
            for event in span["events"]
            if event["name"] == "promotion_decision"
        ]
        assert len(events) == 1
        event = events[0]
        assert event["action"] == decision.action == PROMOTE
        assert event["candidate"] == decision.candidate_version
        assert event["reason"] == decision.reason
        assert event["step"] == 4
