"""Resilience layer: fault injection, retries, breaker, degrade paths.

Covers the :mod:`repro.serve.resilience` primitives in isolation (with
fake clocks and recording sleeps — no real waiting) and the degrade
decisions wired through :class:`~repro.serve.server.ModelServer`:
stale-snapshot fallback, batch rescue, detectable cache corruption,
typed shutdown errors and the health/readiness probes.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.linear.logistic import LogisticRegression
from repro.serve import (
    BreakerOpen,
    CircuitBreaker,
    FaultInjector,
    FaultProfile,
    InjectedFault,
    MicroBatcher,
    ModelRegistry,
    ModelServer,
    PredictionCache,
    ResiliencePolicy,
    RetryPolicy,
    ServerClosed,
)
from repro.serve.batching import ServeRequest
from repro.telemetry.metrics import MetricsRegistry

D = 8


class FakeClock:
    """Manually advanced monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class RecordingSleep:
    """Capture requested delays instead of sleeping."""

    def __init__(self):
        self.delays = []

    def __call__(self, seconds):
        self.delays.append(seconds)


@pytest.fixture
def model():
    return LogisticRegression(D, rng=np.random.default_rng(0))


@pytest.fixture
def x():
    return np.random.default_rng(1).normal(size=(48, D))


def registry_for(model):
    registry = ModelRegistry()
    registry.register("m", lambda: LogisticRegression(D, weight_init_std=0.0))
    registry.publish("m", model)
    return registry


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            FaultProfile(error_rate=1.5)
        with pytest.raises(ValueError):
            FaultProfile(latency_seconds=-1.0)
        assert not FaultProfile().active
        assert FaultProfile(error_rate=0.5).active

    def test_same_seed_replays_same_fault_sequence(self):
        def outcomes(injector):
            result = []
            for _ in range(64):
                try:
                    injector.call("site", lambda: "ok")
                    result.append(True)
                except InjectedFault:
                    result.append(False)
            return result

        profile = {"site": FaultProfile(error_rate=0.3)}
        a = outcomes(FaultInjector(profiles=profile, seed=123))
        b = outcomes(FaultInjector(profiles=profile, seed=123))
        c = outcomes(FaultInjector(profiles=profile, seed=321))
        assert a == b
        assert a != c
        assert not all(a) and any(a)  # really injecting at ~30%

    def test_latency_uses_injected_sleep_and_counters(self):
        sleep = RecordingSleep()
        metrics = MetricsRegistry()
        injector = FaultInjector(
            profiles={
                "s": FaultProfile(latency_rate=1.0, latency_seconds=0.25)
            },
            sleep=sleep,
            metrics=metrics,
        )
        assert injector.call("s", lambda v: v + 1, 1) == 2
        assert sleep.delays == [0.25]
        counters = metrics.snapshot()["counters"]
        assert counters["resilience/faults/s/latency_total"] == 1

    def test_injected_fault_names_site(self):
        injector = FaultInjector(
            profiles={"registry": FaultProfile(error_rate=1.0)}
        )
        with pytest.raises(InjectedFault) as excinfo:
            injector.call("registry", lambda: None)
        assert excinfo.value.site == "registry"

    def test_unlisted_site_uses_default_profile(self):
        injector = FaultInjector(default=FaultProfile(error_rate=1.0))
        with pytest.raises(InjectedFault):
            injector.call("anything", lambda: None)
        clean = FaultInjector()
        assert clean.call("anything", lambda: 7) == 7

    def test_corrupt_perturbs_numeric_values_detectably(self):
        injector = FaultInjector(
            profiles={"cache": FaultProfile(corruption_rate=1.0)}
        )
        original = np.float64(0.75)
        corrupted = injector.corrupt("cache", original)
        assert corrupted != original
        assert (
            PredictionCache.fingerprint(corrupted)
            != PredictionCache.fingerprint(original)
        )
        assert injector.corrupt("cache", "text") == "<corrupted>"
        off = FaultInjector()
        assert off.corrupt("cache", original) is original


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self):
        sleep = RecordingSleep()
        metrics = MetricsRegistry()
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.01, max_delay=0.08,
            sleep=sleep, metrics=metrics,
        )
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("transient")
            return "done"

        assert policy.call(flaky) == "done"
        assert len(attempts) == 3
        assert len(sleep.delays) == 2
        assert metrics.snapshot()["counters"]["resilience/retries_total"] == 2

    def test_jitter_stays_within_exponential_caps(self):
        sleep = RecordingSleep()
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.01, max_delay=0.05, sleep=sleep,
        )

        def always_fails():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            policy.call(always_fails)
        # Full jitter: each delay uniform on [0, min(max, base * 2^n)].
        caps = [policy.backoff_cap(n) for n in range(4)]
        assert caps == [0.01, 0.02, 0.04, 0.05]
        assert len(sleep.delays) == 4
        for delay, cap in zip(sleep.delays, caps):
            assert 0.0 <= delay <= cap

    def test_same_seed_replays_same_backoff_schedule(self):
        def schedule(seed):
            sleep = RecordingSleep()
            policy = RetryPolicy(max_attempts=4, sleep=sleep, seed=seed)
            with pytest.raises(RuntimeError):
                policy.call(lambda: (_ for _ in ()).throw(RuntimeError()))
            return sleep.delays

        assert schedule(9) == schedule(9)
        assert schedule(9) != schedule(10)

    def test_budget_stops_retrying_before_deadline_overrun(self):
        sleep = RecordingSleep()
        clock = FakeClock()
        policy = RetryPolicy(
            max_attempts=10, base_delay=1.0, max_delay=1.0,
            sleep=sleep, clock=clock,
        )
        with pytest.raises(RuntimeError, match="nope"):
            policy.call(
                lambda: (_ for _ in ()).throw(RuntimeError("nope")),
                budget=0.0,
            )
        # Any positive backoff overruns a zero budget: no sleeps at all,
        # the last error propagates instead.
        assert sleep.delays == []

    def test_non_retryable_exceptions_propagate_immediately(self):
        calls = []
        policy = RetryPolicy(
            max_attempts=5, retry_on=(KeyError,), sleep=RecordingSleep(),
        )

        def wrong_kind():
            calls.append(1)
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            policy.call(wrong_kind)
        assert len(calls) == 1

    def test_exhaustion_raises_last_error_and_counts(self):
        metrics = MetricsRegistry()
        policy = RetryPolicy(
            max_attempts=3, sleep=RecordingSleep(), metrics=metrics,
        )
        errors = [RuntimeError("a"), RuntimeError("b"), RuntimeError("c")]

        def failing():
            raise errors[0] if len(errors) == 1 else errors.pop(0)

        with pytest.raises(RuntimeError, match="c"):
            policy.call(failing)
        counters = metrics.snapshot()["counters"]
        assert counters["resilience/retry_exhausted_total"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        metrics = MetricsRegistry()
        defaults = dict(
            name="registry", window=8, failure_threshold=0.5,
            min_calls=4, reset_timeout=10.0, half_open_probes=2,
            clock=clock, metrics=metrics,
        )
        defaults.update(kwargs)
        return CircuitBreaker(**defaults), clock, metrics

    def fail(self, breaker, n=4):
        for _ in range(n):
            with pytest.raises(RuntimeError):
                breaker.call(lambda: (_ for _ in ()).throw(RuntimeError()))

    def test_opens_at_failure_threshold_and_fails_fast(self):
        breaker, _clock, metrics = self.make()
        assert breaker.state == "closed"
        self.fail(breaker, 4)
        assert breaker.state == "open"
        with pytest.raises(BreakerOpen) as excinfo:
            breaker.call(lambda: "never runs")
        assert excinfo.value.breaker_name == "registry"
        assert excinfo.value.retry_after > 0
        counters = metrics.snapshot()["counters"]
        assert counters["resilience/breaker/registry/opened_total"] == 1
        assert counters["resilience/breaker/registry/transitions_total"] == 1

    def test_below_min_calls_never_trips(self):
        breaker, _clock, _metrics = self.make(min_calls=6)
        self.fail(breaker, 5)
        assert breaker.state == "closed"

    def test_half_open_probe_success_closes(self):
        breaker, clock, metrics = self.make()
        self.fail(breaker, 4)
        clock.advance(10.1)
        assert breaker.call(lambda: "ok") == "ok"     # first probe
        assert breaker.state == "half_open"
        assert breaker.call(lambda: "ok") == "ok"     # second probe
        assert breaker.state == "closed"
        gauge = metrics.snapshot()["gauges"][
            "resilience/breaker/registry/state"
        ]
        assert gauge == 0.0

    def test_half_open_probe_failure_reopens(self):
        breaker, clock, metrics = self.make()
        self.fail(breaker, 4)
        clock.advance(10.1)
        with pytest.raises(RuntimeError):
            breaker.call(lambda: (_ for _ in ()).throw(RuntimeError()))
        assert breaker.state == "open"
        counters = metrics.snapshot()["counters"]
        assert counters["resilience/breaker/registry/opened_total"] == 2

    def test_half_open_bounds_concurrent_probes(self):
        breaker, clock, _metrics = self.make(half_open_probes=1)
        self.fail(breaker, 4)
        clock.advance(10.1)
        assert breaker.allow()       # the one admitted probe
        assert not breaker.allow()   # probe budget exhausted
        breaker.record(True)
        assert breaker.state == "closed"

    def test_retry_after_counts_down(self):
        breaker, clock, _metrics = self.make(reset_timeout=5.0)
        self.fail(breaker, 4)
        assert breaker.retry_after() == pytest.approx(5.0)
        clock.advance(3.0)
        assert breaker.retry_after() == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(window=0)
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(half_open_probes=0)


# ----------------------------------------------------------------------
# Server degrade decisions
# ----------------------------------------------------------------------
def quiet_policy(**kwargs):
    """A resilience policy whose sleeps are instant (tests stay fast)."""
    defaults = dict(
        max_attempts=3, base_delay=0.0, max_delay=0.0, sleep=lambda _s: None,
    )
    defaults.update(kwargs)
    return ResiliencePolicy(
        retry=RetryPolicy(**defaults),
        registry_breaker=CircuitBreaker(
            name="registry", min_calls=4, reset_timeout=60.0,
        ),
    )


def test_registry_outage_serves_stale_snapshot(model, x):
    injector = FaultInjector()
    server = ModelServer(
        registry=registry_for(model), name="m", cache_size=0,
        resilience=quiet_policy(), fault_injector=injector,
    )
    with server:
        warm = server.predict(x[0])                     # populates last-good
        injector.profiles["registry"] = FaultProfile(error_rate=1.0)
        got = [server.predict(row) for row in x[:12]]
        stats = server.stats()
        health = server.health()
        assert np.array_equal(got, model.predict(x[:12]))
        assert warm == model.predict(x[:1])[0]
        assert stats["stale_model_served"] > 0
        assert health["breakers"]["registry"] == "open"
        assert health["status"] == "degraded"
        assert health["active_model"]["stale"] is True
        assert server.ready()  # stale fallback still answers


def test_probes_on_failing_registry_move_no_counter(model, x):
    injector = FaultInjector()
    server = ModelServer(
        registry=registry_for(model), name="m", cache_size=0,
        resilience=quiet_policy(), fault_injector=injector,
    )
    with server:
        server.predict(x[0])                            # populates last-good
        version = server.health()["active_model"]["version"]
        injector.profiles["registry"] = FaultProfile(error_rate=1.0)
        for _ in range(10):
            assert server.ready()                       # stale still answers
            health = server.health()
        counters = server.metrics.snapshot()["counters"]
        assert health["breakers"]["registry"] == "closed"
        assert health["active_model"] == {
            "name": "m", "version": version, "stale": True,
        }
        for name in (
            "resilience/retries_total",
            "resilience/retry_exhausted_total",
            "resilience/stale_model_served_total",
        ):
            assert counters.get(name, 0.0) == 0, name
        # The probes did read the registry through its chaos site.
        assert counters["resilience/faults/registry/error_total"] == 20


def test_registry_outage_without_snapshot_propagates(model, x):
    injector = FaultInjector(
        profiles={"registry": FaultProfile(error_rate=1.0)}
    )
    server = ModelServer(
        registry=registry_for(model), name="m", cache_size=0,
        resilience=quiet_policy(), fault_injector=injector,
    )
    with server:
        with pytest.raises(InjectedFault):
            server.predict(x[0])
        assert not server.ready()


def test_failed_batch_is_rescued_row_by_row(model, x):
    class PoisonedBatches:
        """Fails multi-row calls; single-row (rescue) calls succeed."""

        def __init__(self, inner):
            self.inner = inner

        def predict(self, batch):
            if batch.shape[0] > 1:
                raise RuntimeError("poisoned batch")
            return self.inner.predict(batch)

    server = ModelServer(
        model=PoisonedBatches(model), cache_size=0, max_batch_size=8,
        batch_timeout=0.05, workers=1,
        resilience=quiet_policy(max_attempts=1),
    )
    with server:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = np.array(list(pool.map(server.predict, x[:16])))
    stats = server.stats()
    assert np.array_equal(got, model.predict(x[:16]))
    assert stats["rescued"] > 0


def test_model_retry_recovers_transient_dispatch_errors(model, x):
    class FlakyModel:
        def __init__(self, inner):
            self.inner = inner
            self.calls = 0
            self._lock = threading.Lock()

        def predict(self, batch):
            with self._lock:
                self.calls += 1
                if self.calls % 2 == 1:
                    raise RuntimeError("transient")
            return self.inner.predict(batch)

    server = ModelServer(
        model=FlakyModel(model), cache_size=0, workers=1,
        resilience=quiet_policy(),
    )
    with server:
        got = np.array(server.predict_many(x[:8]))
    assert np.array_equal(got, model.predict(x[:8]))
    assert server.stats()["retries"] > 0


def test_cache_corruption_detected_and_recomputed(model, x):
    injector = FaultInjector(
        profiles={"cache": FaultProfile(corruption_rate=1.0)}
    )
    server = ModelServer(
        model=model, fault_injector=injector, cache_size=32,
        batch_timeout=0.0, workers=1,
    )
    with server:
        first = server.predict_proba(x[0])    # poisoned on insert
        second = server.predict_proba(x[0])   # mismatch -> recompute
        assert first == second == model.predict_proba(x[:1])[0]
        cache = server.cache.stats()
        assert cache["integrity"] is True
        assert cache["corruptions"] >= 1
        assert server.cache.hits == 0         # the poisoned hit did not count


def test_health_and_ready_probes(model, x):
    with ModelServer(model=model, max_queue=16) as server:
        server.predict(x[0])
        health = server.health()
        assert health["status"] == "ok"
        assert health["queue_capacity"] == 16
        assert 0.0 <= health["queue_saturation"] <= 1.0
        assert health["workers"] == 2
        assert health["active_model"]["version"] == "v0"
        assert health["breakers"] == {}
        assert server.ready()
    assert server.health()["status"] == "closed"
    assert not server.ready()


# ----------------------------------------------------------------------
# Shutdown: typed errors, no abandoned futures (regression)
# ----------------------------------------------------------------------
def test_close_drain_completes_queued_requests():
    released = threading.Event()
    dispatched = []

    def dispatch(method, rows, blocks):
        released.wait(timeout=5.0)
        dispatched.append(len(rows))
        return lambda: [0] * len(rows)

    batcher = MicroBatcher(
        dispatch, max_batch_size=2, batch_timeout=0.0, max_queue=16,
        workers=1,
    )
    requests = [ServeRequest("predict", np.zeros(1)) for _ in range(6)]
    assert batcher.submit_many(requests) == 6
    # Nobody waits on them: the closing thread leads every batch.
    closer = threading.Thread(target=batcher.close, kwargs={"drain": True})
    closer.start()
    released.set()
    closer.join(timeout=5.0)
    assert not closer.is_alive()
    for request in requests:
        assert request.done()
        assert request.error is None
    assert sum(dispatched) == 6


def test_close_without_drain_fails_queued_with_server_closed():
    entered, released = threading.Event(), threading.Event()

    def dispatch(method, rows, blocks):
        entered.set()
        released.wait(timeout=5.0)
        return lambda: [0] * len(rows)

    batcher = MicroBatcher(
        dispatch, max_batch_size=1, batch_timeout=0.0, max_queue=16,
        workers=1,
    )
    requests = [ServeRequest("predict", np.zeros(1)) for _ in range(5)]
    assert batcher.submit_many(requests) == 5
    # A caller waiting on request 0 leads it into dispatch; the rest
    # are still queued.
    leader = threading.Thread(target=batcher.wait, args=(requests[0],))
    leader.start()
    assert entered.wait(timeout=5.0)
    closer = threading.Thread(target=batcher.close, kwargs={"drain": False})
    closer.start()
    released.set()
    closer.join(timeout=5.0)
    leader.join(timeout=5.0)
    assert not closer.is_alive() and not leader.is_alive()
    outcomes = []
    for request in requests:
        assert request.done()  # regression: nobody left waiting forever
        outcomes.append(request.error)
    assert outcomes[0] is None  # the batch in flight completed
    assert all(isinstance(error, ServerClosed) for error in outcomes[1:])


def test_submissions_after_close_raise_typed_error(model, x):
    server = ModelServer(model=model, cache_size=0)
    server.close()
    with pytest.raises(ServerClosed):
        server.predict(x[0])
    with pytest.raises(ServerClosed):
        server.predict_many(x[:2])
    # ServerClosed subclasses RuntimeError: pre-resilience callers that
    # caught RuntimeError keep working.
    assert issubclass(ServerClosed, RuntimeError)


# ----------------------------------------------------------------------
# PredictionCache accounting under concurrency (regression)
# ----------------------------------------------------------------------
def test_cache_stats_consistent_under_interleaved_threads():
    cache = PredictionCache(maxsize=32)
    keys = [
        PredictionCache.make_key("predict", "v1", np.array([float(i)]))
        for i in range(128)
    ]
    lookups_per_thread = 400
    n_threads = 8
    snapshots = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        for _ in range(lookups_per_thread):
            key = keys[int(rng.integers(len(keys)))]
            hit, _value = cache.get(key)
            if not hit:
                cache.put(key, seed)
            if rng.random() < 0.02:
                snapshots.append(cache.stats())

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    final = cache.stats()
    # Size accounting: every insert is matched by an eviction or a live
    # entry — in the final state and in every mid-flight snapshot.
    for snap in snapshots + [final]:
        assert snap["inserts"] - snap["evictions"] == snap["size"]
        assert snap["size"] <= snap["maxsize"]
    assert final["hits"] + final["misses"] == n_threads * lookups_per_thread
    assert final["hits"] > 0 and final["misses"] > 0
    assert final["evictions"] > 0  # 128 hot keys vs 32 slots: LRU churned
    assert len(cache) == final["size"]


def test_cache_clear_and_poisoned_accounting():
    cache = PredictionCache(maxsize=8, integrity=True)
    key = PredictionCache.make_key("predict", "v1", np.array([1.0]))
    cache.put_poisoned(key, np.float64(-9.0), np.float64(1.0))
    hit, value = cache.get(key)
    assert (hit, value) == (False, None)
    assert cache.stats()["corruptions"] == 1
    cache.put(key, np.float64(1.0))
    assert cache.get(key) == (True, np.float64(1.0))
    cache.clear()
    stats = cache.stats()
    assert stats["size"] == 0
    assert stats["inserts"] - stats["evictions"] == 0
