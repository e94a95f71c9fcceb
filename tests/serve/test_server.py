"""Micro-batching equivalence, caching, backpressure and lifecycle."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.linear.logistic import LogisticRegression
from repro.serve import (
    MicroBatcher,
    ModelRegistry,
    ModelServer,
    PredictionCache,
    ResiliencePolicy,
    RetryPolicy,
    ServerClosed,
)
from repro.serve.batching import ServeRequest
from repro.serve.sharding import ShardedModelServer

D = 12


@pytest.fixture
def model():
    return LogisticRegression(D, rng=np.random.default_rng(0))


@pytest.fixture
def x():
    return np.random.default_rng(1).normal(size=(96, D))


class SlowModel:
    """Wraps a model with a per-call delay to force queue build-up."""

    def __init__(self, inner, delay=0.01):
        self.inner = inner
        self.delay = delay
        self.calls = 0

    def predict(self, batch):
        self.calls += 1
        time.sleep(self.delay)
        return self.inner.predict(batch)


# ----------------------------------------------------------------------
# Batching equivalence
# ----------------------------------------------------------------------
def test_microbatched_predictions_bit_identical(model, x):
    """Coalesced labels must equal per-request labels bit for bit."""
    per_request = np.array([model.predict(row)[0] for row in x])
    with ModelServer(model=model, max_batch_size=16, cache_size=0) as server:
        batched = np.array(server.predict_many(x))
        assert server.stats()["mean_batch_size"] > 1.0  # really coalesced
    assert batched.dtype == per_request.dtype
    assert np.array_equal(batched, per_request)


def test_microbatched_probabilities_match_per_request(model, x):
    # Probabilities agree to reduction-order precision (the batch shape
    # changes the BLAS summation order, so bitwise equality is not
    # guaranteed — labels are covered by the bit-identical test above).
    per_request = np.array([model.predict_proba(row)[0] for row in x])
    with ModelServer(model=model, max_batch_size=16, cache_size=0) as server:
        batched = np.array(server.predict_many(x, method="predict_proba"))
    np.testing.assert_allclose(batched, per_request, rtol=0.0, atol=1e-12)


def test_concurrent_single_requests_equivalent(model, x):
    expected = model.predict(x)
    with ModelServer(model=model, max_batch_size=8) as server:
        with ThreadPoolExecutor(max_workers=12) as pool:
            got = np.array(list(pool.map(server.predict, x)))
    assert np.array_equal(got, expected)


def test_single_row_accepts_1d_and_1xn(model, x):
    with ModelServer(model=model) as server:
        a = server.predict(x[0])
        b = server.predict(x[0][np.newaxis, :])
        assert a == b == model.predict(x[:1])[0]
        score = server.decision_function(x[0])
        assert np.isclose(score, model.decision_function(x[:1])[0])


def test_mixed_methods_route_correctly(model, x):
    with ModelServer(model=model, cache_size=0) as server:
        with ThreadPoolExecutor(max_workers=8) as pool:
            labels = pool.map(server.predict, x[:20])
            probas = pool.map(server.predict_proba, x[:20])
            labels, probas = np.array(list(labels)), np.array(list(probas))
    assert np.array_equal(labels, model.predict(x[:20]))
    np.testing.assert_allclose(
        probas, model.predict_proba(x[:20]), rtol=0.0, atol=1e-12
    )


def test_unsupported_method_rejected(model, x):
    with ModelServer(model=model) as server:
        with pytest.raises(ValueError):
            server.request("decision_boundary", x[0])


def test_predict_many_rejects_unsupported_method_before_counting(model, x):
    # Like request(): refused up front, so no row is counted as a
    # request (or a cache miss) that no path will ever account for.
    with ModelServer(model=model) as server:
        server.predict(x[0])
        counters = server.stats()["metrics"]["counters"]
        with pytest.raises(ValueError, match="does not support"):
            server.predict_many(x[:4], method="decision_boundary")
        assert server.stats()["metrics"]["counters"] == counters
        assert counters["serve/requests_total"] == 1


# ----------------------------------------------------------------------
# Prediction cache
# ----------------------------------------------------------------------
def test_cache_hits_and_counters(model, x):
    with ModelServer(model=model) as server:
        first = server.predict(x[0])
        second = server.predict(x[0])
        assert first == second
        counters = server.stats()["metrics"]["counters"]
        assert counters["serve/cache_hits_total"] == 1
        assert counters["serve/cache_misses_total"] == 1
        assert counters["serve/requests_total"] == 2
        # A different method misses: the method is part of the key.
        server.predict_proba(x[0])
        counters = server.stats()["metrics"]["counters"]
        assert counters["serve/cache_misses_total"] == 2


def test_cache_lru_eviction():
    cache = PredictionCache(maxsize=2)
    keys = [
        PredictionCache.make_key("predict", "v1", np.array([float(i)]))
        for i in range(3)
    ]
    cache.put(keys[0], 0)
    cache.put(keys[1], 1)
    assert cache.get(keys[0]) == (True, 0)  # refresh 0; 1 is now LRU
    cache.put(keys[2], 2)
    assert cache.get(keys[1]) == (False, None)
    assert cache.get(keys[0]) == (True, 0)
    assert len(cache) == 2


@pytest.mark.parametrize(
    "rows",
    [
        np.random.default_rng(2).normal(size=(5, 3)),
        np.random.default_rng(2).normal(size=(5, 3)).astype(np.float32),
        np.arange(15, dtype=np.int64).reshape(5, 3),
        np.arange(5, dtype=np.float64),  # 0-d rows
    ],
    ids=["float64", "float32", "int64", "0-d"],
)
def test_make_keys_equal_make_key_row_by_row(rows):
    keys = PredictionCache.make_keys("predict", "v1", rows)
    assert keys == [
        PredictionCache.make_key("predict", "v1", row) for row in rows
    ]
    assert len(set(keys)) == len(rows)


def test_keys_separate_method_version_dtype_and_shape():
    row = np.array([1.0])
    key = PredictionCache.make_key("predict", "v1", row)
    assert key != PredictionCache.make_key("predict_proba", "v1", row)
    assert key != PredictionCache.make_key("predict", "v2", row)
    assert PredictionCache.make_key("ab", "c", row) != (
        PredictionCache.make_key("a", "bc", row)
    )
    # Identical bytes, different dtype.
    as_int = row.view(np.int64)
    assert as_int.tobytes() == row.tobytes()
    assert key != PredictionCache.make_key("predict", "v1", as_int)
    # Identical bytes, different dtype and shape.
    narrow, wide = np.zeros(2, np.float32), np.zeros(1)
    assert narrow.tobytes() == wide.tobytes()
    assert PredictionCache.make_key("predict", "v1", narrow) != (
        PredictionCache.make_key("predict", "v1", wide)
    )
    assert PredictionCache.make_keys(
        "predict", "v1", np.zeros((3, 2), np.float32)
    ) != PredictionCache.make_keys("predict", "v1", np.zeros((3, 1)))


def test_hot_swap_invalidates_cache_by_key():
    registry = ModelRegistry()
    registry.register("m", lambda: LogisticRegression(D, weight_init_std=0.0))
    m1 = LogisticRegression(D, rng=np.random.default_rng(3))
    m2 = LogisticRegression(D, rng=np.random.default_rng(4))
    registry.publish("m", m1)
    row = np.random.default_rng(5).normal(size=D)
    with ModelServer(registry=registry, name="m") as server:
        before = server.predict_proba(row)
        assert np.isclose(before, m1.predict_proba(row)[0])
        registry.publish("m", m2)  # hot-swap; old cache entries unreachable
        after = server.predict_proba(row)
        assert np.isclose(after, m2.predict_proba(row)[0])


# ----------------------------------------------------------------------
# Backpressure, deadlines, degradation
# ----------------------------------------------------------------------
def test_saturation_sheds_without_errors(model, x):
    slow = SlowModel(model, delay=0.02)
    server = ModelServer(
        model=slow, max_batch_size=4, max_queue=4, workers=1,
        batch_timeout=0.0, cache_size=0,
    )
    expected = model.predict(x)
    with server:
        with ThreadPoolExecutor(max_workers=24) as pool:
            got = np.array(list(pool.map(server.predict, x)))
    stats = server.stats()
    # Graceful degradation: every request answered, correctly, while the
    # bounded queue shed overflow to the inline path.
    assert np.array_equal(got, expected)
    assert stats["shed"] > 0
    assert stats["requests"] == len(x)


def test_queue_bound_is_respected():
    calls = []

    def dispatch(method, rows, blocks):
        calls.append(len(rows))
        return lambda: [0] * len(rows)

    batcher = MicroBatcher(
        dispatch, max_batch_size=4, batch_timeout=0.0, max_queue=3, workers=1
    )
    # A burst larger than the bound is only accepted up to the bound.
    requests = [ServeRequest("predict", np.zeros(1)) for _ in range(10)]
    accepted = batcher.submit_many(requests)
    assert accepted == 3
    for request in requests[:accepted]:
        assert batcher.wait(request, timeout=5.0)
    assert calls == [3]  # the first wait led all three as one batch
    batcher.close()


def _lead_on_a_thread(batcher, request):
    """Submit ``request`` and wait on it from a new thread, which leads
    its batch; returns the started thread."""
    assert batcher.submit(request)
    thread = threading.Thread(target=batcher.wait, args=(request,))
    thread.start()
    return thread


def test_batcher_counts_rows_and_coalesces_whole_blocks():
    entered, release = threading.Event(), threading.Event()
    sizes = []

    def dispatch(method, rows, blocks):
        entered.set()
        release.wait(timeout=5.0)
        sizes.append(len(rows))
        return lambda: rows[:, 0]

    batcher = MicroBatcher(
        dispatch, max_batch_size=8, batch_timeout=0.0, max_queue=20, workers=1
    )
    leader = _lead_on_a_thread(
        batcher, ServeRequest("predict", np.zeros((1, 2)))
    )
    assert entered.wait(timeout=5.0)  # the one slot is busy from here on
    blocks = [
        ServeRequest("predict", np.full((n, 2), float(i)))
        for i, n in enumerate([5, 3, 4, 6], start=1)
    ]
    assert batcher.submit_many(blocks) == 4
    assert batcher.depth() == 18  # queued rows, not blocks
    # A block that would overflow the 20-row bound is refused whole.
    assert not batcher.submit(ServeRequest("predict", np.zeros((3, 2))))
    with pytest.raises(ValueError, match="max_batch_size"):
        batcher.submit(ServeRequest("predict", np.zeros((9, 2))))
    release.set()
    for block in blocks:  # this thread leads the queued batches
        assert batcher.wait(block, timeout=5.0)
    leader.join(timeout=5.0)
    assert not leader.is_alive()
    batcher.close()
    # 5 + 3 fill one batch; 4 + 6 would overflow it, so they go apart.
    assert sizes == [1, 8, 4, 6]
    for i, block in enumerate(blocks, start=1):
        assert list(block.result) == [float(i)] * len(block)
    assert batcher.depth() == 0


def test_batcher_dispatches_at_once_when_the_next_block_cannot_join():
    def dispatch(method, rows, blocks):
        return lambda: rows[:, 0]

    batcher = MicroBatcher(
        dispatch, max_batch_size=8, batch_timeout=5.0, max_queue=32, workers=1
    )
    first = ServeRequest("predict", np.zeros((5, 1)))
    leader = _lead_on_a_thread(batcher, first)
    time.sleep(0.05)  # the leader holds 5 rows and waits for stragglers
    start = time.monotonic()
    # 5 + 6 rows overflow the batch: waiting longer cannot fill it.
    second = ServeRequest("predict", np.ones((6, 1)))
    assert batcher.submit(second)
    assert first.event.wait(timeout=2.0)
    assert time.monotonic() - start < 2.0
    leader.join(timeout=2.0)
    assert not leader.is_alive()
    assert batcher.wait(second, timeout=5.0)  # this thread leads it
    batcher.close()
    assert list(second.result) == [1.0] * 6


def test_batcher_row_count_exact_under_concurrent_producers():
    lock = threading.Lock()
    dispatched, answered, depths, errors = [], [], [], []

    def dispatch(method, rows, blocks):
        with lock:
            dispatched.append(len(rows))
        return lambda: rows[:, 0]

    def producer(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(150):
                blocks = [
                    ServeRequest(
                        "predict",
                        np.full((int(rng.integers(1, 9)), 1), float(seed)),
                    )
                    for _ in range(int(rng.integers(1, 4)))
                ]
                taken = blocks[:batcher.submit_many(blocks)]
                # A zero-budget wait cancels a block still queued.
                kept = [
                    block for block in taken
                    if rng.random() >= 0.2 or batcher.wait(block, timeout=0.0)
                ]
                depths.append(batcher.depth())
                for block in kept:
                    if not batcher.wait(block, timeout=5.0):
                        raise AssertionError("block never answered")
                    if not np.array_equal(block.result, block.rows[:, 0]):
                        raise AssertionError("block got another's rows")
                with lock:
                    answered.append(sum(len(block) for block in kept))
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        batcher = MicroBatcher(
            dispatch, max_batch_size=8, batch_timeout=0.0, max_queue=24,
            workers=3,
        )
        threads = [
            threading.Thread(target=producer, args=(seed,))
            for seed in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        batcher.close()
    finally:
        sys.setswitchinterval(previous)
    assert errors == []
    # A lost update to the queued-row count would leave it off zero or
    # let the queue overrun its bound.
    assert batcher.depth() == 0
    assert max(depths) <= 24
    assert max(dispatched) <= 8
    assert sum(dispatched) == sum(answered)


def _accounted(stats):
    """Rows answered by each path; sums to the requests (CLI identity)."""
    counters = stats["metrics"]["counters"]
    return (
        counters.get("serve/cache_hits_total", 0.0)
        + stats["shed"]
        + stats["deadline_expired"]
        + stats["metrics"]["histograms"].get("serve/batch_size", {}).get(
            "sum", 0.0
        )
        + stats["rescued"]
    )


def _in_process(model, **knobs):
    return ModelServer(model=model, workers=1, **knobs)


def _one_shard(model, **knobs):
    return ShardedModelServer(model=model, n_shards=1, n_features=D, **knobs)


# The request lifecycle both tiers share, driven on each: one dispatch
# worker in-process, or one worker process behind the ring.
both_tiers = pytest.mark.parametrize(
    "make_server", [_in_process, _one_shard], ids=["in_process", "one_shard"]
)


@both_tiers
def test_predict_many_queues_row_blocks_and_counts_rows(make_server, model, x):
    rows = x[:40]
    server = make_server(
        SlowModel(model, delay=0.01), max_batch_size=8, max_queue=16,
        batch_timeout=0.0,
    )
    with server:
        for row in rows[[3, 17, 29]]:
            server.predict(row)  # already cached when the block arrives
        server.metrics.reset()
        got = server.predict_many(rows)
        stats = server.stats()
        depth = server.health()["queue_depth"]
    counters = stats["metrics"]["counters"]
    histograms = stats["metrics"]["histograms"]
    assert np.array_equal(np.array(got), model.predict(rows))
    assert counters["serve/requests_total"] == 40
    assert counters["serve/cache_hits_total"] == 3
    # 37 misses queue as blocks of 8, 8, 8, 8, 5; the 16-row queue takes
    # the first two and the other 21 rows are shed inline.
    assert stats["shed"] == 21
    assert histograms["serve/batch_size"]["sum"] == 16
    assert histograms["serve/batch_size"]["max"] <= 8
    assert _accounted(stats) == 40
    assert histograms["serve/latency_seconds"]["count"] == 40
    assert depth == 0
    assert stats["metrics"]["gauges"]["serve/queue_depth"] == 0


def test_failed_block_is_rescued_and_counted_in_rows(model, x):
    class FailsOneCall:
        """Fails the first batched call; every other call succeeds."""

        def __init__(self, inner):
            self.inner = inner
            self.failed = False

        def predict(self, batch):
            if len(batch) > 1 and not self.failed:
                self.failed = True
                raise RuntimeError("one bad batch")
            return self.inner.predict(batch)

    server = ModelServer(
        model=FailsOneCall(model), max_batch_size=8, max_queue=16,
        workers=1, batch_timeout=0.0, cache_size=0,
        resilience=ResiliencePolicy(retry=RetryPolicy(max_attempts=1)),
    )
    with server:
        got = server.predict_many(x[:24])
        stats = server.stats()
    assert np.array_equal(np.array(got), model.predict(x[:24]))
    assert stats["rescued"] == 8  # the failed block's rows
    assert stats["shed"] == 8
    assert _accounted(stats) == stats["requests"] == 24


@both_tiers
def test_deadline_expiry_degrades_to_inline(make_server, model, x):
    slow = SlowModel(model, delay=0.05)
    server = make_server(
        slow, max_batch_size=2, max_queue=64, batch_timeout=0.0,
        cache_size=0,
    )
    expected = model.predict(x[:12])
    with server:
        with ThreadPoolExecutor(max_workers=12) as pool:
            got = np.array(
                list(pool.map(lambda row: server.predict(row, deadline=0.01),
                              x[:12]))
            )
    stats = server.stats()
    assert np.array_equal(got, expected)  # deadlines never cost correctness
    assert stats["deadline_expired"] > 0
    assert _accounted(stats) == stats["requests"] == 12


def test_dispatch_errors_propagate_to_callers(x):
    class Exploding:
        def predict(self, batch):
            raise RuntimeError("kaboom")

    with ModelServer(model=Exploding(), cache_size=0) as server:
        with pytest.raises(RuntimeError, match="kaboom"):
            server.predict(x[0])


# ----------------------------------------------------------------------
# Lifecycle and metrics accounting
# ----------------------------------------------------------------------
def test_close_drains_and_further_requests_rejected(model, x):
    server = ModelServer(model=model, cache_size=0)
    assert server.predict(x[0]) == model.predict(x[:1])[0]
    server.close()
    server.close()  # idempotent
    assert server.closed
    with pytest.raises(RuntimeError):
        server.predict(x[0])
    with pytest.raises(RuntimeError):
        server.predict_many(x[:2])


def test_metrics_account_for_every_request(model, x):
    with ModelServer(model=model, max_batch_size=8, cache_size=0) as server:
        server.predict_many(x)
        snapshot = server.stats()
    counters = snapshot["metrics"]["counters"]
    histograms = snapshot["metrics"]["histograms"]
    assert counters["serve/requests_total"] == len(x)
    # Every non-shed request went through exactly one dispatched batch.
    assert histograms["serve/batch_size"]["sum"] + snapshot["shed"] == len(x)
    assert histograms["serve/latency_seconds"]["count"] == len(x)
    assert snapshot["metrics"]["gauges"]["serve/queue_depth"] == 0
    assert "latency_p50_ms" in snapshot and "latency_p99_ms" in snapshot


def test_registry_server_requires_name(model):
    with pytest.raises(ValueError):
        ModelServer(model=model, registry=ModelRegistry())
    with pytest.raises(ValueError):
        ModelServer(registry=ModelRegistry())
    with pytest.raises(ValueError):
        ModelServer()


# ----------------------------------------------------------------------
# A lone block leads its own batch on the calling thread
# ----------------------------------------------------------------------
class ThreadRecorder:
    """Wraps a model and records which thread made each call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def predict(self, batch):
        self.calls.append((threading.current_thread(), len(batch)))
        return self.inner.predict(batch)


def test_lone_full_block_is_scored_on_the_calling_thread_keyed_once(
    model, x, monkeypatch
):
    hashed = []
    make_keys = PredictionCache.make_keys

    def counting_make_keys(method, version, rows):
        hashed.append(len(rows))
        return make_keys(method, version, rows)

    monkeypatch.setattr(
        PredictionCache, "make_keys", staticmethod(counting_make_keys)
    )
    recorder = ThreadRecorder(model)
    with ModelServer(model=recorder, max_batch_size=32) as server:
        got = server.predict_many(x[:32])
        stats = server.stats()
        cached = server.cache.get_many(make_keys("predict", "v0", x[:32]))
    assert np.array_equal(np.array(got), model.predict(x[:32]))
    assert recorder.calls == [(threading.current_thread(), 32)]
    # Looked up and filed under the same keys: each row hashed once.
    assert hashed == [32]
    assert [value for hit, value in cached if hit] == got
    assert stats["batches"] == 1 and stats["mean_batch_size"] == 32
    assert _accounted(stats) == stats["requests"] == 32


@pytest.mark.parametrize("rows", [31, 64, 1], ids=["partial", "two_blocks",
                                                   "single_rows"])
def test_one_block_calls_lead_and_multi_block_calls_use_the_workers(
    model, x, rows
):
    recorder = ThreadRecorder(model)
    with ModelServer(model=recorder, max_batch_size=32, cache_size=0) as server:
        if rows == 1:
            got = [server.predict(row) for row in x[:4]]
            expected = model.predict(x[:4])
        else:
            got = server.predict_many(x[:rows])
            expected = model.predict(x[:rows])
    assert np.array_equal(np.array(got), expected)
    # One block leads its own batch on the calling thread; two blocks
    # queue, and the caller waiting on them leads both batches.
    assert {thread for thread, _size in recorder.calls} == {
        threading.current_thread()
    }
    if rows == 64:
        assert [size for _thread, size in recorder.calls] == [32, 32]


def test_led_single_row_sets_the_depth_gauge_once(model, x, monkeypatch):
    depths = []
    depth = MicroBatcher.depth

    def counting_depth(self):
        depths.append(threading.current_thread())
        return depth(self)

    monkeypatch.setattr(MicroBatcher, "depth", counting_depth)
    with ModelServer(model=model, batch_timeout=0.0, cache_size=0) as server:
        got = server.predict(x[0])
        # The led block never queued: only its dispatch reads the depth.
        assert depths == [threading.current_thread()]
    assert got == model.predict(x[:1])[0]


@pytest.fixture
def hashed(monkeypatch):
    """Rows per :meth:`PredictionCache.make_keys` call, in call order."""
    rows = []
    make_keys = PredictionCache.make_keys

    def counting_make_keys(method, version, block):
        rows.append(len(block))
        return make_keys(method, version, block)

    monkeypatch.setattr(
        PredictionCache, "make_keys", staticmethod(counting_make_keys)
    )
    return rows


class HoldsTheSlot(ThreadRecorder):
    """Holds every full 32-row call until ``release`` is set."""

    def __init__(self, inner):
        super().__init__(inner)
        self.entered, self.release = threading.Event(), threading.Event()

    def predict(self, batch):
        if len(batch) == 32:
            self.entered.set()
            self.release.wait(timeout=10.0)
        return super().predict(batch)


def _while_the_slot_is_held(server, holder, rows, call):
    """Run ``call`` on a thread while ``holder`` scores ``rows``, a full
    block that holds the server's one dispatch slot.

    Returns the call's result, and the thread it ran on, once its blocks
    were seen queued and the slot was given back.
    """
    held = threading.Thread(target=server.predict_many, args=(rows,))
    held.start()
    assert holder.entered.wait(timeout=5.0)
    answers = []
    caller = threading.Thread(target=lambda: answers.append(call()))
    caller.start()
    deadline = time.monotonic() + 5.0
    while server.health()["queue_depth"] == 0:
        assert time.monotonic() < deadline, "the call never queued"
        time.sleep(0.001)
    holder.release.set()
    held.join(timeout=5.0)
    caller.join(timeout=5.0)
    assert not held.is_alive() and not caller.is_alive()
    return answers[0], caller


@pytest.mark.parametrize("rows", [31, 1], ids=["partial", "single_rows"])
def test_one_block_calls_queue_for_the_workers_while_every_slot_is_busy(
    model, x, rows
):
    recorder = HoldsTheSlot(model)
    server = ModelServer(
        model=recorder, max_batch_size=32, workers=1, cache_size=0
    )
    with server:
        if rows == 1:
            got, caller = _while_the_slot_is_held(
                server, recorder, x[32:64], lambda: server.predict(x[0])
            )
            got = [got]
        else:
            got, caller = _while_the_slot_is_held(
                server, recorder, x[32:64],
                lambda: server.predict_many(x[:rows]),
            )
    assert np.array_equal(np.array(got), model.predict(x[:rows]))
    # Queued, then scored on its own thread once the slot was free.
    queued = [thread for thread, size in recorder.calls if size == rows]
    assert queued == [caller]
    assert _accounted(server.stats()) == 32 + rows


def test_block_submitted_during_a_fill_joins_that_batch(model, x, hashed):
    recorder = ThreadRecorder(model)
    server = ModelServer(model=recorder, max_batch_size=2, batch_timeout=2.0)
    with server:
        answers = []
        first = threading.Thread(
            target=lambda: answers.append(server.predict(x[0]))
        )
        first.start()
        time.sleep(0.1)  # its batch is filling: it has room for one row
        start = time.monotonic()
        second = server.predict(x[1])
        elapsed = time.monotonic() - start
        first.join(timeout=5.0)
        stats = server.stats()
        filed = len(server.cache)
    assert answers == [model.predict(x[:1])[0]]
    assert second == model.predict(x[1:2])[0]
    # The idle worker did not open a second batch: one dispatch of both
    # rows, sent as soon as the second row filled it.
    assert [size for _thread, size in recorder.calls] == [2]
    assert stats["batches"] == 1 and elapsed < 1.0
    # Each row was keyed by its own lookup and filed under those keys.
    assert hashed == [1, 1] and filed == 2


def test_leader_dispatches_by_its_deadline(model, x):
    recorder = ThreadRecorder(model)
    server = ModelServer(model=recorder, batch_timeout=5.0, cache_size=0)
    with server:
        start = time.monotonic()
        got = server.predict(x[0], deadline=0.05)
        elapsed = time.monotonic() - start
        stats = server.stats()
    assert got == model.predict(x[:1])[0]
    assert elapsed < 1.0
    # Scored in a batch it led, not by the deadline's inline fallback.
    assert recorder.calls == [(threading.current_thread(), 1)]
    assert stats["batches"] == 1 and stats["deadline_expired"] == 0


def test_close_during_a_leaders_fill_dispatches_what_it_holds(model, x):
    events = []

    class Recording:
        def predict(self, batch):
            time.sleep(0.05)
            events.append(("scored", threading.current_thread()))
            return model.predict(batch)

    server = ModelServer(model=Recording(), batch_timeout=10.0, cache_size=0)
    answers = []
    caller = threading.Thread(
        target=lambda: answers.append(server.predict(x[0]))
    )
    caller.start()
    time.sleep(0.1)  # the caller leads its batch and waits for stragglers
    start = time.monotonic()
    server.close()
    events.append(("closed", threading.current_thread()))
    caller.join(timeout=5.0)
    assert not caller.is_alive()
    assert time.monotonic() - start < 5.0
    assert answers == [model.predict(x[:1])[0]]
    assert events == [("scored", caller), ("closed", threading.current_thread())]


def test_queued_single_row_is_hashed_once(model, x, hashed):
    recorder = HoldsTheSlot(model)
    with ModelServer(model=recorder, max_batch_size=32, workers=1) as server:
        got, _caller = _while_the_slot_is_held(
            server, recorder, x[32:64], lambda: server.predict(x[0])
        )
        filed = len(server.cache)
    assert got == model.predict(x[:1])[0]
    # The holder's rows and the queued row, each keyed once by its
    # lookup; the dispatches filed them under those keys.
    assert sorted(hashed) == [1, 32] and filed == 33


def test_multi_block_call_hashes_each_row_once(model, x, hashed):
    with ModelServer(model=model, max_batch_size=32) as server:
        got = server.predict_many(x[:64])
        filed = len(server.cache)
    assert np.array_equal(np.array(got), model.predict(x[:64]))
    assert hashed == [64] and filed == 64


class ConcurrencyProbe:
    """A slow model that records the most calls it ever ran at once."""

    def __init__(self, inner, delay):
        self.inner = inner
        self.delay = delay
        self.lock = threading.Lock()
        self.running = 0
        self.high_water = 0
        self.threads = set()

    def predict(self, batch):
        with self.lock:
            self.running += 1
            self.high_water = max(self.high_water, self.running)
            self.threads.add(threading.current_thread().name)
        try:
            time.sleep(self.delay)
            return self.inner.predict(batch)
        finally:
            with self.lock:
                self.running -= 1


def test_callers_and_workers_never_exceed_the_dispatch_slots(model, x):
    probe = ConcurrencyProbe(model, delay=0.002)
    server = ModelServer(
        model=probe, max_batch_size=8, batch_timeout=0.0, max_queue=256,
        workers=2, cache_size=0,
    )
    errors = []

    def caller(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(15):
                lo = int(rng.integers(0, len(x) - 20))
                lone = server.predict_many(x[lo:lo + 8])  # one full block
                bulk = server.predict_many(x[lo:lo + 20])  # 3 queued blocks
                single = server.predict(x[lo])
                if not (
                    np.array_equal(lone, model.predict(x[lo:lo + 8]))
                    and np.array_equal(bulk, model.predict(x[lo:lo + 20]))
                    and single == model.predict(x[lo:lo + 1])[0]
                ):
                    raise AssertionError("wrong answer")
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=caller, args=(seed,)) for seed in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        # close() waits for every slot to come back: a lost update to the
        # in-flight count would hang it, or have let a third call run.
        closer = threading.Thread(target=server.close)
        closer.start()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert errors == []
    stats = server.stats()
    assert stats["shed"] == 0  # every model call held a dispatch slot
    assert probe.high_water == 2
    # Every dispatcher was a caller: no model call ran on another thread.
    assert probe.threads <= {thread.name for thread in threads}


def test_fills_and_joins_keep_every_invariant_under_concurrent_callers(
    model, x
):
    probe = ConcurrencyProbe(model, delay=0.001)
    server = ModelServer(
        model=probe, max_batch_size=8, batch_timeout=0.002, max_queue=256,
        workers=2, cache_size=0,
    )
    errors = []

    def caller(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(20):
                lo = int(rng.integers(0, len(x) - 20))
                n = int(rng.choice([1, 1, 1, 3, 8, 20]))
                if n == 1:
                    ok = server.predict(x[lo]) == model.predict(x[lo:lo + 1])[0]
                else:
                    ok = np.array_equal(
                        server.predict_many(x[lo:lo + n]),
                        model.predict(x[lo:lo + n]),
                    )
                if not ok:
                    raise AssertionError("wrong answer")
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=caller, args=(seed,)) for seed in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        depth = server.health()["queue_depth"]
        closer = threading.Thread(target=server.close)
        closer.start()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert errors == []
    stats = server.stats()
    # Leaders, joiners and workers shared two slots, every block landed
    # in exactly one batch of at most 8 rows, and none was left queued.
    assert probe.high_water <= 2 and stats["shed"] == 0
    assert stats["metrics"]["histograms"]["serve/batch_size"]["max"] <= 8
    assert _accounted(stats) == stats["requests"]
    assert depth == 0


def test_close_waits_for_a_callers_dispatch(model, x):
    entered, release = threading.Event(), threading.Event()
    events = []

    class Blocking:
        def predict(self, batch):
            entered.set()
            release.wait(timeout=10.0)
            events.append("scored")
            return model.predict(batch)

    server = ModelServer(model=Blocking(), max_batch_size=32, cache_size=0)
    answers = []
    caller = threading.Thread(
        target=lambda: answers.append(server.predict_many(x[:32]))
    )
    caller.start()
    assert entered.wait(timeout=5.0)

    def close():
        server.close(drain=True)
        events.append("closed")

    closer = threading.Thread(target=close)
    closer.start()
    deadline = time.monotonic() + 5.0
    while not server.closed and time.monotonic() < deadline:
        time.sleep(0.001)
    closer.join(timeout=0.2)
    assert closer.is_alive()  # held by the dispatch on the caller's thread
    with pytest.raises(ServerClosed):
        server.predict_many(x[32:64])
    release.set()
    closer.join(timeout=5.0)
    caller.join(timeout=5.0)
    assert not closer.is_alive() and not caller.is_alive()
    assert events == ["scored", "closed"]
    assert np.array_equal(answers[0], model.predict(x[:32]))


def test_try_dispatch_refuses_once_closing_and_when_slots_are_busy():
    entered, release = threading.Event(), threading.Event()

    def blocking(method, rows, blocks):
        entered.set()
        release.wait(timeout=5.0)
        return lambda: rows[:, 0]

    batcher = MicroBatcher(blocking, max_batch_size=2, workers=1)
    queued = ServeRequest("predict", np.zeros((2, 1)))
    leader = _lead_on_a_thread(batcher, queued)
    assert entered.wait(timeout=5.0)  # the one slot is the leader's
    lone = ServeRequest("predict", np.ones((2, 1)))
    assert not batcher.try_dispatch(lone)
    assert not lone.done()
    release.set()
    assert queued.event.wait(timeout=5.0)
    leader.join(timeout=5.0)
    assert not leader.is_alive()
    batcher.close()
    with pytest.raises(ServerClosed):
        batcher.try_dispatch(lone)


def test_blocks_join_a_filling_batch_until_one_cannot():
    sizes = []

    def dispatch(method, rows, blocks):
        sizes.append(len(rows))
        return lambda: rows[:, 0]

    batcher = MicroBatcher(
        dispatch, max_batch_size=4, batch_timeout=5.0, workers=2
    )
    leader = _lead_on_a_thread(
        batcher, ServeRequest("predict", np.zeros((1, 1)))
    )
    time.sleep(0.05)  # the leader holds it and waits for stragglers
    lone = ServeRequest("predict", np.ones((1, 1)))
    # A slot is free, but a batch is filling: the block may not lead.
    assert not batcher.try_dispatch(lone) and not lone.done()
    assert batcher.submit(lone)
    assert batcher.depth() == 0  # it joined the filling batch
    # Three more rows overflow the batch: it dispatches at once.
    big = ServeRequest("predict", np.full((3, 1), 2.0))
    assert batcher.submit(big)
    assert lone.event.wait(timeout=2.0)
    assert list(lone.result) == [1.0]
    leader.join(timeout=2.0)
    assert not leader.is_alive()
    batcher.close()  # leads the block nobody waits on
    assert list(big.result) == [2.0] * 3
    assert sizes == [2, 3]


class FailsBatches:
    """Fails every multi-row call; single rows (the rescue) succeed."""

    def __init__(self, inner):
        self.inner = inner
        self.failed_on = []

    def predict(self, batch):
        if len(batch) > 1:
            self.failed_on.append(threading.current_thread())
            raise RuntimeError("bad batch")
        return self.inner.predict(batch)


def test_failed_callers_dispatch_is_rescued_in_rows(model, x):
    failing = FailsBatches(model)
    server = ModelServer(
        model=failing, max_batch_size=32, cache_size=0,
        resilience=ResiliencePolicy(retry=RetryPolicy(max_attempts=1)),
    )
    with server:
        got = server.predict_many(x[:32])
        stats = server.stats()
    assert np.array_equal(np.array(got), model.predict(x[:32]))
    assert failing.failed_on == [threading.current_thread()]
    assert stats["rescued"] == stats["requests"] == 32
    assert stats["batches"] == 0 and stats["shed"] == 0


def test_rows_of_batches_that_all_failed_are_accounted(model, x):
    failing = FailsBatches(model)
    server = ModelServer(
        model=failing, max_batch_size=32, cache_size=0,
        resilience=ResiliencePolicy(retry=RetryPolicy(max_attempts=1)),
    )
    with server:
        got = server.predict_many(x[:64])
        stats = server.stats()
    assert np.array_equal(np.array(got), model.predict(x[:64]))
    assert len(failing.failed_on) == 2 and stats["batches"] == 0
    # No batch succeeded, so no batch-size histogram exists: it counts 0.
    assert "serve/batch_size" not in stats["metrics"]["histograms"]
    assert _accounted(stats) == stats["rescued"] == stats["requests"] == 64


def test_failed_callers_dispatch_reraises_without_a_policy(model, x):
    failing = FailsBatches(model)
    with ModelServer(model=failing, max_batch_size=32, cache_size=0) as server:
        with pytest.raises(RuntimeError, match="bad batch"):
            server.predict_many(x[:32])
        assert server.stats()["rescued"] == 0
    assert failing.failed_on == [threading.current_thread()]


def test_publish_between_lookup_and_callers_dispatch_keys_by_scorer(x):
    scored_on = []

    class Recording(LogisticRegression):
        def predict_proba(self, batch):
            scored_on.append(threading.current_thread())
            return super().predict_proba(batch)

    registry = ModelRegistry()
    registry.register("m", lambda: Recording(D, weight_init_std=0.0))
    m1 = Recording(D, rng=np.random.default_rng(3))
    m2 = Recording(D, rng=np.random.default_rng(4))
    old = registry.publish("m", m1)
    rows = x[:32]
    with ModelServer(registry=registry, name="m", max_batch_size=32) as server:
        lookup = server.cache.get_many
        published = []

        def lookup_then_publish(keys):
            found = lookup(keys)
            if not published:  # lands after the lookup, before dispatch
                published.append(registry.publish("m", m2))
            return found

        server.cache.get_many = lookup_then_publish
        got = server.predict_many(rows, method="predict_proba")
        assert scored_on == [threading.current_thread()]
        del server.cache.get_many
        new = published[0]
        under_old = server.cache.get_many(
            PredictionCache.make_keys("predict_proba", old, rows)
        )
        under_new = server.cache.get_many(
            PredictionCache.make_keys("predict_proba", new, rows)
        )
    assert old != new
    expected = m2.predict_proba(rows)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)
    # Filed under the version that scored them, never the lookup's.
    assert not any(hit for hit, _value in under_old)
    assert all(hit for hit, _value in under_new)
    np.testing.assert_allclose(
        [value for _hit, value in under_new], expected, rtol=0.0, atol=1e-12
    )


# ----------------------------------------------------------------------
# Callers are the only dispatchers: the hand-offs a queued block needs
# ----------------------------------------------------------------------
def _until(predicate, timeout=5.0):
    """Poll ``predicate`` until it holds; fail after ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def test_a_release_strands_no_caller_whose_block_is_still_queued():
    entered, release = threading.Event(), threading.Event()
    batches = []

    def dispatch(method, rows, blocks):
        if len(rows) == 32:  # the lead holding the one slot
            entered.set()
            release.wait(timeout=10.0)
        batches.append((method, len(rows)))
        return lambda: rows[:, 0]

    batcher = MicroBatcher(
        dispatch, max_batch_size=32, batch_timeout=0.0, workers=1
    )
    holder = ServeRequest("predict", np.zeros((32, 1)))
    leader = threading.Thread(target=batcher.try_dispatch, args=(holder,))
    leader.start()
    assert entered.wait(timeout=5.0)
    b = ServeRequest("predict", np.full((1, 1), 1.0))
    c = ServeRequest("predict", np.full((1, 1), 2.0))
    d = ServeRequest("predict_proba", np.full((1, 1), 3.0))
    waiters = []
    for block in (b, c, d):  # queued, and asleep, in this order
        assert batcher.submit(block)
        waiters.append(threading.Thread(
            target=batcher.wait, args=(block,), daemon=True
        ))
        waiters[-1].start()
        _until(lambda: len(batcher._cond._waiters) == len(waiters))
    release.set()
    for thread in [leader, *waiters]:
        thread.join(timeout=5.0)
    # The lead that took B also took C; its release woke C, whose block
    # was answered, and D too, which then led its own batch.
    assert not any(thread.is_alive() for thread in [leader, *waiters])
    assert batches == [("predict", 32), ("predict", 2), ("predict_proba", 1)]
    assert [b.result[0], c.result[0], d.result[0]] == [1.0, 2.0, 3.0]
    batcher.close()


def test_a_cancel_wakes_a_deadline_waiter_it_moves_into_the_head_batch():
    """Cancelling the head block makes the next one the head batch; its
    deadline waiter, asleep because it could not lead a batch without
    its block, is woken to lead it instead of sleeping to its timeout."""
    batches = []

    def dispatch(method, rows, blocks):
        batches.append(len(rows))
        return lambda: rows[:, 0]

    batcher = MicroBatcher(dispatch, max_batch_size=8, batch_timeout=0.0)
    first = ServeRequest("predict", np.zeros((6, 1)))
    second = ServeRequest("predict", np.ones((5, 1)))
    assert batcher.submit_many([first, second]) == 2
    answered = []
    waiter = threading.Thread(
        target=lambda: answered.append(batcher.wait(second, timeout=3.0)),
        daemon=True,
    )
    waiter.start()
    _until(lambda: len(batcher._cond._waiters) == 1)
    assert batcher.wait(first, 0.0) is False
    waiter.join(timeout=10.0)
    assert not waiter.is_alive()
    assert answered == [True]
    assert batches == [5]
    assert list(second.result) == [1.0] * 5
    batcher.close()


def test_deadline_expiring_in_the_queue_answers_inline_and_cancels(model, x):
    recorder = HoldsTheSlot(model)
    server = ModelServer(
        model=recorder, max_batch_size=32, workers=1, cache_size=0
    )
    with server:
        held = threading.Thread(target=server.predict_many, args=(x[32:64],))
        held.start()
        assert recorder.entered.wait(timeout=5.0)
        got = server.predict(x[0], deadline=0.05)
        recorder.release.set()
        held.join(timeout=5.0)
        assert not held.is_alive()
    stats = server.stats()
    assert got == model.predict(x[:1])[0]
    assert stats["deadline_expired"] == 1
    # Answered inline on this thread; the cancelled row rode in no batch.
    assert sorted(recorder.calls, key=lambda call: call[1]) == [
        (threading.current_thread(), 1), (held, 32)
    ]
    assert stats["batches"] == 1
    assert _accounted(stats) == stats["requests"] == 33


class HoldsProba(HoldsTheSlot):
    """Also holds every ``predict_proba`` call until ``proba_release``."""

    def __init__(self, inner):
        super().__init__(inner)
        self.proba_release = threading.Event()

    def predict_proba(self, batch):
        self.proba_release.wait(timeout=5.0)
        self.calls.append((threading.current_thread(), len(batch)))
        return self.inner.predict_proba(batch)


def test_a_deadline_caller_leads_no_batch_without_its_block(model, x):
    recorder = HoldsProba(model)
    server = ModelServer(
        model=recorder, max_batch_size=32, workers=1, cache_size=0
    )
    with server:
        batcher = server._batchers[0]
        held = threading.Thread(target=server.predict_many, args=(x[32:64],))
        held.start()
        assert recorder.entered.wait(timeout=5.0)
        # A predict_proba block heads the queue; nobody waits on it yet.
        proba = ServeRequest("predict_proba", x[1:3])
        assert batcher.submit(proba)
        answers = []

        def call():
            start = time.monotonic()
            answers.append(server.predict(x[0], deadline=0.05))
            answers.append(time.monotonic() - start)

        caller = threading.Thread(target=call)
        caller.start()
        _until(lambda: batcher.depth() == 3)
        # The slot frees while the caller waits: leading the proba batch
        # would hold it until ``proba_release``.
        recorder.release.set()
        held.join(timeout=5.0)
        caller.join(timeout=2.0)
        assert not caller.is_alive(), "the deadline caller led the proba batch"
        recorder.proba_release.set()
        assert batcher.wait(proba)
        stats = server.stats()
    got, elapsed = answers
    assert got == model.predict(x[:1])[0] and elapsed < 0.5
    assert stats["deadline_expired"] == 1
    np.testing.assert_allclose(
        proba.result, model.predict_proba(x[1:3]), rtol=0.0, atol=1e-12
    )
    # The caller scored its own row inline; the proba batch was led here.
    assert (caller, 1) in recorder.calls
    assert (threading.current_thread(), 2) in recorder.calls


class FailsInline:
    """Fails every single-row call (the inline path); batches succeed."""

    def __init__(self, inner):
        self.inner = inner

    def predict(self, batch):
        if len(batch) == 1:
            raise ValueError("inline scoring fails")
        return self.inner.predict(batch)

    def predict_proba(self, batch):
        return self.inner.predict_proba(batch)


def test_a_call_that_raises_leaves_no_block_queued(model, x):
    server = ModelServer(
        model=FailsInline(model), max_batch_size=2, max_queue=3, workers=1,
        cache_size=0,
    )
    with server:
        # One block queues and two are shed, whose inline scoring raises.
        with pytest.raises(ValueError, match="inline"):
            server.predict_many(x[:6])
        assert server.health()["queue_depth"] == 0
        # So a deadline caller finds no orphan ahead of it.
        got = server.predict_proba(x[6], deadline=0.05)
        stats = server.stats()
    np.testing.assert_allclose(
        got, model.predict_proba(x[6:7])[0], rtol=0.0, atol=1e-12
    )
    assert stats["deadline_expired"] == 0


class Interrupt(BaseException):
    """Stands in for KeyboardInterrupt inside a dispatch."""


def test_fan_out_finishes_every_started_batch_when_one_raises():
    def interrupted(method, rows, blocks):
        def finish():
            raise Interrupt()
        return finish

    def scores(method, rows, blocks):
        return lambda: rows[:, 0]

    first = MicroBatcher(interrupted, batch_timeout=0.0, workers=1)
    second = MicroBatcher(scores, batch_timeout=0.0, workers=1)
    a = ServeRequest("predict", np.full((2, 1), 1.0))
    b = ServeRequest("predict", np.full((2, 1), 2.0))
    assert first.submit(a) and second.submit(b)
    with pytest.raises(Interrupt):
        MicroBatcher.fan_out([(first, a), (second, b)])
    # Both batches were finished and gave their slots back.
    assert isinstance(a.error, Interrupt) and list(b.result) == [2.0, 2.0]
    assert first._busy == second._busy == 0
    first.close()
    second.close()


@pytest.mark.parametrize("drain", [True, False], ids=["drain", "no_drain"])
def test_close_answers_a_block_nobody_waits_on(drain):
    def dispatch(method, rows, blocks):
        return lambda: rows[:, 0]

    batcher = MicroBatcher(dispatch, max_batch_size=4, workers=1)
    abandoned = ServeRequest("predict", np.full((2, 1), 7.0))
    assert batcher.submit(abandoned)
    closer = threading.Thread(target=batcher.close, kwargs={"drain": drain})
    closer.start()
    closer.join(timeout=5.0)
    assert not closer.is_alive() and abandoned.done()
    if drain:  # led by the closing thread
        assert abandoned.error is None
        assert list(abandoned.result) == [7.0, 7.0]
    else:
        assert isinstance(abandoned.error, ServerClosed)
    assert batcher.depth() == 0


def test_an_in_process_server_starts_no_thread(model, x):
    before = threading.active_count()
    with ModelServer(model=model, max_batch_size=8) as server:
        assert threading.active_count() == before
        server.predict(x[0])
        server.predict_many(x[:40])
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(server.predict, x[40:60]))
        serving = threading.active_count()
    assert serving == before
    assert threading.active_count() == before
