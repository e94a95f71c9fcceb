"""Sharded tier: equivalence, chaos recovery, hot-swap, health."""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.linear.logistic import LogisticRegression
from repro.serve import ModelRegistry, ModelServer, ServerClosed
from repro.serve.sharding import ShardedModelServer
from repro.serve.sharding.hashing import routing_key
from repro.telemetry.trace import Tracer

D = 12


@pytest.fixture
def model():
    return LogisticRegression(D, rng=np.random.default_rng(0))


@pytest.fixture
def x():
    return np.random.default_rng(1).normal(size=(96, D))


@pytest.fixture
def server(model):
    srv = ShardedModelServer(
        model=model, n_shards=2, monitor_interval=0.02,
        batch_timeout=0.001,
    )
    yield srv
    srv.close()


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


# ----------------------------------------------------------------------
# Equivalence with the direct model
# ----------------------------------------------------------------------
def test_sharded_labels_bit_identical(server, model, x):
    got = np.asarray(server.predict_many(x))
    assert np.array_equal(got, model.predict(x))


def test_sharded_probabilities_match(server, model, x):
    got = np.asarray(server.predict_many(x, method="predict_proba"))
    np.testing.assert_allclose(got, model.predict_proba(x), atol=1e-12)


def test_single_request_paths(server, model, x):
    assert server.predict(x[0]) == model.predict(x[:1])[0]
    assert server.predict_proba(x[1]) == pytest.approx(
        model.predict_proba(x[:2])[1], abs=1e-12
    )


def test_unsupported_method_raises(server, x):
    with pytest.raises(ValueError, match="does not support"):
        server.request("transform", x[0])


def test_same_row_always_routes_to_same_shard(model, x):
    srv = ShardedModelServer(
        model=model, n_shards=2, cache_size=0, monitor_interval=0.02,
    )
    try:
        for _ in range(10):
            srv.predict(x[0])
        split = srv.stats()["shard_requests"]
        active = [shard for shard, n in split.items() if n > 0]
        assert len(active) == 1  # content-hashed: one owner per row
    finally:
        srv.close()


def test_lone_full_block_is_scored_by_its_shard_worker(model):
    tracer = Tracer(sample_rate=1.0)
    srv = ShardedModelServer(
        model=model, n_shards=2, max_batch_size=32, monitor_interval=0.02,
        tracer=tracer,
    )
    try:
        pool = np.random.default_rng(9).normal(size=(256, D))
        owner = [
            srv.ring.route(routing_key("predict", row.tobytes()))
            for row in pool
        ]
        shard = owner[0]
        rows = pool[[i for i, o in enumerate(owner) if o == shard][:32]]
        assert len(rows) == 32  # every miss on one shard: one full block
        channel = srv.supervisor.handles[shard].channel
        send, crossings = channel.send, []

        def recording_send(*args):
            crossings.append(threading.current_thread())
            return send(*args)

        channel.send = recording_send
        got = srv.predict_many(rows)
        counters = srv.stats()["metrics"]["counters"]
    finally:
        srv.close()
    assert np.array_equal(np.asarray(got), model.predict(rows))
    # The caller's thread crossed into the owning shard's worker process;
    # the parent's fallback snapshot scored nothing.
    assert crossings == [threading.current_thread()]
    assert counters[f"serve/shard/{shard}/batches_total"] == 1
    assert f"serve/shard/{1 - shard}/batches_total" not in counters
    spans = {span["name"]: span for span in tracer.buffer.spans()}
    request = spans["serve/predict_many"]
    dispatch = spans["serve/shard_dispatch"]
    worker = spans["serve/worker_score"]
    assert dispatch["parent_id"] == request["span_id"]
    assert worker["parent_id"] == dispatch["span_id"]
    assert worker["attributes"]["shard"] == shard


class SlowBatches:
    """Sleeps 0.2 s in every multi-row call (the startup probe is one)."""

    def __init__(self, inner):
        self.inner = inner
        self.n_features = D

    def predict(self, batch):
        if len(batch) > 1:
            time.sleep(0.2)
        return self.inner.predict(batch)


@pytest.mark.parametrize(
    "per_shard, bound", [(20, 0.3), (48, 0.5)],
    ids=["one_batch_per_shard", "two_batches_per_shard"],
)
def test_a_call_on_two_shards_has_both_scoring_at_once(model, per_shard, bound):
    srv = ShardedModelServer(
        model=SlowBatches(model), n_shards=2, cache_size=0,
        monitor_interval=0.02,
    )
    try:
        pool = np.random.default_rng(4).normal(size=(400, D))
        owners = np.array([
            srv.ring.route(routing_key("predict", row.tobytes()))
            for row in pool
        ])
        # ``per_shard`` rows on each shard, in batches of 32 and the rest.
        rows = np.concatenate(
            [pool[owners == shard][:per_shard] for shard in (0, 1)]
        )
        start = time.monotonic()
        got = srv.predict_many(rows)
        elapsed = time.monotonic() - start
        counters = srv.stats()["metrics"]["counters"]
    finally:
        srv.close()
    assert np.array_equal(np.asarray(got), model.predict(rows))
    batches = -(-per_shard // 32)
    assert counters["serve/shard/0/batches_total"] == batches
    assert counters["serve/shard/1/batches_total"] == batches
    # Each round has both shards sleeping at once: 0.2 s per round, where
    # one shard after the other would add 0.2 s per batch.
    assert elapsed < bound


def test_fan_outs_beside_swaps_and_a_respawn_keep_the_lock_order(model, x):
    """Under the runtime lock-order check (``conftest.py``): fan-outs
    that hold one shard's channel while they start another's, hot-swaps
    that take each channel in turn, and a killed shard respawned while
    both run."""
    registry, _v1 = _registry_with(model)
    other = LogisticRegression(D, rng=np.random.default_rng(7))
    versions = [registry.active_version("m"), registry.publish("m", other)]
    expected = np.stack([model.predict(x), other.predict(x)])
    srv = ShardedModelServer(
        registry=registry, name="m", n_shards=2, cache_size=0,
        monitor_interval=0.02,
    )
    stop = threading.Event()
    answers, swaps, failures = [], [], []

    def keep_calling(work):
        try:
            while not stop.is_set():
                work()
        except BaseException as exc:  # reported by the main thread
            failures.append(exc)

    def fan_out():
        answers.append(np.asarray(srv.predict_many(x)))

    def swap():  # every call moves the fleet to the other version
        versions.reverse()
        registry.activate("m", versions[0])
        swaps.append(srv.hot_swap())

    threads = [
        threading.Thread(target=keep_calling, args=(work,))
        for work in (fan_out, fan_out, swap)
    ]
    try:
        for thread in threads:
            thread.start()
        assert _wait_for(lambda: len(answers) >= 4 and len(swaps) >= 2)
        srv.supervisor.kill(1)
        assert _wait_for(lambda: srv.supervisor.handles[1].respawns >= 1)
        seen, swapped = len(answers), len(swaps)
        assert _wait_for(
            lambda: len(answers) >= seen + 4 and len(swaps) >= swapped + 2
        )
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        srv.close()
    assert not failures and not any(t.is_alive() for t in threads)
    for got in answers:  # every row scored by one of the two versions
        assert ((got == expected[0]) | (got == expected[1])).all()


# ----------------------------------------------------------------------
# Chaos: dead workers
# ----------------------------------------------------------------------
def test_kill_one_worker_drops_nothing(server, model, x):
    got1 = np.asarray(server.predict_many(x[:32]))
    server.supervisor.kill(0)
    got2 = np.asarray(server.predict_many(x))  # mid-death traffic
    assert np.array_equal(got1, model.predict(x[:32]))
    assert np.array_equal(got2, model.predict(x))


def test_dead_worker_is_respawned_and_serves_again(server, model, x):
    server.supervisor.kill(1)
    assert _wait_for(lambda: server.supervisor.handles[1].alive)
    assert server.supervisor.handles[1].respawns >= 1
    got = np.asarray(server.predict_many(x))
    assert np.array_equal(got, model.predict(x))


def test_health_reports_dead_shard_as_degraded(model):
    # A very slow monitor so the dead worker stays dead while we probe.
    srv = ShardedModelServer(
        model=model, n_shards=2, monitor_interval=30.0,
    )
    try:
        assert srv.health()["status"] == "ok"
        srv.supervisor.kill(0)
        assert _wait_for(
            lambda: not srv.supervisor.handles[0].alive
        )
        health = srv.health()
        assert health["status"] == "degraded"
        assert health["alive_shards"] == 1
        dead = health["shards"][0]
        assert dead["alive"] is False
        assert srv.ready()  # inline fallback still answers
        # Manual respawn restores full health.
        assert srv.supervisor.respawn(0)
        assert _wait_for(lambda: srv.health()["status"] == "ok")
    finally:
        srv.close()


# ----------------------------------------------------------------------
# Hot-swap propagation
# ----------------------------------------------------------------------
def _registry_with(model):
    registry = ModelRegistry()
    registry.register(
        "m", lambda: LogisticRegression(D, weight_init_std=0.0)
    )
    return registry, registry.publish("m", model)


def test_publish_reaches_every_worker(model, x):
    registry, v1 = _registry_with(model)
    srv = ShardedModelServer(
        registry=registry, name="m", n_shards=2, monitor_interval=0.02,
    )
    try:
        assert np.array_equal(
            np.asarray(srv.predict_many(x)), model.predict(x)
        )
        other = LogisticRegression(D, rng=np.random.default_rng(7))
        v2 = registry.publish("m", other)
        assert v2 != v1
        got = np.asarray(srv.predict_many(x))
        assert srv.version == v2
        assert np.array_equal(got, other.predict(x))
        for status in srv.supervisor.statuses():
            assert status["active_version"] == v2
    finally:
        srv.close()


def test_respawn_uses_last_known_good_version(model, x):
    registry, _v1 = _registry_with(model)
    srv = ShardedModelServer(
        registry=registry, name="m", n_shards=2, monitor_interval=0.02,
    )
    try:
        other = LogisticRegression(D, rng=np.random.default_rng(7))
        v2 = registry.publish("m", other)
        srv.hot_swap()
        srv.supervisor.kill(0)
        assert _wait_for(
            lambda: srv.supervisor.handles[0].alive
            and srv.supervisor.handles[0].respawns >= 1
        )
        assert srv.supervisor.statuses()[0]["active_version"] == v2
        got = np.asarray(srv.predict_many(x))
        assert np.array_equal(got, other.predict(x))
    finally:
        srv.close()


def test_hot_swap_requires_registry(server):
    with pytest.raises(RuntimeError, match="registry"):
        server.hot_swap()


# ----------------------------------------------------------------------
# Lifecycle and introspection
# ----------------------------------------------------------------------
def test_close_rejects_new_requests(model, x):
    srv = ShardedModelServer(model=model, n_shards=2)
    srv.close()
    assert srv.closed
    assert not srv.ready()
    assert srv.health()["status"] == "closed"
    with pytest.raises(ServerClosed):
        srv.predict(x[0])
    srv.close()  # idempotent


def test_health_shape(server):
    health = server.health()
    assert health["n_shards"] == 2
    assert len(health["shards"]) == 2
    for status in health["shards"]:
        for key in ("shard", "alive", "queue_depth", "active_version",
                    "breaker", "respawns", "pid"):
            assert key in status


def test_base_server_health_exposes_shards_key(model):
    with ModelServer(model=model) as srv:
        health = srv.health()
        assert len(health["shards"]) == 1
        assert health["shards"][0]["alive"] is True
        assert health["shards"][0]["active_version"] == "v0"


def test_stats_per_shard_split_sums_to_dispatched(server, x):
    server.predict_many(x)
    stats = server.stats()
    dispatched = sum(stats["shard_requests"].values())
    inline = stats["shed"] + stats["deadline_expired"] + stats["rescued"]
    cache_hits = stats["metrics"]["counters"].get(
        "serve/cache_hits_total", 0.0
    )
    assert dispatched + inline + cache_hits == stats["requests"]


def test_constructor_validation(model):
    children = {child.pid for child in multiprocessing.active_children()}
    with pytest.raises(ValueError, match="exactly one"):
        ShardedModelServer()
    with pytest.raises(ValueError, match="n_shards"):
        ShardedModelServer(model=model, n_shards=0)
    with pytest.raises(ValueError, match="n_features"):
        ShardedModelServer(model=object())
    with pytest.raises(ValueError, match="max_queue"):
        ShardedModelServer(model=model, n_shards=2, max_queue=0)
    # A rejected knob forks no worker.
    assert {c.pid for c in multiprocessing.active_children()} <= children
