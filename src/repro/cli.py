"""Command-line experiment runner: ``python -m repro <experiment>``.

Exposes every reproduced table and figure as a subcommand so results
can be regenerated without pytest:

    python -m repro table2
    python -m repro table7 --datasets horse-colic conn-sonar
    python -m repro fig5 --epochs 8
    python -m repro all --fast

Beyond the experiments, the ``repro.serve`` subsystem is exposed as two
subcommands (not part of ``all``):

    python -m repro serve --requests 200 --registry models/
    python -m repro predict --registry models/ --input rows.npy --proba

``serve`` trains a small model on the synthetic dataset, publishes it
to a model registry, starts a micro-batching server, replays concurrent
predict traffic against it and verifies the serving metrics — the CI
smoke test for the serving layer.  ``predict`` scores rows from a
``.npy``/``.npz`` file with the registry's active model version.

Observability surfaces (see ``docs/RUNBOOK.md``):

    python -m repro serve --requests 200 --metrics-port 0 \\
        --trace-out spans.jsonl --chaos
    python -m repro metrics --from-json BENCH_serve.json
    python -m repro trace summarize --span-log spans.jsonl

``--metrics-port`` exposes the server's metrics registry in Prometheus
text format on a stdlib HTTP thread (port 0 picks an ephemeral port;
the smoke scrapes itself once and validates the exposition).
``--trace-out`` writes a JSONL span log of every request's trace;
``repro trace summarize`` aggregates such a log into a per-operation
self/total-time table and renders one trace's critical path.

``--fast`` shrinks every experiment to roughly example scale.
``--telemetry-out run.jsonl`` writes a structured JSONL event log of
every training run the command performs (per-epoch losses, per-phase
E-step/M-step timers, GM state) and ``--log-metrics`` prints each run's
phase-timer summary to stderr; see :mod:`repro.telemetry`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .datasets import UCI_SPECS, make_uci_dataset, uci_dataset_names
from .experiments import (
    PAPER_FIG3_MIXTURES,
    PAPER_TABLE4_ALEX,
    PAPER_TABLE5_RESNET,
    PAPER_TABLE7,
    PAPER_TABLE8,
    SmallRunConfig,
    alex_bench_config,
    average_by_init,
    fit_gm_mixture_for_dataset,
    format_mixture_rows,
    format_series,
    format_table,
    format_table6,
    format_table7,
    format_timing_curves,
    layer_mixture_table,
    resnet_bench_config,
    run_ig_sweep,
    run_im_sweep,
    run_init_alpha_sweep,
    run_table6,
    run_table7,
    run_warmup_sweep,
    timing_bench_config,
    train_deep,
)
from .telemetry import (
    JsonlRunLogger,
    JsonlSpanExporter,
    MetricsServer,
    MetricsSummary,
    Tracer,
    format_summary_table,
    format_trace_tree,
    load_spans,
    longest_trace,
    render_exposition,
    summarize_spans,
    use_callbacks,
    validate_exposition,
)

__all__ = ["main"]


def _cmd_table2(_args) -> None:
    rows = []
    for name in uci_dataset_names():
        dataset = make_uci_dataset(name, seed=0)
        rows.append([name, dataset.n_samples, dataset.encoded_dim(),
                     dataset.feature_type])
    print(format_table(["Dataset", "# Samples", "# Features", "Type"], rows))


def _cmd_table4(args) -> None:
    config = alex_bench_config(epochs=8 if args.fast else 25)
    result = train_deep(config, method="gm")
    print(format_mixture_rows(layer_mixture_table(result), PAPER_TABLE4_ALEX))
    print(f"test accuracy: {result.test_accuracy:.3f}")


def _cmd_table5(args) -> None:
    config = resnet_bench_config(epochs=10 if args.fast else 40)
    result = train_deep(config, method="gm")
    print(format_mixture_rows(layer_mixture_table(result), PAPER_TABLE5_RESNET))
    print(f"test accuracy: {result.test_accuracy:.3f}")


def _cmd_table6(args) -> None:
    for model, config in (
        ("alex", alex_bench_config(epochs=10 if args.fast else 25)),
        ("resnet", resnet_bench_config(epochs=15 if args.fast else 40)),
    ):
        print(f"--- {model} ---")
        print(format_table6(run_table6(config), model))


def _cmd_table7(args) -> None:
    datasets = args.datasets or list(PAPER_TABLE7.keys())
    if args.fast:
        config = SmallRunConfig(n_subsamples=2, cv_folds=2,
                                compact_grids=True, epochs=80)
    else:
        config = SmallRunConfig(n_subsamples=3, cv_folds=2,
                                compact_grids=True)
    print(format_table7(run_table7(datasets, config)))


def _cmd_table8(args) -> None:
    config = alex_bench_config(epochs=6 if args.fast else 10)
    table8 = average_by_init(run_init_alpha_sweep(config))
    rows = [[m, f"{a:.3f}", f"{PAPER_TABLE8['alex'].get(m, float('nan')):.3f}"]
            for m, a in table8.items()]
    print(format_table(["Init method", "avg accuracy", "paper"], rows))


def _cmd_fig3(_args) -> None:
    for name in ("horse-colic", "conn-sonar"):
        mixture = fit_gm_mixture_for_dataset(name)
        paper_pi, paper_lam = PAPER_FIG3_MIXTURES[name]
        print(f"{name}: pi={np.round(mixture.pi, 3).tolist()} "
              f"lambda={np.round(mixture.lam, 3).tolist()} "
              f"A/B={np.round(mixture.crossovers, 3).tolist()} "
              f"[paper pi={paper_pi} lambda={paper_lam}]")


def _cmd_fig4(args) -> None:
    config = alex_bench_config(epochs=6 if args.fast else 10)
    sweep = run_init_alpha_sweep(config)
    alphas = sorted({a for _i, a in sweep})
    for init in ("linear", "identical", "proportional"):
        series = [sweep[(init, a)].test_accuracy for a in alphas]
        print(format_series(f"{init:12s}", alphas, series))


def _cmd_fig5(args) -> None:
    config = timing_bench_config(epochs=args.epochs or (6 if args.fast else 12))
    curves = run_im_sweep(config, im_values=(1, 2, 5, 10, 20, 50),
                          eager_epochs=2)
    print(format_timing_curves(curves))


def _cmd_fig6(args) -> None:
    config = timing_bench_config(epochs=args.epochs or (6 if args.fast else 12))
    curves = run_ig_sweep(config, im=50, ig_values=(50, 100, 200, 500),
                          eager_epochs=2)
    print(format_timing_curves(curves))


def _cmd_fig7(args) -> None:
    config = timing_bench_config(epochs=args.epochs or (6 if args.fast else 12))
    curves = run_warmup_sweep(config, e_values=(1, 2, 5, 10), im=50)
    print(format_timing_curves(curves))


# ----------------------------------------------------------------------
# Serving subcommands (repro.serve)
# ----------------------------------------------------------------------
def _train_demo_model(seed: int = 0, fast: bool = False):
    """Train a small readmission-style model on the synthetic dataset."""
    from .datasets.preprocessing import TabularEncoder
    from .datasets.synthetic import CategoricalSpec, TabularSchema, generate_dataset
    from .linear.logistic import LogisticRegression
    from .optim.trainer import Trainer

    schema = TabularSchema(
        n_continuous=12,
        categorical=(CategoricalSpec("ward", 4), CategoricalSpec("payer", 3)),
        predictive_fraction=0.4,
    )
    rng = np.random.default_rng(seed)
    table, labels, _weights = generate_dataset(
        schema, n_samples=200 if fast else 600, rng=rng
    )
    encoder = TabularEncoder()
    x = encoder.fit_transform(table)
    model = LogisticRegression(x.shape[1], rng=np.random.default_rng(seed + 1))
    Trainer(model, lr=0.5, batch_size=64).fit(
        x, labels, epochs=2 if fast else 8, rng=np.random.default_rng(seed + 2)
    )
    return model, x


def _cmd_serve(args) -> None:
    """Serve smoke test: publish, replay concurrent traffic, verify.

    Checks labels bit-identical to the direct model, the per-path
    request accounting identity, the health status and a clean
    shutdown.  ``--shards N`` runs the same smoke on the sharded tier
    (N worker processes) and also checks that every shard is alive.
    With ``--chaos`` the replay runs under the seeded fault injector
    (model/registry errors and latency spikes, cache corruption) behind
    the default resilience policy — the smoke then additionally asserts
    that chaos changed no answer and dropped no request.
    """
    from concurrent.futures import ThreadPoolExecutor

    from .linear.logistic import LogisticRegression
    from .serve import (
        CircuitBreaker,
        FaultInjector,
        ModelRegistry,
        ModelServer,
        ResiliencePolicy,
        RetryPolicy,
        ShardedModelServer,
    )

    if args.shards > 0 and args.chaos:
        print("--chaos is not supported with --shards (use "
              "'loadgen --kill-shard' for the sharded chaos drill)",
              file=sys.stderr)
        raise SystemExit(2)
    n_requests = args.requests
    model, x = _train_demo_model(fast=args.fast)
    rows = x[np.arange(n_requests) % x.shape[0]]
    expected = model.predict(rows)

    registry = ModelRegistry(args.registry)
    registry.register(
        args.name,
        lambda: LogisticRegression(model.n_features, weight_init_std=0.0),
    )
    version = registry.publish(args.name, model)
    print(f"published {args.name}:{version} "
          f"({registry.metadata(args.name, version)['n_parameters']} params)")

    tracer = None
    exporter = None
    if args.trace_out:
        exporter = JsonlSpanExporter(path=args.trace_out)
        tracer = Tracer(exporter=exporter, sample_rate=args.trace_sample)
        print(f"tracing to {args.trace_out} "
              f"(sample_rate={args.trace_sample})")

    injector = None
    resilience = None
    if args.chaos:
        injector = FaultInjector.chaos(
            error_rate=0.1,
            latency_rate=0.05,
            latency_seconds=0.01,
            corruption_rate=0.1,
            seed=args.chaos_seed,
        )
        # Extra attempts push the per-call drop probability to
        # error_rate**max_attempts ~ 1e-6; delays stay small so the
        # smoke remains quick.
        resilience = ResiliencePolicy(
            retry=RetryPolicy(
                max_attempts=6,
                base_delay=0.001,
                max_delay=0.01,
                seed=args.chaos_seed,
            ),
            registry_breaker=CircuitBreaker(
                name="registry", reset_timeout=0.2
            ),
        )
        print(f"chaos enabled (seed={args.chaos_seed}): "
              "10% errors, 5% latency spikes, 10% cache corruption")

    server: ModelServer
    if args.shards > 0:
        server = ShardedModelServer(
            registry=registry,
            name=args.name,
            n_shards=args.shards,
            max_batch_size=args.max_batch,
            tracer=tracer,
        )
    else:
        server = ModelServer(
            registry=registry,
            name=args.name,
            max_batch_size=args.max_batch,
            workers=args.serve_workers,
            resilience=resilience,
            fault_injector=injector,
            tracer=tracer,
        )
    metrics_server = None
    if args.metrics_port is not None:
        metrics_server = MetricsServer(
            server.metrics, port=args.metrics_port,
            extra={"/health": lambda: repr(server.health())},
        )
        print(f"metrics exposed at {metrics_server.url}")
    with server, ThreadPoolExecutor(max_workers=16) as pool:
        got = np.array(list(pool.map(server.predict, rows)))
        health = server.health()
    stats = server.stats()

    # Self-scrape once: the exposition endpoint is part of the smoke's
    # contract, so an invalid scrape fails the run like a wrong answer.
    scrape_problems: List[str] = []
    if metrics_server is not None:
        import urllib.request

        with urllib.request.urlopen(metrics_server.url, timeout=5) as response:
            body = response.read().decode("utf-8")
        scrape_problems = validate_exposition(body)
        print(f"scraped {metrics_server.url}: "
              f"{len(body.splitlines())} lines, "
              f"{len(scrape_problems)} problems")
        metrics_server.close()
    if tracer is not None:
        tracer_stats = tracer.stats()
        print(f"traces: started={tracer_stats['started']} "
              f"sampled={tracer_stats['sampled']} "
              f"finished={tracer_stats['finished']}")
    if exporter is not None:
        exporter.close()

    failures = []
    failures.extend(
        f"exposition invalid: {problem}" for problem in scrape_problems
    )
    if not np.array_equal(got, expected):
        failures.append("served predictions differ from direct predictions")
    if stats["requests"] != n_requests:
        failures.append(
            f"requests_total={stats['requests']} != issued {n_requests}"
        )
    counters = stats["metrics"]["counters"]
    # Every request is answered by exactly one path: cache hit, shed to
    # inline, deadline-expired to inline, a row of a dispatched batch,
    # or a rescue of a failed batch's row (under chaos, or a dead shard).
    accounted = (
        counters.get("serve/cache_hits_total", 0.0)
        + stats["shed"]
        + counters.get("serve/deadline_expired_total", 0.0)
        + stats["metrics"]["histograms"].get("serve/batch_size", {}).get(
            "sum", 0.0
        )
        + stats["rescued"]
    )
    if accounted != n_requests:
        failures.append(
            f"request accounting mismatch: {accounted} != {n_requests}"
        )
    if health["status"] not in ("ok", "degraded"):
        failures.append(f"unexpected health status {health['status']!r}")
    if args.shards > 0 and health["alive_shards"] != args.shards:
        failures.append(
            f"alive_shards={health['alive_shards']} != {args.shards}"
        )
    if not server.closed:
        failures.append("server did not shut down cleanly")

    print(f"requests={stats['requests']:.0f} batches={stats['batches']:.0f} "
          f"mean_batch={stats['mean_batch_size']:.1f} "
          f"shed={stats['shed']:.0f} rescued={stats['rescued']:.0f} "
          f"cache_hit_rate={stats['cache_hit_rate']:.2f}")
    if "latency_p50_ms" in stats:
        print(f"latency p50={stats['latency_p50_ms']:.3f}ms "
              f"p99={stats['latency_p99_ms']:.3f}ms")
    if args.shards > 0:
        print("shard split: " + ", ".join(
            f"{shard}:{count:.0f}"
            for shard, count in sorted(stats["shard_requests"].items())
        ))
        for status in health["shards"]:
            print(f"  shard {status['shard']}: alive={status['alive']} "
                  f"version={status['active_version']} "
                  f"queue={status['queue_depth']} "
                  f"breaker={status['breaker']} "
                  f"respawns={status['respawns']}")
    if args.chaos:
        injected = sum(
            value for key, value in counters.items()
            if key.startswith("resilience/faults/")
        )
        print(f"chaos: injected={injected:.0f} retries={stats['retries']:.0f} "
              f"rescued={stats['rescued']:.0f} "
              f"stale_served={stats['stale_model_served']:.0f} "
              f"cache_corruptions="
              f"{server.cache.stats()['corruptions']} "
              f"health={health['status']} breakers={health['breakers']}")
    if failures:
        for failure in failures:
            print(f"serve smoke FAILED: {failure}", file=sys.stderr)
        raise SystemExit(1)
    print("serve smoke test OK")


def _cmd_loadgen(args) -> None:
    """Replay a seeded traffic mix against a (sharded) server.

    Prints the per-shard QPS / p50 / p99 table; with ``--kill-shard``
    the run SIGKILLs that worker mid-replay and the command fails if
    any request was dropped or errored (the chaos drill from
    ``docs/RUNBOOK.md``).
    """
    from .loadgen import LoadGenerator, TrafficMix, build_schedule
    from .serve import ModelServer, ShardedModelServer

    model, x = _train_demo_model(fast=args.fast)
    mix = (
        TrafficMix.closed_loop()
        if args.mix == "closed_loop"
        else TrafficMix.heavy_tail(mean_gap=0.0002 * args.time_scale)
    )
    schedule = build_schedule(
        mix, n_requests=args.requests, n_rows=min(64, len(x)),
        seed=args.chaos_seed,
    )
    if args.shards > 0:
        server = ShardedModelServer(
            model=model, n_shards=args.shards,
            max_batch_size=args.max_batch,
        )
    else:
        server = ModelServer(
            model=model, max_batch_size=args.max_batch,
            workers=args.serve_workers,
        )
    kill = None
    if args.kill_shard is not None:
        if args.shards <= 0:
            print("--kill-shard requires --shards >= 1", file=sys.stderr)
            raise SystemExit(2)
        kill = (args.requests // 2, args.kill_shard)
    with server:
        generator = LoadGenerator(
            server, schedule, x[:64], workers=8, mix_name=mix.name,
            time_scale=args.time_scale, kill_shard_at=kill,
            metrics=server.metrics,
        )
        report = generator.run()
        health = server.health()
    print(f"mix={mix.name} requests={report.n_requests} "
          f"duration={report.duration_seconds:.2f}s qps={report.qps:.0f}")
    print(report.format_table())
    failures = []
    if report.n_requests != args.requests:
        failures.append(
            f"dropped requests: answered {report.n_requests} of "
            f"{args.requests}"
        )
    if report.errors:
        failures.append(f"{report.errors} requests errored")
    if kill is not None:
        respawns = sum(
            status.get("respawns", 0) for status in health["shards"]
        )
        print(f"chaos: killed shard {args.kill_shard} mid-run, "
              f"respawns={respawns}")
        if respawns < 1:
            failures.append("kill drill ran but no respawn was recorded")
    if failures:
        for failure in failures:
            print(f"loadgen FAILED: {failure}", file=sys.stderr)
        raise SystemExit(1)
    print("loadgen OK")


def _cmd_predict(args) -> None:
    """Score rows from ``--input`` with the registry's active model."""
    from .serve import ModelRegistry

    if not args.registry or not args.input:
        print("predict requires --registry and --input", file=sys.stderr)
        raise SystemExit(2)
    loaded = np.load(args.input)
    rows = loaded["x"] if hasattr(loaded, "files") else loaded
    registry = ModelRegistry(args.registry)
    active = registry.active(args.name)
    print(f"# {args.name}:{active.version} on {rows.shape[0]} rows",
          file=sys.stderr)
    method = "predict_proba" if args.proba else "predict"
    for value in getattr(active.model, method)(rows):
        print(f"{value:.6f}" if args.proba else int(value))


# ----------------------------------------------------------------------
# Continuous learning subcommands (repro.online)
# ----------------------------------------------------------------------
def _cmd_online_run(args) -> None:
    """Drive the closed loop over a drifting stream; the CI online smoke.

    Streams labeled batches through the full train–serve–retrain loop —
    live serving via a :class:`~repro.serve.server.ModelServer`, online
    EM training, cadence publishing, shadow evaluation, the promotion
    gate, and registry retention pruning — then fails unless the run
    published at least one candidate, made at least one promotion
    decision, dropped zero requests, and (when the stream drifted)
    recovered live accuracy.
    """
    import json

    from .linear.logistic import LogisticRegression
    from .online import (
        ContinuousLoop,
        DecayedGMRegularizer,
        DriftStream,
        OnlineTrainer,
        PromotionPolicy,
        PublishTriggers,
        RegistryPublisher,
        ShadowEvaluator,
    )
    from .rng import spawn
    from .serve import ModelRegistry, ModelServer
    from .telemetry.metrics import MetricsRegistry

    steps = args.steps or (60 if args.fast else 150)
    drift_at = args.drift_at if args.drift_at is not None else steps // 3
    n_features = 12
    stream = DriftStream(
        n_features=n_features, batch_size=32, drift_at=drift_at or None
    )
    regularizer = DecayedGMRegularizer(
        n_features, rho=args.rho, warmup_steps=10
    )
    model = LogisticRegression(
        n_features, regularizer=regularizer, rng=spawn(args.chaos_seed, 3)
    )
    registry = ModelRegistry(args.registry)
    registry.register(
        args.name,
        lambda: LogisticRegression(n_features, weight_init_std=0.0),
    )
    first = registry.publish(args.name, model, activate=True)
    print(f"published initial {args.name}:{first}")

    tracer = None
    exporter = None
    if args.trace_out:
        exporter = JsonlSpanExporter(path=args.trace_out)
        tracer = Tracer(exporter=exporter, sample_rate=args.trace_sample)
        print(f"tracing to {args.trace_out} "
              f"(sample_rate={args.trace_sample})")

    metrics = MetricsRegistry()
    trainer = OnlineTrainer(
        model, lr=0.3, n_reference=32 * steps, metrics=metrics
    )
    publisher = RegistryPublisher(
        registry, args.name,
        PublishTriggers(every_steps=args.publish_every), metrics=metrics,
    )
    shadow = ShadowEvaluator(
        registry, args.name, fraction=args.shadow_fraction, metrics=metrics,
    )
    policy = PromotionPolicy(min_samples=20, metrics=metrics)
    server = ModelServer(
        registry=registry,
        name=args.name,
        max_batch_size=args.max_batch,
        workers=args.serve_workers,
        tracer=tracer,
    )
    loop = ContinuousLoop(
        trainer, publisher, shadow, policy,
        server=server, metrics=metrics, tracer=tracer,
    )
    with server:
        status = loop.run(stream, steps)
    pruned = registry.prune(args.name, keep_last=args.keep_last)
    status["pruned_versions"] = len(pruned)
    status["drift_at"] = drift_at
    if exporter is not None:
        exporter.close()

    print(f"steps={status['steps']} published={status['published_total']} "
          f"decisions={status['decisions_total']} "
          f"(promote={status['promotions']} hold={status['holds']} "
          f"reject={status['rejections']}) rollbacks={status['rollbacks']}")
    print(f"requests={status['requests_total']} "
          f"dropped={status['dropped_requests']} "
          f"live_accuracy={status['live_accuracy']:.3f} "
          f"active={status['active_version']} "
          f"last_known_good={status['last_known_good']}")
    print(f"pruned {len(pruned)} old versions, "
          f"{len(registry.versions(args.name))} kept")
    if args.status_out:
        with open(args.status_out, "w", encoding="utf-8") as handle:
            json.dump(status, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"status written to {args.status_out}")

    failures = []
    if status["published_total"] < 1:
        failures.append("no candidate was published")
    if status["decisions_total"] < 1:
        failures.append("no promotion decision was made")
    if status["dropped_requests"] > 0:
        failures.append(f"{status['dropped_requests']} requests dropped")
    if drift_at and status["promotions"] < 1:
        failures.append("drift scenario completed without a promotion")
    if drift_at and status["live_accuracy"] < 0.8:
        failures.append(
            f"live accuracy did not recover after drift "
            f"({status['live_accuracy']:.3f} < 0.8)"
        )
    if failures:
        for failure in failures:
            print(f"online smoke FAILED: {failure}", file=sys.stderr)
        raise SystemExit(1)
    print("online loop smoke OK")


def _cmd_online_status(args) -> None:
    """Render a status JSON written by ``online run --status-out``."""
    import json

    if not args.status_file:
        print("online status requires --status-file status.json",
              file=sys.stderr)
        raise SystemExit(2)
    with open(args.status_file, encoding="utf-8") as handle:
        status = json.load(handle)
    for key in sorted(status):
        print(f"{key}: {status[key]}")


def _cmd_online(args) -> None:
    """Route ``online`` to its ``run``/``status`` subaction."""
    if args.subaction in (None, "run"):
        _cmd_online_run(args)
    elif args.subaction == "status":
        _cmd_online_status(args)
    else:
        print(f"unknown online subcommand {args.subaction!r} "
              "(expected: run, status)", file=sys.stderr)
        raise SystemExit(2)


# ----------------------------------------------------------------------
# Observability subcommands (repro.telemetry)
# ----------------------------------------------------------------------
def _cmd_metrics(args) -> None:
    """Render a persisted metrics snapshot in Prometheus text format.

    Accepts either a raw :meth:`MetricsRegistry.snapshot` dict or any
    JSON document with a ``"metrics"`` key holding one (the shape the
    serve benchmarks and ``ModelServer.stats()`` persist).
    """
    import json

    if not args.from_json:
        print("metrics requires --from-json SNAPSHOT.json", file=sys.stderr)
        raise SystemExit(2)
    with open(args.from_json, encoding="utf-8") as handle:
        payload = json.load(handle)
    snapshot = payload
    if isinstance(payload, dict) and "counters" not in payload:
        snapshot = payload.get("metrics", payload)
    families = ("counters", "gauges", "histograms", "timers")
    if not (
        isinstance(snapshot, dict)
        and any(key in snapshot for key in families)
    ):
        print(
            f"{args.from_json}: no metrics snapshot found (expected a "
            'MetricsRegistry.snapshot() dict or a document with a '
            '"metrics" key holding one)',
            file=sys.stderr,
        )
        raise SystemExit(1)
    text = render_exposition(snapshot)
    sys.stdout.write(text)
    problems = validate_exposition(text)
    if problems:
        for problem in problems:
            print(f"exposition problem: {problem}", file=sys.stderr)
        raise SystemExit(1)


def _cmd_trace(args) -> None:
    """``trace summarize``: aggregate a JSONL span log.

    Prints the per-operation self/total-time table across every trace
    in the log, then renders one trace's tree with its critical path
    starred — ``--trace-id`` picks the trace, defaulting to the one
    with the longest root span.
    """
    if args.subaction != "summarize":
        print(f"unknown trace subcommand {args.subaction!r} "
              "(expected: summarize)", file=sys.stderr)
        raise SystemExit(2)
    if not args.span_log:
        print("trace summarize requires --span-log spans.jsonl",
              file=sys.stderr)
        raise SystemExit(2)
    spans = load_spans(args.span_log)
    if not spans:
        print(f"no spans in {args.span_log}", file=sys.stderr)
        raise SystemExit(1)
    print(format_summary_table(summarize_spans(spans)))
    trace_id = args.trace_id or longest_trace(spans)
    if trace_id is not None:
        print()
        print(format_trace_tree(spans, trace_id))


_SERVE_COMMANDS = {
    "serve": _cmd_serve,
    "predict": _cmd_predict,
    "loadgen": _cmd_loadgen,
}

# Run outside the experiment banner loop: their stdout (exposition
# text, summary tables) must stay machine-readable / pipeable.
_TOOL_COMMANDS = {
    "metrics": _cmd_metrics,
    "trace": _cmd_trace,
    "online": _cmd_online,
}

_COMMANDS = {
    "table2": _cmd_table2,
    "table4": _cmd_table4,
    "table5": _cmd_table5,
    "table6": _cmd_table6,
    "table7": _cmd_table7,
    "table8": _cmd_table8,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "fig7": _cmd_fig7,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=(sorted(_COMMANDS) + ["all"] + sorted(_SERVE_COMMANDS)
                 + sorted(_TOOL_COMMANDS)),
        help="which table/figure to reproduce ('all' runs every "
             "experiment; 'serve'/'predict' drive the serving layer; "
             "'metrics'/'trace' are observability tools; 'lint' runs "
             "the static analysis and takes its own flags)",
    )
    parser.add_argument(
        "subaction", nargs="?", default=None,
        help="trace: subcommand (summarize); "
             "online: subcommand (run, status)",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="shrink every experiment to roughly example scale",
    )
    parser.add_argument(
        "--datasets", nargs="*", default=None,
        help="table7 only: subset of dataset names",
    )
    parser.add_argument(
        "--epochs", type=int, default=None,
        help="fig5/6/7 only: override the epoch budget",
    )
    parser.add_argument(
        "--telemetry-out", metavar="PATH", default=None,
        help="write a JSONL telemetry event log (train/epoch/EM-step "
             "events, per-phase timers, GM state) covering every "
             "training run the command performs",
    )
    parser.add_argument(
        "--log-metrics", action="store_true",
        help="print each run's phase-timer/counter summary to stderr",
    )
    serving = parser.add_argument_group("serving (serve/predict only)")
    serving.add_argument(
        "--registry", metavar="DIR", default=None,
        help="model registry directory (serve: omit for in-memory)",
    )
    serving.add_argument(
        "--name", default="synthetic-readmission",
        help="model name inside the registry",
    )
    serving.add_argument(
        "--requests", type=int, default=100,
        help="serve only: number of concurrent predict requests to replay",
    )
    serving.add_argument(
        "--max-batch", type=int, default=32,
        help="serve only: micro-batch size cap",
    )
    serving.add_argument(
        "--serve-workers", type=int, default=2,
        help="serve only: dispatch slots per batcher",
    )
    serving.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="serve/loadgen: worker processes for the sharded tier "
             "(0 = single-process server)",
    )
    serving.add_argument(
        "--mix", choices=("heavy_tail", "closed_loop"),
        default="heavy_tail",
        help="loadgen only: traffic mix to replay",
    )
    serving.add_argument(
        "--kill-shard", type=int, default=None, metavar="SHARD",
        help="loadgen only: SIGKILL this shard's worker at the "
             "schedule midpoint (zero-dropped-requests drill)",
    )
    serving.add_argument(
        "--time-scale", type=float, default=1.0, metavar="X",
        help="loadgen only: multiplier on inter-arrival gaps and "
             "client stalls (0 = closed loop)",
    )
    serving.add_argument(
        "--chaos", action="store_true",
        help="serve only: replay the traffic under the seeded fault "
             "injector (errors, latency spikes, cache corruption) with "
             "the default resilience policy engaged",
    )
    serving.add_argument(
        "--chaos-seed", type=int, default=2018, metavar="SEED",
        help="serve only: seed for the chaos fault/jitter streams",
    )
    serving.add_argument(
        "--input", metavar="PATH", default=None,
        help="predict only: .npy/.npz file of encoded feature rows",
    )
    serving.add_argument(
        "--proba", action="store_true",
        help="predict only: print probabilities instead of labels",
    )
    online = parser.add_argument_group("continuous learning (online only)")
    online.add_argument(
        "--steps", type=int, default=None,
        help="online run: streamed mini-batches to drive "
             "(default 150, 60 with --fast)",
    )
    online.add_argument(
        "--drift-at", type=int, default=None, metavar="STEP",
        help="online run: batch index of the distribution shift "
             "(default steps/3; 0 disables drift)",
    )
    online.add_argument(
        "--rho", type=float, default=0.9,
        help="online run: decay factor of the online EM statistics",
    )
    online.add_argument(
        "--publish-every", type=int, default=10, metavar="STEPS",
        help="online run: publisher cadence in trainer steps",
    )
    online.add_argument(
        "--shadow-fraction", type=float, default=0.5, metavar="FRAC",
        help="online run: fraction of live requests mirrored to the "
             "shadow candidate",
    )
    online.add_argument(
        "--keep-last", type=int, default=5, metavar="N",
        help="online run: registry versions retained by the final prune",
    )
    online.add_argument(
        "--status-out", metavar="PATH", default=None,
        help="online run: write the final loop status as JSON",
    )
    online.add_argument(
        "--status-file", metavar="PATH", default=None,
        help="online status: status JSON written by 'online run'",
    )
    obs = parser.add_argument_group("observability (serve/metrics/trace)")
    obs.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve only: expose Prometheus-format /metrics on this "
             "port during the replay (0 picks an ephemeral port) and "
             "self-scrape it once to validate the exposition",
    )
    obs.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="serve only: write a JSONL span log of the replayed "
             "requests (readable by 'trace summarize')",
    )
    obs.add_argument(
        "--trace-sample", type=float, default=1.0, metavar="RATE",
        help="serve only: head-sampling rate for root spans (default 1.0)",
    )
    obs.add_argument(
        "--from-json", metavar="PATH", default=None,
        help="metrics only: JSON file holding a metrics snapshot "
             "(raw snapshot or any document with a 'metrics' key)",
    )
    obs.add_argument(
        "--span-log", metavar="PATH", default=None,
        help="trace only: JSONL span log to summarize",
    )
    obs.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="trace only: trace to render (default: longest root span)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    # `repro lint ...` / `repro linkcheck ...` forward the rest of the
    # command line to the dedicated tool parsers before the experiment
    # parser runs — their flags (--json, --dot, --write-baseline, ...)
    # have nothing to do with the experiment positionals.
    if raw and raw[0] == "lint":
        from .tools.lint.cli import main as lint_main

        return lint_main(raw[1:])
    if raw and raw[0] == "linkcheck":
        from .tools.linkcheck import main as linkcheck_main

        return linkcheck_main(raw[1:])
    args = build_parser().parse_args(raw)
    if args.experiment in _TOOL_COMMANDS:
        _TOOL_COMMANDS[args.experiment](args)
        return 0
    if args.datasets:
        unknown = [d for d in args.datasets
                   if d not in UCI_SPECS and d != "Hosp-FA"]
        if unknown:
            print(f"unknown datasets: {unknown}", file=sys.stderr)
            return 2
    names = sorted(_COMMANDS) if args.experiment == "all" else [args.experiment]
    # Ambient telemetry: every Trainer.fit reached through the experiment
    # runners picks these callbacks up without any explicit threading.
    callbacks = []
    logger = None
    if args.telemetry_out:
        logger = JsonlRunLogger(path=args.telemetry_out)
        callbacks.append(logger)
    if args.log_metrics:
        callbacks.append(MetricsSummary())
    try:
        with use_callbacks(*callbacks):
            for name in names:
                print(f"\n===== {name} =====")
                {**_COMMANDS, **_SERVE_COMMANDS}[name](args)
    finally:
        if logger is not None:
            logger.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
