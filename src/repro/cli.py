"""Command-line interface: ``python -m repro <command>``.

Commands
--------
summary    print the Table 2-style statistics of a synthetic benchmark
compare    fit a method line-up and print the end-to-end comparison table
fit        fit FactorJoin — or, with ``--shards N``, a sharded ensemble
           fitted in parallel — and persist the artifact with ``--save``;
           ``--distributed`` fits shards in worker processes that save
           their own sub-artifacts (the driver only merges statistics),
           ``--compress`` gzips the pickles on disk
estimate   fit (or ``--load``) FactorJoin and estimate one SQL query;
           ``--save`` persists the fitted model so the fit cost is paid once
serve      publish fitted models (single or ensemble artifacts) behind the
           JSON HTTP estimation service; ``--workers N`` serves ensembles
           through shard worker processes (repro.cluster), ``--swap-dir``
           enables the per-shard hot-swap endpoint, ``--warm`` replays a
           recorded workload into the caches before traffic is admitted,
           ``--record`` logs served queries for the next warm start,
           ``--snapshot`` persists/restores the cache beside the artifact
worker     run one shard worker as a TCP server (``--listen HOST:PORT``);
           a driver started with worker addresses serves its ensemble
           through these instead of spawning local processes —
           ``--store DIR`` attaches the content-addressed artifact store
           the driver publishes shard sub-artifacts into
plan       choose a join order for one SQL query and print it as plan
           hints (pg_hint_plan or JSON dialect); estimates come from a
           locally fitted/loaded model, or — with ``--url`` — from a
           running ``repro serve`` instance over ``POST /v1/subplans``
e2e        end-to-end plan quality over the benchmark workload: plans
           chosen under the estimator vs. the truecard oracle, both
           costed under true cardinalities; prints P-error summary,
           plan agreement rate, and the worst-regressing queries
alerts     print the alert rules of a running ``repro serve`` instance
           with their current ok/pending/firing state (GET /v1/alerts)
debug-bundle  dump the flight recorder's worst-offender debug bundles
           from a running instance (GET /v1/debug/bundles)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.api import build_explain_trace, coerce_query
from repro.core.estimator import FactorJoin, FactorJoinConfig
from repro.engine import CardinalityExecutor
from repro.eval.harness import (
    default_methods,
    end_to_end_table,
    make_context,
    run_end_to_end,
)
from repro.utils import format_table


def _add_benchmark_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--benchmark", choices=("stats", "imdb"),
                        default="stats")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="data size multiplier (default 0.1)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--queries", type=int, default=None,
                        help="number of workload queries")
    parser.add_argument("--max-tables", type=int, default=None,
                        help="largest join template size")


def _add_shard_args(parser: argparse.ArgumentParser) -> None:
    from repro.shard import POLICY_REGISTRY
    from repro.shard.ensemble import PARALLEL_MODES

    parser.add_argument("--shards", type=int, default=0, metavar="N",
                        help="fit a sharded ensemble of N partitions "
                             "(0 = a single unsharded model)")
    parser.add_argument("--policy", default="hash",
                        choices=sorted(POLICY_REGISTRY),
                        help="sharding policy (with --shards)")
    parser.add_argument("--parallel", default="process",
                        choices=PARALLEL_MODES,
                        help="shard fit executor (with --shards)")


def _make_model(args):
    """A FactorJoin or ShardedFactorJoin per the parsed arguments."""
    from repro.shard import ShardedFactorJoin

    config = FactorJoinConfig(n_bins=args.bins,
                              table_estimator=args.estimator,
                              seed=args.seed)
    shards = getattr(args, "shards", 0)
    if shards:
        return ShardedFactorJoin(config, n_shards=shards,
                                 policy=args.policy,
                                 parallel=args.parallel)
    return FactorJoin(config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FactorJoin reproduction: benchmarks and estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser("summary", help="benchmark statistics")
    _add_benchmark_args(p_summary)
    p_summary.add_argument("--cardinalities", action="store_true",
                           help="also compute the true cardinality range")

    p_compare = sub.add_parser("compare", help="end-to-end comparison")
    _add_benchmark_args(p_compare)
    p_compare.add_argument("--bins", type=int, default=8)

    p_fit = sub.add_parser(
        "fit", help="fit a model (or sharded ensemble) and save it")
    _add_benchmark_args(p_fit)
    p_fit.add_argument("--bins", type=int, default=8)
    p_fit.add_argument("--estimator", default="bayescard",
                       choices=("bayescard", "sampling", "truescan",
                                "histogram1d"))
    _add_shard_args(p_fit)
    p_fit.add_argument("--save", metavar="DIR", required=True,
                       help="artifact directory to write")
    p_fit.add_argument("--name", default=None,
                       help="artifact name recorded in the manifest")
    p_fit.add_argument("--distributed", action="store_true",
                       help="fit shards in worker processes (with "
                            "--shards): each worker saves its own "
                            "sub-artifact and ships statistics back, so "
                            "the driver never materializes shard models")
    p_fit.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker process count for --distributed "
                            "(default: one per shard)")
    p_fit.add_argument("--compress", action="store_true",
                       help="gzip-compress the saved pickle(s); loads "
                            "decompress transparently")

    p_estimate = sub.add_parser("estimate", help="estimate one query")
    _add_benchmark_args(p_estimate)
    p_estimate.add_argument("sql", help="SELECT COUNT(*) query text")
    p_estimate.add_argument("--bins", type=int, default=8)
    p_estimate.add_argument("--estimator", default="bayescard",
                            choices=("bayescard", "sampling", "truescan",
                                     "histogram1d"))
    p_estimate.add_argument("--true", action="store_true",
                            help="also compute the exact cardinality")
    p_estimate.add_argument("--explain", action="store_true",
                            help="print the explain trace (bound mode, "
                                 "key groups and bins touched, shard "
                                 "pruning)")
    p_estimate.add_argument("--save", metavar="DIR", default=None,
                            help="persist the fitted model artifact here")
    p_estimate.add_argument("--load", metavar="DIR", default=None,
                            help="load a saved model artifact instead of "
                                 "fitting (skips the offline phase)")

    p_serve = sub.add_parser(
        "serve", help="run the JSON HTTP estimation service")
    _add_benchmark_args(p_serve)
    p_serve.add_argument("--bins", type=int, default=8)
    p_serve.add_argument("--estimator", default="bayescard",
                         choices=("bayescard", "sampling", "truescan",
                                  "histogram1d"))
    p_serve.add_argument("--load", metavar="[NAME=]DIR", action="append",
                         default=None,
                         help="publish a saved artifact (repeatable); "
                              "without it, fit on the benchmark and "
                              "publish as 'default'")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765)
    p_serve.add_argument("--cache-size", type=int, default=1024,
                         help="LRU estimate cache entries per model")
    p_serve.add_argument("--warm", metavar="WORKLOAD", default=None,
                         help="pre-populate both cache levels before "
                              "admitting traffic: a recorded JSONL / "
                              "SQL-per-line workload file, or the literal "
                              "'benchmark' to warm from the generated "
                              "benchmark workload")
    p_serve.add_argument("--record", metavar="PATH", default=None,
                         help="log every served query to this JSONL "
                              "workload file (replay later via --warm)")
    p_serve.add_argument("--no-subplan-reuse", action="store_true",
                         help="disable the cross-request sub-plan table "
                              "(whole-query caching only)")
    p_serve.add_argument("--snapshot", metavar="PATH", default=None,
                         help="cache snapshot file: restored at startup "
                              "when present (fingerprint-checked, no "
                              "workload replay) and written back on "
                              "shutdown")
    p_serve.add_argument("--snapshot-dir", metavar="DIR", default=None,
                         help="enable POST /snapshot, confined to this "
                              "directory (defaults to --snapshot's "
                              "directory when that flag is given; "
                              "otherwise the endpoint stays disabled)")
    _add_shard_args(p_serve)
    p_serve.add_argument("--workers", type=int, default=None, metavar="N",
                         help="serve ensembles through N shard worker "
                              "processes (repro.cluster): probes fan out "
                              "across workers, crashes restart and retry "
                              "transparently; in-process serving without "
                              "this flag")
    p_serve.add_argument("--swap-dir", metavar="DIR", default=None,
                         help="enable POST /v1/swap (per-shard hot-swap), "
                              "confined to refreshed shard artifacts "
                              "inside this directory; disabled otherwise")
    p_serve.add_argument("--trace-log", metavar="FILE", default=None,
                         help="export every finished request trace as "
                              "one JSON line to this file (span tree "
                              "with driver and worker-side spans)")
    p_serve.add_argument("--trace-log-max-bytes", type=int, default=None,
                         metavar="N",
                         help="roll the trace log over before it "
                              "exceeds N bytes, keeping one predecessor "
                              "file (FILE.1); unbounded without it")
    p_serve.add_argument("--slow-ms", type=float, default=100.0,
                         metavar="MS",
                         help="requests at or above this duration also "
                              "land in the GET /v1/traces slow-query "
                              "ring (default 100)")
    p_serve.add_argument("--alert-log", metavar="FILE", default=None,
                         help="export every alert firing/resolved "
                              "transition as one JSON line to this file")
    p_serve.add_argument("--alert-log-max-bytes", type=int, default=None,
                         metavar="N",
                         help="roll the alert log over before it "
                              "exceeds N bytes, keeping one predecessor "
                              "file (FILE.1); unbounded without it")
    p_serve.add_argument("--alert-interval", type=float, default=5.0,
                         metavar="SECONDS",
                         help="background alert-evaluation period "
                              "(default 5)")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log one line per HTTP request")

    p_profile = sub.add_parser(
        "profile", help="capture a stack profile from a running "
                        "'repro serve' instance (GET /v1/profile)")
    p_profile.add_argument("--url", default="http://127.0.0.1:8765",
                           help="base URL of the serving instance "
                                "(default matches 'repro serve')")
    p_profile.add_argument("--seconds", type=float, default=1.0,
                           help="sampling duration (server clamps to 30)")
    p_profile.add_argument("--hz", type=float, default=99.0,
                           help="samples per second (server clamps to "
                                "1..999)")
    p_profile.add_argument("--worker", type=int, default=None,
                           help="profile this shard worker of a "
                                "cluster-backed model instead of the "
                                "serving process")
    p_profile.add_argument("--model", default=None,
                           help="model whose worker pool --worker "
                                "refers to (needed only when several "
                                "models are served)")
    p_profile.add_argument("--json", action="store_true",
                           help="print the full JSON body instead of "
                                "bare collapsed-stack text")

    p_alerts = sub.add_parser(
        "alerts", help="show alert rules and states of a running "
                       "'repro serve' instance (GET /v1/alerts)")
    p_alerts.add_argument("--url", default="http://127.0.0.1:8765",
                          help="base URL of the serving instance "
                               "(default matches 'repro serve')")
    p_alerts.add_argument("--json", action="store_true",
                          help="print the full JSON body instead of the "
                               "rule table")

    p_debug = sub.add_parser(
        "debug-bundle", help="dump worst-offender debug bundles from a "
                             "running 'repro serve' instance "
                             "(GET /v1/debug/bundles)")
    p_debug.add_argument("--url", default="http://127.0.0.1:8765",
                         help="base URL of the serving instance "
                              "(default matches 'repro serve')")
    p_debug.add_argument("--kind", choices=("qerror", "latency"),
                         default=None,
                         help="only this offense kind (both by default)")
    p_debug.add_argument("--limit", type=int, default=None, metavar="N",
                         help="at most N bundles (all kept by default)")
    p_debug.add_argument("--output", "-o", metavar="FILE", default=None,
                         help="write the JSON body to FILE instead of "
                              "stdout")

    p_plan = sub.add_parser(
        "plan", help="choose a join order for one query and print the "
                     "plan hints")
    _add_benchmark_args(p_plan)
    p_plan.add_argument("sql", help="SELECT COUNT(*) query text")
    p_plan.add_argument("--bins", type=int, default=8)
    p_plan.add_argument("--estimator", default="bayescard",
                        choices=("bayescard", "sampling", "truescan",
                                 "histogram1d"))
    p_plan.add_argument("--load", metavar="DIR", default=None,
                        help="load a saved model artifact instead of "
                             "fitting on the benchmark")
    p_plan.add_argument("--url", metavar="URL", default=None,
                        help="plan against a running 'repro serve' "
                             "instance (POST /v1/subplans) instead of a "
                             "local model")
    p_plan.add_argument("--model", default=None,
                        help="served model name (with --url)")
    p_plan.add_argument("--dialect", default="pg_hint_plan",
                        choices=("pg_hint_plan", "json"),
                        help="hint text dialect (default pg_hint_plan)")
    p_plan.add_argument("--cost-model", default="c_out",
                        choices=("c_out", "c_mm"),
                        help="plan cost model (default c_out)")

    p_e2e = sub.add_parser(
        "e2e", help="end-to-end plan quality vs the truecard oracle")
    _add_benchmark_args(p_e2e)
    p_e2e.add_argument("--bins", type=int, default=8)
    p_e2e.add_argument("--estimator", default="bayescard",
                       choices=("bayescard", "sampling", "truescan",
                                "histogram1d"))
    p_e2e.add_argument("--cost-model", default="c_out",
                       choices=("c_out", "c_mm"),
                       help="plan cost model (default c_out)")
    p_e2e.add_argument("--worst", type=int, default=5, metavar="N",
                       help="how many worst-P-error queries to list")
    p_e2e.add_argument("--json", action="store_true",
                       help="print the full machine-readable report "
                            "(the BENCH_plan.json shape)")

    p_worker = sub.add_parser(
        "worker", help="run one shard worker as a TCP server")
    p_worker.add_argument("--listen", metavar="HOST:PORT",
                          default="127.0.0.1:0",
                          help="bind address (port 0 picks a free port; "
                               "the bound address is printed on startup)")
    p_worker.add_argument("--store", metavar="DIR", default=None,
                          help="attach the content-addressed artifact "
                               "store at DIR (a path shared with the "
                               "driver); without it the worker can only "
                               "load shard paths visible on its own "
                               "filesystem")
    p_worker.add_argument("--max-frame", type=int, default=None,
                          metavar="BYTES",
                          help="largest accepted RPC frame (default 1 GiB)")
    return parser


def cmd_fit(args) -> int:
    context = make_context(args.benchmark, scale=args.scale, seed=args.seed,
                           n_queries=args.queries,
                           max_tables=args.max_tables)
    if args.distributed:
        from repro.cluster import fit_distributed

        if not args.shards:
            raise SystemExit("repro fit: --distributed needs --shards N")
        config = FactorJoinConfig(n_bins=args.bins,
                                  table_estimator=args.estimator,
                                  seed=args.seed)
        summary = fit_distributed(
            config, context.database, args.save, n_shards=args.shards,
            policy=args.policy, workers=args.workers, name=args.name,
            compress=args.compress)
        per_shard = ", ".join(f"{s:.2f}s"
                              for s in summary["shard_fit_seconds"])
        print(f"fitted {summary['n_shards']}-shard {summary['policy']} "
              f"ensemble across {summary['workers']} worker processes in "
              f"{summary['fit_seconds']:.2f}s (per-shard fits: "
              f"{per_shard})")
        if summary["fallback"]:
            print(f"note: worker processes unavailable, fitted inline "
                  f"({summary['fallback']})")
        if summary["local_refits"]:
            print(f"note: {summary['local_refits']} shard(s) refitted in "
                  f"the driver after worker crashes")
        print(f"saved artifact to {summary['path']}")
        return 0
    model = _make_model(args)
    model.fit(context.database)
    model.save(args.save, name=args.name, compress=args.compress)
    if args.shards:
        per_shard = ", ".join(f"{s:.2f}s" for s in model.shard_fit_seconds)
        print(f"fitted {args.shards}-shard {args.policy} ensemble in "
              f"{model.fit_seconds:.2f}s (per-shard fits: {per_shard}; "
              f"executor: {args.parallel})")
        if model.parallel_fallback:
            print(f"note: parallel fit fell back to serial "
                  f"({model.parallel_fallback})")
    else:
        print(f"fitted model in {model.fit_seconds:.2f}s")
    print(f"saved artifact to {args.save}")
    return 0


def cmd_summary(args) -> int:
    context = make_context(args.benchmark, scale=args.scale, seed=args.seed,
                           n_queries=args.queries,
                           max_tables=args.max_tables)
    summary = context.benchmark.summary(with_cardinalities=args.cardinalities)
    rows = [[key, str(value)] for key, value in summary.items()]
    print(format_table(["statistic", "value"], rows,
                       title=f"{context.benchmark.name} summary"))
    return 0


def cmd_compare(args) -> int:
    context = make_context(args.benchmark, scale=args.scale, seed=args.seed,
                           n_queries=args.queries,
                           max_tables=args.max_tables)
    methods = default_methods(args.benchmark, seed=args.seed,
                              n_bins=args.bins)
    results = run_end_to_end(context, methods)
    print(end_to_end_table(
        results, title=f"End-to-end comparison on {context.benchmark.name}"))
    return 0


def cmd_estimate(args) -> int:
    query = coerce_query(args.sql)

    # the benchmark context (synthetic data + workload) is only built when
    # something needs it — a pure --load run must cost artifact-load time,
    # not data-generation time
    context = None

    def ctx():
        nonlocal context
        if context is None:
            context = make_context(args.benchmark, scale=args.scale,
                                   seed=args.seed, n_queries=args.queries,
                                   max_tables=args.max_tables)
        return context

    if args.load:
        from repro.serve import load_model

        expected = ctx().database.schema if args.true else None
        # load_model handles single-model and ensemble artifacts alike
        model = load_model(args.load, expected_schema=expected)
        print(f"loaded model from {args.load} (fit skipped)")
    else:
        model = FactorJoin(FactorJoinConfig(
            n_bins=args.bins, table_estimator=args.estimator,
            seed=args.seed))
        model.fit(ctx().database)
    if args.save:
        model.save(args.save)
        print(f"saved model to {args.save}")
    estimate = model.estimate(query)
    print(f"estimate: {estimate:,.1f}")
    if args.true:
        true = CardinalityExecutor(ctx().database).cardinality(query)
        ratio = estimate / max(true, 1.0)
        print(f"true:     {true:,.1f}   (est/true {ratio:.3f})")
    if getattr(args, "explain", False):
        import json

        trace = build_explain_trace(model, query)
        print(json.dumps(trace.to_json(), indent=2, sort_keys=True))
    return 0


def build_service(args):
    """Assemble (and optionally warm) the EstimationService a ``serve``
    invocation will run.

    Split from :func:`cmd_serve` so tests can exercise model loading,
    warming, and recording without binding a socket.
    """
    from repro.obs import (
        AlertEngine,
        JsonlEventExporter,
        JsonlTraceExporter,
        TraceLog,
        Tracer,
        default_alert_rules,
    )
    from repro.serve import (
        DEFAULT_MODEL,
        EstimationService,
        load_model,
        read_manifest,
    )

    exporter = None
    if getattr(args, "trace_log", None):
        exporter = JsonlTraceExporter(
            args.trace_log,
            max_bytes=getattr(args, "trace_log_max_bytes", None))
        print(f"exporting request traces to {args.trace_log}")
    tracer = Tracer(
        log=TraceLog(slow_threshold_ms=getattr(args, "slow_ms", 100.0)),
        exporter=exporter)
    alerts = None
    if getattr(args, "alert_log", None):
        alert_exporter = JsonlEventExporter(
            args.alert_log,
            max_bytes=getattr(args, "alert_log_max_bytes", None))
        alerts = AlertEngine(rules=default_alert_rules(),
                             exporter=alert_exporter)
        print(f"exporting alert events to {args.alert_log}")
    service = EstimationService(
        cache_size=args.cache_size,
        subplan_reuse=not getattr(args, "no_subplan_reuse", False),
        tracer=tracer, alerts=alerts)
    workers = getattr(args, "workers", None)

    def publish(name: str, path: str, metadata: dict) -> None:
        manifest = read_manifest(path)
        if workers and manifest.get("ensemble_version") is not None:
            from repro.cluster import ClusterModel

            model = ClusterModel.from_artifact(path, workers=workers)
            cluster = model.pool.describe()
            note = (f" (inline fallback: {model.pool.fallback})"
                    if model.pool.fallback else "")
            print(f"serving {name!r} through "
                  f"{cluster['n_workers']} shard worker processes{note}")
        else:
            if workers:
                print(f"note: {path!r} is a single-model artifact; "
                      f"--workers applies to ensembles, serving "
                      f"in-process")
            model = load_model(path)
        service.register(name, model, metadata=metadata)

    if args.load:
        seen: dict[str, str] = {}
        for spec in args.load:
            name, sep, path = spec.partition("=")
            if not sep:
                name, path = Path(spec).stem or DEFAULT_MODEL, spec
            if name in seen:
                raise SystemExit(
                    f"repro serve: --load name {name!r} used by both "
                    f"{seen[name]!r} and {path!r}; disambiguate with "
                    f"NAME=DIR")
            seen[name] = path
            manifest = read_manifest(path)
            # the artifact checksum doubles as the cache-snapshot
            # fingerprint (see EstimationService.save_snapshot)
            fingerprint = (manifest.get("sha256")
                           or manifest.get("shared_sha256"))
            publish(name, path, metadata={"fingerprint": fingerprint,
                                          "artifact": path})
    elif workers:
        # no artifact given: fit a sharded ensemble on the benchmark,
        # save it beside the server's working data, and serve it through
        # worker processes (the artifact is the cluster's unit of state)
        import tempfile

        if not args.shards:
            raise SystemExit("repro serve: --workers without --load "
                             "needs --shards N to fit an ensemble first")
        model = _make_model(args)
        context = make_context(args.benchmark, scale=args.scale,
                               seed=args.seed, n_queries=args.queries,
                               max_tables=args.max_tables)
        model.fit(context.database)
        artifact_dir = tempfile.mkdtemp(prefix="repro-serve-ensemble-")
        model.save(artifact_dir, name=DEFAULT_MODEL)
        print(f"fitted ensemble saved to {artifact_dir}")
        manifest = read_manifest(artifact_dir)
        publish(DEFAULT_MODEL, artifact_dir,
                metadata={"benchmark": args.benchmark,
                          "fingerprint": manifest.get("shared_sha256"),
                          "artifact": artifact_dir,
                          "fit_seconds": model.fit_seconds})
    else:
        model = _make_model(args)
        context = make_context(args.benchmark, scale=args.scale,
                               seed=args.seed, n_queries=args.queries,
                               max_tables=args.max_tables)
        model.fit(context.database)
        service.register(DEFAULT_MODEL, model,
                         metadata={"benchmark": args.benchmark,
                                   "fit_seconds": model.fit_seconds})
    if getattr(args, "snapshot", None) and Path(args.snapshot).is_file():
        from repro.errors import ReproError

        try:
            summary = service.restore_snapshot(args.snapshot)
            print(f"restored cache snapshot {args.snapshot} "
                  f"({summary['entries']} query entries, "
                  f"{summary['subplans']} sub-plan entries)")
        except ReproError as exc:
            # a stale snapshot (or an ambiguous default model) must
            # refuse, not kill the server; the shutdown path overwrites
            # it with a fresh one
            print(f"cache snapshot refused: {exc}")
    if getattr(args, "warm", None):
        summary = warm_from_spec(service, args)
        print(f"warmed {summary['entries']} workload entries in "
              f"{summary['seconds']:.2f}s "
              f"({summary['warmed_subplan_maps']} sub-plan maps, "
              f"{summary['warmed_estimates']} plain estimates"
              + (f", {len(summary['errors'])} skipped"
                 if summary["errors"] else "") + ")")
    if getattr(args, "record", None):
        service.start_recording(args.record)
        print(f"recording served queries to {args.record}")
    return service


def warm_from_spec(service, args) -> dict:
    """Resolve ``--warm`` (a workload file, or the literal ``benchmark``
    for the generated benchmark workload) and replay it into the caches
    before any socket is bound."""
    from repro.serve import generated_workload, load_workload, warm_service

    if args.warm == "benchmark":
        entries = generated_workload(args.benchmark, scale=args.scale,
                                     seed=args.seed,
                                     n_queries=args.queries,
                                     max_tables=args.max_tables)
    else:
        entries = load_workload(args.warm)
    return warm_service(service, entries)


def cmd_serve(args) -> int:
    from repro.serve import make_server

    service = build_service(args)
    snapshot_dir = args.snapshot_dir
    if snapshot_dir is None and args.snapshot:
        snapshot_dir = str(Path(args.snapshot).resolve().parent)
    server = make_server(service, host=args.host, port=args.port,
                         verbose=args.verbose, snapshot_dir=snapshot_dir,
                         swap_dir=args.swap_dir)
    host, port = server.server_address[:2]
    service.start_alert_ticker(
        interval=getattr(args, "alert_interval", 5.0))
    print(f"serving models {service.registry.names()} "
          f"on http://{host}:{port}")
    print("endpoints: POST /v1/estimate /v1/subplans /v1/plan /v1/update "
          "/v1/explain /v1/swap /v1/feedback · GET /v1/models /v1/stats "
          "/v1/traces /v1/slo /v1/drift /v1/alerts /v1/debug/bundles "
          "/v1/profile /metrics /health · POST /warmup /snapshot")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
        service.stop_alert_ticker()
        if getattr(args, "snapshot", None):
            from repro.errors import ReproError

            try:
                summary = service.save_snapshot(args.snapshot)
                print(f"saved cache snapshot to {args.snapshot} "
                      f"({summary['entries']} query entries, "
                      f"{summary['subplans']} sub-plan entries)")
            except ReproError as exc:  # e.g. ambiguous default model
                print(f"cache snapshot not saved: {exc}")
        # flush buffered JSONL records: a SIGINT must not drop the last
        # traces or alert events still sitting in libc's buffers
        exporter = getattr(service.tracer, "exporter", None)
        if exporter is not None:
            exporter.close()
        alert_exporter = getattr(service.alerts, "exporter", None)
        if alert_exporter is not None:
            alert_exporter.close()
        # cluster models own worker processes; stop them with the server
        for name in service.registry.names():
            try:
                model = service.registry.get(name)
            except Exception:
                continue
            close = getattr(model, "close", None)
            if callable(close):
                close()
    return 0


def cmd_plan(args) -> int:
    from repro.optimizer.cost import COST_MODELS
    from repro.plan import (
        LocalCardinalityGenerator,
        RemoteCardinalityGenerator,
        plan_query,
    )

    query = coerce_query(args.sql)
    if args.url:
        generator = RemoteCardinalityGenerator(args.url, model=args.model)
        source = args.url
    elif args.load:
        from repro.serve import load_model

        generator = LocalCardinalityGenerator(model=load_model(args.load))
        source = args.load
    else:
        model = FactorJoin(FactorJoinConfig(
            n_bins=args.bins, table_estimator=args.estimator,
            seed=args.seed))
        context = make_context(args.benchmark, scale=args.scale,
                               seed=args.seed, n_queries=args.queries,
                               max_tables=args.max_tables)
        model.fit(context.database)
        generator = LocalCardinalityGenerator(model=model)
        source = f"{args.benchmark} fit"
    decision = plan_query(query, generator,
                          COST_MODELS[args.cost_model])
    print(f"join order ({args.cost_model} cost "
          f"{decision.estimated_cost:,.1f}, estimates from {source}):")
    print(decision.plan.render())
    print("hints:")
    print(decision.hint_text(args.dialect))
    return 0


def cmd_e2e(args) -> int:
    import json

    from repro.optimizer.cost import COST_MODELS
    from repro.plan import LocalCardinalityGenerator, PlanHarness

    context = make_context(args.benchmark, scale=args.scale,
                           seed=args.seed, n_queries=args.queries,
                           max_tables=args.max_tables)
    model = FactorJoin(FactorJoinConfig(
        n_bins=args.bins, table_estimator=args.estimator,
        seed=args.seed))
    model.fit(context.database)
    harness = PlanHarness(context.database,
                          cost_model=COST_MODELS[args.cost_model])
    report = harness.run(LocalCardinalityGenerator(model=model),
                         context.workload, name="factorjoin")
    if args.json:
        print(json.dumps(report.to_json(worst=args.worst), indent=2,
                         sort_keys=True))
        return 0
    summary = report.p_error_summary()
    rows = [
        ["queries", str(len(report.verdicts))],
        ["unsupported", str(report.num_unsupported)],
        ["plan agreement", f"{report.agreement_rate:.1%}"],
        ["P-error mean", f"{summary['mean']:.3f}"],
        ["P-error median", f"{summary['median']:.3f}"],
        ["P-error p90", f"{summary['p90']:.3f}"],
        ["P-error max", f"{summary['max']:.3f}"],
    ]
    print(format_table(
        ["metric", "value"], rows,
        title=f"Plan quality on {context.benchmark.name} "
              f"({args.cost_model})"))
    worst = [v for v in report.worst(args.worst) if v.p_error > 1.0]
    if worst:
        print("\nworst queries (P-error > 1):")
        for verdict in worst:
            print(f"  {verdict.p_error:8.3f}  {verdict.sql}")
    else:
        print("\nevery chosen plan matched the truecard-oracle cost.")
    return 0


def cmd_profile(args) -> int:
    import urllib.parse
    import urllib.request

    params = {"seconds": args.seconds, "hz": args.hz}
    if args.worker is not None:
        params["worker"] = args.worker
    if args.model:
        params["model"] = args.model
    if not args.json:
        params["format"] = "collapsed"
    url = (args.url.rstrip("/") + "/v1/profile?"
           + urllib.parse.urlencode(params))
    # the server blocks for the sampling duration; leave headroom for a
    # forwarded worker profile on a loaded host
    with urllib.request.urlopen(url,
                                timeout=args.seconds + 60.0) as response:
        body = response.read().decode("utf-8", "replace")
    print(body, end="" if body.endswith("\n") else "\n")
    return 0


def cmd_alerts(args) -> int:
    import json
    import urllib.request

    url = args.url.rstrip("/") + "/v1/alerts"
    with urllib.request.urlopen(url, timeout=30.0) as response:
        body = response.read().decode("utf-8", "replace")
    if args.json:
        print(body, end="" if body.endswith("\n") else "\n")
        return 0
    payload = json.loads(body)
    rows = payload.get("alerts", [])
    if not rows:
        print("no alert rules configured")
        return 0
    print(f"{'RULE':<28} {'STATE':<8} {'VALUE':>10} {'THRESHOLD':>10} "
          f"SEVERITY")
    for row in rows:
        value = row.get("value")
        shown = "-" if value is None else f"{value:.3f}"
        print(f"{row['name']:<28} {row['state']:<8} {shown:>10} "
              f"{row['threshold']:>10.3f} {row['severity']}")
    firing = payload.get("firing", 0)
    print(f"{firing} firing")
    return 0


def cmd_debug_bundle(args) -> int:
    import urllib.parse
    import urllib.request

    params = {}
    if args.kind:
        params["kind"] = args.kind
    if args.limit is not None:
        params["limit"] = args.limit
    url = args.url.rstrip("/") + "/v1/debug/bundles"
    if params:
        url += "?" + urllib.parse.urlencode(params)
    with urllib.request.urlopen(url, timeout=30.0) as response:
        body = response.read().decode("utf-8", "replace")
    if args.output:
        Path(args.output).write_text(
            body if body.endswith("\n") else body + "\n",
            encoding="utf-8")
        print(f"wrote debug bundles to {args.output}")
        return 0
    print(body, end="" if body.endswith("\n") else "\n")
    return 0


def cmd_worker(args) -> int:
    from repro.cluster.net import DEFAULT_MAX_FRAME, WorkerServer, \
        parse_address

    host, port = parse_address(args.listen)
    store = None
    if args.store:
        from repro.serve import LocalArtifactStore

        store = LocalArtifactStore(args.store)
    server = WorkerServer(
        host, port, store=store,
        max_frame=args.max_frame or DEFAULT_MAX_FRAME)
    bound_host, bound_port = server.address
    # drivers (and the benchmarks) parse this line to learn the port
    # when --listen asked for port 0
    print(f"worker listening on {bound_host}:{bound_port}"
          + (f" (store: {args.store})" if args.store else ""),
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("worker shutting down")
    finally:
        server.stop()
    return 0


COMMANDS = {
    "summary": cmd_summary,
    "compare": cmd_compare,
    "fit": cmd_fit,
    "estimate": cmd_estimate,
    "serve": cmd_serve,
    "plan": cmd_plan,
    "e2e": cmd_e2e,
    "profile": cmd_profile,
    "alerts": cmd_alerts,
    "debug-bundle": cmd_debug_bundle,
    "worker": cmd_worker,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
