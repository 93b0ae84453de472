"""Observability overhead gate: always-on telemetry must stay <5% QPS.

The obs layer's contract is that instrumenting the serving hot path —
the metrics registry's histogram observes and the tracer's span scopes —
is cheap enough to leave on in production.  This bench serves the same
workload through two builds of the *same* service code:

- **instrumented**: the default ``EstimationService`` (live
  ``MetricsRegistry`` + ``Tracer``);
- **null**: the no-op twins (:data:`~repro.obs.NULL_METRICS`,
  :data:`~repro.obs.NULL_TRACER`), i.e. genuinely uninstrumented.

What the gate measures, and why
-------------------------------
Per-request instrumentation has a hard floor in pure Python: a span is
an object allocation plus two clock reads, a labeled histogram observe
is a lock plus a dict update — together ~10-15us per request.  That
floor can never be <5% of a ~20us in-memory cache hit, so a relative
gate on the hit path would only ever measure the interpreter, not the
design.  The regime that matters is the one the paper's system actually
serves: FactorJoin *inference* (cache miss), which costs milliseconds
per query at benchmark scale.  There the same 15us is ~1%.

So this bench gates the <5% QPS budget on the **inference path** — an
LRU-1 cache and ``subplan_reuse=False`` over distinct workload queries
make every request a genuine model estimate — and separately bounds the
**absolute** per-request cost on the cache-hit path, which pins the
instrumentation floor itself without drowning it in a ratio.

Rounds are interleaved (null, instrumented, null, ...) so scheduler and
thermal drift hit both builds alike, and each *query* keeps its best
time across rounds — a preemption spike poisons one query in one round,
not a whole round — so the sum of per-query minima is the least
noise-contaminated sample of each code path's true cost.

The final check scrapes a **live** ``GET /metrics`` under concurrent
traffic and validates the body with the strict exposition parser — the
CI guard that the text Prometheus ingests is well-formed while the
counters underneath are moving.

The cluster scenario applies the same discipline one layer down: two
real TCP shard workers with live per-worker registries versus two with
:data:`~repro.obs.NULL_METRICS`, gating worker-side instrumentation to
the same <5% budget and bounding the latency of a federated scrape
(driver ``/metrics`` → ``CollectMetrics`` RPC per worker).

Every gate also records its numbers into ``BENCH_obs.json``
(machine-readable: QPS, overhead %, scrape latency) so CI can upload
the measurements as an artifact and trend them across commits.
"""

import threading
import time
from contextlib import contextmanager

import pytest

from repro.cluster import ClusterModel, WorkerServer
from repro.core.estimator import FactorJoin, FactorJoinConfig
from repro.eval.harness import make_context
from repro.obs import NULL_METRICS, NULL_TRACER, parse_prometheus_text
from repro.serve import EstimationService, LocalArtifactStore, \
    serve_in_background
from repro.shard import ShardedFactorJoin
from repro.utils import format_table

#: Instrumented serving must retain this fraction of null-build QPS on
#: the inference (cache-miss) path.
MIN_QPS_RATIO = 0.95

#: Absolute per-request instrumentation budget on the cache-hit path.
#: The measured floor is ~15us (4 spans + 1 bound observe); the bound
#: leaves headroom for a noisy shared runner while still failing fast
#: if the hot path grows a disproportionate cost.
MAX_HIT_OVERHEAD_US = 75.0

#: A federated scrape does one 5s-timeout ``CollectMetrics`` RPC per
#: worker, serially; against two healthy localhost workers it takes
#: milliseconds.  The bound catches a scrape path that starts blocking
#: on worker traffic (it must never ride the request lock).
MAX_FEDERATED_SCRAPE_SECONDS = 2.0

ROUNDS = 10
N_QUERIES = 20
N_CLUSTER_WORKERS = 2

#: Gate measurements accumulated across tests, flushed to
#: ``BENCH_obs.json`` (override the path with ``BENCH_OBS_JSON``) by the
#: shared ``bench_report`` fixture in ``benchmarks/conftest.py``.
RESULTS: dict = {}
REPORT = ("BENCH_OBS_JSON", "BENCH_obs.json")
pytestmark = pytest.mark.usefixtures("bench_report")


@pytest.fixture(scope="module")
def obs_ctx():
    # large enough that one inference costs ~1ms — the serving regime
    # the 5% budget is written for (see module docstring)
    return make_context("stats", scale=0.2, seed=0, max_tables=6)


@pytest.fixture(scope="module")
def fitted(obs_ctx):
    model = FactorJoin(FactorJoinConfig(
        n_bins=8, table_estimator="truescan", seed=0))
    return model.fit(obs_ctx.database)


def _service(fitted, instrumented: bool, **kwargs) -> EstimationService:
    if not instrumented:
        kwargs.update(metrics=NULL_METRICS, tracer=NULL_TRACER)
    service = EstimationService(**kwargs)
    service.register("default", fitted)
    return service


def _interleaved_best(services: dict, queries) -> dict:
    """Mean of per-query best seconds for each service, rounds
    interleaved (see the module docstring for why per-query minima)."""
    for service in services.values():  # warm caches and code paths
        for query in queries:
            service.estimate(query)
    best = {name: [float("inf")] * len(queries) for name in services}
    for _ in range(ROUNDS):
        for name, service in services.items():
            per_query = best[name]
            for i, query in enumerate(queries):
                start = time.perf_counter()
                service.estimate(query)
                elapsed = time.perf_counter() - start
                if elapsed < per_query[i]:
                    per_query[i] = elapsed
    return {name: sum(per_query) / len(per_query)
            for name, per_query in best.items()}


class TestOverheadGate:
    def test_inference_qps_within_five_percent_of_null(self, fitted,
                                                       obs_ctx):
        queries = obs_ctx.workload[:N_QUERIES]
        # LRU-1 + no subplan reuse + distinct queries round-robin:
        # every request is a genuine inference
        services = {
            "null": _service(fitted, False, cache_size=1,
                             subplan_reuse=False),
            "instrumented": _service(fitted, True, cache_size=1,
                                     subplan_reuse=False),
        }
        best = _interleaved_best(services, queries)
        ratio = best["null"] / best["instrumented"]
        RESULTS["inference"] = {
            "null_qps": 1.0 / best["null"],
            "instrumented_qps": 1.0 / best["instrumented"],
            "qps_ratio": ratio,
            "overhead_pct": (1.0 - ratio) * 100.0,
        }
        print()
        print(format_table(
            ["build", "inference QPS", "ratio vs null"],
            [["null (NULL_METRICS/NULL_TRACER)",
              f"{1.0 / best['null']:.0f}", "1.000"],
             ["instrumented (default)",
              f"{1.0 / best['instrumented']:.0f}", f"{ratio:.3f}"]]))
        assert ratio >= MIN_QPS_RATIO, (
            f"always-on telemetry costs {(1 - ratio) * 100:.1f}% QPS "
            f"(gate: <{(1 - MIN_QPS_RATIO) * 100:.0f}%)")
        # the instrumented build actually recorded the traffic it served
        count, *_ = services["instrumented"].metrics.histogram(
            "repro_request_seconds").snapshot()
        assert count > 0
        assert services["null"].metrics.collect() == []

    def test_hit_path_cost_stays_bounded(self, fitted, obs_ctx):
        queries = obs_ctx.workload[:N_QUERIES]
        services = {
            "null": _service(fitted, False),
            "instrumented": _service(fitted, True),
        }
        best = _interleaved_best(services, queries)
        overhead_us = (best["instrumented"] - best["null"]) * 1e6
        RESULTS["hit_path"] = {
            "null_us_per_request": best["null"] * 1e6,
            "instrumented_us_per_request": best["instrumented"] * 1e6,
            "overhead_us": overhead_us,
        }
        print()
        print(format_table(
            ["build", "cache-hit us/req"],
            [["null", f"{best['null'] * 1e6:.1f}"],
             ["instrumented", f"{best['instrumented'] * 1e6:.1f}"],
             ["overhead", f"{overhead_us:.1f}"]]))
        assert overhead_us < MAX_HIT_OVERHEAD_US, (
            f"per-request instrumentation cost {overhead_us:.1f}us "
            f"exceeds the {MAX_HIT_OVERHEAD_US:.0f}us budget")


class TestLiveScrape:
    def test_metrics_scrape_parses_under_concurrent_traffic(self, fitted,
                                                            obs_ctx):
        import urllib.request

        queries = obs_ctx.workload[:10]
        service = _service(fitted, instrumented=True)
        server, _ = serve_in_background(service, port=0)
        try:
            host, port = server.server_address[:2]
            stop = threading.Event()

            def traffic():
                while not stop.is_set():
                    for query in queries:
                        service.estimate(query)

            thread = threading.Thread(target=traffic)
            thread.start()
            try:
                scrape_seconds = []
                for _ in range(10):
                    started = time.perf_counter()
                    with urllib.request.urlopen(
                            f"http://{host}:{port}/metrics",
                            timeout=10) as resp:
                        assert resp.status == 200
                        body = resp.read().decode()
                    scrape_seconds.append(time.perf_counter() - started)
                    families = parse_prometheus_text(body)
                    assert families["repro_request_seconds"][
                        "type"] == "histogram"
                    assert "repro_cache_hits_total" in families
                RESULTS["live_scrape"] = {
                    "best_seconds": min(scrape_seconds),
                    "worst_seconds": max(scrape_seconds),
                }
            finally:
                stop.set()
                thread.join()
        finally:
            server.shutdown()
            server.server_close()


@pytest.fixture(scope="module")
def cluster_artifact(obs_ctx, tmp_path_factory):
    model = ShardedFactorJoin(
        FactorJoinConfig(n_bins=8, table_estimator="truescan", seed=0),
        n_shards=N_CLUSTER_WORKERS, parallel="serial").fit(
            obs_ctx.database)
    path = tmp_path_factory.mktemp("obs-cluster") / "ensemble"
    model.save(path)
    return path


@contextmanager
def _tcp_cluster(path, store_root, instrumented: bool):
    """A ClusterModel over real TCP worker servers whose registries are
    live (default) or :data:`NULL_METRICS` (genuinely uninstrumented)."""
    metrics = None if instrumented else NULL_METRICS
    servers = [
        WorkerServer(store=LocalArtifactStore(store_root),
                     metrics=metrics).start()
        for _ in range(N_CLUSTER_WORKERS)
    ]
    model = ClusterModel.from_artifact(
        path, addresses=[server.address for server in servers],
        store=LocalArtifactStore(store_root))
    try:
        yield model
    finally:
        model.close()
        for server in servers:
            server.stop()


class TestClusterOverheadGate:
    def test_worker_instrumentation_and_federated_scrape(
            self, cluster_artifact, obs_ctx, tmp_path_factory):
        """Same <5% budget, one layer down: per-worker registries timing
        every handler dispatch across real TCP transports, then a
        federated ``/metrics`` scrape (CollectMetrics RPC per worker)
        that must stay fast and strict-parse clean."""
        queries = obs_ctx.workload[:N_QUERIES]
        roots = tmp_path_factory.mktemp("obs-cluster-stores")
        with _tcp_cluster(cluster_artifact, roots / "null",
                          instrumented=False) as null_model, \
                _tcp_cluster(cluster_artifact, roots / "live",
                             instrumented=True) as live_model:
            best = _interleaved_best(
                {"null": null_model, "instrumented": live_model}, queries)
            ratio = best["null"] / best["instrumented"]

            service = _service_for(live_model)
            started = time.perf_counter()
            text = service.metrics.render_prometheus()
            scrape = time.perf_counter() - started
            families = parse_prometheus_text(text)

        RESULTS["cluster"] = {
            "n_workers": N_CLUSTER_WORKERS,
            "null_qps": 1.0 / best["null"],
            "instrumented_qps": 1.0 / best["instrumented"],
            "qps_ratio": ratio,
            "overhead_pct": (1.0 - ratio) * 100.0,
            "federated_scrape_seconds": scrape,
        }
        print()
        print(format_table(
            ["build", "cluster QPS", "ratio vs null"],
            [["null workers (NULL_METRICS)",
              f"{1.0 / best['null']:.0f}", "1.000"],
             ["instrumented workers",
              f"{1.0 / best['instrumented']:.0f}", f"{ratio:.3f}"]]))
        print(f"federated scrape: {scrape * 1e3:.1f}ms "
              f"(bound {MAX_FEDERATED_SCRAPE_SECONDS:.1f}s)")

        assert ratio >= MIN_QPS_RATIO, (
            f"worker-side telemetry costs {(1 - ratio) * 100:.1f}% QPS "
            f"(gate: <{(1 - MIN_QPS_RATIO) * 100:.0f}%)")
        assert scrape < MAX_FEDERATED_SCRAPE_SECONDS, (
            f"federated scrape took {scrape:.2f}s through "
            f"{N_CLUSTER_WORKERS} TCP workers")
        handler = families["repro_worker_handler_seconds"]
        workers_seen = {labels["worker"]
                        for _name, labels, _value in handler["samples"]}
        assert len(workers_seen) == N_CLUSTER_WORKERS


def _service_for(model) -> EstimationService:
    service = EstimationService()
    service.register("cluster", model)
    return service
