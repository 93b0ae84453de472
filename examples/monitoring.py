"""Monitoring: metrics scrapes, request traces, and accuracy telemetry.

Walks the ``repro.obs`` layer end to end, in-process:

1. serve a model and generate some traffic (misses, cache hits, and a
   client that reports observed true cardinalities);
2. scrape ``GET /metrics`` and read the Prometheus families — latency
   histograms, cache counters, rolling q-error;
3. fetch one request's full span tree via ``POST /v1/explain?trace=true``
   and print it as an indented timing breakdown;
4. read the slow-query ring (``GET /v1/traces``) and the JSON summaries
   (``GET /v1/stats``);
5. export traces as JSONL — what ``repro serve --trace-log FILE`` writes.

Run:  python examples/monitoring.py
"""

import json
import tempfile
import urllib.request
from pathlib import Path

from repro import FactorJoin, FactorJoinConfig
from repro.obs import JsonlTraceExporter, TraceLog, Tracer
from repro.serve import EstimationService, serve_in_background

from quickstart import build_database

QUERIES = [
    "SELECT COUNT(*) FROM users u, orders o WHERE u.id = o.user_id",
    "SELECT COUNT(*) FROM users u, orders o "
    "WHERE u.id = o.user_id AND u.age < 30",
    "SELECT COUNT(*) FROM users u, orders o "
    "WHERE u.id = o.user_id AND o.amount > 250",
]


def _post(base: str, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def _get(base: str, path: str) -> str:
    with urllib.request.urlopen(base + path) as response:
        return response.read().decode()


def _print_span(span: dict, indent: int = 0) -> None:
    mark = " [remote]" if span.get("remote") else ""
    error = f"  ERROR {span['error']}" if span.get("error") else ""
    print(f"  {'  ' * indent}{span['name']:<{24 - 2 * indent}} "
          f"{span['duration_ms']:8.3f} ms{mark}{error}")
    for child in span["children"]:
        _print_span(child, indent + 1)


def run(workdir: Path) -> None:
    db = build_database()
    model = FactorJoin(FactorJoinConfig(n_bins=128,
                                        table_estimator="truescan"))
    model.fit(db)

    # a tracer with a JSONL exporter — the programmatic equivalent of
    # `repro serve --trace-log traces.jsonl --slow-ms 5`
    trace_path = workdir / "traces.jsonl"
    exporter = JsonlTraceExporter(str(trace_path))
    service = EstimationService(
        tracer=Tracer(log=TraceLog(slow_threshold_ms=5.0),
                      exporter=exporter))
    service.register("orders", model)
    server, _ = serve_in_background(service, port=0)
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"

    # -- 1. traffic: misses, cache hits, and accuracy feedback ---------------
    for sql in QUERIES:
        _post(base, "/v1/estimate", {"sql": sql})
    for sql in QUERIES:
        _post(base, "/v1/estimate", {"sql": sql})  # query-level cache hits
    # a client that later learned the real cardinalities reports them
    # back; the service records rolling q-error histograms per model
    for sql in QUERIES:
        feedback = service.record_truth(sql, model="orders")
        print(f"q-error {feedback.q_error:6.2f}  "
              f"(est {feedback.estimate:10,.0f}, "
              f"true {feedback.true_cardinality:10,.0f})  {sql[:60]}")

    # -- 2. the Prometheus scrape --------------------------------------------
    scrape = _get(base, "/metrics")
    print("\nGET /metrics (excerpt):")
    for line in scrape.splitlines():
        if line.startswith(("repro_request_seconds_count",
                            "repro_cache_hits_total",
                            "repro_qerror_count")):
            print(f"  {line}")

    # -- 3. one request's span tree (a fresh query, so the tree shows the
    # cache miss and the model inference stage) ------------------------------
    fresh = ("SELECT COUNT(*) FROM users u, orders o "
             "WHERE u.id = o.user_id AND u.age >= 60 AND o.amount <= 50")
    body = _post(base, "/v1/explain?trace=true", {"sql": fresh})
    trace = body["trace"]
    print(f"\nPOST /v1/explain?trace=true -> trace {trace['trace_id']} "
          f"({trace['span_count']} spans, {trace['duration_ms']:.3f} ms):")
    _print_span(trace["root"])

    # -- 4. rings and summaries ----------------------------------------------
    stats = json.loads(_get(base, "/v1/stats"))
    latency = stats["metrics"]["repro_request_seconds"]["summary"]
    print(f"\nGET /v1/stats -> {latency['count']:.0f} requests, "
          f"p50 {latency['p50'] * 1e3:.3f} ms, "
          f"p99 {latency['p99'] * 1e3:.3f} ms; "
          f"traces: {stats['traces']}")
    slow = json.loads(_get(base, "/v1/traces?slow=true"))
    print(f"GET /v1/traces?slow=true -> {slow['slow']} requests over "
          f"{service.tracer.log.slow_threshold_ms:.0f} ms")

    # -- 5. the JSONL export --------------------------------------------------
    server.shutdown()
    server.server_close()
    exporter.close()
    lines = trace_path.read_text().splitlines()
    roots = [json.loads(line)["name"] for line in lines]
    print(f"\n{trace_path}: {len(lines)} exported traces "
          f"({', '.join(sorted(set(roots)))})")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-monitoring-") as workdir:
        run(Path(workdir))


if __name__ == "__main__":
    main()
