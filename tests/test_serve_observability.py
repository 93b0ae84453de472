"""Serving-layer observability: /metrics scrapes, /v1/stats, request
traces over HTTP, and accuracy telemetry."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import EstimateRequest, FeedbackRequest
from repro.core.estimator import FactorJoin, FactorJoinConfig
from repro.obs import JsonlTraceExporter, TraceLog, Tracer, parse_prometheus_text
from repro.serve import EstimationService, serve_in_background

SQL = "SELECT COUNT(*) FROM A a, B b WHERE a.id = b.aid AND a.x > 1"


@pytest.fixture
def served(toy_db):
    model = FactorJoin(FactorJoinConfig(n_bins=4,
                                        table_estimator="truescan")).fit(
        toy_db)
    service = EstimationService()
    service.register("default", model)
    server, _ = serve_in_background(service, port=0)
    yield server, service, model
    server.shutdown()
    server.server_close()


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _post(server, path, payload):
    req = urllib.request.Request(
        _url(server, path), data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read())


def _get(server, path):
    with urllib.request.urlopen(_url(server, path), timeout=10) as resp:
        return json.loads(resp.read())


def _get_raw(server, path):
    with urllib.request.urlopen(_url(server, path), timeout=10) as resp:
        return resp.status, dict(resp.headers), resp.read().decode()


class TestMetricsEndpoint:
    def test_scrape_parses_and_carries_the_families(self, served):
        server, _, _ = served
        _post(server, "/v1/estimate", {"sql": SQL})
        _post(server, "/v1/estimate", {"sql": SQL})  # a cache hit
        status, headers, text = _get_raw(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        families = parse_prometheus_text(text)
        assert families["repro_request_seconds"]["type"] == "histogram"
        assert families["repro_cache_hits_total"]["type"] == "counter"
        assert families["repro_uptime_seconds"]["type"] == "gauge"
        assert families["repro_model_version"]["type"] == "gauge"
        hits = {tuple(sorted(labels.items())): value
                for _, labels, value
                in families["repro_cache_hits_total"]["samples"]}
        assert hits[(("level", "query"), ("model", "default"))] == 1.0

    def test_latency_histogram_labeled_by_endpoint_and_model(self, served):
        server, service, _ = served
        _post(server, "/v1/estimate", {"sql": SQL})
        text = service.metrics.render_prometheus()
        assert ('repro_request_seconds_count{endpoint="estimate",'
                'model="default"} 1') in text

    def test_counters_stay_consistent_under_concurrent_scrapes(self,
                                                               served):
        server, service, _ = served
        stop = threading.Event()
        errors = []

        def traffic():
            while not stop.is_set():
                service.serve_estimate(EstimateRequest(query=SQL))

        def scrape():
            last = -1.0
            while not stop.is_set():
                families = parse_prometheus_text(
                    service.metrics.render_prometheus())
                totals = {}
                for _, labels, value in families[
                        "repro_cache_hits_total"]["samples"]:
                    if labels["level"] == "query":
                        totals["hits"] = value
                for _, labels, value in families[
                        "repro_cache_misses_total"]["samples"]:
                    if labels["level"] == "query":
                        totals["misses"] = value
                lookups = totals.get("hits", 0) + totals.get("misses", 0)
                if totals.get("hits", 0) > lookups or lookups < last:
                    errors.append(dict(totals))
                    return
                last = lookups

        threads = [threading.Thread(target=traffic) for _ in range(3)]
        threads.append(threading.Thread(target=scrape))
        for t in threads:
            t.start()
        import time

        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join()
        assert not errors


class TestStatsEndpoints:
    def test_v1_stats_exposes_metrics_and_trace_rings(self, served):
        server, _, _ = served
        _post(server, "/v1/estimate", {"sql": SQL})
        body = _get(server, "/v1/stats")
        assert body["api_version"] == "v1"
        assert body["metrics"]["repro_request_seconds"]["kind"] == (
            "histogram")
        summary = body["metrics"]["repro_request_seconds"]["summary"]
        assert summary["count"] >= 1
        assert body["traces"]["recent"] >= 1
        assert "slow_threshold_ms" in body["traces"]

    def test_v1_stats_latency_summary_and_cache_counters(self, served):
        server, _, _ = served
        _post(server, "/v1/estimate", {"sql": SQL})
        status, _, text = _get_raw(server, "/v1/stats")
        assert status == 200
        metrics = json.loads(text)["metrics"]
        summary = metrics["repro_request_seconds"]["summary"]
        assert summary["count"] == 1
        assert set(summary) >= {"count", "total", "mean", "p50", "p99"}
        hits = metrics["repro_cache_hits_total"]["values"]
        assert hits["level=query,model=default"] == 0


class TestTracesOverHttp:
    def test_explain_trace_returns_one_span_tree(self, served):
        server, _, _ = served
        body = _post(server, "/v1/explain?trace=true", {"sql": SQL})
        trace = body["trace"]
        assert trace["trace_id"] == body["explain"]["trace_id"]
        root = trace["root"]
        assert root["name"] == "request.estimate"
        names = [child["name"] for child in root["children"]]
        assert names[:2] == ["parse", "cache.lookup"]
        assert "model.estimate" in names
        assert all(child["trace_id"] == trace["trace_id"]
                   for child in root["children"])

    def test_untraced_explain_still_stamps_the_trace_id(self, served):
        server, _, _ = served
        body = _post(server, "/v1/explain", {"sql": SQL})
        assert "trace" not in body
        assert body["explain"]["trace_id"]

    def test_v1_traces_ring(self, served):
        server, _, _ = served
        for _ in range(3):
            _post(server, "/v1/estimate", {"sql": SQL})
        body = _get(server, "/v1/traces?limit=2")
        assert body["api_version"] == "v1"
        assert len(body["traces"]) == 2
        assert body["recent"] >= 3
        newest = body["traces"][0]
        assert newest["root"]["name"] == "request.estimate"
        slow = _get(server, "/v1/traces?slow=true")
        assert slow["slow"] == len(slow["traces"])

    def test_v1_traces_rejects_bad_limit(self, served):
        server, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(server, "/v1/traces?limit=zero")
        assert info.value.code == 400

    def test_jsonl_export_writes_one_line_per_request(self, toy_db,
                                                      tmp_path):
        model = FactorJoin(FactorJoinConfig(n_bins=4)).fit(toy_db)
        path = tmp_path / "trace.jsonl"
        exporter = JsonlTraceExporter(str(path))
        service = EstimationService(
            tracer=Tracer(log=TraceLog(), exporter=exporter))
        service.register("default", model)
        service.serve_estimate(EstimateRequest(query=SQL))
        service.serve_estimate(EstimateRequest(query=SQL))
        exporter.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["name"] == "request.estimate"


class TestAccuracyTelemetry:
    def test_feedback_records_qerror(self, served):
        server, service, model = served
        est = _post(server, "/v1/estimate", {"sql": SQL})["estimate"]
        body = _post(server, "/v1/feedback",
                     {"sql": SQL, "true_cardinality": max(est / 2.0, 1.0)})
        assert body["model"] == "default"
        assert body["q_error"] == pytest.approx(
            max(est / max(est / 2.0, 1.0), max(est / 2.0, 1.0) / est))
        assert body["estimate"] == est
        summary = service.metrics.histogram("repro_qerror").summary()
        assert summary["count"] == 1
        assert service.metrics.counter("repro_feedback_total").value(
            model="default") == 1.0

    def test_feedback_validates_payload(self, served):
        server, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(server, "/v1/feedback", {"sql": SQL})
        assert info.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(server, "/v1/feedback",
                  {"sql": SQL, "true_cardinality": -3})
        assert info.value.code == 400

    def test_record_truth_uses_retained_tables(self, served):
        _, service, model = served
        response = service.record_truth(SQL)
        from repro.engine.executor import CardinalityExecutor
        from repro.sql import parse_query

        truth = float(CardinalityExecutor(model.database).cardinality(
            parse_query(SQL)))
        assert response.true_cardinality == truth
        assert response.q_error >= 1.0

    def test_feedback_rederivation_is_never_workload_recorded(
            self, served, tmp_path):
        _, service, _ = served
        service.start_recording(tmp_path / "workload.jsonl")
        service.record_feedback(FeedbackRequest(query=SQL,
                                                true_cardinality=10.0))
        assert service.stop_recording() == 0


class TestDriftEndpoints:
    def test_feedback_feeds_drift_and_the_v1_route(self, served):
        server, service, _ = served
        est = _post(server, "/v1/estimate", {"sql": SQL})["estimate"]
        for _ in range(12):
            _post(server, "/v1/feedback",
                  {"sql": SQL, "true_cardinality": max(est, 1.0)})
        body = _get(server, "/v1/drift?top=3")
        assert body["api_version"] == "v1"
        assert body["samples"] > 0
        assert set(body["counts"]) == {"stable", "drifting", "critical"}
        scopes = {entry["scope"] for entry in body["keys"]}
        assert {"model", "table", "template"} <= scopes
        by_scope = {e["scope"]: e for e in body["keys"]}
        assert by_scope["model"]["model"] == "default"
        assert by_scope["table"]["key"] in ("A", "B")
        text = _get_raw(server, "/metrics")[2]
        families = parse_prometheus_text(text)
        assert families["repro_drift_score"]["type"] == "gauge"
        assert families["repro_drift_state"]["type"] == "gauge"

    def test_v1_drift_rejects_bad_top(self, served):
        server, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(server, "/v1/drift?top=0")
        assert info.value.code == 400


class TestAlertEndpoints:
    def test_v1_alerts_lists_the_stock_rules(self, served):
        server, service, _ = served
        service.evaluate_alerts()
        body = _get(server, "/v1/alerts")
        assert body["api_version"] == "v1"
        names = {a["name"] for a in body["alerts"]}
        assert names == {"availability-fast-burn", "latency-fast-burn",
                         "qerror-fast-burn", "drift-critical"}
        assert body["firing"] == 0
        assert all(a["state"] == "ok" for a in body["alerts"])
        text = _get_raw(server, "/metrics")[2]
        families = parse_prometheus_text(text)
        samples = families["repro_alert_state"]["samples"]
        assert {labels["rule"] for _n, labels, _v in samples} == names

    def test_ticker_lifecycle_is_idempotent(self, served):
        _, service, _ = served
        service.start_alert_ticker(interval=30.0)
        first = service._alert_ticker
        service.start_alert_ticker(interval=30.0)
        assert service._alert_ticker is first
        service.stop_alert_ticker()
        assert service._alert_ticker is None
        service.stop_alert_ticker()  # no-op


class TestFlightRecorder:
    def test_keeps_only_the_worst_offenders(self):
        from repro.obs import FlightRecorder

        recorder = FlightRecorder(capacity=2)
        for score in (3.0, 1.0, 7.0, 2.0):
            if recorder.admits("qerror", score):
                recorder.record("qerror", score, {"score": score})
        kept = recorder.bundles("qerror")
        assert [b["score"] for b in kept] == [7.0, 3.0]
        described = recorder.describe()
        assert described["kinds"]["qerror"]["kept"] == 2

    def test_v1_debug_bundles_carries_feedback_offenders(self, served):
        server, _, _ = served
        est = _post(server, "/v1/estimate", {"sql": SQL})["estimate"]
        _post(server, "/v1/feedback",
              {"sql": SQL, "true_cardinality": max(est * 100.0, 1.0)})
        body = _get(server, "/v1/debug/bundles?kind=qerror")
        assert body["api_version"] == "v1"
        assert body["bundles"]
        worst = body["bundles"][0]
        assert worst["kind"] == "qerror"
        bundle = worst["bundle"]
        assert bundle["model"] == "default"
        assert bundle["q_error"] == pytest.approx(worst["score"])
        assert bundle["sql"]
        latency = _get(server, "/v1/debug/bundles?kind=latency")
        for row in latency["bundles"]:
            assert row["bundle"]["trace"]["root"]["name"] == \
                "request.estimate"

    def test_v1_debug_bundles_rejects_unknown_kind(self, served):
        server, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(server, "/v1/debug/bundles?kind=everything")
        assert info.value.code == 400
