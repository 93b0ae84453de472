"""One telemetry switch: ``metrics.enabled`` decides which telemetry
components a service builds, each served request is accounted exactly
once (a plan is not also a sub-plans request), a telemetry-off service
answers its read endpoints with empty bodies, and shard workers keep the
drift samples a live driver forwards to them whatever their own metrics
setting."""

import json
import threading
import urllib.request

import pytest

from repro.api import FeedbackRequest
from repro.cluster import ClusterModel, WorkerServer
from repro.core.estimator import FactorJoin, FactorJoinConfig
from repro.obs import NULL_METRICS, NULL_TRACER, DriftMonitor
from repro.plan import PlanRequest
from repro.serve import EstimationService, LocalArtifactStore, \
    serve_in_background
from tests.conftest import request_count
from tests.test_cluster_model import QUERIES, _fit_sharded

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning")

SQL = ("SELECT COUNT(*) FROM A a, B b, C c "
       "WHERE a.id = b.aid AND b.cid = c.id AND a.x > 1")


@pytest.fixture
def model(toy_db):
    return FactorJoin(FactorJoinConfig(n_bins=4)).fit(toy_db)


def _service(model, **kwargs):
    service = EstimationService(**kwargs)
    service.register("default", model)
    return service


def _counts(service, slo):
    return service.slo.window_counts(slo, 300.0)


class TestRequestAccounting:
    def test_a_plan_is_accounted_once_as_a_plan(self, model):
        service = _service(model)
        service.serve_plan(PlanRequest(query=SQL))
        assert request_count(service, "plan") == 1
        assert request_count(service, "subplans") == 0
        assert _counts(service, "availability") == (1, 0)
        assert sum(_counts(service, "latency")) == 1

    def test_a_plan_failing_after_its_lattice_is_one_bad_event(
            self, model, monkeypatch):
        import repro.optimizer.dp as dp

        lattices = []

        def failing_optimize(query, oracle):
            lattices.append(oracle)
            raise RuntimeError("optimizer failed")

        monkeypatch.setattr(dp, "optimize", failing_optimize)
        service = _service(model)
        with pytest.raises(RuntimeError):
            service.serve_plan(PlanRequest(query=SQL))
        assert lattices  # the sub-plan lattice was built first
        assert _counts(service, "availability") == (0, 1)
        assert request_count(service, ("plan", "subplans")) == 0

    def test_every_endpoint_counts_once(self, model, toy_db):
        service = _service(model)
        service.estimate(SQL)
        service.estimate_subplans(SQL)
        service.update("B", toy_db.table("B").head(5))
        for endpoint in ("estimate", "subplans", "update"):
            assert request_count(service, endpoint) == 1
        assert _counts(service, "availability") == (3, 0)
        # the latency objective covers reads only
        assert sum(_counts(service, "latency")) == 2

    def test_feedback_rederivation_is_not_an_estimate_request(self, model):
        service = _service(model)
        service.record_feedback(FeedbackRequest(query=SQL,
                                                true_cardinality=10.0))
        assert request_count(service, "estimate") == 0
        assert _counts(service, "availability") == (0, 0)
        assert sum(_counts(service, "qerror")) == 1


def _get(server, path):
    host, port = server.server_address[:2]
    with urllib.request.urlopen(f"http://{host}:{port}{path}",
                                timeout=10) as resp:
        return json.loads(resp.read())


def _post(server, path, payload):
    host, port = server.server_address[:2]
    req = urllib.request.Request(
        f"http://{host}:{port}{path}", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read())


class TestTelemetryOff:
    @pytest.fixture
    def served(self, model):
        service = _service(model, metrics=NULL_METRICS, tracer=NULL_TRACER)
        server, _ = serve_in_background(service, port=0)
        yield server, service
        service.stop_alert_ticker()
        server.shutdown()
        server.server_close()

    def test_builds_no_telemetry_component(self, served):
        _, service = served
        assert service.slo is None
        assert service.drift is None
        assert service.alerts is None
        assert service.flight is None

    def test_read_endpoints_answer_empty_bodies(self, served):
        server, _ = served
        _post(server, "/v1/estimate", {"sql": SQL})
        _post(server, "/v1/feedback", {"sql": SQL, "true_cardinality": 10})
        assert _get(server, "/v1/slo") == {"api_version": "v1",
                                           "slos": []}
        assert _get(server, "/v1/drift") == {
            "api_version": "v1",
            "counts": {"stable": 0, "drifting": 0, "critical": 0},
            "samples": 0, "dropped_keys": 0, "top": [], "keys": []}
        assert _get(server, "/v1/alerts") == {"api_version": "v1",
                                              "alerts": [], "firing": 0}
        assert _get(server, "/v1/debug/bundles") == {
            "api_version": "v1", "recorder": {"capacity": 0, "kinds": {}},
            "bundles": []}
        assert _get(server, "/v1/stats")["slo"] == {"slos": []}

    def test_feedback_answers_as_with_telemetry_on(self, served, model):
        server, _ = served
        payload = {"sql": SQL, "true_cardinality": 10}
        live = _service(model)
        server_on, _ = serve_in_background(live, port=0)
        try:
            assert _post(server, "/v1/feedback", payload) == \
                _post(server_on, "/v1/feedback", payload)
        finally:
            server_on.shutdown()
            server_on.server_close()

    def test_alert_ticker_starts_no_thread(self, served):
        _, service = served
        service.start_alert_ticker(interval=0.01)
        assert service._alert_ticker is None
        assert "repro-alert-ticker" not in {
            thread.name for thread in threading.enumerate()}
        assert service.evaluate_alerts() == []

    def test_a_passed_in_component_is_used(self, model):
        monitor = DriftMonitor()
        service = _service(model, metrics=NULL_METRICS, tracer=NULL_TRACER,
                           drift=monitor)
        service.record_feedback(FeedbackRequest(query=SQL,
                                                true_cardinality=10.0))
        assert service.drift is monitor
        assert service.drift_report().entries
        assert service.slo is None


class TestWorkerDrift:
    def test_null_metrics_workers_keep_forwarded_shard_samples(
            self, tmp_path):
        """A live driver forwards shard-scope drift samples to its
        workers; workers built with ``metrics=NULL_METRICS`` keep them,
        so the merged report matches the in-process ensemble's."""
        from tests.conftest import build_toy_db

        db = build_toy_db(seed=3)
        path = tmp_path / "ensemble"
        _fit_sharded(db).save(path)
        store_root = tmp_path / "store"
        servers = [WorkerServer(store=LocalArtifactStore(store_root),
                                metrics=NULL_METRICS).start()
                   for _ in range(2)]
        cluster = ClusterModel.from_artifact(
            str(path), addresses=[server.address for server in servers],
            store=LocalArtifactStore(store_root), timeout=30.0)
        try:
            local = _service(_fit_sharded(db))
            remote = _service(cluster)
            for sql in QUERIES[:3]:
                for service in (local, remote):
                    service.record_feedback(FeedbackRequest(
                        query=sql, true_cardinality=10.0))

            def shard_keys(service):
                return sorted((e["key"], e["samples"])
                              for e in service.drift_v1()["keys"]
                              if e["scope"] == "shard")

            assert shard_keys(local)
            assert shard_keys(remote) == shard_keys(local)
            assert "shard" not in {key[0] for key
                                   in remote.drift.snapshot()["keys"]}
        finally:
            cluster.close()
            for server in servers:
                server.stop()
