"""Tests for the JSON HTTP API (routes, errors, concurrent clients)."""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.estimator import FactorJoin, FactorJoinConfig
from repro.serve import EstimationService, serve_in_background
from repro.serve.httpd import MAX_BODY_BYTES
from tests.conftest import request_count

SQL = "SELECT COUNT(*) FROM A a, B b WHERE a.id = b.aid AND a.x > 1"


@pytest.fixture
def served(toy_db):
    model = FactorJoin(FactorJoinConfig(n_bins=4)).fit(toy_db)
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


def _connection(server):
    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=5)


def _status_of(err_callable):
    with pytest.raises(urllib.error.HTTPError) as info:
        err_callable()
    return info.value.code, json.loads(info.value.read())


class TestRoutes:
    def test_estimate(self, served):
        server, _, model = served
        body = _post(server, "/v1/estimate", {"sql": SQL})
        from repro.sql import parse_query
        assert body["estimate"] == model.estimate(parse_query(SQL))
        assert body["model"] == "default"
        assert not body["cached"]
        again = _post(server, "/v1/estimate", {"sql": SQL})
        assert again["cached"] and again["cache_level"] == "query"

    def test_estimate_subplans(self, served):
        server, _, _ = served
        body = _post(server, "/v1/subplans", {"sql": SQL, "min_tables": 2})
        assert set(body["subplans"]) == {"a,b"}

    def test_update_with_json_nulls(self, served):
        server, service, _ = served
        body = _post(server, "/v1/update", {
            "table": "C",
            "rows": {"id": [1000, 1001, None], "z": [0, 1, 2]},
        })
        assert body["rows"] == 3
        assert request_count(service, "update") == 1

    def test_update_accepts_any_column_order(self, served):
        # JSON objects are unordered; the service aligns columns to the
        # served table's storage order
        server, service, _ = served
        body = _post(server, "/v1/update", {
            "table": "C",
            "rows": {"z": [0, 1], "id": [2000, 2001]},
        })
        assert body["rows"] == 2

    def test_warmup_inline_queries(self, served):
        server, service, _ = served
        big = ("SELECT COUNT(*) FROM A a, B b, C c "
               "WHERE a.id = b.aid AND b.cid = c.id AND a.x > 1")
        body = _post(server, "/warmup", {"queries": [big]})
        assert body["entries"] == 1 and not body["errors"]
        assert body["caches"]["default"]["subplan_size"] >= 6
        # a sub-plan of the warmed query is now served from cache
        hit = _post(server, "/v1/estimate", {
            "sql": "SELECT COUNT(*) FROM A q, B r "
                   "WHERE q.id = r.aid AND q.x > 1"})
        assert hit["cached"] and hit["cache_level"] == "subplan"

    def test_warmup_from_workload_file(self, served, tmp_path):
        server, _, _ = served
        workload = tmp_path / "warm.jsonl"
        workload.write_text(json.dumps({"sql": SQL}) + "\n")
        body = _post(server, "/warmup", {"path": str(workload)})
        assert body["entries"] == 1
        assert _post(server, "/v1/estimate", {"sql": SQL})["cached"]

    def test_models_and_stats_and_health(self, served):
        server, _, _ = served
        _post(server, "/v1/estimate", {"sql": SQL})
        assert _get(server, "/v1/models")["models"][0]["name"] == "default"
        stats = _get(server, "/v1/stats")
        summary = stats["metrics"]["repro_request_seconds"]["summary"]
        assert summary["count"] == 1
        assert _get(server, "/health") == {"ok": True}

    def test_removed_unversioned_routes_are_404(self, served):
        """The pre-/v1 routes fall through to the unknown-route 404; the
        versioned and operational routes still answer."""
        server, _, _ = served
        for path in ("/estimate", "/estimate_batch", "/update"):
            code, body = _status_of(lambda: _post(server, path,
                                                  {"sql": SQL}))
            assert code == 404 and "unknown route" in body["error"]
        for path in ("/models", "/stats"):
            code, body = _status_of(lambda: _get(server, path))
            assert code == 404 and "unknown route" in body["error"]
        assert _post(server, "/v1/estimate", {"sql": SQL})["estimate"] > 0
        assert _post(server, "/warmup", {"queries": [SQL]})["entries"] == 1
        assert _get(server, "/health") == {"ok": True}


class TestV1Routes:
    """The versioned API: typed responses, explain traces, capability
    listings, and the machine-readable error taxonomy."""

    def test_v1_estimate(self, served):
        server, _, model = served
        body = _post(server, "/v1/estimate", {"sql": SQL})
        from repro.sql import parse_query
        assert body["estimate"] == model.estimate(parse_query(SQL))
        assert body["api_version"] == "v1"
        assert body["explain"] is None
        assert not body["cached"]
        assert _post(server, "/v1/estimate", {"sql": SQL})["cached"]

    def test_v1_estimate_with_explain(self, served):
        server, _, _ = served
        body = _post(server, "/v1/estimate",
                     {"sql": SQL, "explain": True})
        trace = body["explain"]
        assert trace["bound_mode"] == "bound"
        assert trace["aliases"] == ["a", "b"]
        assert trace["bins_touched"] >= 1
        assert trace["capabilities"]["name"] == "factorjoin"

    def test_v1_explain_reports_cache_level(self, served):
        server, _, _ = served
        first = _post(server, "/v1/explain", {"sql": SQL})
        assert first["explain"]["cache_level"] is None
        again = _post(server, "/v1/explain", {"sql": SQL})
        assert again["explain"]["cache_level"] == "query"
        assert again["estimate"] == first["estimate"]

    def test_v1_subplans(self, served):
        server, _, _ = served
        body = _post(server, "/v1/subplans", {"sql": SQL})
        assert set(body["subplans"]) == {"a", "b", "a,b"}
        assert body["count"] == 3
        assert body["api_version"] == "v1"

    def test_v1_update(self, served):
        server, _, _ = served
        body = _post(server, "/v1/update", {
            "table": "C", "rows": {"id": [3000], "z": [1]}})
        assert body["rows"] == 1 and body["deleted_rows"] == 0
        assert body["api_version"] == "v1"

    def test_v1_models_lists_capabilities(self, served):
        server, _, _ = served
        body = _get(server, "/v1/models")
        (entry,) = body["models"]
        assert entry["name"] == "default"
        caps = entry["capabilities"]
        assert caps["supports_subplans"] and caps["supports_sessions"]
        assert caps["name"] == "factorjoin"

    def test_v1_error_taxonomy(self, served):
        server, _, _ = served
        cases = [
            ("/v1/estimate", {"sql": "not sql"}, 400, "parse_error"),
            ("/v1/estimate", {"sql": SQL, "model": "nope"}, 404,
             "model_not_found"),
            ("/v1/estimate", {}, 400, "invalid_request"),
            ("/v1/update", {"table": "C", "rows": {"id": [1], "z": [0]},
                            "op": "delete"}, 400,
             "unsupported_operation"),  # bayescard: no delete
        ]
        for path, payload, want_status, want_code in cases:
            status, body = _status_of(lambda: _post(server, path, payload))
            assert status == want_status, (path, body)
            assert body["error"]["code"] == want_code, (path, body)
            assert body["error"]["message"]

    def test_no_response_carries_deprecation_header(self, served):
        """With the unversioned shims gone, nothing the server answers
        is marked deprecated."""
        server, _, _ = served
        requests = [
            urllib.request.Request(
                _url(server, path), data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"})
            for path, payload in (("/v1/estimate", {"sql": SQL}),
                                  ("/warmup", {"queries": [SQL]}))
        ] + [urllib.request.Request(_url(server, "/health"))]
        for req in requests:
            with urllib.request.urlopen(req, timeout=10) as resp:
                assert resp.status == 200
                assert "Deprecation" not in resp.headers, req.full_url


class TestErrors:
    def test_unknown_model_is_404(self, served):
        server, _, _ = served
        code, body = _status_of(lambda: _post(
            server, "/v1/estimate", {"sql": SQL, "model": "nope"}))
        assert code == 404 and "nope" in body["error"]["message"]

    def test_bad_sql_is_400(self, served):
        server, _, _ = served
        code, body = _status_of(lambda: _post(
            server, "/v1/estimate", {"sql": "not sql at all"}))
        assert code == 400 and body["error"]["message"]

    def test_missing_field_is_400(self, served):
        server, _, _ = served
        code, body = _status_of(lambda: _post(server, "/v1/estimate", {}))
        assert code == 400 and "sql" in body["error"]["message"]

    def test_unknown_route_is_404(self, served):
        server, _, _ = served
        code, _ = _status_of(lambda: _get(server, "/nope"))
        assert code == 404

    def test_warmup_requires_exactly_one_source(self, served):
        server, _, _ = served
        code, body = _status_of(lambda: _post(server, "/warmup", {}))
        assert code == 400 and "exactly one" in body["error"]
        code, _ = _status_of(lambda: _post(
            server, "/warmup", {"queries": [SQL], "path": "x"}))
        assert code == 400

    def test_v1_estimate_sql_must_be_a_string(self, served):
        """A list of queries is not a batch request; /v1/estimate takes
        exactly one SQL string."""
        server, _, _ = served
        code, body = _status_of(lambda: _post(
            server, "/v1/estimate", {"sql": [SQL, SQL]}))
        assert code == 400
        assert body["error"]["code"] == "invalid_request"
        assert "sql" in body["error"]["message"]

    def test_warmup_queries_must_be_a_list(self, served):
        server, _, _ = served
        code, body = _status_of(lambda: _post(
            server, "/warmup", {"queries": SQL}))
        assert code == 400 and "non-empty list" in body["error"]

    def test_warmup_empty_queries_rejected(self, served):
        server, _, _ = served
        code, _ = _status_of(lambda: _post(
            server, "/warmup", {"queries": []}))
        assert code == 400

    def test_warmup_missing_path_is_400_not_500(self, served):
        """A typo'd workload path is the client's bad request, not an
        internal error."""
        server, _, _ = served
        code, body = _status_of(lambda: _post(
            server, "/warmup", {"path": "/nonexistent/workload.jsonl"}))
        assert code == 400 and "cannot read workload" in body["error"]
        code, _ = _status_of(lambda: _post(
            server, "/warmup", {"path": 5}))
        assert code == 400

    def test_warmup_path_never_leaks_file_content(self, served, tmp_path):
        """Pointing /warmup at a non-workload file must not echo the
        file's lines back to the client."""
        server, _, _ = served
        secret = tmp_path / "secret.conf"
        secret.write_text("password=hunter2\ntoken=abcd\n")
        code, body = _status_of(lambda: _post(
            server, "/warmup", {"path": str(secret)}))
        assert code == 400
        assert "hunter2" not in body["error"]
        assert "abcd" not in body["error"]

    def test_warmup_path_replay_errors_report_counts_only(self, served,
                                                          tmp_path):
        """Workload-shaped lines that fail replay (e.g. unknown tables)
        must not be quoted back either — only inline-query errors are
        echoed verbatim."""
        server, _, _ = served
        workload = tmp_path / "w.jsonl"
        workload.write_text(
            json.dumps({"sql": "SELECT COUNT(*) FROM Hidden h"}) + "\n"
            + json.dumps({"sql": SQL}) + "\n")
        body = _post(server, "/warmup", {"path": str(workload)})
        assert body["warmed_subplan_maps"] == 1
        assert body["errors"] == ["1 workload entries failed to replay"]
        assert all("Hidden" not in e for e in body["errors"])

    def test_negative_content_length_rejected(self, served):
        # read(-1) would block until client EOF; must 400 and close instead
        server, _, _ = served
        conn = _connection(server)
        try:
            conn.putrequest("POST", "/v1/estimate")
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert b"Content-Length" in response.read()
        finally:
            conn.close()


class TestKeepAlive:
    @pytest.mark.parametrize("method,path,status", [
        ("POST", "/nope", 404),      # unknown route: body never read
        ("GET", "/health", 200),     # a GET carrying a body
    ])
    def test_unread_body_does_not_desync_the_connection(
            self, served, method, path, status):
        server, _, _ = served
        conn = _connection(server)
        try:
            conn.request(method, path, body=json.dumps({"sql": SQL}))
            response = conn.getresponse()
            response.read()
            assert response.status == status
            sock = conn.sock
            conn.request("GET", "/health")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == {"ok": True}
            assert conn.sock is sock
        finally:
            conn.close()

    def test_oversized_unread_body_closes_the_connection(self, served):
        server, _, _ = served
        conn = _connection(server)
        try:
            conn.putrequest("POST", "/nope")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            response.read()
            assert response.will_close
        finally:
            conn.close()

    @pytest.mark.parametrize("method,path,payload,status", [
        ("POST", "/v1/estimate", {"sql": SQL}, 200),        # JSON reply
        ("GET", "/metrics", None, 200),                      # text reply
        ("POST", "/v1/estimate", {"sql": "not sql"}, 400),   # parse_error
    ])
    def test_fifty_requests_on_one_socket_are_fast(
            self, served, method, path, payload, status):
        """Each reply is two writes (headers, body); with Nagle on, the
        second waits for the client's delayed ACK, about 44 ms a request
        and over 2 s for these 50."""
        server, _, _ = served
        conn = _connection(server)
        body = None if payload is None else json.dumps(payload)
        sockets = []
        try:
            start = time.perf_counter()
            for _ in range(50):
                conn.request(method, path, body=body)
                response = conn.getresponse()
                response.read()
                assert response.status == status
                sockets.append(conn.sock)
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert sockets[0] is not None
        assert all(sock is sockets[0] for sock in sockets)
        assert elapsed < 1.0


class TestConcurrentClients:
    def test_many_clients_estimating_concurrently(self, served):
        """The acceptance scenario: concurrent POST /v1/estimate clients
        all receive complete, consistent answers."""
        server, service, model = served
        from repro.sql import parse_query
        want = model.estimate(parse_query(SQL))
        other = "SELECT COUNT(*) FROM B b, C c WHERE b.cid = c.id"
        results, errors = [], []

        def client():
            try:
                results.append([_post(server, "/v1/estimate", {"sql": sql})
                                for sql in (SQL, other)])
            except Exception as exc:  # noqa: BLE001 - recording
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 12
        assert all(batch[0]["estimate"] == want for batch in results)
        assert request_count(service) == 24


@pytest.fixture
def served_scan(toy_db):
    """A served truescan model (supports deletes), plus the raw rows."""
    model = FactorJoin(FactorJoinConfig(
        n_bins=4, table_estimator="truescan")).fit(toy_db)
    service = EstimationService()
    service.register("default", model)
    server, _ = serve_in_background(service, port=0)
    yield server, service, model
    server.shutdown()
    server.server_close()


class TestUpdateOps:
    def _rows(self, toy_db, n=10):
        table = toy_db.table("B").head(n)
        return {name: table[name].values.tolist()
                for name in table.column_names}

    def test_update_op_delete_round_trip(self, served_scan, toy_db):
        server, _, _ = served_scan
        before = _post(server, "/v1/estimate", {"sql": SQL})["estimate"]
        rows = self._rows(toy_db)
        inserted = _post(server, "/v1/update", {"table": "B", "rows": rows})
        assert inserted["rows"] == 10
        deleted = _post(server, "/v1/update",
                        {"table": "B", "rows": rows, "op": "delete"})
        assert deleted["deleted_rows"] == 10
        after = _post(server, "/v1/estimate", {"sql": SQL})["estimate"]
        assert after == pytest.approx(before, rel=1e-9)

    def test_update_bad_op_is_400(self, served_scan, toy_db):
        server, _, _ = served_scan
        status, body = _status_of(lambda: _post(
            server, "/v1/update",
            {"table": "B", "rows": self._rows(toy_db), "op": "upsert"}))
        assert status == 400
        assert "op" in body["error"]["message"]

    def test_delete_on_unsupporting_model_is_400(self, served, toy_db):
        server, _, _ = served  # bayescard: no delete support
        rows = {"aid": [1], "cid": [1], "y": [1]}
        status, body = _status_of(lambda: _post(
            server, "/v1/update",
            {"table": "B", "rows": rows, "op": "delete"}))
        assert status == 400
        assert "delete" in body["error"]["message"]


class TestSnapshotRoute:
    """POST /snapshot is only live when the server was given a snapshot
    directory, and every client-named path must stay inside it — the
    endpoint writes files on save and unpickles them on restore."""

    @pytest.fixture
    def snapshot_server(self, served, tmp_path):
        _, service, _ = served
        server, _ = serve_in_background(service, port=0,
                                        snapshot_dir=tmp_path)
        yield server, service
        server.shutdown()
        server.server_close()

    def test_save_then_restore(self, snapshot_server):
        server, service = snapshot_server
        _post(server, "/v1/estimate", {"sql": SQL})
        saved = _post(server, "/snapshot",
                      {"action": "save", "path": "cache.snap"})
        assert saved["entries"] >= 1

        service._cache_of("default").invalidate()
        assert not _post(server, "/v1/estimate", {"sql": SQL})["cached"]
        restored = _post(server, "/snapshot",
                         {"action": "restore", "path": "cache.snap"})
        assert restored["entries"] == saved["entries"]
        assert _post(server, "/v1/estimate", {"sql": SQL})["cached"]

    def test_bad_action_is_400(self, snapshot_server):
        server, _ = snapshot_server
        status, body = _status_of(lambda: _post(
            server, "/snapshot", {"action": "rotate", "path": "x.snap"}))
        assert status == 400
        assert "action" in body["error"]

    def test_disabled_without_snapshot_dir(self, served):
        server, _, _ = served  # no snapshot_dir configured
        status, body = _status_of(lambda: _post(
            server, "/snapshot",
            {"action": "save", "path": "cache.snap"}))
        assert status == 400
        assert "disabled" in body["error"]

    def test_path_escape_is_rejected(self, snapshot_server):
        server, _ = snapshot_server
        for evil in ("../outside.snap", "/etc/hostile.snap"):
            status, body = _status_of(lambda: _post(
                server, "/snapshot", {"action": "save", "path": evil}))
            assert status == 400
            assert "snapshot" in body["error"]

    def test_non_snap_extension_is_rejected(self, snapshot_server):
        """The snapshot dir may be an artifact dir — a client must not be
        able to overwrite model.pkl or manifest.json."""
        server, _ = snapshot_server
        for name in ("model.pkl", "manifest.json", "cache"):
            status, body = _status_of(lambda: _post(
                server, "/snapshot", {"action": "save", "path": name}))
            assert status == 400
            assert ".snap" in body["error"]

    def test_fingerprint_mismatch_is_400(self, snapshot_server,
                                         served_scan, tmp_path):
        server_a, _ = snapshot_server
        _post(server_a, "/v1/estimate", {"sql": SQL})
        _post(server_a, "/snapshot",
              {"action": "save", "path": "cache.snap"})

        _, scan_service, _ = served_scan
        server_b, _ = serve_in_background(scan_service, port=0,
                                          snapshot_dir=tmp_path)
        try:
            status, body = _status_of(lambda: _post(
                server_b, "/snapshot",
                {"action": "restore", "path": "cache.snap"}))
        finally:
            server_b.shutdown()
            server_b.server_close()
        assert status == 400
        assert "refusing" in body["error"]

    def test_missing_fields_are_400(self, snapshot_server):
        server, _ = snapshot_server
        status, _ = _status_of(lambda: _post(
            server, "/snapshot", {"action": "save"}))
        assert status == 400
