"""Stdlib JSON-over-HTTP front end for the estimation service.

A deliberately dependency-free server (``http.server.ThreadingHTTPServer``,
one thread per connection) exposing the :class:`~repro.serve.service.
EstimationService` endpoints an optimizer or load generator needs:

Versioned ``/v1`` routes (the supported API)
--------------------------------------------

==========================  =================================================
``POST /v1/estimate``       ``{"sql": ..., "model"?, "explain"?}`` → typed
                            ``EstimateResponse`` JSON (``api_version``,
                            estimate, cache level, optional explain trace)
``POST /v1/subplans``       ``{"sql": ..., "model"?, "min_tables"?}`` →
                            typed ``SubplanResponse`` JSON (the optimizer's
                            sub-plan map, keyed by comma-joined alias sets)
``POST /v1/plan``           ``{"sql": ..., "model"?, "dialect"?,
                            "trace"?}`` → typed ``PlanResponse`` JSON:
                            the DP-chosen join order, the injected
                            sub-plan cardinalities, and the order +
                            cardinalities rendered as plan hints
                            (``dialect``: ``"pg_hint_plan"`` or
                            ``"json"``; see :mod:`repro.plan.hints`)
``POST /v1/update``         ``{"table": ..., "rows": {col: [...]},
                            "op"?: "insert"|"delete", "model"?}`` →
                            incremental insert or delete (JSON ``null``
                            marks NULLs) → typed ``UpdateResponse`` JSON
``POST /v1/explain``        ``{"sql": ..., "model"?}`` → estimate with the
                            full explain trace (bound mode, key groups and
                            bins touched, shard pruning, cache level)
``POST /v1/swap``           ``{"shard": N, "artifact": PATH, "model"?}`` →
                            per-shard hot-swap: republish one shard of a
                            served ensemble from a refreshed sub-artifact;
                            paths are confined to the server's swap
                            directory (endpoint disabled without one);
                            cache eviction is scoped to the entries the
                            swapped shard could have changed
``POST /v1/feedback``       ``{"sql": ..., "true_cardinality": N,
                            "model"?, "estimate"?}`` → record ground
                            truth; the q-error lands in the rolling
                            per-model/per-shard accuracy histograms
``GET /v1/models``          published models with declared capabilities
``GET /v1/stats``           serving statistics: full metric families
                            (stream-exact latency/q-error summaries,
                            exemplar trace links), registry state,
                            trace-log occupancy, SLO burn rates, and a
                            ``workers`` section for cluster-backed
                            models
``GET /v1/traces``          recent request span trees from the ring
                            buffer (``?slow=true`` for the slow-query
                            log, ``?limit=N``)
``GET /v1/slo``             declared objectives with lifetime outcome
                            totals and rolling multi-window burn rates
``GET /v1/drift``           the merged drift report: per-key
                            (model/shard/table/template) Page-Hinkley
                            scores, stable/drifting/critical status,
                            magnitude and onset, with federated worker
                            snapshots folded in for cluster-backed
                            models (``?top=N`` bounds the offender
                            list)
``GET /v1/alerts``          every alert rule with its current
                            ok/pending/firing state, last evaluated
                            value, and transition counts
``GET /v1/debug/bundles``   the flight recorder's worst-offender debug
                            bundles (``?kind=qerror|latency``,
                            ``?limit=N``): request, estimate vs truth,
                            per-shard attribution, span tree, cache
                            counters
``GET /v1/profile``         wall-clock stack sampling: ``?seconds=&hz=``
                            profiles the serving process, ``&worker=N``
                            (with ``&model=`` when several are served)
                            forwards to that shard worker via the
                            ``Profile`` RPC; ``&format=collapsed``
                            returns bare collapsed-stack text for
                            flamegraph tooling instead of JSON
``GET /metrics``            Prometheus text exposition of every metric
                            family (latency histograms, cache counters,
                            worker health gauges, q-error histograms,
                            SLO burn rates, plus federated per-worker
                            families under ``worker=``/``shard_group=``
                            labels for cluster-backed models)
==========================  =================================================

``POST /v1/explain`` accepts ``?trace=true`` (or ``"trace": true`` in
the body) to attach the request's rendered span tree — driver and
worker-side spans under one trace id — alongside the explain.

``/v1`` errors are machine-readable: ``{"error": {"code", "message",
"type"}}`` with the taxonomy code (``parse_error``,
``unsupported_query``, ``unsupported_operation``, ``model_not_found``,
``invalid_request``, ...) and the taxonomy's HTTP status (see
:mod:`repro.api.messages`).

Operational routes
------------------

==========================  =================================================
``POST /snapshot``          ``{"action": "save"|"restore", "path": ...,
                            "model"?}`` → persist/warm the model's cache
                            snapshot; paths are confined to the server's
                            configured snapshot directory (endpoint
                            disabled without one) and restores are
                            fingerprint-checked
``POST /warmup``            ``{"queries": [sql, ...] | "path": ...,
                            "model"?, "subplans"?}`` → replay a workload
                            into both cache levels; returns the warm
                            summary (see :mod:`repro.serve.warmup`)
``GET /health``             ``{"ok": true}`` liveness probe
==========================  =================================================

Operational-route errors return ``{"error": ...}`` with 400 (bad
request), 404 (unknown model), or 500; any other path is a 404.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.api import (
    EstimateRequest,
    SubplanRequest,
    UpdateRequest,
    error_payload,
    http_status_of,
)
from repro.data.table import Table
from repro.errors import ModelNotFoundError, ReproError
from repro.serve.service import EstimationService

MAX_BODY_BYTES = 32 * 1024 * 1024


def _table_from_json(table_name: str, rows: dict) -> Table:
    """Build a Table from ``{column: [values]}``; JSON nulls become NULLs."""
    data, masks = {}, {}
    for column, values in rows.items():
        mask = [v is None for v in values]
        if any(mask):
            masks[column] = mask
            values = [0 if v is None else v for v in values]
        data[column] = values
    return Table.from_dict(table_name, data, null_masks=masks)


class ServingHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the server's ``service``."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    # TCP_NODELAY on every accepted socket: a reply goes out as two
    # writes (headers, body), and Nagle would hold the second until the
    # client's delayed ACK — about 40 ms per keep-alive request
    disable_nagle_algorithm = True

    @property
    def service(self) -> EstimationService:
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- plumbing --------------------------------------------------------------

    def _reply(self, payload: dict, status: int = 200) -> None:
        self._send(json.dumps(payload).encode(), status, "application/json")

    def _reply_text(self, text: str, status: int = 200,
                    content_type: str = "text/plain; charset=utf-8"
                    ) -> None:
        self._send(text.encode(), status, content_type)

    def _send(self, body: bytes, status: int, content_type: str) -> None:
        if self._body_unread:
            # a route that never read its body (an unknown route, a GET
            # with a body) must still consume it, or the next keep-alive
            # request parses from the leftover bytes; an unreadable body
            # marks the connection for closing instead
            try:
                self._read_body()
            except ValueError:
                pass
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _split_path(self) -> tuple[str, dict]:
        """``self.path`` as (route, single-valued query params)."""
        parts = urlsplit(self.path)
        params = {key: values[-1] for key, values
                  in parse_qs(parts.query).items()}
        return parts.path, params

    @staticmethod
    def _truthy(params: dict, key: str) -> bool:
        return params.get(key, "").lower() in ("1", "true", "yes", "on")

    def parse_request(self) -> bool:
        # runs once per request on a keep-alive connection
        self._body_unread = True
        return super().parse_request()

    def _read_body(self) -> bytes:
        """The request's ``Content-Length`` bytes, read once."""
        self._body_unread = False
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            self.close_connection = True
            raise ValueError("invalid Content-Length header")
        if length < 0 or length > MAX_BODY_BYTES:
            # the body is unreadable (read(-1) would block until EOF) or
            # would desync a keep-alive connection — close instead
            self.close_connection = True
            raise ValueError(
                f"Content-Length must be 0..{MAX_BODY_BYTES}, got {length}")
        return self.rfile.read(length) if length else b""

    def _read_json(self) -> dict:
        body = self._read_body()
        if not body:
            raise ValueError("request body must be a JSON object")
        payload = json.loads(body)
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _require(self, payload: dict, field: str):
        if field not in payload:
            raise ValueError(f"missing required field {field!r}")
        return payload[field]

    def _dispatch(self, handler) -> None:
        """Operational-route dispatch: prose-only error bodies."""
        try:
            self._reply(handler())
        except ModelNotFoundError as exc:
            self._reply({"error": str(exc)}, status=404)
        except (ValueError, KeyError, json.JSONDecodeError,
                NotImplementedError, ReproError) as exc:
            self._reply({"error": str(exc)}, status=400)
        except Exception as exc:  # pragma: no cover - defensive
            self._reply({"error": f"internal error: {exc}"}, status=500)

    def _dispatch_v1(self, handler) -> None:
        """Versioned dispatch: machine-readable taxonomy error bodies
        (``{"error": {"code", "message", "type"}}``), status from the
        taxonomy."""
        try:
            self._reply(handler())
        except Exception as exc:
            self._reply(error_payload(exc), status=http_status_of(exc))

    # -- routes ----------------------------------------------------------------

    def do_GET(self):
        path, params = self._split_path()
        if path == "/v1/models":
            self._dispatch_v1(self._get_v1_models)
        elif path == "/v1/stats":
            self._dispatch_v1(self.service.stats_v1)
        elif path == "/v1/traces":
            self._dispatch_v1(lambda: self._get_v1_traces(params))
        elif path == "/v1/slo":
            self._dispatch_v1(self.service.slo_v1)
        elif path == "/v1/drift":
            self._dispatch_v1(lambda: self._get_v1_drift(params))
        elif path == "/v1/alerts":
            self._dispatch_v1(self.service.alerts_v1)
        elif path == "/v1/debug/bundles":
            self._dispatch_v1(lambda: self._get_v1_debug_bundles(params))
        elif path == "/v1/profile":
            if params.get("format") == "collapsed":
                self._get_profile_collapsed(params)
            else:
                self._dispatch_v1(lambda: self._get_v1_profile(params))
        elif path == "/metrics":
            self._get_metrics()
        elif path == "/health":
            self._dispatch(lambda: {"ok": True})
        else:
            self._reply({"error": f"unknown route GET {self.path}"},
                        status=404)

    def do_POST(self):
        path, params = self._split_path()
        if path == "/v1/estimate":
            self._dispatch_v1(self._post_v1_estimate)
        elif path == "/v1/subplans":
            self._dispatch_v1(self._post_v1_subplans)
        elif path == "/v1/plan":
            self._dispatch_v1(lambda: self._post_v1_plan(params))
        elif path == "/v1/update":
            self._dispatch_v1(self._post_v1_update)
        elif path == "/v1/explain":
            self._dispatch_v1(lambda: self._post_v1_explain(params))
        elif path == "/v1/swap":
            self._dispatch_v1(self._post_v1_swap)
        elif path == "/v1/feedback":
            self._dispatch_v1(self._post_v1_feedback)
        elif path == "/warmup":
            self._dispatch(self._post_warmup)
        elif path == "/snapshot":
            self._dispatch(self._post_snapshot)
        else:
            self._reply({"error": f"unknown route POST {self.path}"},
                        status=404)

    # -- /v1 routes ------------------------------------------------------------

    def _post_v1_estimate(self) -> dict:
        """Typed single-query estimate (``EstimateRequest`` →
        ``EstimateResponse``)."""
        request = EstimateRequest.from_json(self._read_json())
        return self.service.serve_estimate(request).to_json()

    def _post_v1_subplans(self) -> dict:
        """Typed sub-plan map (``SubplanRequest`` →
        ``SubplanResponse``)."""
        request = SubplanRequest.from_json(self._read_json())
        return self.service.serve_subplans(request).to_json()

    def _post_v1_plan(self, params: dict | None = None) -> dict:
        """Typed plan selection (``PlanRequest`` → ``PlanResponse``):
        join order + injected cardinalities + hint text; ``?trace=true``
        (or ``"trace": true`` in the body) attaches the span tree."""
        from repro.plan.messages import PlanRequest

        payload = self._read_json()
        if params and self._truthy(params, "trace"):
            payload["trace"] = True
        request = PlanRequest.from_json(payload)
        return self.service.serve_plan(request).to_json()

    def _post_v1_update(self) -> dict:
        """Typed incremental mutation (``UpdateRequest`` →
        ``UpdateResponse``)."""
        request = self._parse_update(self._read_json())
        return self.service.serve_update(request).to_json()

    def _post_v1_explain(self, params: dict | None = None) -> dict:
        """Estimate with the full explain trace attached;
        ``?trace=true`` (or ``"trace": true`` in the body) also attaches
        the request's rendered span tree."""
        payload = self._read_json()
        payload["explain"] = True
        if params and self._truthy(params, "trace"):
            payload["trace"] = True
        request = EstimateRequest.from_json(payload)
        return self.service.serve_estimate(request).to_json()

    def _post_v1_feedback(self) -> dict:
        """Record ground truth for a served query (accuracy telemetry:
        the q-error lands in the rolling per-model and per-shard
        histograms exposed at ``GET /metrics``)."""
        from repro.api import FeedbackRequest

        request = FeedbackRequest.from_json(self._read_json())
        return self.service.record_feedback(request).to_json()

    def _get_v1_traces(self, params: dict) -> dict:
        """Recent request span trees from the ring buffer; ``?slow=true``
        reads the slow-query log instead, ``?limit=N`` bounds the page."""
        try:
            limit = int(params.get("limit", 50))
        except ValueError:
            raise ValueError("'limit' must be an integer") from None
        if limit < 1:
            raise ValueError("'limit' must be >= 1")
        slow = self._truthy(params, "slow")
        traces = self.service.tracer.traces(slow=slow, limit=limit)
        from repro.api import API_VERSION

        return {"traces": traces, "slow": slow, "count": len(traces),
                **self.service.tracer.log.describe(),
                "api_version": API_VERSION}

    def _get_v1_drift(self, params: dict) -> dict:
        """The merged drift report (service monitor + federated worker
        snapshots); ``?top=N`` bounds the top-offender list."""
        try:
            top = int(params.get("top", 10))
        except ValueError:
            raise ValueError("'top' must be an integer") from None
        if top < 1:
            raise ValueError("'top' must be >= 1")
        return self.service.drift_v1(top=top)

    def _get_v1_debug_bundles(self, params: dict) -> dict:
        """The flight recorder's worst-offender bundles;
        ``?kind=qerror|latency`` filters, ``?limit=N`` bounds the
        page."""
        kind = params.get("kind")
        if kind is not None and kind not in ("qerror", "latency"):
            raise ValueError("'kind' must be 'qerror' or 'latency'")
        limit = params.get("limit")
        if limit is not None:
            try:
                limit = int(limit)
            except ValueError:
                raise ValueError("'limit' must be an integer") from None
            if limit < 1:
                raise ValueError("'limit' must be >= 1")
        return self.service.debug_bundles_v1(kind=kind, limit=limit)

    def _profile_request(self, params: dict) -> dict:
        """Parse and run one ``GET /v1/profile`` request: ``seconds=``,
        ``hz=``, optional ``model=`` and ``worker=`` (forwarding the run
        to a remote shard worker via the ``Profile`` RPC)."""
        try:
            seconds = float(params.get("seconds", 1.0))
            hz = float(params.get("hz", 99.0))
        except ValueError:
            raise ValueError(
                "'seconds' and 'hz' must be numbers") from None
        worker = params.get("worker")
        if worker is not None:
            try:
                worker = int(worker)
            except ValueError:
                raise ValueError(
                    "'worker' must be an integer worker id") from None
        return self.service.profile(seconds=seconds, hz=hz,
                                    model=params.get("model"),
                                    worker=worker)

    def _get_v1_profile(self, params: dict) -> dict:
        from repro.api import API_VERSION

        return {"api_version": API_VERSION,
                **self._profile_request(params)}

    def _get_profile_collapsed(self, params: dict) -> None:
        """``GET /v1/profile?format=collapsed``: the bare collapsed-stack
        text, ready to pipe into flamegraph tooling."""
        try:
            result = self._profile_request(params)
        except Exception as exc:
            self._reply(error_payload(exc), status=http_status_of(exc))
            return
        self._reply_text(result["collapsed"] + "\n")

    def _get_metrics(self) -> None:
        """Prometheus text exposition of every metric family."""
        try:
            text = self.service.metrics.render_prometheus()
        except Exception as exc:  # pragma: no cover - defensive
            self._reply({"error": f"internal error: {exc}"}, status=500)
            return
        self._reply_text(text, content_type="text/plain; version=0.0.4; "
                                            "charset=utf-8")

    def _post_v1_swap(self) -> dict:
        """Per-shard hot-swap of a served ensemble:
        ``{"shard": N, "artifact": PATH, "model"?}``.

        Like ``POST /snapshot``, the endpoint hands a client-named path
        to the filesystem (the swapped-in artifact is unpickled), so it
        only operates when the server was started with a swap directory
        (``repro serve --swap-dir``) and the resolved artifact stays
        inside it.
        """
        payload = self._read_json()
        shard = self._require(payload, "shard")
        if not isinstance(shard, int) or isinstance(shard, bool):
            raise ValueError("'shard' must be a shard index (integer)")
        artifact = self._require(payload, "artifact")
        if not isinstance(artifact, str):
            raise ValueError("'artifact' must be a path string")
        artifact = self._confined_swap_path(artifact)
        return self.service.hot_swap_shard(shard, artifact,
                                           model=payload.get("model"))

    def _confined_swap_path(self, artifact: str):
        from pathlib import Path

        directory = getattr(self.server, "swap_dir", None)
        if directory is None:
            raise ValueError(
                "the swap endpoint is disabled: start the server with a "
                "swap directory (repro serve --swap-dir DIR)")
        resolved = (Path(directory) / artifact).resolve()
        if not resolved.is_relative_to(Path(directory).resolve()):
            raise ValueError(
                "swap 'artifact' must stay inside the server's swap "
                "directory (relative names only, no '..')")
        return resolved

    def _get_v1_models(self) -> dict:
        """Published models, each with its declared capabilities."""
        from repro.api import API_VERSION

        registry = self.service.registry
        models = []
        for name in registry.names():
            try:
                # one resolved record: a concurrent hot-swap must never
                # pair one version's metadata with another's capabilities
                record = registry.record(name)
            except ModelNotFoundError:  # unpublished mid-listing
                continue
            entry = record.describe()
            model = record.model
            capabilities = getattr(model, "capabilities", None)
            try:
                entry["capabilities"] = (capabilities().describe()
                                         if callable(capabilities)
                                         else None)
            except Exception:
                entry["capabilities"] = None
            models.append(entry)
        return {"models": models, "api_version": API_VERSION}

    def _post_snapshot(self) -> dict:
        """Save or restore a model's cache snapshot at a server-local
        path: ``{"action": "save"|"restore", "path": ..., "model"?}``.
        Restores are fingerprint-checked — a snapshot stamped against a
        different model state is refused (400).

        The endpoint hands a client-named path to the filesystem (write
        on save, ``pickle.loads`` on restore), so it only operates when
        the server was started with a snapshot directory and the
        resolved path stays inside it — an HTTP client must never gain
        an arbitrary-file write or an arbitrary-pickle read primitive.
        """
        payload = self._read_json()
        action = self._require(payload, "action")
        path = self._require(payload, "path")
        if not isinstance(path, str):
            raise ValueError("'path' must be a string")
        path = self._confined_snapshot_path(path)
        model = payload.get("model")
        if action == "save":
            return self.service.save_snapshot(path, model=model)
        if action == "restore":
            return self.service.restore_snapshot(path, model=model)
        raise ValueError(
            f"'action' must be 'save' or 'restore', got {action!r}")

    def _confined_snapshot_path(self, path: str):
        from pathlib import Path

        directory = getattr(self.server, "snapshot_dir", None)
        if directory is None:
            raise ValueError(
                "the snapshot endpoint is disabled: start the server "
                "with a snapshot directory (repro serve --snapshot-dir "
                "DIR, or --snapshot PATH)")
        resolved = (Path(directory) / path).resolve()
        if not resolved.is_relative_to(Path(directory).resolve()):
            raise ValueError(
                "snapshot 'path' must stay inside the server's snapshot "
                "directory (relative names only, no '..')")
        if resolved.suffix != ".snap":
            # the snapshot dir may be an artifact directory (the CLI
            # defaults it to --snapshot's parent); a fixed extension
            # keeps clients from overwriting model.pkl / manifest.json
            raise ValueError("snapshot 'path' must name a .snap file")
        return resolved

    def _post_warmup(self) -> dict:
        """Replay a workload into the service's caches.

        The workload comes inline (``"queries"``: SQL strings or
        ``{"sql", "kind"?, "min_tables"?}`` objects) or from a server-local
        file (``"path"``: a recorded JSONL / SQL-per-line workload).
        ``"subplans"`` (default true) promotes multi-table plain estimates
        to sub-plan requests for denser warming; pass false to replay
        entries exactly as given.
        """
        from repro.serve.warmup import (
            WorkloadEntry,
            load_workload,
            warm_service,
        )

        payload = self._read_json()
        queries = payload.get("queries")
        path = payload.get("path")
        if (queries is None) == (path is None):
            raise ValueError(
                "provide exactly one of 'queries' (inline workload) or "
                "'path' (server-local workload file)")
        if queries is not None:
            if not isinstance(queries, list) or not queries:
                raise ValueError("'queries' must be a non-empty list")
            entries = []
            for item in queries:
                if isinstance(item, str):
                    entries.append(WorkloadEntry(sql=item))
                elif isinstance(item, dict) and "sql" in item:
                    entries.append(WorkloadEntry(
                        sql=item["sql"],
                        kind=item.get("kind", "estimate"),
                        model=item.get("model"),
                        min_tables=int(item.get("min_tables", 1))))
                else:
                    raise ValueError(
                        "each workload item must be a SQL string or an "
                        "object with 'sql'")
        else:
            if not isinstance(path, str):
                raise ValueError("'path' must be a string")
            try:
                entries = load_workload(path)
            except OSError as exc:
                # a client typo in the path is a bad request, not an
                # internal error
                raise ValueError(f"cannot read workload {path!r}: {exc}"
                                 ) from exc
        subplans = payload.get("subplans", True)
        try:
            summary = warm_service(self.service, entries,
                                   model=payload.get("model"),
                                   subplans=True if subplans else None)
        except ValueError:
            if path is not None:
                # the abort message quotes a workload line; see below
                raise ValueError("warmup aborted: too many workload "
                                 "entries failed to replay") from None
            raise
        if path is not None and summary["errors"]:
            # replay errors can quote workload lines; for a server-local
            # file that would disclose its content to the HTTP client —
            # report only the failure count (inline queries came from the
            # client, so their errors remain verbatim)
            summary["errors"] = [f"{len(summary['errors'])} workload "
                                 f"entries failed to replay"]
        return summary

    def _parse_update(self, payload: dict) -> UpdateRequest:
        """The update body: ``{"table", "rows": {col: [...]},
        "op"?: "insert"|"delete", "model"?}``."""
        table_name = self._require(payload, "table")
        op = payload.get("op", "insert")
        if op not in ("insert", "delete"):
            raise ValueError(f"'op' must be 'insert' or 'delete', got {op!r}")
        rows = self._require(payload, "rows")
        if not isinstance(rows, dict) or not rows:
            raise ValueError("'rows' must be a non-empty "
                             "{column: [values]} object")
        batch = _table_from_json(table_name, rows)
        if op == "delete":
            return UpdateRequest(table=table_name, deleted_rows=batch,
                                 model=payload.get("model"))
        return UpdateRequest(table=table_name, rows=batch,
                             model=payload.get("model"))


class ServingServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared EstimationService.

    ``snapshot_dir`` confines the ``POST /snapshot`` endpoint and
    ``swap_dir`` the ``POST /v1/swap`` endpoint; when None (the default)
    the respective endpoint is disabled — clients must never name
    arbitrary server-local paths.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int],
                 service: EstimationService, verbose: bool = False,
                 snapshot_dir=None, swap_dir=None):
        super().__init__(address, ServingHandler)
        self.service = service
        self.verbose = verbose
        self.snapshot_dir = snapshot_dir
        self.swap_dir = swap_dir


def make_server(service: EstimationService, host: str = "127.0.0.1",
                port: int = 8765, verbose: bool = False,
                snapshot_dir=None, swap_dir=None) -> ServingServer:
    """Bind a serving server (``port=0`` picks a free port for tests)."""
    return ServingServer((host, port), service, verbose=verbose,
                         snapshot_dir=snapshot_dir, swap_dir=swap_dir)


def serve_in_background(service: EstimationService, host: str = "127.0.0.1",
                        port: int = 0, snapshot_dir=None, swap_dir=None
                        ) -> tuple[ServingServer, threading.Thread]:
    """Start a server on a daemon thread; returns (server, thread).

    Callers stop it with ``server.shutdown(); server.server_close()``.
    """
    server = make_server(service, host=host, port=port,
                         snapshot_dir=snapshot_dir, swap_dir=swap_dir)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve", daemon=True)
    thread.start()
    return server, thread
