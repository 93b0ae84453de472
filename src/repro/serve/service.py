"""The estimation service: concurrent cardinality serving over a registry.

This is the online half of the paper made operational: a fitted model is
published into a :class:`~repro.serve.registry.ModelRegistry`, and the
service answers single-query (``estimate``) and optimizer-style
sub-plan (``estimate_subplans``) requests against it, with
per-request latency accounting and a two-level result cache per model.

Sub-plan reuse
--------------
FactorJoin's estimate of a join query decomposes into per-sub-plan bound
computations, so overlapping queries share work.  The service exploits
that across requests: every answered estimate also lands in a *sub-plan
table* keyed on canonical, alias-invariant
:meth:`~repro.sql.query.Query.subplan_key` fingerprints, and

- a plain ``estimate`` that misses the query-level cache consults the
  sub-plan table — a query previously seen as a sub-plan of a *larger*
  query is answered without touching the model;
- ``estimate_subplans`` populates one sub-plan entry per connected
  sub-plan it computes, and assembles its whole answer from the table when
  every sub-plan is already present.

A sub-plan entry carries the *progressive* estimate (Section 5.2), and the
progressive estimator combines factors in exactly the greedy order the
plain-``estimate`` fold uses (see :mod:`repro.core.inference`), so the two
paths produce bit-identical numbers — reuse never changes an answer, it
only skips recomputing it.  Set ``subplan_reuse=False`` to insist on
whole-query caching only.

Workload recording
------------------
``start_recording(path)`` logs every served estimation request to a JSONL
workload file (see :mod:`repro.serve.warmup`); replaying that file against
a freshly loaded artifact pre-populates both cache levels before traffic
is admitted (``repro serve --warm``, ``POST /warmup``).

Concurrency contract
--------------------
Reads are lock-free: a request resolves its model record once and uses
that snapshot throughout, so a concurrent hot-swap never changes the model
under a request mid-flight.  Mutations (``update``, which edits a fitted
model's statistics in place, Section 4.3) serialize on a per-service lock
and invalidate that model's cache (both levels) afterwards.  Estimates
running concurrently with an ``update`` read a consistent model because
numpy in-place adds on the statistics are the only mutation and the online
phase never iterates those arrays across release points — the worst case
is an estimate reflecting a partially applied batch, the same semantics
the paper's incremental maintenance accepts.  Caches *derived* from the
statistics (normalized conditionals, per-predicate tree messages) are
invalidated by swapping in a fresh cache object after the statistics
change, never by clearing in place: a reader captures the cache before
computing, so a value computed from pre-update counts can only land in
the discarded object, and no stale value survives the update.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from dataclasses import replace

from repro.api import (
    EstimateRequest,
    EstimateResponse,
    FeedbackRequest,
    FeedbackResponse,
    SubplanRequest,
    SubplanResponse,
    UpdateRequest,
    UpdateResponse,
    build_explain_trace,
    check_operation,
    coerce_query,
    q_error,
    with_cache_level,
    with_trace_id,
)
from repro.data.table import Table
from repro.errors import DataError, UnsupportedOperationError
from repro.obs.alerts import AlertEngine, default_alert_rules
from repro.obs.drift import DriftMonitor, DriftReport, template_of
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    QERROR_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from repro.obs.slo import (
    PLAN_QUALITY_OBJECTIVE,
    PLAN_QUALITY_THRESHOLD,
    SloTracker,
)
from repro.obs.trace import Tracer, current_trace_id, trace_span
from repro.serve.cache import EstimateCache, query_fingerprint
from repro.serve.registry import ModelRecord, ModelRegistry
from repro.serve.warmup import (
    KIND_ESTIMATE,
    KIND_SUBPLANS,
    WorkloadEntry,
    WorkloadRecorder,
)
from repro.sql.query import Query

DEFAULT_MODEL = "default"

class EstimationService:
    """Serves estimates from registered models; safe under concurrency.

    Parameters
    ----------
    registry:
        The model registry to serve from (a fresh one by default).
    cache_size:
        Query-level LRU entries per model.
    subplan_reuse:
        Enable the cross-request sub-plan table (default True).
    subplan_cache_size:
        Sub-plan-table entries per model (default ``8 * cache_size``).
    record_path:
        Start recording served requests to this JSONL path immediately
        (equivalent to calling :meth:`start_recording` after construction).
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` to instrument
        against (a fresh one by default).  Its ``enabled`` flag is the
        telemetry switch: pass :data:`~repro.obs.metrics.NULL_METRICS`
        to turn telemetry off, which also leaves ``slo`` None.
    tracer:
        The :class:`~repro.obs.trace.Tracer` recording per-request span
        trees (a fresh one by default; pass
        :data:`~repro.obs.trace.NULL_TRACER` to disable tracing).
    drift:
        The :class:`~repro.obs.drift.DriftMonitor` attributing feedback
        accuracy per model/shard/table/template (tests inject fake-clock
        monitors).  Defaults to a fresh one, or to None when telemetry
        is off.
    alerts:
        The :class:`~repro.obs.alerts.AlertEngine` evaluated by
        :meth:`evaluate_alerts`.  Defaults to one loaded with
        :func:`~repro.obs.alerts.default_alert_rules`, or to None when
        telemetry is off.
    flight:
        The :class:`~repro.obs.flight.FlightRecorder` keeping
        worst-offender debug bundles by q-error and latency.  Defaults
        to a fresh one, or to None when telemetry is off.
    """

    def __init__(self, registry: ModelRegistry | None = None,
                 cache_size: int = 1024, subplan_reuse: bool = True,
                 subplan_cache_size: int | None = None,
                 record_path=None, metrics=None, tracer=None,
                 drift=None, alerts=None, flight=None):
        self.registry = registry if registry is not None else ModelRegistry()
        self.cache_size = cache_size
        self.subplan_reuse = subplan_reuse
        self.subplan_cache_size = subplan_cache_size
        self._caches: dict[str, EstimateCache] = {}
        self._caches_lock = threading.Lock()
        self._update_lock = threading.Lock()
        # (name, version) pairs whose model mutated in place via update();
        # their publish-time artifact fingerprints are stale (see
        # _fingerprint_of)
        self._mutated_records: set[tuple[str, int]] = set()
        self._recorder: WorkloadRecorder | None = None
        self._recorder_lock = threading.Lock()
        # thread-local: warming replays must not be recorded, but other
        # threads' genuine traffic arriving mid-warmup must be
        self._suspended = threading.local()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self._request_seconds = self.metrics.histogram(
            "repro_request_seconds",
            "Request latency by endpoint and model (seconds).")
        self._qerror = self.metrics.histogram(
            "repro_qerror",
            "Rolling q-error of served estimates, per model "
            "(ground truth via POST /v1/feedback or record_truth).",
            buckets=QERROR_BUCKETS)
        self._shard_qerror = self.metrics.histogram(
            "repro_shard_qerror",
            "Rolling q-error attributed to each shard the estimate read.",
            buckets=QERROR_BUCKETS)
        self._perror = self.metrics.histogram(
            "repro_perror",
            "Rolling P-error (plan-cost suboptimality vs the truecard "
            "oracle) of plan-cost feedback, per model.",
            buckets=QERROR_BUCKETS)
        self._feedback_total = self.metrics.counter(
            "repro_feedback_total",
            "Ground-truth feedback samples absorbed, per model.")
        # bound (endpoint, model) latency children (see _account)
        self._bound_latency: dict[tuple[str, str], object] = {}
        # scrape-time collectors: these metrics' source of truth lives
        # behind other components' locks (cache counters, registry
        # records, cluster worker health), so /metrics reads one
        # consistent snapshot from the owner instead of mirroring
        self.metrics.register_collector(self._collect_cache_metrics)
        self.metrics.register_collector(self._collect_registry_metrics)
        self.metrics.register_collector(self._collect_model_metrics)
        # declared objectives over the signals above (availability and
        # latency from the request paths, accuracy from /v1/feedback),
        # drift attribution, alerting, and the flight recorder.  With
        # telemetry on, a default is built for every component not
        # passed in (tests and the detection bench inject fake-clock
        # ones); with it off none is, and an absent component is None,
        # so the overhead bench compares genuinely uninstrumented
        # serving.
        self.slo = None
        if self.metrics.enabled:
            self.slo = SloTracker()
            self.slo.declare(
                "availability", objective=0.999,
                description="Requests answered without error")
            self.slo.declare(
                "latency", objective=0.99, threshold=0.1,
                description="Estimation requests answered within 100 ms")
            self.slo.declare(
                "qerror", objective=0.9, threshold=10.0,
                description="Feedback q-errors within 10x of ground truth")
            self.slo.declare(
                "plan_quality", objective=PLAN_QUALITY_OBJECTIVE,
                threshold=PLAN_QUALITY_THRESHOLD,
                description="Plan-cost feedback P-errors within "
                            f"{PLAN_QUALITY_THRESHOLD}x of the truecard-"
                            "oracle plan")
            drift = DriftMonitor() if drift is None else drift
            alerts = (AlertEngine(rules=default_alert_rules())
                      if alerts is None else alerts)
            flight = FlightRecorder() if flight is None else flight
            self.metrics.register_collector(self.slo.collect)
            self.metrics.register_collector(self._collect_drift_metrics)
            self.metrics.register_collector(alerts.collect)
        self.drift, self.alerts, self.flight = drift, alerts, flight
        self._alert_ticker: threading.Thread | None = None
        self._alert_ticker_stop: threading.Event | None = None
        self.started_at = time.time()
        self.registry.add_swap_listener(self._on_swap)
        if record_path is not None:
            self.start_recording(record_path)

    def _account(self, endpoint: str, model: str | None = None,
                 seconds: float | None = None) -> None:
        """Record one served request's outcome, exactly once, inside its
        trace: the ``repro_request_seconds`` observation (with the trace
        id as exemplar), the availability SLO, and — for reads — the
        latency SLO.  Called without ``model``/``seconds`` when the
        request raised, which records availability as bad."""
        slo = self.slo
        if slo is None:  # telemetry off
            return
        if seconds is None:
            slo.record("availability", False)
            return
        # pre-resolved (endpoint, model) children skip label sorting and
        # child lookup (a benign race on setdefault hands back
        # equivalent handles)
        key = (endpoint, model)
        bound = self._bound_latency.get(key)
        if bound is None:
            bound = self._bound_latency.setdefault(
                key, self._request_seconds.bound(endpoint=endpoint,
                                                 model=model))
        # the exemplar links this observation's bucket to its trace, so
        # a slow p99 bucket on a dashboard resolves to a concrete trace
        bound.observe(seconds, trace_id=current_trace_id())
        slo.record("availability", True)
        if endpoint != "update":
            slo.record_value("latency", seconds)

    # -- model management ------------------------------------------------------

    def register(self, name: str, model, metadata: dict | None = None
                 ) -> ModelRecord:
        """Publish a fitted model for serving (atomic replace)."""
        return self.registry.publish(name, model, metadata=metadata)

    def _on_swap(self, name: str, record: ModelRecord | None) -> None:
        cache = self._caches.get(name)
        if cache is not None:
            cache.invalidate()

    def _cache_of(self, name: str) -> EstimateCache:
        cache = self._caches.get(name)
        if cache is None:
            with self._caches_lock:
                cache = self._caches.setdefault(
                    name, EstimateCache(
                        self.cache_size,
                        subplan_max_size=self.subplan_cache_size))
        return cache

    def _resolve(self, model: str | None) -> ModelRecord:
        if model is None:
            names = self.registry.names()
            if len(names) == 1:
                return self.registry.record(names[0])
            model = DEFAULT_MODEL
        return self.registry.record(model)

    def _default_name(self) -> str:
        """The registry name a ``model=None`` request resolves to."""
        return self._resolve(None).name

    # -- workload recording ----------------------------------------------------

    def start_recording(self, path) -> WorkloadRecorder:
        """Log every served estimation request to a JSONL workload file
        (closing any previous recorder); see :mod:`repro.serve.warmup`."""
        recorder = WorkloadRecorder(path)
        with self._recorder_lock:
            previous, self._recorder = self._recorder, recorder
        if previous is not None:
            previous.close()
        return recorder

    def stop_recording(self) -> int:
        """Stop recording; returns how many entries the recorder wrote."""
        with self._recorder_lock:
            recorder, self._recorder = self._recorder, None
        if recorder is None:
            return 0
        recorder.close()
        return recorder.recorded

    @contextlib.contextmanager
    def recording_suspended(self):
        """Context manager: requests served by *this thread* inside the
        block are not recorded.

        Cache warming replays a workload *through* the service; without
        suspension, warming a recording service would copy the old
        workload into the new log.  The suspension is thread-local, so a
        live ``POST /warmup`` does not stop concurrent client traffic on
        other threads from being recorded.
        """
        self._suspended.count = getattr(self._suspended, "count", 0) + 1
        try:
            yield self
        finally:
            self._suspended.count -= 1

    def _record(self, kind: str, query: Query, model: str | None,
                min_tables: int = 1) -> None:
        if getattr(self._suspended, "count", 0):
            return
        with self._recorder_lock:
            recorder = self._recorder
        if recorder is None:
            return
        recorder.record(WorkloadEntry(sql=query.to_sql(), kind=kind,
                                      model=model, min_tables=min_tables))

    # -- estimation ------------------------------------------------------------

    def estimate(self, query: Query | str,
                 model: str | None = None) -> EstimateResponse:
        """Single-query estimate: query-level cache, then the sub-plan
        table, then the model.  Shim over :meth:`serve_estimate`."""
        return self.serve_estimate(EstimateRequest(query=query,
                                                   model=model))

    def serve_estimate(self, request: EstimateRequest) -> EstimateResponse:
        """Answer one typed :class:`~repro.api.EstimateRequest`.

        With ``request.explain``, the response carries an
        :class:`~repro.api.ExplainTrace` (inference knobs, key groups and
        bins touched, shard pruning, cache level hit); with
        ``request.trace``, additionally the request's rendered span tree.
        """
        with self.tracer.trace("request.estimate",
                               model=request.model or "") as root:
            try:
                response = self._estimate_with(
                    self._resolve(request.model), request.query,
                    requested_model=request.model,
                    explain=request.explain)
            except Exception:
                self._account("estimate")
                raise
            self._account("estimate", response.model, response.seconds)
        response = self._attach_trace(response, root,
                                      want_tree=request.trace)
        self._flight_latency(response, root)
        return response

    def _flight_latency(self, response: EstimateResponse, root) -> None:
        """Offer a served estimate to the flight recorder's latency
        ring; the bundle (with the request's span tree, popped from the
        tracer if :meth:`_attach_trace` did not already) is assembled
        only for admitted offenders."""
        seconds = response.seconds
        if self.flight is None or seconds is None or \
                not self.flight.admits("latency", seconds):
            return
        trace = response.trace
        if trace is None and root is not None:
            record = self.tracer.record_of(root)
            if record is not None:
                trace = record.to_json()
        self.flight.record("latency", seconds, {
            "sql": response.sql,
            "model": response.model,
            "version": response.version,
            "estimate": response.estimate,
            "seconds": seconds,
            "cached": response.cached,
            "cache_level": response.cache_level,
            "trace_id": root.trace_id if root is not None else None,
            "trace": trace,
        })

    def _attach_trace(self, response: EstimateResponse, root,
                      want_tree: bool = False) -> EstimateResponse:
        """Stamp the recorded trace onto a response: the trace id on the
        explain (always, when tracing is on), and the rendered span tree
        when the request asked for it (``root`` is None under the null
        tracer)."""
        if root is None:
            return response
        if response.explain is not None:
            response = replace(response, explain=with_trace_id(
                response.explain, root.trace_id))
        if want_tree:
            record = self.tracer.record_of(root)
            if record is not None:
                response = replace(response, trace=record.to_json())
        return response

    @staticmethod
    def _touched_shards(model, query: Query):
        """The shard indices an estimate of ``query`` reads (the same
        pruning introspection the explain trace reports), or None for
        unsharded models / any failure.  Cache entries are tagged with
        this so a per-shard hot-swap evicts only what it invalidates."""
        candidate_shards = getattr(model, "candidate_shards", None)
        if candidate_shards is None:
            return None
        touched: set[int] = set()
        for alias in query.aliases:
            try:
                touched.update(candidate_shards(query, alias))
            except Exception:
                return None
        return frozenset(touched)

    def _estimate_with(self, record: ModelRecord, query: Query | str,
                       requested_model: str | None = None,
                       explain: bool = False) -> EstimateResponse:
        start = time.perf_counter()
        with trace_span("parse"):
            query = coerce_query(query)
        cache = self._cache_of(record.name)
        with trace_span("cache.lookup") as lookup_span:
            key = query_fingerprint(query)
            stamp = cache.invalidations
            value = cache.get(key)
            # a cache entry read while `record` is still published belongs
            # to record's version (every swap invalidates before the new
            # version can repopulate) — but a request pinned to a
            # record swapped out after it resolved must not serve
            # the *new* version's entries under the old version label, so
            # verify currency AFTER the read and recompute instead of
            # trusting a shared cache
            if value is not None and not self.registry.is_current(record):
                value = None
            cache_level = "query" if value is not None else None
            skey = None
            if value is None and self.subplan_reuse:
                skey = query.subplan_key()
                value = cache.get_subplan(skey)
                if value is not None and not self.registry.is_current(
                        record):
                    value = None
                if value is not None:
                    cache_level = "subplan"
                    # promote: the next identical request is a query-level
                    # hit
                    cache.put(key, value, stamp=stamp,
                              shards=self._touched_shards(record.model,
                                                          query))
            if lookup_span is not None:
                lookup_span.annotate(level=cache_level or "miss")
        if value is None:
            with trace_span("model.estimate", model=record.name):
                value = float(record.model.estimate(query))
            # cache only answers from the still-published model version
            # (a hot-swap may land mid-request) and only if
            # no update/swap invalidated the cache mid-computation; a swap
            # landing between these two checks still bumps the stamp, so
            # the put drops in every interleaving
            if self.registry.is_current(record):
                shards = self._touched_shards(record.model, query)
                cache.put(key, value, stamp=stamp, shards=shards)
                if skey is not None:
                    cache.put_subplan(skey, value, stamp=stamp,
                                      shards=shards)
        self._record(KIND_ESTIMATE, query, requested_model)
        trace = None
        if explain:
            trace = with_cache_level(
                build_explain_trace(record.model, query), cache_level)
        seconds = time.perf_counter() - start
        return EstimateResponse(estimate=value, model=record.name,
                                version=record.version,
                                cached=cache_level is not None,
                                seconds=seconds, sql=query.to_sql(),
                                cache_level=cache_level, explain=trace)

    def explain(self, query: Query | str, model: str | None = None,
                trace: bool = False) -> EstimateResponse:
        """Estimate with a full :class:`~repro.api.ExplainTrace` attached
        (the ``POST /v1/explain`` entry point); ``trace=True`` also
        attaches the request's rendered span tree
        (``POST /v1/explain?trace=true``)."""
        return self.serve_estimate(EstimateRequest(query=query,
                                                   model=model,
                                                   explain=True,
                                                   trace=trace))

    def estimate_subplans(self, query: Query | str,
                          model: str | None = None,
                          min_tables: int = 1) -> dict[frozenset, float]:
        """Estimates for every connected sub-plan (optimizer interface);
        shim over :meth:`serve_subplans` returning the bare map."""
        return self.serve_subplans(SubplanRequest(
            query=query, model=model, min_tables=min_tables)).subplans

    def serve_subplans(self, request: SubplanRequest) -> SubplanResponse:
        """Answer one typed :class:`~repro.api.SubplanRequest`.

        Consults the query-level cache first; on a miss, the whole map is
        assembled from the sub-plan table when every sub-plan is already
        present (all-or-nothing — a partial set saves nothing, since the
        progressive estimator recomputes the map as one pass).  Computed
        maps populate both levels, so later *plain* estimates of any
        contained sub-plan are served without inference.
        """
        with self.tracer.trace("request.subplans",
                               model=request.model or ""):
            try:
                response = self._subplans_with(request)
            except Exception:
                self._account("subplans")
                raise
            self._account("subplans", response.model, response.seconds)
        return response

    def _subplans_with(self, request: SubplanRequest) -> SubplanResponse:
        start = time.perf_counter()
        model, min_tables = request.model, request.min_tables
        record = self._resolve(model)
        with trace_span("parse"):
            query = coerce_query(request.query)
        cache = self._cache_of(record.name)
        with trace_span("cache.lookup") as lookup_span:
            key = query_fingerprint(query,
                                    request=("subplans", min_tables))
            stamp = cache.invalidations
            value = cache.get(key)
            # same currency rule as _estimate_with: a swap landing after
            # the read means the entry may belong to the newer version
            if value is not None and not self.registry.is_current(record):
                value = None
            level = "query" if value is not None else None
            skeys = None
            if value is None and self.subplan_reuse:
                # prefer the model's own fingerprint surface (FactorJoin.
                # subplan_fingerprints mirrors its estimate_subplans key
                # set by construction); fall back to the query's for
                # models that do not expose one
                fingerprints = getattr(record.model,
                                       "subplan_fingerprints", None)
                skeys = (fingerprints(query, min_tables=min_tables)
                         if fingerprints is not None
                         else query.subplan_keys(min_tables=min_tables))
                found = cache.lookup_subplans(list(skeys.values()))
                if found is not None and self.registry.is_current(record):
                    value = {subset: found[k]
                             for subset, k in skeys.items()}
                    level = "subplan"
                    cache.put(key, dict(value), stamp=stamp,
                              shards=self._touched_shards(record.model,
                                                          query))
            if lookup_span is not None:
                lookup_span.annotate(level=level or "miss")
        if value is None:
            with trace_span("model.subplans", model=record.name):
                value = record.model.estimate_subplans(
                    query, min_tables=min_tables)
            if self.registry.is_current(record):
                # sub-plans of one query share its touched-shard set (a
                # superset of each sub-plan's own — conservative)
                shards = self._touched_shards(record.model, query)
                cache.put(key, dict(value), stamp=stamp, shards=shards)
                if skeys is not None:
                    cache.put_subplans(
                        {skeys[s]: v for s, v in value.items()
                         if s in skeys}, stamp=stamp, shards=shards)
        self._record(KIND_SUBPLANS, query, model, min_tables=min_tables)
        seconds = time.perf_counter() - start
        # a copied map: callers mutating their result must not poison
        # the cache
        return SubplanResponse(subplans=dict(value), model=record.name,
                               version=record.version, seconds=seconds,
                               sql=query.to_sql(), min_tables=min_tables)

    # -- planning --------------------------------------------------------------

    def serve_plan(self, request) -> "PlanResponse":
        """Choose a join order for one query (``POST /v1/plan``).

        The sub-plan lattice comes through the same path as
        ``serve_subplans`` — two-level cache, workload recording — then
        the DP optimizer picks the cheapest order under the service's
        estimates (equal-cost ties resolved by
        :func:`~repro.optimizer.dp.plan_order_key`, so the same model
        always answers a bit-identical plan), and the order plus every
        injected cardinality render as hint text in the requested
        dialect.  Returns a typed
        :class:`~repro.plan.messages.PlanResponse`.
        """
        from repro.optimizer.dp import make_oracle, optimize
        from repro.optimizer.plans import JoinPlan
        from repro.plan.hints import hints_of, leading_as_json, \
            leading_tree, render_hints
        from repro.plan.messages import PlanResponse

        with self.tracer.trace("request.plan",
                               model=request.model or "") as root:
            try:
                start = time.perf_counter()
                record = self._resolve(request.model)
                with trace_span("parse"):
                    query = coerce_query(request.query)
                sub = self._subplans_with(SubplanRequest(
                    query=query, model=request.model, min_tables=1))
                with trace_span("optimize"):
                    if len(query.aliases) == 1:
                        plan, cost = JoinPlan.leaf(query.aliases[0]), 0.0
                    else:
                        plan, cost = optimize(
                            query, make_oracle(sub.subplans))
                    hints = hints_of(plan, sub.subplans)
                    text = render_hints(hints, request.dialect)
            except Exception:
                self._account("plan")
                raise
            seconds = time.perf_counter() - start
            self._account("plan", record.name, seconds)
        trace = None
        if request.trace and root is not None:
            trace_record = self.tracer.record_of(root)
            if trace_record is not None:
                trace = trace_record.to_json()
        return PlanResponse(
            join_order=plan.render(),
            leading=leading_as_json(leading_tree(plan)),
            cardinalities=hints.cardinalities(),
            hint_text=text, dialect=request.dialect,
            estimated_cost=cost, model=sub.model, version=sub.version,
            seconds=seconds, sql=sub.sql, trace=trace)

    # -- mutation --------------------------------------------------------------

    @staticmethod
    def _check_batch(model, table_name: str, rows: Table,
                     op: str = "insert") -> Table:
        """Validate and normalize a mutation batch *before* any mutation.

        The model's ``update`` mutates statistics column by column, so a
        malformed batch failing midway would leave it half-updated —
        reject mismatched column sets up front instead.  Column *order*
        is normalized to the served table's storage order (JSON objects
        are unordered; order is a serving-layer concern, not an error).
        Also rejects models that cannot absorb the operation, so the
        caller gets a clean error instead of a partial mutation: via the
        per-table ``supports_update`` / ``supports_delete`` hooks when
        the model exposes them (FactorJoin's are estimator-derived), and
        via the declared :class:`~repro.api.Capabilities` otherwise
        (:func:`repro.api.check_operation`).
        """
        hook_name = "supports_update" if op == "insert" else "supports_delete"
        hook = getattr(model, hook_name, None)
        if callable(hook):
            if op == "insert" and not hook(table_name):
                raise UnsupportedOperationError(
                    f"the served model cannot absorb inserts into "
                    f"{table_name!r} (its table estimator has no update)")
            if op != "insert" and not hook(table_name):
                raise UnsupportedOperationError(
                    f"the served model cannot absorb deletions from "
                    f"{table_name!r} (its table estimator has no delete)")
        else:
            capabilities = getattr(model, "capabilities", None)
            if callable(capabilities):
                check_operation(capabilities(),
                                "update" if op == "insert" else "delete")
        try:
            want = model.database.table(table_name).column_names
        except Exception:
            return rows
        if set(want) != set(rows.column_names):
            raise DataError(
                f"{op} into {table_name!r} must provide exactly the "
                f"columns {sorted(want)}; got "
                f"{sorted(rows.column_names)}")
        if want != rows.column_names:
            return Table(rows.name, [rows[c] for c in want])
        return rows

    def update(self, table_name: str, new_rows: Table | None = None,
               model: str | None = None,
               deleted_rows: Table | None = None) -> UpdateResponse:
        """Apply an incremental insert and/or delete to a served model
        (Section 4.3); shim over :meth:`serve_update`."""
        return self.serve_update(UpdateRequest(
            table=table_name, rows=new_rows, deleted_rows=deleted_rows,
            model=model))

    def serve_update(self, request: UpdateRequest) -> UpdateResponse:
        """Apply one typed :class:`~repro.api.UpdateRequest`.

        Serialized against other updates.  Both batches are validated
        before any statistic mutates, and the model's cache (both levels)
        is invalidated even when the update raises partway — a failed
        mutation must never leave pre-failure entries serving.
        """
        with self.tracer.trace("request.update",
                               model=request.model or ""):
            try:
                response = self._update_with(request)
            except Exception:
                self._account("update")
                raise
            self._account("update", response.model, response.seconds)
        return response

    def _update_with(self, request: UpdateRequest) -> UpdateResponse:
        start = time.perf_counter()
        table_name = request.table
        new_rows, deleted_rows = request.rows, request.deleted_rows
        record = self._resolve(request.model)
        if new_rows is None and deleted_rows is None:
            # reject unsupported models first (the clearer error), then
            # the empty batch
            if not getattr(record.model, "supports_update",
                           lambda *a: True)(table_name):
                raise UnsupportedOperationError(
                    f"the served model cannot absorb inserts into "
                    f"{table_name!r} (its table estimator has no update)")
            raise DataError("update needs new_rows and/or deleted_rows")
        if new_rows is not None:
            new_rows = self._check_batch(record.model, table_name,
                                         new_rows, op="insert")
        if deleted_rows is not None:
            deleted_rows = self._check_batch(record.model, table_name,
                                             deleted_rows, op="delete")
        with self._update_lock, trace_span("model.update",
                                           model=record.name,
                                           table=table_name):
            try:
                if deleted_rows is not None:
                    record.model.update(table_name, new_rows,
                                        deleted_rows=deleted_rows)
                else:
                    record.model.update(table_name, new_rows)
            finally:
                self._cache_of(record.name).invalidate()
                # the artifact fingerprint no longer describes the mutated
                # model; snapshots taken from here on must stamp a content
                # hash instead (see _fingerprint_of).  Tracked out of band:
                # ModelRecord (and its metadata dict) is an immutable
                # snapshot that concurrent GET /v1/models responses iterate
                self._mutated_records.add((record.name, record.version))
        seconds = time.perf_counter() - start
        return UpdateResponse(
            model=record.name,
            version=record.version,
            table=table_name,
            rows=len(new_rows) if new_rows is not None else 0,
            deleted_rows=(len(deleted_rows) if deleted_rows is not None
                          else 0),
            seconds=seconds)

    def hot_swap_shard(self, shard: int, artifact,
                       model: str | None = None) -> dict:
        """Republish one shard of a served ensemble from a refreshed
        sub-artifact (``POST /v1/swap``), without taking the model out
        of serving.

        The swap itself is the model's atomic state publish — concurrent
        estimates finish against whichever state they resolved.  Cache
        eviction is scoped by what the swap could have changed: when the
        incoming shard's mergeable statistics equal the outgoing one's
        (``stats_changed`` false — a refit of the same rows, a
        re-encoded artifact), only entries whose recorded touched-shards
        include the swapped shard are evicted
        (:meth:`~repro.serve.cache.EstimateCache.invalidate_shards`);
        when they differ, the merged statistics every query reads moved,
        so both cache levels clear wholesale.
        """
        record = self._resolve(model)
        swap = getattr(record.model, "hot_swap_shard", None)
        if not callable(swap):
            raise UnsupportedOperationError(
                f"model {record.name!r} ({record.kind}) is not a sharded "
                f"ensemble; per-shard hot-swap needs one")
        cache = self._cache_of(record.name)
        with self._update_lock:
            # hot_swap_shard publishes its new state as the final atomic
            # step: any failure (bad index, missing artifact, worker
            # trouble) leaves the served state untouched, so a failed
            # swap must NOT cost the warmed cache — propagate as-is
            info = swap(shard, artifact)
            if info.get("stats_changed", True):
                cache.invalidate()
                evicted = None
            else:
                evicted = cache.invalidate_shards([shard])
            # the publish-time artifact fingerprint no longer describes
            # the served ensemble (see serve_update)
            self._mutated_records.add((record.name, record.version))
        return {
            "model": record.name,
            "version": record.version,
            **info,
            "evicted": evicted,
            "full_invalidation": evicted is None,
        }

    # -- accuracy telemetry ----------------------------------------------------

    def record_feedback(self, request: FeedbackRequest
                        ) -> FeedbackResponse:
        """Absorb one ground-truth sample (``POST /v1/feedback``).

        Records the q-error into the rolling per-model histogram
        (``repro_qerror``) and, for sharded ensembles, into the per-shard
        histogram (``repro_shard_qerror``) for every shard the estimate
        read — the raw drift signal feedback-driven refresh consumes.
        When the request does not pin the estimate it refers to, the
        service re-derives it (cheap: the answer is normally still
        cached); that re-derivation is never workload-recorded.

        When the request also carries plan costs (``plan_cost`` /
        ``optimal_cost`` from a plan harness, both under true
        cardinalities), their P-error lands in the per-model
        ``repro_perror`` histogram and the ``plan_quality`` SLO — the
        end-to-end counterpart of the q-error signal.
        """
        with self.tracer.trace("request.feedback",
                               model=request.model or ""):
            record = self._resolve(request.model)
            with trace_span("parse"):
                query = coerce_query(request.query)
            estimate = request.estimate
            if estimate is None:
                with self.recording_suspended():
                    estimate = self._estimate_with(
                        record, query,
                        requested_model=request.model).estimate
            error = q_error(estimate, request.true_cardinality)
            plan_error = None
            if request.plan_cost is not None:
                from repro.api import p_error

                plan_error = p_error(request.plan_cost,
                                     request.optimal_cost)
            shards = self._touched_shards(record.model, query)
            shard_list = tuple(sorted(shards)) if shards else ()
            with trace_span("qerror.record", model=record.name):
                self._qerror.observe(error, trace_id=current_trace_id(),
                                     model=record.name)
                for shard in shard_list:
                    self._shard_qerror.observe(error, model=record.name,
                                               shard=shard)
                self._feedback_total.inc(model=record.name)
                if plan_error is not None:
                    self._perror.observe(plan_error,
                                         trace_id=current_trace_id(),
                                         model=record.name)
                if self.slo is not None:
                    self.slo.record_value("qerror", error)
                    if plan_error is not None:
                        self.slo.record_value("plan_quality", plan_error)
                if self.drift is not None:
                    tables = tuple(sorted(
                        {query.table_of(a) for a in query.aliases}))
                    sample = self.drift.sample_of(
                        record.name, "qerror", error, shards=shard_list,
                        tables=tables, template=template_of(query))
                    self._absorb_drift(record.model, sample)
                    if plan_error is not None:
                        self._absorb_drift(record.model, replace(
                            sample, metric="perror", value=plan_error))
            if self.flight is not None and \
                    self.flight.admits("qerror", error):
                self.flight.record("qerror", error, {
                    "sql": query.to_sql(),
                    "model": record.name,
                    "version": record.version,
                    "estimate": float(estimate),
                    "true_cardinality": float(request.true_cardinality),
                    "q_error": error,
                    "p_error": plan_error,
                    "shards": list(shard_list),
                    "trace_id": current_trace_id(),
                    "cache": self._cache_of(record.name).counters(),
                })
            return FeedbackResponse(
                model=record.name, version=record.version,
                estimate=float(estimate),
                true_cardinality=float(request.true_cardinality),
                q_error=error, sql=query.to_sql(), shards=shard_list,
                p_error=plan_error)

    def record_truth(self, query: Query | str,
                     model: str | None = None) -> FeedbackResponse:
        """Compute ground truth locally and record it as feedback.

        The truescan path: when the served model retains its raw tables
        (``model.database`` — true for the ``truescan`` table estimator
        and every model fitted in-process), the exact cardinality is one
        scan away, so accuracy telemetry needs no external executor.
        Raises :class:`~repro.errors.UnsupportedOperationError` for
        models serving without their data.
        """
        record = self._resolve(model)
        database = getattr(record.model, "database", None)
        if database is None:
            raise UnsupportedOperationError(
                f"model {record.name!r} serves without its raw tables; "
                f"ground truth must come from the executor via "
                f"POST /v1/feedback")
        from repro.engine.executor import CardinalityExecutor

        parsed = coerce_query(query)
        truth = float(CardinalityExecutor(database).cardinality(parsed))
        return self.record_feedback(FeedbackRequest(
            query=parsed, true_cardinality=truth, model=model))

    def _absorb_drift(self, model, sample) -> None:
        """Route one stamped drift sample: shard-scope attribution is
        delegated to the owning workers when the model is cluster-backed
        (its ``absorb_drift`` hook), everything else — plus any shard a
        worker could not take — is absorbed locally.  Each attribution
        key therefore lives in exactly one process, which is what makes
        the federated ``/v1/drift`` merge lossless."""
        delegated = ()
        hook = getattr(model, "absorb_drift", None)
        if callable(hook) and sample.shards:
            try:
                delegated = tuple(hook(sample))
            except Exception:
                delegated = ()
        if delegated:
            sample = replace(sample, shards=tuple(
                s for s in sample.shards if s not in delegated))
        self.drift.absorb(sample)

    def _drift_extras(self) -> list[dict]:
        """Federated drift snapshots from every cluster-backed model's
        ``collect_drift`` hook (one broken model degrades the view,
        never kills it)."""
        extras = []
        for record in self.registry.records():
            hook = getattr(record.model, "collect_drift", None)
            if not callable(hook):
                continue
            try:
                extras.append(hook())
            except Exception:
                continue
        return extras

    def drift_report(self, top: int = 10):
        """The merged :class:`~repro.obs.drift.DriftReport` over the
        service's own monitor plus every cluster-backed model's
        federated worker snapshots — one view regardless of where the
        attribution keys live (an empty report with telemetry off)."""
        if self.drift is None:
            return DriftReport([])
        return self.drift.report(extra=self._drift_extras(), top=top)

    def drift_v1(self, top: int = 10) -> dict:
        """The ``GET /v1/drift`` body: per-status counts, the ``top``
        worst offenders, and every attribution key's score, status,
        magnitude, and onset (see :mod:`repro.obs.drift`)."""
        from repro.api import API_VERSION

        return {"api_version": API_VERSION,
                **self.drift_report(top=top).to_json()}

    def alerts_v1(self) -> dict:
        """The ``GET /v1/alerts`` body: every alert rule with its
        current state, last evaluated value, and transition counts (see
        :mod:`repro.obs.alerts`)."""
        from repro.api import API_VERSION

        if self.alerts is None:
            return {"api_version": API_VERSION, "alerts": [], "firing": 0}
        return {"api_version": API_VERSION, **self.alerts.snapshot()}

    def debug_bundles_v1(self, kind: str | None = None,
                         limit: int | None = None) -> dict:
        """The ``GET /v1/debug/bundles`` body: the flight recorder's
        worst-offender bundles (``kind`` of ``qerror`` / ``latency``,
        or both), worst first, plus occupancy counts."""
        from repro.api import API_VERSION

        if self.flight is None:
            return {"api_version": API_VERSION,
                    "recorder": {"capacity": 0, "kinds": {}}, "bundles": []}
        return {"api_version": API_VERSION,
                "recorder": self.flight.describe(),
                "bundles": self.flight.bundles(kind=kind, limit=limit)}

    def _resolve_signal(self, spec: str, report) -> float | None:
        """Resolve one alert-rule signal spec against the service's
        telemetry (see :mod:`repro.obs.alerts` for the grammar);
        ``report`` is this tick's drift report, computed once."""
        kind, _, rest = spec.partition(":")
        if kind == "slo_burn" and self.slo is not None:
            name, _, window = rest.partition(":")
            for label, width in self.slo.windows:
                if label == window:
                    try:
                        return float(self.slo.burn_rate(name, width))
                    except KeyError:
                        return None
            return None
        if kind == "drift":
            counts = report.counts
            if rest == "critical":
                return float(counts["critical"])
            if rest == "drifting":
                return float(counts["drifting"] + counts["critical"])
            if rest == "max_score":
                return float(report.max_score())
            return None
        if kind == "metric":
            for metric in self.metrics.metrics():
                if metric.name != rest:
                    continue
                if isinstance(metric, Histogram):
                    count, _total, _low, _high, _counts = \
                        metric.snapshot()
                    return float(count)
                return float(sum(value for _labels, value
                                 in metric.samples()))
            return None
        return None

    def evaluate_alerts(self) -> list[dict]:
        """Run one alert-engine evaluation tick against the current SLO
        burn rates, the merged drift report, and registered metrics;
        returns (and exports) this tick's firing/resolved transition
        events.  The serving loop drives this via
        :meth:`start_alert_ticker`; tests call it directly under a fake
        clock."""
        if self.alerts is None:
            return []
        report = self.drift_report()
        return self.alerts.evaluate(
            lambda spec: self._resolve_signal(spec, report))

    def start_alert_ticker(self, interval: float = 5.0) -> None:
        """Start the background daemon thread evaluating alerts every
        ``interval`` seconds (idempotent; no-op when alerting is
        disabled).  ``repro serve`` starts one and stops it on
        shutdown."""
        if self.alerts is None or self._alert_ticker is not None:
            return
        stop = threading.Event()

        def _tick() -> None:
            while not stop.wait(interval):
                try:
                    self.evaluate_alerts()
                except Exception:
                    continue

        ticker = threading.Thread(target=_tick, name="repro-alert-ticker",
                                  daemon=True)
        self._alert_ticker = ticker
        self._alert_ticker_stop = stop
        ticker.start()

    def stop_alert_ticker(self) -> None:
        """Stop the background alert ticker, if one is running."""
        ticker, stop = self._alert_ticker, self._alert_ticker_stop
        self._alert_ticker = None
        self._alert_ticker_stop = None
        if stop is not None:
            stop.set()
        if ticker is not None:
            ticker.join(timeout=5.0)

    # -- cache snapshots -------------------------------------------------------

    def _fingerprint_of(self, record: ModelRecord) -> str:
        """The served model's snapshot fingerprint: the artifact SHA-256
        recorded at publish time when available (``repro serve --load``
        sets it from the manifest), else a content hash of the model.
        Once a record's model has absorbed an in-place ``update`` the
        artifact hash no longer describes it, so the content hash is
        used from then on."""
        from repro.serve.snapshot import model_fingerprint

        fingerprint = record.metadata.get("fingerprint")
        if (record.name, record.version) in self._mutated_records:
            fingerprint = None
        return fingerprint or model_fingerprint(record.model)

    def save_snapshot(self, path, model: str | None = None) -> dict:
        """Persist one model's cache (both levels) to ``path``, stamped
        with that model's fingerprint (see :mod:`repro.serve.snapshot`).

        The fingerprint and the cache contents must come from the same
        inter-invalidation epoch: an update landing between the two
        would stamp post-update entries with the pre-update fingerprint,
        and a later restore against the pristine artifact would accept
        them.  The stamp check retries until both were read in one
        epoch.
        """
        from repro.errors import ArtifactError
        from repro.serve.snapshot import save_snapshot

        record = self._resolve(model)
        cache = self._cache_of(record.name)
        for _ in range(5):
            stamp = cache.invalidations
            fingerprint = self._fingerprint_of(record)
            payload = cache.snapshot()
            if cache.invalidations == stamp:
                break
        else:
            raise ArtifactError(
                f"cache snapshot of model {record.name!r} kept racing "
                f"concurrent updates; retry when the update stream "
                f"quiesces")
        return save_snapshot(cache, path, fingerprint,
                             model_name=record.name, snapshot=payload)

    def restore_snapshot(self, path, model: str | None = None) -> dict:
        """Warm one model's cache from a snapshot taken earlier; refuses
        (:class:`~repro.errors.ArtifactError`) when the snapshot was
        stamped against a different model state.  Race-safe: the
        fingerprint is computed under an invalidation stamp, so a model
        update landing mid-restore drops the restore instead of
        resurrecting pre-update entries."""
        from repro.serve.snapshot import restore_snapshot

        record = self._resolve(model)
        cache = self._cache_of(record.name)
        stamp = cache.invalidations
        return restore_snapshot(cache, path, self._fingerprint_of(record),
                                stamp=stamp)

    # -- profiling -------------------------------------------------------------

    def profile(self, seconds: float = 1.0, hz: float = 99.0,
                model: str | None = None,
                worker: int | None = None) -> dict:
        """Sample stacks for ``seconds`` at ``hz`` (``GET /v1/profile``).

        With ``worker=None`` the serving process itself is profiled
        (every thread, wall-clock).  With a worker id, the request is
        forwarded as a ``Profile`` RPC to that shard worker of the
        resolved (cluster-backed) model, so a remote host is profiled
        through the same pane.  Returns a JSON-ready dict whose
        ``collapsed`` text is flamegraph-ready; duration and rate are
        clamped to safe bounds (see :mod:`repro.obs.profile`).
        """
        from repro.obs.profile import profile_here

        if worker is None:
            report = profile_here(seconds=seconds, hz=hz)
            return {"pid": os.getpid(), "worker": None,
                    **report.to_json()}
        record = self._resolve(model)
        hook = getattr(record.model, "profile_worker", None)
        if not callable(hook):
            raise UnsupportedOperationError(
                f"model {record.name!r} is not cluster-backed; only the "
                f"serving process can be profiled (omit 'worker')")
        result = hook(int(worker), seconds=seconds, hz=hz)
        return {"pid": result.pid, "worker": int(worker),
                "model": record.name, "seconds": result.seconds,
                "hz": result.hz, "samples": result.samples,
                "collapsed": result.collapsed}

    # -- introspection ---------------------------------------------------------

    def slo_v1(self) -> dict:
        """The ``GET /v1/slo`` body: every declared objective with
        lifetime outcome totals and per-window error/burn rates (see
        :mod:`repro.obs.slo`)."""
        from repro.api import API_VERSION

        return {"api_version": API_VERSION, **self._slo_snapshot()}

    def _slo_snapshot(self) -> dict:
        return {"slos": []} if self.slo is None else self.slo.snapshot()

    def _workers_overview(self) -> dict | None:
        """Per-model worker rows for the ``/v1/stats`` ``workers``
        section: the pool's cheap describe() — liveness, restarts,
        generation, and per-worker monotone transport counters — for
        every cluster-backed model (None when none is)."""
        overview: dict[str, dict] = {}
        for record in self.registry.records():
            pool = getattr(record.model, "pool", None)
            describe = getattr(pool, "describe", None)
            if not callable(describe):
                continue
            try:
                overview[record.name] = describe()
            except Exception:  # a broken pool must not kill /v1/stats
                continue
        return overview or None

    def _collect_cache_metrics(self):
        """Scrape-time collector: per-model cache counters.

        Each model's counters come from one locked
        :meth:`~repro.serve.cache.EstimateCache.counters` snapshot, so a
        scrape can never pair a hit count from mid-lookup with a stale
        miss count (hits ≤ lookups holds in every exposition).
        """
        with self._caches_lock:
            caches = sorted(self._caches.items())
        hits, misses, evictions, entries = [], [], [], []
        invalidations, shard_evictions = [], []
        for name, cache in caches:
            counters = cache.counters()
            for level, prefix in (("query", ""), ("subplan", "subplan_")):
                labels = {"model": name, "level": level}
                hits.append((labels, counters[f"{prefix}hits"]))
                misses.append((labels, counters[f"{prefix}misses"]))
                evictions.append((labels, counters[f"{prefix}evictions"]))
                entries.append((labels, counters["size" if not prefix
                                                 else "subplan_size"]))
            invalidations.append(({"model": name},
                                  counters["invalidations"]))
            shard_evictions.append(({"model": name},
                                    counters["shard_evictions"]))
        return [
            ("counter", "repro_cache_hits_total",
             "Cache hits by model and level.", hits),
            ("counter", "repro_cache_misses_total",
             "Cache misses by model and level.", misses),
            ("counter", "repro_cache_evictions_total",
             "LRU evictions by model and level.", evictions),
            ("gauge", "repro_cache_entries",
             "Live cache entries by model and level.", entries),
            ("counter", "repro_cache_invalidations_total",
             "Whole-cache invalidations (swap/update) per model.",
             invalidations),
            ("counter", "repro_cache_shard_evictions_total",
             "Entries evicted by scoped per-shard hot-swaps.",
             shard_evictions),
        ]

    def _collect_registry_metrics(self):
        """Scrape-time collector: uptime, swap count, published models
        (one atomic :meth:`~repro.serve.registry.ModelRegistry.records`
        snapshot)."""
        records = self.registry.records()
        return [
            ("gauge", "repro_uptime_seconds",
             "Seconds since the service started.",
             [({}, time.time() - self.started_at)]),
            ("counter", "repro_model_swaps_total",
             "Registry publishes plus unpublishes.",
             [({}, float(self.registry.swap_count))]),
            ("gauge", "repro_model_version",
             "Published version per model (presence means serving).",
             [({"model": r.name, "kind": r.kind}, float(r.version))
              for r in records]),
        ]

    def _collect_model_metrics(self):
        """Scrape-time collector: families owned by the served models
        themselves — a cluster-backed model contributes per-worker
        health gauges and restart counters through its
        ``collect_metrics(model_name=...)`` hook."""
        families = []
        for record in self.registry.records():
            hook = getattr(record.model, "collect_metrics", None)
            if not callable(hook):
                continue
            try:
                families.extend(hook(model_name=record.name))
            except Exception:  # one broken model must not kill /metrics
                continue
        return families

    def _collect_drift_metrics(self):
        """Scrape-time collector: ``repro_drift_*`` families from the
        merged drift report (the service's own monitor plus federated
        worker snapshots), so ``/metrics`` and ``/v1/drift`` agree."""
        return self.drift_report().families()

    def stats_v1(self) -> dict:
        """JSON serving statistics (``GET /v1/stats``): the registry's
        full metric families (histograms as stream-exact summaries, with
        exemplar trace links when present), registry/recording state,
        the trace-log occupancy, SLO burn rates, and — for
        cluster-backed models — a ``workers`` section of per-worker
        health rows and transport counters."""
        from repro.api import API_VERSION

        with self._recorder_lock:
            recorder = self._recorder
        return {
            "api_version": API_VERSION,
            "uptime_seconds": time.time() - self.started_at,
            "models": self.registry.describe(),
            "swap_count": self.registry.swap_count,
            "subplan_reuse": self.subplan_reuse,
            "recording": (None if recorder is None else
                          {"path": str(recorder.path),
                           "recorded": recorder.recorded}),
            "metrics": self.metrics.to_json(),
            "traces": self.tracer.log.describe(),
            "slo": self._slo_snapshot(),
            "workers": self._workers_overview(),
        }
