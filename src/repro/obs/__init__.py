"""Observability layer: metrics, tracing, profiling, SLOs — cluster-wide.

The serving and cluster stack spans five layers (model → session → cache
→ service → cluster workers); this package gives every one of them a
shared, dependency-free instrumentation surface:

- :mod:`repro.obs.metrics` — a **metrics registry** of counters, gauges,
  and histograms with exact streaming percentiles (values quantized to
  three significant figures, so percentiles are exact over the *whole*
  stream in bounded memory, not a recent window).  One registry per
  service holds its request latency and cache counters and renders itself as Prometheus text (``GET /metrics``) or JSON
  (``GET /v1/stats``).  Histogram observations can carry a trace id,
  stored as per-bucket **exemplars** linking a slow percentile bucket to
  a concrete trace.
- :mod:`repro.obs.trace` — **structured tracing**: every request gets a
  trace id and a span tree (parse → session prep → cache lookup →
  per-shard probe fan-out → bound fold).  The trace context propagates
  inside cluster RPC envelopes, so worker-side spans (artifact load,
  probe batches, journal replay, reseed) nest under the driver's request
  span.  Finished traces land in a ring-buffer
  :class:`~repro.obs.trace.TraceLog` (recent + slow queries, served at
  ``GET /v1/traces``) and optionally in a JSONL export file
  (``repro serve --trace-log FILE``, size-capped via rotation).
- :mod:`repro.obs.export` — the Prometheus text exposition renderer and
  a validating parser (the CI scrape check), plus the JSONL trace and
  alert-event exporters (shared size-capped rotation).
- :mod:`repro.obs.federate` — **cross-process federation**: shard
  workers each run their own registry; a scrape-time ``CollectMetrics``
  RPC ships picklable snapshots to the driver, where they merge
  losslessly (quantized count-dict histograms sum exactly) under
  ``worker=``/``shard_group=`` labels, with restart-safe monotone
  folding keyed by pool-slot generation.
- :mod:`repro.obs.profile` — a stdlib **wall-clock sampling profiler**
  (``sys._current_frames`` at a configurable hz) with collapsed-stack
  export, reachable via ``GET /v1/profile``, ``repro profile``, and a
  ``Profile`` RPC against remote workers.
- :mod:`repro.obs.slo` — declared **service-level objectives**
  (availability, latency, q-error) with rolling multi-window burn-rate
  gauges (``repro_slo_burn_rate``), served at ``GET /v1/slo`` and on
  ``/metrics``.
- :mod:`repro.obs.drift` — **drift detection**: a
  :class:`~repro.obs.drift.DriftMonitor` attributes every feedback
  sample (q-error / P-error) per model, shard, table, and query
  template, running a Page-Hinkley change detector per attribution key
  over rolling windows; reports (``GET /v1/drift``,
  ``repro_drift_score``) federate across cluster workers through a
  ``CollectDrift`` RPC, bit-identically to in-process monitoring.
- :mod:`repro.obs.alerts` — a declarative
  :class:`~repro.obs.alerts.AlertRule` engine (threshold +
  ``for_seconds`` hold, pending → firing → resolved state machine)
  over SLO burn rates, drift scores, and registered metrics, served at
  ``GET /v1/alerts`` with JSONL transition events.
- :mod:`repro.obs.flight` — the **flight recorder**: bounded rings of
  full debug bundles for the worst offenders by q-error and latency
  (``GET /v1/debug/bundles``, ``repro debug-bundle``).

Instrumentation is **always on and cheap**: spans are plain objects with
two clock reads, metric updates are one dict operation under a short
lock, and the no-op twins (:data:`NULL_METRICS`, :data:`NULL_TRACER`,
:data:`NULL_SLO`) exist so ``benchmarks/bench_obs_overhead.py`` can hold
the overhead under its <5% QPS gate.
"""

from repro.obs.alerts import (
    NULL_ALERTS,
    AlertEngine,
    AlertRule,
    NullAlertEngine,
    default_alert_rules,
)
from repro.obs.drift import (
    NULL_DRIFT,
    DriftMonitor,
    DriftReport,
    DriftSample,
    NullDriftMonitor,
    empty_drift_snapshot,
    merge_drift_snapshot,
    template_of,
)
from repro.obs.export import (
    JsonlEventExporter,
    JsonlTraceExporter,
    parse_prometheus_text,
    render_prometheus,
)
from repro.obs.flight import (
    NULL_FLIGHT,
    FlightRecorder,
    NullFlightRecorder,
)
from repro.obs.federate import (
    MetricsFederator,
    empty_snapshot,
    merge_snapshot,
    snapshot_families,
    snapshot_registry,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    percentile_from_counts,
    quantize,
)
from repro.obs.profile import ProfileReport, profile_here
from repro.obs.slo import (
    NULL_SLO,
    SLO,
    NullSloTracker,
    SloTracker,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceLog,
    Tracer,
    absorb_remote_spans,
    capture_context,
    current_trace_id,
    trace_span,
    use_context,
    wire_context,
)

__all__ = [
    "absorb_remote_spans",
    "AlertEngine",
    "AlertRule",
    "capture_context",
    "Counter",
    "current_trace_id",
    "default_alert_rules",
    "DriftMonitor",
    "DriftReport",
    "DriftSample",
    "empty_drift_snapshot",
    "empty_snapshot",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonlEventExporter",
    "JsonlTraceExporter",
    "merge_drift_snapshot",
    "merge_snapshot",
    "MetricsFederator",
    "MetricsRegistry",
    "NULL_ALERTS",
    "NULL_DRIFT",
    "NULL_FLIGHT",
    "NULL_METRICS",
    "NULL_SLO",
    "NULL_TRACER",
    "NullAlertEngine",
    "NullDriftMonitor",
    "NullFlightRecorder",
    "NullMetrics",
    "NullSloTracker",
    "NullTracer",
    "parse_prometheus_text",
    "percentile_from_counts",
    "profile_here",
    "ProfileReport",
    "quantize",
    "render_prometheus",
    "SLO",
    "SloTracker",
    "snapshot_families",
    "snapshot_registry",
    "Span",
    "template_of",
    "TraceLog",
    "trace_span",
    "Tracer",
    "use_context",
    "wire_context",
]
