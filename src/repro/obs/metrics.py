"""The metrics registry: counters, gauges, histograms, collectors.

One :class:`MetricsRegistry` per service holds every instrument the
stack updates on the hot path.  Three design constraints shape it:

- **always-on and cheap** — an update is one dict operation under a
  per-metric lock (no allocation after the first observation of a label
  set), so instrumenting a microsecond cache hit does not move it;
- **exact streaming percentiles** — histograms quantize each observed
  value to three significant figures and count occurrences per
  quantized value.  Percentiles computed from those counts are exact
  over the *entire* stream (to the 0.1% quantization), not approximate
  over a recent window, and memory stays bounded: realistic latency or
  q-error ranges span a few thousand distinct quantized values at most;
- **snapshot consistency** — readers (``GET /metrics``, ``/v1/stats``)
  take each metric's lock once and copy, so a scrape never observes a
  half-applied update (e.g. cache hits incremented but lookups not).

Metrics that belong to another component's locked state (the estimate
cache's counters, the worker pool's liveness) are *collected* rather
than duplicated: :meth:`MetricsRegistry.register_collector` callbacks
run at scrape time and read one consistent snapshot from the owning
object.  :data:`NULL_METRICS` is the no-op twin used to measure (and
disable) instrumentation overhead.
"""

from __future__ import annotations

import bisect
import math
import threading

#: Default ``le`` bucket bounds for latency-style histograms (seconds).
LATENCY_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
                   0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Default ``le`` bucket bounds for q-error histograms (ratio >= 1).
QERROR_BUCKETS = (1.0, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0,
                  1000.0, 1e6)

_SIG_FIGS = 3

#: Distinct label sets an instrument tracks before further new label
#: sets collapse into the :data:`OVERFLOW_LABEL_KEY` child.  High-
#: cardinality sources (per-template drift labels, adversarial label
#: values) can therefore never grow the registry without bound.
DEFAULT_MAX_LABEL_SETS = 512

#: The label set absorbing past-cap arrivals.
OVERFLOW_LABEL_KEY = (("label_overflow", "true"),)


def quantize(value: float) -> float:
    """Quantize ``value`` to :data:`_SIG_FIGS` significant figures.

    The histogram's unit of exactness: two observations that quantize
    alike are indistinguishable (<=0.1% relative error), so per-value
    counts stay bounded while percentiles stay exact over the stream.
    Non-positive and non-finite values map to themselves (they get
    their own counter keys and sort correctly).
    """
    if value <= 0.0 or not math.isfinite(value):
        return float(value)
    exponent = math.floor(math.log10(value))
    scale = 10.0 ** (exponent - (_SIG_FIGS - 1))
    return round(value / scale) * scale


def percentile_from_counts(counts: dict[float, int], q: float) -> float:
    """The ``q``-quantile of a quantized value→count map (0 when empty).

    Walks values in sorted order accumulating counts — exact for the
    recorded stream, under the nearest-rank definition.
    """
    total = sum(counts.values())
    if not total:
        return 0.0
    rank = min(total - 1, int(q * total))
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen > rank:
            return value
    return max(counts)  # pragma: no cover - unreachable (seen == total)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _bucket_bound(buckets: tuple, value: float) -> float:
    """The Prometheus ``le`` bound ``value`` falls under (``inf`` past
    the last finite bucket) — the key exemplars are stored by."""
    index = bisect.bisect_left(buckets, value)
    return buckets[index] if index < len(buckets) else math.inf


class _Metric:
    """Shared shape of every instrument: name, help text, label sets.

    Distinct label sets per instrument are capped at
    ``max_label_sets``; once full, updates for *new* label sets land on
    the single ``label_overflow="true"`` child and
    ``dropped_label_sets`` counts how many were collapsed (exported as
    ``repro_metric_dropped_label_sets_total``)."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "",
                 max_label_sets: int = DEFAULT_MAX_LABEL_SETS):
        self.name = name
        self.help = help_text
        self.max_label_sets = int(max_label_sets)
        self.dropped_label_sets = 0
        self._lock = threading.Lock()
        self._values: dict[tuple, object] = {}

    def _admit(self, key: tuple) -> tuple:
        """The label key an update should land on (callers hold the
        metric lock): ``key`` itself while known or under the cap, the
        overflow child once the cap is hit."""
        if key in self._values or len(self._values) < self.max_label_sets:
            return key
        self.dropped_label_sets += 1
        return OVERFLOW_LABEL_KEY

    def samples(self) -> list[tuple[dict, object]]:
        """Consistent ``(labels, value)`` snapshot (one lock hold)."""
        with self._lock:
            items = list(self._values.items())
        return [(dict(key), value) for key, value in items]


class Counter(_Metric):
    """A monotone counter, one value per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            key = self._admit(key)
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._values.get(_label_key(labels), 0.0))

    def to_json(self) -> dict:
        return {_render_label_suffix(labels) or "": value
                for labels, value in self.samples()}


class Gauge(_Metric):
    """A settable value, one per label set."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            key = self._admit(key)
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            key = self._admit(key)
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._values.get(_label_key(labels), 0.0))

    def to_json(self) -> dict:
        return {_render_label_suffix(labels) or "": value
                for labels, value in self.samples()}


class _HistogramChild:
    """One label set's histogram state: count/sum/min/max plus the
    quantized value→count map percentiles are computed from, and the
    latest exemplar per ``le`` bucket (observation value + trace id)."""

    __slots__ = ("count", "total", "min", "max", "counts", "exemplars")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.counts: dict[float, int] = {}
        self.exemplars: dict[float, tuple[float, str]] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        key = quantize(value)
        self.counts[key] = self.counts.get(key, 0) + 1


class Histogram(_Metric):
    """Streaming histogram with exact (to quantization) percentiles.

    ``buckets`` are the cumulative ``le`` bounds of the Prometheus
    rendering only; percentiles never pass through them — they come
    from the quantized per-value counts, so a misjudged bucket layout
    cannot blur a dashboard's p99.
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 buckets: tuple = LATENCY_BUCKETS,
                 max_label_sets: int = DEFAULT_MAX_LABEL_SETS):
        super().__init__(name, help_text, max_label_sets=max_label_sets)
        self.buckets = tuple(sorted(buckets))

    def observe(self, value: float, trace_id: str | None = None,
                **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            key = self._admit(key)
            child = self._values.get(key)
            if child is None:
                child = self._values[key] = _HistogramChild()
            child.observe(value)
            if trace_id is not None:
                bound = _bucket_bound(self.buckets, value)
                child.exemplars[bound] = (value, trace_id)

    def snapshot(self, match: dict | None = None
                 ) -> tuple[int, float, float, float, dict]:
        """``(count, total, min, max, counts)`` merged over the label
        sets matching ``match`` (all of them when None).

        ``match`` values may be single values or tuples of admissible
        values — ``{"endpoint": ("estimate", "subplans")}`` merges two
        endpoints into one view.
        """
        count, total = 0, 0.0
        low, high = math.inf, -math.inf
        counts: dict[float, int] = {}
        with self._lock:
            items = [(dict(key), child) for key, child
                     in self._values.items()]
            for labels, child in items:
                if not _matches(labels, match):
                    continue
                count += child.count
                total += child.total
                low = min(low, child.min)
                high = max(high, child.max)
                for value, n in child.counts.items():
                    counts[value] = counts.get(value, 0) + n
        return count, total, (low if count else 0.0), (
            high if count else 0.0), counts

    def summary(self, match: dict | None = None) -> dict:
        """JSON-ready count / mean / percentiles over matching labels."""
        count, total, low, high, counts = self.snapshot(match)
        return {
            "count": count,
            "total": total,
            "mean": (total / count) if count else 0.0,
            "min": low,
            "max": high,
            "p50": percentile_from_counts(counts, 0.50),
            "p95": percentile_from_counts(counts, 0.95),
            "p99": percentile_from_counts(counts, 0.99),
        }

    def bound(self, **labels) -> "BoundHistogram":
        """A handle pre-resolved to one label set's child.

        ``observe`` through the handle skips the per-call label sort and
        child lookup — the per-request fast path the service uses for
        its latency observations (labels are known per endpoint/model
        and never change).
        """
        key = _label_key(labels)
        with self._lock:
            key = self._admit(key)
            child = self._values.get(key)
            if child is None:
                child = self._values[key] = _HistogramChild()
        return BoundHistogram(self._lock, child, self.buckets)

    def children_snapshot(self) -> list[tuple[dict, int, float, dict]]:
        """Copied ``(labels, count, total, counts)`` per label set, read
        under the metric lock — renderers must never iterate a counts
        dict a concurrent ``observe`` could be growing."""
        with self._lock:
            return [(dict(key), child.count, child.total,
                     dict(child.counts))
                    for key, child in self._values.items()]

    def full_children_snapshot(
            self) -> list[tuple[dict, int, float, float, float, dict]]:
        """Copied ``(labels, count, total, min, max, counts)`` per label
        set — the complete per-child state the federation layer ships
        across processes (see :mod:`repro.obs.federate`).  Summing two
        such snapshots loses nothing: counts add, min/max fold."""
        with self._lock:
            return [(dict(key), child.count, child.total, child.min,
                     child.max, dict(child.counts))
                    for key, child in self._values.items()]

    def exemplars(self) -> list[dict]:
        """JSON-ready exemplars: per label set, the latest
        ``(value, trace_id)`` pair recorded in each ``le`` bucket, so a
        slow p99 bucket links straight to a trace."""
        with self._lock:
            items = [(dict(key), dict(child.exemplars))
                     for key, child in self._values.items()]
        out: list[dict] = []
        for labels, exemplars in items:
            for bound, (value, trace_id) in sorted(exemplars.items()):
                out.append({
                    "labels": labels,
                    "le": "+Inf" if bound == math.inf else bound,
                    "value": value,
                    "trace_id": trace_id,
                })
        return out

    def to_json(self) -> dict:
        return {_render_label_suffix(labels) or "": {
                    "count": count, "sum": total}
                for labels, count, total, _ in self.children_snapshot()}


class BoundHistogram:
    """One label set's pre-resolved observe handle (see
    :meth:`Histogram.bound`); shares the parent histogram's lock, so
    bound and labeled observes interleave safely."""

    __slots__ = ("_lock", "_child", "_buckets")

    def __init__(self, lock, child: _HistogramChild, buckets: tuple = ()):
        self._lock = lock
        self._child = child
        self._buckets = buckets

    def observe(self, value: float, trace_id: str | None = None) -> None:
        with self._lock:
            self._child.observe(value)
            if trace_id is not None:
                bound = _bucket_bound(self._buckets, value)
                self._child.exemplars[bound] = (value, trace_id)


def _matches(labels: dict, match: dict | None) -> bool:
    if not match:
        return True
    for key, want in match.items():
        have = labels.get(key)
        if isinstance(want, (tuple, list, set, frozenset)):
            if have not in want:
                return False
        elif have != want:
            return False
    return True


def _render_label_suffix(labels: dict) -> str:
    """Stable ``k=v,k2=v2`` key for JSON views of labeled samples."""
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


class MetricsRegistry:
    """Named instruments plus scrape-time collectors.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create by name (the
    service and the cluster layer can share one registry without
    coordinating creation order); ``register_collector`` adds a callback
    run at scrape time for metrics whose source of truth lives behind
    another component's lock (cache counters, worker pool health) —
    each callback returns fully-formed sample families, read in one
    consistent snapshot from the owning object.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list = []

    #: Whether updates against this registry do real work (the null
    #: twin reports False; benches and tests branch on it).
    enabled = True

    def counter(self, name: str, help_text: str = "",
                max_label_sets: int = DEFAULT_MAX_LABEL_SETS) -> Counter:
        return self._get_or_create(Counter, name, help_text,
                                   max_label_sets)

    def gauge(self, name: str, help_text: str = "",
              max_label_sets: int = DEFAULT_MAX_LABEL_SETS) -> Gauge:
        return self._get_or_create(Gauge, name, help_text,
                                   max_label_sets)

    def histogram(self, name: str, help_text: str = "",
                  buckets: tuple = LATENCY_BUCKETS,
                  max_label_sets: int = DEFAULT_MAX_LABEL_SETS
                  ) -> Histogram:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = Histogram(name, help_text, buckets=buckets,
                                   max_label_sets=max_label_sets)
                self._metrics[name] = metric
        if not isinstance(metric, Histogram):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    def _get_or_create(self, cls, name: str, help_text: str,
                       max_label_sets: int = DEFAULT_MAX_LABEL_SETS):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help_text,
                             max_label_sets=max_label_sets)
                self._metrics[name] = metric
        if type(metric) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    def register_collector(self, collector) -> None:
        """Register ``collector() -> iterable of (kind, name, help,
        [(labels_dict, value)])`` families, evaluated at scrape time."""
        with self._lock:
            self._collectors.append(collector)

    def metrics(self) -> list[_Metric]:
        with self._lock:
            return list(self._metrics.values())

    def collect(self) -> list[tuple[str, str, str, list]]:
        """Every sample family: registered instruments first, then the
        collector callbacks (failures skip the collector, never the
        scrape)."""
        families: list[tuple[str, str, str, list]] = []
        for metric in self.metrics():
            if isinstance(metric, Histogram):
                families.append(("histogram", metric.name, metric.help,
                                 [(labels, (count, total, counts),
                                   metric.buckets)
                                  for labels, count, total, counts
                                  in metric.children_snapshot()]))
            else:
                families.append((metric.kind, metric.name, metric.help,
                                 metric.samples()))
        dropped = [({"metric": metric.name},
                    float(metric.dropped_label_sets))
                   for metric in self.metrics()
                   if metric.dropped_label_sets]
        if dropped:
            families.append((
                "counter", "repro_metric_dropped_label_sets_total",
                "Label sets collapsed into the label_overflow child "
                "past an instrument's cardinality cap.", dropped))
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            try:
                families.extend(collector())
            except Exception:  # a broken collector must not kill /metrics
                continue
        return families

    def render_prometheus(self) -> str:
        """The ``GET /metrics`` body (text exposition format)."""
        from repro.obs.export import render_prometheus

        return render_prometheus(self.collect())

    def to_json(self) -> dict:
        """The ``GET /v1/stats`` ``"metrics"`` section: every registered
        instrument (histograms as merged summaries) plus collector
        families."""
        out: dict[str, dict] = {}
        for metric in self.metrics():
            if isinstance(metric, Histogram):
                entry = {"kind": metric.kind,
                         "summary": metric.summary()}
                exemplars = metric.exemplars()
                if exemplars:
                    entry["exemplars"] = exemplars
                out[metric.name] = entry
            else:
                out[metric.name] = {"kind": metric.kind,
                                    "values": metric.to_json()}
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            try:
                for kind, name, _, samples in collector():
                    out[name] = {"kind": kind, "values": {
                        _render_label_suffix(labels) or "": value
                        for labels, value in samples}}
            except Exception:
                continue
        return out


class _NullInstrument:
    """Absorbs every instrument method as a no-op."""

    def inc(self, *args, **kwargs) -> None:
        return None

    def set(self, *args, **kwargs) -> None:
        return None

    def observe(self, *args, **kwargs) -> None:
        return None

    def value(self, **labels) -> float:
        return 0.0

    def samples(self) -> list:
        return []

    def bound(self, **labels) -> "_NullInstrument":
        return self

    def snapshot(self, match=None):
        return 0, 0.0, 0.0, 0.0, {}

    def children_snapshot(self) -> list:
        return []

    def full_children_snapshot(self) -> list:
        return []

    def exemplars(self) -> list:
        return []

    def summary(self, match=None) -> dict:
        return {"count": 0, "total": 0.0, "mean": 0.0, "min": 0.0,
                "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def to_json(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The registry's no-op twin: same surface, no work, nothing stored.

    Exists so the overhead bench can compare instrumented serving
    against a genuinely uninstrumented build of the *same* code path,
    and so operators can switch telemetry off wholesale.
    """

    enabled = False

    def counter(self, name: str, help_text: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help_text: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help_text: str = "",
                  buckets: tuple = ()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def register_collector(self, collector) -> None:
        return None

    def metrics(self) -> list:
        return []

    def collect(self) -> list:
        return []

    def render_prometheus(self) -> str:
        from repro.obs.export import render_prometheus

        return render_prometheus([])

    def to_json(self) -> dict:
        return {}


NULL_METRICS = NullMetrics()
