"""Cross-process metrics federation: snapshot, merge, re-label, render.

The cluster layer runs one :class:`~repro.obs.metrics.MetricsRegistry`
per shard worker (handler timings, artifact-store latencies, probe
counters), but operators scrape one ``/metrics`` endpoint on the
driver.  This module is the bridge:

- :func:`snapshot_registry` freezes a registry into a plain picklable
  dict a ``CollectMetrics`` RPC reply can carry;
- :func:`merge_snapshot` folds one snapshot into an accumulator —
  counters add, gauges last-write-win, and histogram children sum their
  quantized value→count maps.  Because the registry's histograms *are*
  those count maps (not pre-bucketed approximations), merging is
  lossless: a p99 computed from the merged counts is bit-identical to
  the p99 the worker would report locally;
- :class:`MetricsFederator` keeps per-worker state across scrapes and
  worker restarts, for metric and drift snapshots alike.  A restarted
  worker reports counts from zero, so the federator folds the previous
  incarnation's last snapshot into a monotone ``baseline`` keyed by the
  pool slot's generation — the same fold the transport counters use —
  and serves ``baseline + last``.
  A worker that fails a scrape keeps serving its last-known state
  rather than vanishing from the pane.

Federated families come back in the exact ``(kind, name, help,
samples)`` shape :meth:`MetricsRegistry.collect` produces, with each
sample re-labeled by worker (``worker=``/``shard_group=``), so the
driver's Prometheus renderer needs no special cases.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import _label_key


def empty_snapshot() -> dict:
    """A zero-valued snapshot accumulator for :func:`merge_snapshot`."""
    return {"counters": {}, "gauges": {}, "histograms": {}}


def snapshot_registry(registry) -> dict:
    """Freeze ``registry`` into a picklable snapshot dict.

    Only registered instruments are captured (collector callbacks read
    driver-side state and are not meaningful to ship); label sets become
    sorted item tuples so they stay hashable across the wire.
    """
    snapshot = empty_snapshot()
    for metric in registry.metrics():
        kind = getattr(metric, "kind", None)
        if kind == "histogram":
            snapshot["histograms"][metric.name] = {
                "help": metric.help,
                "buckets": tuple(metric.buckets),
                "children": {
                    _label_key(labels): (count, total, low, high,
                                         dict(counts))
                    for labels, count, total, low, high, counts
                    in metric.full_children_snapshot()
                },
            }
        elif kind in ("counter", "gauge"):
            snapshot[kind + "s"][metric.name] = {
                "help": metric.help,
                "samples": {_label_key(labels): float(value)
                            for labels, value in metric.samples()},
            }
    return snapshot


def merge_snapshot(acc: dict, snapshot: dict) -> dict:
    """Fold ``snapshot`` into accumulator ``acc`` (returned), without
    mutating ``snapshot``.

    Counters and histogram children sum; gauges take the incoming value
    (last writer wins — a merged gauge has no better answer); histogram
    min/max fold through min/max.  Merging is associative and
    commutative over counters and histograms, which is what makes
    restart folding and N-worker aggregation order-independent.
    """
    for name, family in snapshot["counters"].items():
        acc_family = acc["counters"].setdefault(
            name, {"help": family["help"], "samples": {}})
        samples = acc_family["samples"]
        for key, value in family["samples"].items():
            samples[key] = samples.get(key, 0.0) + value
    for name, family in snapshot["gauges"].items():
        acc_family = acc["gauges"].setdefault(
            name, {"help": family["help"], "samples": {}})
        acc_family["samples"].update(family["samples"])
    for name, family in snapshot["histograms"].items():
        acc_family = acc["histograms"].setdefault(
            name, {"help": family["help"],
                   "buckets": tuple(family["buckets"]), "children": {}})
        children = acc_family["children"]
        for key, (count, total, low, high, counts) in (
                family["children"].items()):
            have = children.get(key)
            if have is None:
                children[key] = (count, total, low, high, dict(counts))
                continue
            merged_counts = dict(have[4])
            for value, n in counts.items():
                merged_counts[value] = merged_counts.get(value, 0) + n
            children[key] = (have[0] + count, have[1] + total,
                             min(have[2], low), max(have[3], high),
                             merged_counts)
    return acc


def snapshot_families(snapshot: dict, extra_labels: dict | None = None
                      ) -> list[tuple[str, str, str, list]]:
    """Render one snapshot as ``collect()``-shaped families, with
    ``extra_labels`` (e.g. ``worker=``/``shard_group=``) stamped onto
    every sample."""
    extra = dict(extra_labels or {})
    families: list[tuple[str, str, str, list]] = []
    for kind in ("counter", "gauge"):
        for name, family in sorted(snapshot[kind + "s"].items()):
            samples = [({**dict(key), **extra}, value)
                       for key, value in sorted(family["samples"].items())]
            families.append((kind, name, family["help"], samples))
    for name, family in sorted(snapshot["histograms"].items()):
        buckets = tuple(family["buckets"])
        samples = [({**dict(key), **extra}, (count, total, counts),
                    buckets)
                   for key, (count, total, _low, _high, counts)
                   in sorted(family["children"].items())]
        families.append(("histogram", name, family["help"], samples))
    return families


class _WorkerState:
    """One worker's federation state: the monotone baseline folded from
    previous incarnations, the last scraped snapshot, and the labels its
    samples are stamped with."""

    __slots__ = ("generation", "baseline", "last", "labels", "fresh")

    def __init__(self, empty):
        self.generation: int | None = None
        self.baseline = empty()
        self.last = empty()
        self.labels: dict = {}
        self.fresh = False


class MetricsFederator:
    """Per-worker snapshot ledger with restart-safe monotone folding.

    The snapshot format is the ``(empty, merge)`` pair: metric-registry
    snapshots by default (:func:`empty_snapshot`/:func:`merge_snapshot`),
    drift-monitor snapshots with
    :func:`~repro.obs.drift.empty_drift_snapshot`/
    :func:`~repro.obs.drift.merge_drift_snapshot`.

    :meth:`absorb` records a scrape; when the pool slot's generation
    advanced (the worker restarted and its registry reset to zero), the
    previous incarnation's final snapshot folds into the baseline first,
    so counters and histogram counts never go backwards across restarts.
    :meth:`families` renders every worker's ``baseline + last`` view —
    workers whose latest scrape failed keep serving last-known state,
    marked stale via ``repro_worker_metrics_fresh``; :meth:`merged`
    folds every worker into one snapshot.
    """

    def __init__(self, empty=empty_snapshot, merge=merge_snapshot):
        self._empty = empty
        self._merge = merge
        self._lock = threading.Lock()
        self._workers: dict[object, _WorkerState] = {}

    def absorb(self, worker_id, generation: int, snapshot: dict,
               labels: dict | None = None) -> None:
        """Record ``worker_id``'s scraped ``snapshot`` for pool-slot
        ``generation``, folding the previous incarnation into the
        monotone baseline when the generation advanced."""
        with self._lock:
            state = self._workers.get(worker_id)
            if state is None:
                state = self._workers[worker_id] = _WorkerState(self._empty)
            if (state.generation is not None
                    and generation != state.generation):
                self._merge(state.baseline, state.last)
            state.generation = generation
            state.last = snapshot
            state.labels = dict(labels or {})
            state.fresh = True

    def mark_unreachable(self, worker_id) -> None:
        """Flag a failed scrape; the worker's last-known state keeps
        being served (stale beats absent on a dashboard)."""
        with self._lock:
            state = self._workers.get(worker_id)
            if state is not None:
                state.fresh = False

    def forget(self, worker_id) -> None:
        """Drop a worker's state entirely (a retired slot whose shards
        were rehomed — its history now lives on other workers)."""
        with self._lock:
            self._workers.pop(worker_id, None)

    def _view(self, state: _WorkerState) -> dict:
        return self._merge(self._merge(self._empty(), state.baseline),
                           state.last)

    def _states(self) -> list[_WorkerState]:
        return [state for _worker_id, state in
                sorted(self._workers.items(), key=lambda item: str(item[0]))]

    def worker_view(self, worker_id) -> dict | None:
        """The merged ``baseline + last`` snapshot for one worker
        (None when never scraped) — what :meth:`families` renders and
        tests compare against the worker's own registry."""
        with self._lock:
            state = self._workers.get(worker_id)
            return None if state is None else self._view(state)

    def merged(self) -> dict:
        """Every worker's ``baseline + last`` folded into one snapshot
        (a cluster model's drift contribution to ``GET /v1/drift``)."""
        merged = self._empty()
        with self._lock:
            for state in self._states():
                self._merge(merged, state.baseline)
                self._merge(merged, state.last)
        return merged

    def families(self) -> list[tuple[str, str, str, list]]:
        """All workers' federated families, samples re-labeled per
        worker and grouped by metric name (one ``TYPE`` line per family
        in the rendered exposition), plus the per-worker
        ``repro_worker_metrics_fresh`` staleness gauge."""
        with self._lock:
            views = [(self._view(state), dict(state.labels), state.fresh)
                     for state in self._states()]
        grouped: dict[str, list] = {}
        order: list[tuple[str, str, str]] = []
        freshness: list[tuple[dict, float]] = []
        for view, labels, fresh in views:
            freshness.append((labels, 1.0 if fresh else 0.0))
            for kind, name, help_text, samples in snapshot_families(
                    view, labels):
                if name not in grouped:
                    grouped[name] = []
                    order.append((kind, name, help_text))
                grouped[name].extend(samples)
        families = [(kind, name, help_text, grouped[name])
                    for kind, name, help_text in order]
        if freshness:
            families.append((
                "gauge", "repro_worker_metrics_fresh",
                "1 when the worker's latest metrics scrape succeeded, "
                "0 when serving last-known state", freshness))
        return families
