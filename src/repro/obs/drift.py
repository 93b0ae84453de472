"""Drift detection: accuracy attribution and change-point scoring.

``repro_qerror`` / ``repro_shard_qerror`` record *that* accuracy moved;
this module answers *where* and *when*.  A :class:`DriftMonitor` absorbs
every feedback sample (q-error, and P-error when plan costs ride along)
and attributes it along four scopes at once:

- ``model`` — the served model as a whole;
- ``shard`` — every shard the estimate read (the service's
  ``_touched_shards`` pruning introspection), so a drifted partition is
  named, not inferred;
- ``table`` — every base table the query touches, the unit an
  update-driven shift actually lands on;
- ``template`` — the canonical join-graph fingerprint
  (:func:`template_of`), so a workload-shape regression separates from
  a data regression.

Each attribution key runs a Page-Hinkley change detector over the log
of the error stream (q-error is a ratio; drift is multiplicative) plus
rolling time-bucketed windows for recency: the detector says *that* the
mean shifted and roughly when, the windows say by *how much* lately.
Detector state is keyed by the **sample's own timestamp**
(:attr:`DriftSample.at`), stamped once by the absorbing service — so a
sample forwarded to a shard worker lands in exactly the bucket it would
have landed in locally, which is what makes the federated cluster view
bit-identical to in-process monitoring.

Snapshots (:meth:`DriftMonitor.snapshot`) are plain picklable dicts and
:func:`merge_drift_snapshot` folds them associatively; the cluster
routing keeps attribution keys disjoint across processes (workers hold
only their own shards' keys), so merging is lossless.
The cluster driver keeps per-worker drift snapshots in a
:class:`~repro.obs.federate.MetricsFederator` built on this pair:
restart-safe baseline folding by pool-slot generation, stale-but-present
semantics for unreachable workers.  The clock is injectable throughout so tests (and the
detection-latency bench) drive windows deterministically.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

from repro.obs.slo import BUCKET_SECONDS, DEFAULT_WINDOWS, RollingWindows

#: Attribution scopes a sample fans out into (see module docstring).
SCOPES = ("model", "shard", "table", "template")

#: Page-Hinkley score at which a key is called drifting; ``critical``
#: is this times :data:`CRITICAL_FACTOR`.  The score accumulates
#: roughly ``log(shift) - delta`` per post-shift sample, so a 3x error
#: inflation crosses the default within a handful of samples while a
#: stable stream's score hovers near zero.
DRIFT_THRESHOLD = 8.0
CRITICAL_FACTOR = 2.0

#: Page-Hinkley drift tolerance: per-sample slack subtracted from the
#: deviation, absorbing benign noise around the stream mean.
PH_DELTA = 0.1

#: Keys report ``stable`` until they have seen this many samples — a
#: lone terrible estimate is an offender, not a trend.
MIN_SAMPLES = 8

#: Distinct attribution keys tracked per scope before new keys collapse
#: into the ``__overflow__`` key (per-template keys are workload-shaped
#: and unbounded; the monitor, like the metrics registry, must not be).
MAX_KEYS_PER_SCOPE = 256

#: The collapsed attribution key absorbing past-cap arrivals.
OVERFLOW_KEY = "__overflow__"


@dataclass(frozen=True)
class DriftSample:
    """One feedback observation, ready to attribute (and to pickle).

    ``at`` is the absorbing service's clock stamp; bucketing uses it
    rather than the local clock, so forwarding a sample to a shard
    worker never moves it between windows.
    """

    model: str
    metric: str
    value: float
    at: float
    shards: tuple = ()
    tables: tuple = ()
    template: str = ""


def template_of(query) -> str:
    """The canonical join-graph fingerprint of ``query``: sorted base
    tables plus alias-invariant join edges.

    Two alias spellings of the same join shape share one fingerprint;
    filters are deliberately excluded — the template scope groups by
    workload *shape* so a drifting join template separates from a
    drifting predicate (which the table scope catches).
    """
    tables = ",".join(sorted(t.table for t in query.tables))
    edges = sorted(
        tuple(sorted(((query.table_of(j.left.alias), j.left.column),
                      (query.table_of(j.right.alias), j.right.column))))
        for j in query.joins)
    joined = ";".join(f"{lt}.{lc}={rt}.{rc}"
                      for (lt, lc), (rt, rc) in edges)
    return f"{tables}|{joined}" if joined else tables


class _KeyState:
    """One attribution key's detector + window state.

    ``buckets`` maps time bucket → ``[count, total_log]``; the
    Page-Hinkley variables (``n``, ``mean``, ``mhat``, ``mmin``) run
    over the log-error stream; ``onset`` is the sample stamp at which
    the score first crossed the drift threshold (None while stable).
    """

    __slots__ = ("buckets", "n", "mean", "mhat", "mmin", "onset")

    def __init__(self):
        self.buckets: dict[int, list] = {}
        self.n = 0
        self.mean = 0.0
        self.mhat = 0.0
        self.mmin = 0.0
        self.onset: float | None = None

    def score(self) -> float:
        return self.mhat - self.mmin

    def as_tuple(self) -> tuple:
        return ({bucket: tuple(cell)
                 for bucket, cell in self.buckets.items()},
                self.n, self.mean, self.mhat, self.mmin, self.onset)


def empty_drift_snapshot() -> dict:
    """A zero-valued accumulator for :func:`merge_drift_snapshot`."""
    return {"keys": {}, "dropped_keys": 0}


def merge_drift_snapshot(acc: dict, snapshot: dict) -> dict:
    """Fold ``snapshot`` into accumulator ``acc`` (returned) without
    mutating ``snapshot``.

    Window buckets sum and detector state folds linearly (counts and
    cumulative deviations add, means weight by sample count, onsets take
    the earliest).  The fold is associative and commutative; it is
    additionally **lossless** whenever the two snapshots' key sets are
    disjoint — which the cluster routing guarantees, since every shard's
    keys live on exactly one worker and the driver keeps the other
    scopes to itself.
    """
    keys = acc["keys"]
    for key, state in snapshot["keys"].items():
        have = keys.get(key)
        if have is None:
            buckets, n, mean, mhat, mmin, onset = state
            keys[key] = ({bucket: tuple(cell)
                          for bucket, cell in buckets.items()},
                         n, mean, mhat, mmin, onset)
            continue
        buckets = {bucket: tuple(cell)
                   for bucket, cell in have[0].items()}
        for bucket, (count, total) in state[0].items():
            prev = buckets.get(bucket, (0, 0.0))
            buckets[bucket] = (prev[0] + count, prev[1] + total)
        n = have[1] + state[1]
        mean = ((have[1] * have[2] + state[1] * state[2]) / n
                if n else 0.0)
        onsets = [o for o in (have[5], state[5]) if o is not None]
        keys[key] = (buckets, n, mean, have[3] + state[3],
                     have[4] + state[4],
                     min(onsets) if onsets else None)
    acc["dropped_keys"] += snapshot.get("dropped_keys", 0)
    return acc


#: Drift-key status levels in escalation order (gauge values 0/1/2).
STATUSES = ("stable", "drifting", "critical")


class DriftReport:
    """A point-in-time drift assessment: one entry per attribution key,
    worst first, plus per-status counts and the top offenders.

    Built by :meth:`DriftMonitor.report` (optionally over federated
    worker snapshots); :meth:`to_json` is the ``GET /v1/drift`` body and
    :meth:`families` the ``repro_drift_*`` metric families.
    """

    def __init__(self, entries: list[dict], dropped_keys: int = 0,
                 top: int = 10):
        self.entries = sorted(
            entries, key=lambda e: (-e["score"], e["scope"], e["key"]))
        self.dropped_keys = dropped_keys
        self._top = top

    @property
    def counts(self) -> dict:
        """Entries per status (``stable`` / ``drifting`` / ``critical``)."""
        counts = {status: 0 for status in STATUSES}
        for entry in self.entries:
            counts[entry["status"]] += 1
        return counts

    def top(self, n: int | None = None) -> list[dict]:
        """The ``n`` worst-scoring non-stable keys (all scopes)."""
        n = self._top if n is None else n
        return [e for e in self.entries
                if e["status"] != "stable"][:n]

    def max_score(self) -> float:
        """The worst Page-Hinkley score across every key (0 when empty)."""
        return max((e["score"] for e in self.entries), default=0.0)

    def to_json(self) -> dict:
        """JSON-ready report: status counts, top offenders, every key."""
        return {
            "counts": self.counts,
            "samples": sum(e["samples"] for e in self.entries),
            "dropped_keys": self.dropped_keys,
            "top": self.top(),
            "keys": self.entries,
        }

    def families(self) -> list[tuple[str, str, str, list]]:
        """``repro_drift_*`` families for the metrics collector hook."""
        if not self.entries:
            return []
        labels_of = [({"model": e["model"], "scope": e["scope"],
                       "key": e["key"], "metric": e["metric"]}, e)
                     for e in self.entries]
        families = [
            ("gauge", "repro_drift_score",
             "Page-Hinkley drift score per attribution key "
             "(model/shard/table/template scopes).",
             [(labels, e["score"]) for labels, e in labels_of]),
            ("gauge", "repro_drift_state",
             "Drift status per attribution key "
             "(0 stable, 1 drifting, 2 critical).",
             [(labels, float(STATUSES.index(e["status"])))
              for labels, e in labels_of]),
            ("counter", "repro_drift_samples_total",
             "Feedback samples attributed to each drift key.",
             [(labels, float(e["samples"])) for labels, e in labels_of]),
        ]
        if self.dropped_keys:
            families.append((
                "counter", "repro_drift_dropped_keys_total",
                "Attribution keys collapsed into __overflow__ past the "
                "per-scope cap.", [({}, float(self.dropped_keys))]))
        return families


class DriftMonitor:
    """Rolling, attributed drift detection over the feedback stream.

    ``clock`` defaults to ``time.monotonic`` and is injectable (it
    stamps samples and ages onsets; bucket math uses the stamps, never
    the wall clock directly).  ``windows`` / ``bucket_seconds`` feed
    the :class:`~repro.obs.slo.RollingWindows` the SLO tracker uses
    too; the shortest window is the "recent" view magnitudes are
    computed from.
    """

    def __init__(self, windows=DEFAULT_WINDOWS,
                 bucket_seconds: float = BUCKET_SECONDS, clock=None,
                 threshold: float = DRIFT_THRESHOLD,
                 critical_factor: float = CRITICAL_FACTOR,
                 delta: float = PH_DELTA,
                 min_samples: int = MIN_SAMPLES,
                 max_keys: int = MAX_KEYS_PER_SCOPE):
        self._rolling = RollingWindows(windows, bucket_seconds)
        self.windows = self._rolling.windows
        self._clock = clock if clock is not None else time.monotonic
        self.threshold = float(threshold)
        self.critical_factor = float(critical_factor)
        self.delta = float(delta)
        self.min_samples = int(min_samples)
        self.max_keys = int(max_keys)
        self._lock = threading.Lock()
        self._keys: dict[tuple, _KeyState] = {}
        self._scope_counts: dict[str, int] = {}
        self._dropped_keys = 0

    def now(self) -> float:
        """The monitor's clock — what callers stamp samples with."""
        return self._clock()

    def sample_of(self, model: str, metric: str, value: float,
                  shards=(), tables=(), template: str = ""
                  ) -> DriftSample:
        """A :class:`DriftSample` stamped with this monitor's clock."""
        return DriftSample(model=model, metric=metric,
                           value=float(value), at=self.now(),
                           shards=tuple(shards), tables=tuple(tables),
                           template=template)

    # -- absorption ------------------------------------------------------------

    def _keys_of(self, sample: DriftSample, scopes) -> list[tuple]:
        keys = []
        for scope in scopes:
            if scope == "model":
                keys.append(("model", sample.model, "", sample.metric))
            elif scope == "shard":
                keys.extend(("shard", sample.model, str(shard),
                             sample.metric) for shard in sample.shards)
            elif scope == "table":
                keys.extend(("table", sample.model, table, sample.metric)
                            for table in sample.tables)
            elif scope == "template" and sample.template:
                keys.append(("template", sample.model, sample.template,
                             sample.metric))
        return keys

    def _state_of(self, key: tuple) -> _KeyState:
        """The key's state, creating it under the per-scope cap (past
        the cap, arrivals collapse into the scope's overflow key)."""
        state = self._keys.get(key)
        if state is not None:
            return state
        scope = key[0]
        if self._scope_counts.get(scope, 0) >= self.max_keys:
            self._dropped_keys += 1
            key = (scope, key[1], OVERFLOW_KEY, key[3])
            state = self._keys.get(key)
            if state is not None:
                return state
        state = self._keys[key] = _KeyState()
        self._scope_counts[scope] = self._scope_counts.get(scope, 0) + 1
        return state

    def absorb(self, sample: DriftSample, scopes=SCOPES) -> None:
        """Attribute one sample along ``scopes`` and advance each key's
        windows and change detector.

        The cluster path restricts ``scopes`` to ``("shard",)`` on the
        worker side — the driver keeps the model/table/template scopes
        itself — so no attribution key is ever fed from two processes.
        """
        x = math.log(max(float(sample.value), 1e-300))
        with self._lock:
            for key in self._keys_of(sample, scopes):
                state = self._state_of(key)
                cell = self._rolling.cell(state.buckets, sample.at)
                cell[0] += 1
                cell[1] += x
                state.n += 1
                state.mean += (x - state.mean) / state.n
                state.mhat += x - state.mean - self.delta
                if state.mhat < state.mmin:
                    state.mmin = state.mhat
                if state.n >= self.min_samples and \
                        state.score() >= self.threshold:
                    if state.onset is None:
                        state.onset = sample.at
                else:
                    state.onset = None

    # -- reporting -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable monitor state: what a ``CollectDrift`` RPC ships
        and :func:`merge_drift_snapshot` folds."""
        with self._lock:
            return {
                "keys": {key: state.as_tuple()
                         for key, state in self._keys.items()},
                "dropped_keys": self._dropped_keys,
            }

    def report(self, extra=(), top: int = 10) -> DriftReport:
        """Assess every attribution key — optionally merged with
        ``extra`` snapshots (federated worker monitors) — into a
        :class:`DriftReport`."""
        merged = merge_drift_snapshot(empty_drift_snapshot(),
                                      self.snapshot())
        for snapshot in extra:
            merge_drift_snapshot(merged, snapshot)
        return build_report(
            merged, now=self.now(), windows=self.windows,
            bucket_seconds=self._rolling.bucket_seconds,
            threshold=self.threshold,
            critical_factor=self.critical_factor,
            min_samples=self.min_samples, top=top)


def build_report(snapshot: dict, *, now: float, windows=DEFAULT_WINDOWS,
                 bucket_seconds: float = BUCKET_SECONDS,
                 threshold: float = DRIFT_THRESHOLD,
                 critical_factor: float = CRITICAL_FACTOR,
                 min_samples: int = MIN_SAMPLES,
                 top: int = 10) -> DriftReport:
    """Assess a (possibly merged) drift snapshot into a
    :class:`DriftReport` as of clock instant ``now``.

    Per key: the Page-Hinkley score and its status, the stream's
    geometric-mean error (``baseline``), the shortest window's
    geometric mean (``recent``), ``magnitude`` = recent / baseline, and
    the onset stamp with its age.
    """
    rolling = RollingWindows(windows, bucket_seconds)
    recent_width = min(width for _label, width in rolling.windows)
    entries = []
    for key, state_tuple in snapshot["keys"].items():
        buckets, n, mean, mhat, mmin, onset = state_tuple
        score = mhat - mmin
        if n < min_samples:
            status = "stable"
        elif score >= threshold * critical_factor:
            status = "critical"
        elif score >= threshold:
            status = "drifting"
        else:
            status = "stable"
        recent_n, recent_total = rolling.window_sum(buckets, now,
                                                    recent_width)
        recent_mean = (recent_total / recent_n) if recent_n else mean
        scope, model, key_name, metric = key
        entries.append({
            "scope": scope,
            "model": model,
            "key": key_name,
            "metric": metric,
            "status": status,
            "score": score,
            "samples": n,
            "baseline": math.exp(mean) if n else 0.0,
            "recent": math.exp(recent_mean) if n else 0.0,
            "recent_samples": recent_n,
            "magnitude": math.exp(recent_mean - mean) if n else 0.0,
            "onset": onset,
            "onset_age_seconds": (now - onset
                                  if onset is not None else None),
        })
    return DriftReport(entries,
                       dropped_keys=snapshot.get("dropped_keys", 0),
                       top=top)
