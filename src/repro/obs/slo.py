"""Service-level objectives and multi-window burn-rate tracking.

Raw counters say what happened; an SLO says whether it is *fine*.  Each
declared objective (availability, latency-under-threshold, q-error —
the accuracy signal ``/v1/feedback`` already reports — and plan quality,
the P-error signal plan-cost feedback reports) classifies every
event as good or bad, and the tracker keeps those outcomes in coarse
time buckets so it can answer, per rolling window, the standard
alerting question: at the current error rate, how fast is the error
budget burning?

``burn_rate = error_rate / (1 - objective)`` — 1.0 means the budget is
being consumed exactly as fast as the objective allows; the
conventional multi-window page fires when both a short and a long
window burn hot (short catches the spike, long confirms it is not a
blip).  The tracker exports ``repro_slo_burn_rate{slo=,window=}``
gauges through the registry's collector hook and a JSON view for
``GET /v1/slo``, which is the signal ROADMAP open item 4's adaptive
refresh is meant to consume.

The bucket arithmetic lives in :class:`RollingWindows`, which
:class:`~repro.obs.drift.DriftMonitor` shares.  The clock is injectable
so tests drive windows deterministically.  Recording is two dict updates
under one lock — cheap enough for the per-request hot path.  With
telemetry off, the serving layer builds no tracker at all.
"""

from __future__ import annotations

import math
import threading
import time

#: Default rolling windows: label → width in seconds.
DEFAULT_WINDOWS = (("5m", 300.0), ("1h", 3600.0), ("6h", 21600.0))

#: The default plan-quality objective the serving layer declares: at
#: least this fraction of plan-cost feedback samples must land within
#: :data:`PLAN_QUALITY_THRESHOLD` of the truecard-oracle plan.  A
#: P-error of 2.0 means the chosen plan costs twice the best plan under
#: true cardinalities — the conventional "noticeably worse" line.
PLAN_QUALITY_OBJECTIVE = 0.9
PLAN_QUALITY_THRESHOLD = 2.0

#: Outcome-bucket width (seconds); window edges are quantized to this.
BUCKET_SECONDS = 10.0


class SLO:
    """One declared objective: a target good-fraction plus an optional
    numeric threshold separating good from bad observations."""

    __slots__ = ("name", "objective", "threshold", "description")

    def __init__(self, name: str, objective: float,
                 threshold: float | None = None, description: str = ""):
        if not 0.0 < objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {objective!r}")
        self.name = name
        self.objective = float(objective)
        self.threshold = None if threshold is None else float(threshold)
        self.description = description

    def to_json(self) -> dict:
        return {"name": self.name, "objective": self.objective,
                "threshold": self.threshold,
                "description": self.description}


class RollingWindows:
    """Clock-bucketed rolling windows over ``{bucket: cell}`` dicts.

    A cell is a two-number list — ``[good, bad]`` for an SLO,
    ``[count, total_log]`` for a drift key — and instant ``at`` lands in
    bucket ``int(at / bucket_seconds)``.  A dict keeps at most the
    longest window's worth of buckets plus the current one, so memory
    stays bounded however long the process runs.
    """

    __slots__ = ("windows", "bucket_seconds", "horizon")

    def __init__(self, windows=DEFAULT_WINDOWS,
                 bucket_seconds: float = BUCKET_SECONDS):
        self.windows = tuple(windows)
        self.bucket_seconds = float(bucket_seconds)
        self.horizon = int(max(width for _label, width in self.windows)
                           / self.bucket_seconds) + 1

    def bucket_of(self, at: float) -> int:
        return int(at / self.bucket_seconds)

    def cell(self, buckets: dict, at: float) -> list:
        """The cell holding instant ``at``, created as ``[0, 0]`` on first
        touch, which is also when buckets past the horizon are pruned."""
        bucket = self.bucket_of(at)
        cell = buckets.get(bucket)
        if cell is None:
            cell = buckets[bucket] = [0, 0]
            if len(buckets) > self.horizon:
                floor = bucket - self.horizon
                for stale in [b for b in buckets if b < floor]:
                    del buckets[stale]
        return cell

    def window_sum(self, buckets: dict, now: float, width: float
                   ) -> tuple:
        """Element-wise cell sums over the trailing ``width`` seconds
        ending at ``now``, added in the dict's iteration order (so float
        sums are reproducible bit for bit)."""
        now_bucket = self.bucket_of(now)
        floor = now_bucket - int(width / self.bucket_seconds)
        first = second = 0
        for bucket, (a, b) in buckets.items():
            if floor < bucket <= now_bucket:
                first += a
                second += b
        return first, second


class _SloState:
    __slots__ = ("slo", "buckets", "good_total", "bad_total")

    def __init__(self, slo: SLO):
        self.slo = slo
        self.buckets: dict[int, list[int]] = {}  # bucket -> [good, bad]
        self.good_total = 0
        self.bad_total = 0


class SloTracker:
    """Declared objectives plus rolling good/bad outcome buckets.

    ``clock`` defaults to ``time.monotonic`` and is injectable; all
    window math quantizes to :data:`BUCKET_SECONDS`-wide buckets, which
    bounds memory at (longest window / bucket width) entries per SLO.
    """

    def __init__(self, windows=DEFAULT_WINDOWS,
                 bucket_seconds: float = BUCKET_SECONDS, clock=None):
        self._rolling = RollingWindows(windows, bucket_seconds)
        self.windows = self._rolling.windows
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._states: dict[str, _SloState] = {}

    def declare(self, name: str, objective: float,
                threshold: float | None = None,
                description: str = "") -> SLO:
        """Register (or return the existing) objective ``name``."""
        with self._lock:
            state = self._states.get(name)
            if state is None:
                state = _SloState(SLO(name, objective, threshold,
                                      description))
                self._states[name] = state
            return state.slo

    def _record_locked(self, state: _SloState, good: bool,
                       n: int = 1) -> None:
        cell = self._rolling.cell(state.buckets, self._clock())
        if good:
            cell[0] += n
            state.good_total += n
        else:
            cell[1] += n
            state.bad_total += n

    def record(self, name: str, good: bool, n: int = 1) -> None:
        """Record ``n`` good or bad events against objective ``name``
        (which must have been declared — typos should fail loudly)."""
        with self._lock:
            self._record_locked(self._states[name], good, n)

    def record_value(self, name: str, value: float) -> bool:
        """Record an observation against ``name``'s threshold (good iff
        ``value <= threshold``); returns the verdict.  One lock
        acquisition — this sits on the per-request hot path."""
        with self._lock:
            state = self._states[name]
            threshold = state.slo.threshold
            good = threshold is None or value <= threshold
            self._record_locked(state, good)
        return good

    def window_counts(self, name: str, window_seconds: float
                      ) -> tuple[int, int]:
        """``(good, bad)`` totals over the trailing window."""
        with self._lock:
            return self._rolling.window_sum(
                self._states[name].buckets, self._clock(), window_seconds)

    def burn_rate(self, name: str, window_seconds: float) -> float:
        """Error-budget burn over the trailing window: the window's
        error rate divided by the budget ``1 - objective``.  0.0 with
        no traffic (no evidence is not an outage)."""
        good, bad = self.window_counts(name, window_seconds)
        total = good + bad
        if not total:
            return 0.0
        with self._lock:
            budget = 1.0 - self._states[name].slo.objective
        error_rate = bad / total
        if budget <= 0.0:
            return math.inf if bad else 0.0
        return error_rate / budget

    def snapshot(self) -> dict:
        """The ``GET /v1/slo`` body: every objective with lifetime
        totals and per-window error/burn rates."""
        with self._lock:
            names = sorted(self._states)
        slos = []
        for name in names:
            with self._lock:
                state = self._states[name]
                entry = state.slo.to_json()
                entry["good_total"] = state.good_total
                entry["bad_total"] = state.bad_total
            windows = {}
            for label, width in self.windows:
                good, bad = self.window_counts(name, width)
                total = good + bad
                windows[label] = {
                    "good": good,
                    "bad": bad,
                    "error_rate": (bad / total) if total else 0.0,
                    "burn_rate": self.burn_rate(name, width),
                }
            entry["windows"] = windows
            slos.append(entry)
        return {"slos": slos}

    def collect(self) -> list[tuple[str, str, str, list]]:
        """Collector hook for the metrics registry: objectives, lifetime
        outcome counters, and per-window burn-rate gauges."""
        with self._lock:
            names = sorted(self._states)
        objective_samples: list = []
        event_samples: list = []
        burn_samples: list = []
        for name in names:
            with self._lock:
                state = self._states[name]
                objective = state.slo.objective
                good_total = state.good_total
                bad_total = state.bad_total
            objective_samples.append(({"slo": name}, objective))
            event_samples.append(
                ({"slo": name, "outcome": "good"}, float(good_total)))
            event_samples.append(
                ({"slo": name, "outcome": "bad"}, float(bad_total)))
            for label, width in self.windows:
                burn_samples.append(
                    ({"slo": name, "window": label},
                     self.burn_rate(name, width)))
        if not names:
            return []
        return [
            ("gauge", "repro_slo_objective",
             "Declared objective (target good fraction) per SLO",
             objective_samples),
            ("counter", "repro_slo_events_total",
             "Lifetime good/bad outcome counts per SLO",
             event_samples),
            ("gauge", "repro_slo_burn_rate",
             "Error-budget burn rate per SLO and rolling window "
             "(1.0 = burning exactly at budget)",
             burn_samples),
        ]
