"""Drift-detection gate: fast flagging, zero false positives, <5% QPS.

The drift layer's contract has three edges, and this bench pins all of
them on the same STATS-scale serving regime the obs-overhead bench
uses:

- **Detection latency** — after an injected update-driven shift (true
  cardinalities inflate while the served model's estimates go stale),
  the monitor must flag the drifted attribution keys within
  :data:`MAX_DETECTION_SAMPLES` feedback samples.  A detector that
  needs hundreds of samples to notice a 10x accuracy collapse is not an
  alerting signal, it is a post-mortem.
- **Zero false positives on the stable prefix** — the same workload
  served accurately for :data:`STABLE_SAMPLES` samples must leave every
  attribution key ``stable``.  A drift page that cries wolf gets muted,
  at which point the whole subsystem is decorative.
- **Hot-path overhead** — the full estimate→feedback loop with a live
  :class:`~repro.obs.drift.DriftMonitor` (plus alert engine and flight
  recorder) must retain ≥95% of the QPS of the same service without
  them (both sides run with metrics off, so those three components are
  the only difference), measured with the obs bench's interleaved per-query-
  minima discipline.  Like that bench, the gate runs on the inference
  path (LRU-1 cache, no sub-plan reuse): a ratio against a ~20us cache
  hit would only measure the Python interpreter's floor, not whether
  drift attribution fits the serving budget of the regime the paper's
  system actually operates in (millisecond inferences).

All numbers land in ``BENCH_drift.json`` (override with
``BENCH_DRIFT_JSON``) for CI to upload and trend.
"""

import time

import pytest

from repro.api import FeedbackRequest
from repro.core.estimator import FactorJoin, FactorJoinConfig
from repro.eval.harness import make_context
from repro.obs import (
    NULL_METRICS,
    AlertEngine,
    DriftMonitor,
    FlightRecorder,
    default_alert_rules,
)
from repro.serve import EstimationService
from repro.utils import format_table

#: Instrumented feedback must retain this fraction of null-build QPS.
MIN_QPS_RATIO = 0.95

#: A shifted key must be flagged (non-stable) within this many
#: post-shift feedback samples on that key.
MAX_DETECTION_SAMPLES = 40

#: Stable-prefix length over which no key may leave ``stable``.
STABLE_SAMPLES = 200

#: Error inflation applied by the injected shift — the regime of a
#: model gone stale after unabsorbed updates (10x, well past the
#: q-error SLO threshold).
SHIFT_FACTOR = 10.0

ROUNDS = 8
N_QUERIES = 20

#: Gate measurements accumulated across tests, flushed to
#: ``BENCH_drift.json`` (override the path with ``BENCH_DRIFT_JSON``) by the
#: shared ``bench_report`` fixture in ``benchmarks/conftest.py``.
RESULTS: dict = {}
REPORT = ("BENCH_DRIFT_JSON", "BENCH_drift.json")
pytestmark = pytest.mark.usefixtures("bench_report")


@pytest.fixture(scope="module")
def drift_ctx():
    return make_context("stats", scale=0.2, seed=0, max_tables=6)


@pytest.fixture(scope="module")
def fitted(drift_ctx):
    model = FactorJoin(FactorJoinConfig(
        n_bins=8, table_estimator="truescan", seed=0))
    return model.fit(drift_ctx.database)


class FakeClock:
    def __init__(self, at=0.0):
        self.at = at

    def __call__(self):
        return self.at

    def advance(self, seconds):
        self.at += seconds


def _service(fitted, monitored: bool) -> EstimationService:
    # LRU-1 + no sub-plan reuse: every estimate in the loop is a
    # genuine inference (see module docstring); metrics off on both
    # sides, so only the monitored side has drift, alerts and flight
    kwargs = dict(cache_size=1, subplan_reuse=False, metrics=NULL_METRICS)
    if monitored:
        service = EstimationService(
            drift=DriftMonitor(),
            alerts=AlertEngine(rules=default_alert_rules()),
            flight=FlightRecorder(), **kwargs)
    else:
        service = EstimationService(**kwargs)
    service.register("default", fitted)
    return service


class TestDetectionLatency:
    def test_shift_flagged_fast_with_no_false_positives(self, fitted,
                                                        drift_ctx):
        clock = FakeClock()
        service = EstimationService(drift=DriftMonitor(clock=clock))
        service.register("default", fitted)
        queries = drift_ctx.workload[:N_QUERIES]
        estimates = [service.estimate(q).estimate for q in queries]

        # stable prefix: truth == estimate, round-robin over the
        # workload so every attribution key builds a baseline
        for i in range(STABLE_SAMPLES):
            clock.advance(1.0)
            query, est = queries[i % N_QUERIES], estimates[i % N_QUERIES]
            service.record_feedback(FeedbackRequest(
                query=query, true_cardinality=max(est, 1.0),
                estimate=est))
        report = service.drift_report()
        false_positives = [e for e in report.entries
                           if e["status"] != "stable"]
        RESULTS["stable_prefix"] = {
            "samples": STABLE_SAMPLES,
            "keys_tracked": len(report.entries),
            "false_positives": len(false_positives),
        }
        assert not false_positives, (
            f"{len(false_positives)} keys left 'stable' on an "
            f"accurately-served prefix: "
            f"{[(e['scope'], e['key']) for e in false_positives]}")

        # injected shift on one query: its truth inflates SHIFT_FACTOR-x
        drifted, est = queries[0], estimates[0]
        detected_after = None
        for n in range(1, MAX_DETECTION_SAMPLES + 1):
            clock.advance(1.0)
            service.record_feedback(FeedbackRequest(
                query=drifted,
                true_cardinality=max(est, 1.0) * SHIFT_FACTOR,
                estimate=est))
            flagged = {(e["scope"], e["key"])
                       for e in service.drift_report().entries
                       if e["status"] != "stable"}
            if flagged:
                detected_after = n
                break
        RESULTS["detection"] = {
            "shift_factor": SHIFT_FACTOR,
            "max_samples": MAX_DETECTION_SAMPLES,
            "detected_after_samples": detected_after,
        }
        print(f"\nshift of {SHIFT_FACTOR:.0f}x flagged after "
              f"{detected_after} samples "
              f"(gate: <={MAX_DETECTION_SAMPLES})")
        assert detected_after is not None, (
            f"a {SHIFT_FACTOR:.0f}x error shift went unflagged for "
            f"{MAX_DETECTION_SAMPLES} samples")
        # the flagged set names the drifted key, not an innocent one
        report = service.drift_report()
        flagged = {(e["scope"], e["key"]) for e in report.entries
                   if e["status"] != "stable"}
        drifted_tables = {drifted.table_of(a) for a in drifted.aliases}
        assert all(scope == "model" or key in drifted_tables
                   or scope in ("template", "shard")
                   for scope, key in flagged)


class TestOverheadGate:
    def test_feedback_loop_qps_within_five_percent_of_null(self, fitted,
                                                           drift_ctx):
        queries = drift_ctx.workload[:N_QUERIES]
        services = {
            "null": _service(fitted, monitored=False),
            "monitored": _service(fitted, monitored=True),
        }
        estimates = {
            name: [service.estimate(q).estimate for q in queries]
            for name, service in services.items()}
        # interleaved rounds, per-query minima (see bench_obs_overhead)
        best = {name: [float("inf")] * len(queries) for name in services}
        for _ in range(ROUNDS):
            for name, service in services.items():
                per_query = best[name]
                ests = estimates[name]
                for i, query in enumerate(queries):
                    start = time.perf_counter()
                    service.estimate(query)
                    service.record_feedback(FeedbackRequest(
                        query=query,
                        true_cardinality=max(ests[i], 1.0),
                        estimate=ests[i]))
                    elapsed = time.perf_counter() - start
                    if elapsed < per_query[i]:
                        per_query[i] = elapsed
        mean = {name: sum(per_query) / len(per_query)
                for name, per_query in best.items()}
        ratio = mean["null"] / mean["monitored"]
        RESULTS["overhead"] = {
            "null_qps": 1.0 / mean["null"],
            "monitored_qps": 1.0 / mean["monitored"],
            "qps_ratio": ratio,
            "overhead_pct": (1.0 - ratio) * 100.0,
        }
        print()
        print(format_table(
            ["build", "estimate+feedback QPS", "ratio vs null"],
            [["null (no drift/alerts/flight)",
              f"{1.0 / mean['null']:.0f}", "1.000"],
             ["monitored (drift+alerts+flight)",
              f"{1.0 / mean['monitored']:.0f}", f"{ratio:.3f}"]]))
        assert ratio >= MIN_QPS_RATIO, (
            f"drift monitoring costs {(1 - ratio) * 100:.1f}% QPS "
            f"(gate: <{(1 - MIN_QPS_RATIO) * 100:.0f}%)")
        # the monitored build actually tracked the traffic
        report = services["monitored"].drift_report()
        assert report.entries
        assert services["null"].drift is None
