"""Drift detection unit mechanics: query templating, Page-Hinkley
scoring and attribution, key caps, lossless snapshot merging, the
worker federator's restart/unreachable semantics, and report/metric
family shapes."""

import math

import pytest

from repro.obs.drift import (
    MIN_SAMPLES,
    OVERFLOW_KEY,
    DriftMonitor,
    DriftReport,
    NullDriftMonitor,
    build_report,
    empty_drift_snapshot,
    merge_drift_snapshot,
    template_of,
)
from repro.obs.federate import MetricsFederator
from repro.sql import parse_query


class FakeClock:
    def __init__(self, at=0.0):
        self.at = at

    def __call__(self):
        return self.at

    def advance(self, seconds):
        self.at += seconds


def monitor(clock=None, **kw):
    return DriftMonitor(clock=clock or FakeClock(), **kw)


def feed(mon, n, value, model="m", step=1.0, **sample_kw):
    """Absorb ``n`` samples at ``value``, advancing the fake clock."""
    for _ in range(n):
        mon._clock.advance(step)
        mon.absorb(mon.sample_of(model, "qerror", value, **sample_kw))


class TestTemplateOf:
    def test_alias_spelling_does_not_change_the_fingerprint(self):
        a = parse_query("SELECT COUNT(*) FROM A a, B b "
                        "WHERE a.id = b.aid AND a.x > 1")
        b = parse_query("SELECT COUNT(*) FROM A lhs, B rhs "
                        "WHERE lhs.id = rhs.aid AND lhs.x > 5")
        assert template_of(a) == template_of(b)
        assert template_of(a) == "A,B|A.id=B.aid"

    def test_filters_excluded_but_join_shape_included(self):
        two = parse_query("SELECT COUNT(*) FROM A a, B b "
                          "WHERE a.id = b.aid")
        three = parse_query("SELECT COUNT(*) FROM A a, B b, C c "
                            "WHERE a.id = b.aid AND b.cid = c.id")
        assert template_of(two) != template_of(three)

    def test_single_table_template_is_just_the_table(self):
        q = parse_query("SELECT COUNT(*) FROM A a WHERE a.x > 1")
        assert template_of(q) == "A"


class TestDetection:
    def test_stable_stream_stays_stable(self):
        mon = monitor()
        feed(mon, 200, 1.2)
        report = mon.report()
        assert report.counts == {"stable": 1, "drifting": 0,
                                 "critical": 0}
        assert report.max_score() < mon.threshold

    def test_shift_is_flagged_and_attributed(self):
        mon = monitor()
        feed(mon, 100, 1.2, shards=(0,), tables=("A",), template="A")
        feed(mon, 100, 1.2, shards=(1,), tables=("B",), template="B")
        stable = mon.report()
        assert stable.counts["drifting"] == stable.counts["critical"] == 0
        onset_at = mon.now()
        feed(mon, 40, 10.0, shards=(0,), tables=("A",), template="A")
        report = mon.report()
        flagged = {(e["scope"], e["key"]) for e in report.entries
                   if e["status"] == "critical"}
        assert ("shard", "0") in flagged
        assert ("table", "A") in flagged
        assert ("shard", "1") not in flagged
        assert ("table", "B") not in flagged
        worst = report.top(1)[0]
        assert worst["status"] == "critical"
        assert worst["onset"] is not None
        assert worst["onset"] > onset_at
        assert worst["onset_age_seconds"] >= 0.0

    def test_min_samples_gates_a_lone_offender(self):
        mon = monitor()
        feed(mon, MIN_SAMPLES - 1, 1e6)
        assert all(e["status"] == "stable"
                   for e in mon.report().entries)

    def test_onset_resets_when_score_recovers(self):
        mon = monitor()
        feed(mon, 50, 1.2)
        feed(mon, 40, 10.0)
        key = ("model", "m", "", "qerror")
        assert mon._keys[key].onset is not None
        # a long calm stretch pulls mhat back toward mmin
        feed(mon, 2000, 1.2)
        assert mon._keys[key].onset is None

    def test_magnitude_compares_recent_window_to_stream(self):
        # windows are (label, seconds); keep "recent" at 60s so the
        # 1s-per-sample feed leaves the stable prefix outside it
        mon = monitor(windows=(("1m", 60.0), ("1h", 3600.0)))
        feed(mon, 300, 1.0)
        feed(mon, 59, 8.0)
        entry = mon.report().entries[0]
        # the recent window is bucket-quantized, so one stable sample
        # may ride along at the boundary
        assert 7.0 < entry["recent"] <= 8.0
        assert entry["magnitude"] > 2.0


class TestKeyCap:
    def test_past_cap_templates_collapse_into_overflow(self):
        mon = monitor(max_keys=4)
        for i in range(10):
            mon.absorb(mon.sample_of("m", "qerror", 2.0,
                                     template=f"T{i}"),
                       scopes=("template",))
        snapshot = mon.snapshot()
        names = {key[2] for key in snapshot["keys"]}
        assert OVERFLOW_KEY in names
        assert snapshot["dropped_keys"] == 6
        report = mon.report()
        assert report.dropped_keys == 6
        assert sum(e["samples"] for e in report.entries) == 10

    def test_cap_is_per_scope(self):
        mon = monitor(max_keys=2)
        sample = mon.sample_of("m", "qerror", 2.0, shards=(0, 1),
                               tables=("A", "B"), template="t")
        mon.absorb(sample)
        assert mon.snapshot()["dropped_keys"] == 0


class TestMergeProperties:
    def test_disjoint_split_merges_bit_identically(self):
        """The cluster invariant: shard keys absorbed on per-shard
        monitors plus a driver monitor holding the other scopes merge
        into exactly the single-monitor snapshot."""
        clock = FakeClock()
        full = DriftMonitor(clock=clock)
        driver = DriftMonitor(clock=clock)
        workers = {0: DriftMonitor(clock=clock),
                   1: DriftMonitor(clock=clock)}
        for i in range(60):
            clock.advance(1.0)
            shard = i % 2
            value = 1.2 if i < 40 else 9.0
            sample = full.sample_of("m", "qerror", value,
                                    shards=(shard,), tables=("A",),
                                    template="A")
            full.absorb(sample)
            driver.absorb(sample, scopes=("model", "table", "template"))
            workers[shard].absorb(sample, scopes=("shard",))
        merged = merge_drift_snapshot(empty_drift_snapshot(),
                                      driver.snapshot())
        for worker in workers.values():
            merge_drift_snapshot(merged, worker.snapshot())
        assert merged == full.snapshot()

    def test_merge_is_order_independent_and_sums_colliding_keys(self):
        clock = FakeClock()
        a, b = DriftMonitor(clock=clock), DriftMonitor(clock=clock)
        feed(a, 20, 2.0)
        feed(b, 30, 4.0)
        ab = merge_drift_snapshot(
            merge_drift_snapshot(empty_drift_snapshot(), a.snapshot()),
            b.snapshot())
        ba = merge_drift_snapshot(
            merge_drift_snapshot(empty_drift_snapshot(), b.snapshot()),
            a.snapshot())
        assert ab == ba
        state = ab["keys"][("model", "m", "", "qerror")]
        assert state[1] == 50
        want_mean = (20 * math.log(2.0) + 30 * math.log(4.0)) / 50
        assert state[2] == pytest.approx(want_mean)

    def test_merge_never_mutates_the_source_snapshot(self):
        mon = monitor()
        feed(mon, 10, 2.0)
        snapshot = mon.snapshot()
        before = {key: state for key, state in snapshot["keys"].items()}
        acc = merge_drift_snapshot(empty_drift_snapshot(), snapshot)
        merge_drift_snapshot(acc, snapshot)
        assert snapshot["keys"] == before


class TestFederator:
    def _snapshot(self, n=10, value=2.0):
        mon = monitor()
        feed(mon, n, value)
        return mon.snapshot()

    def test_restart_folds_previous_incarnation_into_baseline(self):
        fed = MetricsFederator(empty_drift_snapshot, merge_drift_snapshot)
        fed.absorb(0, 1, self._snapshot(n=10))
        fed.absorb(0, 1, self._snapshot(n=15))  # rescrape, same gen
        key = ("model", "m", "", "qerror")
        assert fed.merged()["keys"][key][1] == 15
        fed.absorb(0, 2, self._snapshot(n=5))  # worker restarted
        assert fed.merged()["keys"][key][1] == 20

    def test_unreachable_keeps_last_known_and_forget_drops(self):
        fed = MetricsFederator(empty_drift_snapshot, merge_drift_snapshot)
        fed.absorb(3, 1, self._snapshot(n=7))
        fed.mark_unreachable(3)
        key = ("model", "m", "", "qerror")
        assert fed.merged()["keys"][key][1] == 7
        fed.forget(3)
        assert fed.merged() == empty_drift_snapshot()


class TestReportShapes:
    def test_to_json_and_families(self):
        mon = monitor()
        feed(mon, 50, 1.2, shards=(0,))
        feed(mon, 40, 10.0, shards=(0,))
        report = mon.report(top=3)
        body = report.to_json()
        assert set(body) == {"counts", "samples", "dropped_keys", "top",
                             "keys"}
        assert body["samples"] == 180  # 90 model-scope + 90 shard-scope
        assert len(body["top"]) <= 3
        families = dict((name, (kind, samples)) for kind, name, _h,
                        samples in report.families())
        assert set(families) == {"repro_drift_score", "repro_drift_state",
                                 "repro_drift_samples_total"}
        kind, samples = families["repro_drift_state"]
        assert kind == "gauge"
        for labels, value in samples:
            assert set(labels) == {"model", "scope", "key", "metric"}
            assert value in (0.0, 1.0, 2.0)

    def test_empty_report_is_quiet(self):
        report = DriftReport([])
        assert report.max_score() == 0.0
        assert report.families() == []
        assert report.to_json()["counts"]["critical"] == 0

    def test_build_report_statuses_follow_thresholds(self):
        snapshot = empty_drift_snapshot()
        snapshot["keys"] = {
            ("model", "m", "", "qerror"): ({0: (20, 0.0)}, 20, 0.0,
                                           9.0, 0.0, None),
            ("model", "m2", "", "qerror"): ({0: (20, 0.0)}, 20, 0.0,
                                            17.0, 0.0, None),
        }
        report = build_report(snapshot, now=10.0)
        by_model = {e["model"]: e["status"] for e in report.entries}
        assert by_model == {"m": "drifting", "m2": "critical"}

    def test_null_monitor_is_inert(self):
        null = NullDriftMonitor()
        null.absorb(null.sample_of("m", "qerror", 100.0))
        assert null.snapshot() == empty_drift_snapshot()
        assert null.report().entries == []
        assert null.collect() == []
