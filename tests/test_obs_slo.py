"""SLO burn-rate tracking (fake-clock window math, collector export)
and trace-log rotation."""

import json
import math

import pytest

from repro.obs import JsonlTraceExporter, Tracer, parse_prometheus_text
from repro.obs.drift import DriftMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    BUCKET_SECONDS,
    DEFAULT_WINDOWS,
    SLO,
    SloTracker,
)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracker(clock):
    t = SloTracker(clock=clock)
    t.declare("availability", 0.999)
    t.declare("latency", 0.99, threshold=0.1)
    return t


class TestSloDeclaration:
    def test_objective_must_be_a_fraction(self):
        with pytest.raises(ValueError):
            SLO("bad", 1.0)
        with pytest.raises(ValueError):
            SLO("bad", 0.0)

    def test_declare_is_get_or_create(self, tracker):
        first = tracker.declare("availability", 0.999)
        again = tracker.declare("availability", 0.5)
        assert again is first and again.objective == 0.999

    def test_recording_an_undeclared_slo_fails_loudly(self, tracker):
        with pytest.raises(KeyError):
            tracker.record("typo", True)


class TestWindowMath:
    def test_burn_rate_is_error_rate_over_budget(self, tracker):
        for _ in range(99):
            tracker.record("availability", True)
        tracker.record("availability", False)
        # 1% error rate against a 0.1% budget burns 10x.
        assert tracker.burn_rate("availability", 300.0) == (
            pytest.approx(10.0))

    def test_no_traffic_means_zero_burn(self, tracker):
        assert tracker.burn_rate("availability", 300.0) == 0.0

    def test_events_age_out_of_short_windows_only(self, tracker, clock):
        tracker.record("availability", False)
        clock.advance(600.0)  # past 5m, inside 1h
        tracker.record("availability", True)
        assert tracker.window_counts("availability", 300.0) == (1, 0)
        assert tracker.window_counts("availability", 3600.0) == (1, 1)
        assert tracker.burn_rate("availability", 300.0) == 0.0
        assert tracker.burn_rate("availability", 3600.0) == (
            pytest.approx(0.5 / 0.001))

    def test_lifetime_totals_survive_window_expiry(self, tracker, clock):
        tracker.record("availability", False)
        clock.advance(7 * 3600.0)
        tracker.record("availability", True)
        snapshot = tracker.snapshot()
        entry = next(s for s in snapshot["slos"]
                     if s["name"] == "availability")
        assert entry["good_total"] == 1 and entry["bad_total"] == 1
        assert entry["windows"]["6h"]["bad"] == 0

    @pytest.mark.parametrize("owner", [SloTracker, DriftMonitor],
                             ids=lambda cls: cls.__name__)
    def test_bucket_memory_is_bounded(self, owner, clock):
        """Both users of the shared rolling window prune to it."""
        if owner is SloTracker:
            tracker = SloTracker(clock=clock)
            tracker.declare("availability", 0.999)

            def record():
                tracker.record("availability", True)
            buckets = tracker._states["availability"].buckets
        else:
            monitor = DriftMonitor(clock=clock)

            def record():
                monitor.absorb(monitor.sample_of("m", "qerror", 2.0),
                               scopes=("model",))
            record()
            buckets = monitor._keys[("model", "m", "", "qerror")].buckets
        horizon = max(width for _label, width in DEFAULT_WINDOWS)
        for _ in range(int(2 * horizon / BUCKET_SECONDS)):
            record()
            clock.advance(BUCKET_SECONDS)
        assert len(buckets) <= horizon / BUCKET_SECONDS + 2

    def test_near_zero_budget_burns_enormously_on_any_error(self, clock):
        tracker = SloTracker(clock=clock)
        tracker.declare("strict", 1.0 - 1e-15)
        tracker.record("strict", False)
        burn = tracker.burn_rate("strict", 300.0)
        assert burn > 1e12 and burn < math.inf


class TestThresholds:
    def test_record_value_compares_to_threshold(self, tracker):
        assert tracker.record_value("latency", 0.05) is True
        assert tracker.record_value("latency", 0.5) is False
        assert tracker.window_counts("latency", 300.0) == (1, 1)

    def test_thresholdless_slo_counts_everything_good(self, tracker):
        assert tracker.record_value("availability", 1e9) is True


class TestExport:
    def test_collector_families_render_and_parse(self, tracker):
        tracker.record("availability", True)
        tracker.record_value("latency", 0.2)
        registry = MetricsRegistry()
        registry.register_collector(tracker.collect)
        families = parse_prometheus_text(registry.render_prometheus())
        assert families["repro_slo_objective"]["type"] == "gauge"
        assert families["repro_slo_events_total"]["type"] == "counter"
        burn = families["repro_slo_burn_rate"]
        assert burn["type"] == "gauge"
        labels_seen = {(labels["slo"], labels["window"])
                       for _n, labels, _v in burn["samples"]}
        expected = {(name, label)
                    for name in ("availability", "latency")
                    for label, _w in DEFAULT_WINDOWS}
        assert labels_seen == expected

    def test_snapshot_is_json_ready(self, tracker):
        tracker.record("availability", True)
        payload = json.dumps(tracker.snapshot())
        assert "availability" in payload


class TestTraceLogRotation:
    def _fill(self, exporter, n):
        tracer = Tracer(exporter=exporter)
        for i in range(n):
            with tracer.trace(f"r{i}"):
                pass

    def test_rollover_keeps_one_predecessor(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        with JsonlTraceExporter(str(path), max_bytes=2000) as exporter:
            self._fill(exporter, 50)
        assert path.exists()
        assert path.stat().st_size <= 2000
        rolled = tmp_path / "traces.jsonl.1"
        assert rolled.exists()
        # Both files hold whole, parseable JSON lines — rotation never
        # splits a record.
        names = []
        for part in (rolled, path):
            for line in part.read_text().splitlines():
                names.append(json.loads(line)["name"])
        # The tail of the stream survives contiguously.
        assert names[-1] == "r49"
        # A second rollover replaced the first .1 file (exactly one
        # predecessor retained).
        assert not (tmp_path / "traces.jsonl.2").exists()

    def test_no_max_bytes_means_no_rotation(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        with JsonlTraceExporter(str(path)) as exporter:
            self._fill(exporter, 50)
        assert len(path.read_text().splitlines()) == 50
        assert not (tmp_path / "traces.jsonl.1").exists()

    def test_oversized_single_record_still_lands(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        with JsonlTraceExporter(str(path), max_bytes=10) as exporter:
            tracer = Tracer(exporter=exporter)
            with tracer.trace("huge"):
                pass
        lines = path.read_text().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["name"] == "huge"
