"""Alert engine: rule validation, the pending → firing → resolved
state machine under a fake clock, JSONL event export, metric families,
and the stock rule set."""

import json

import pytest

from repro.obs import JsonlEventExporter
from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    default_alert_rules,
)


class FakeClock:
    def __init__(self, at=0.0):
        self.at = at

    def __call__(self):
        return self.at

    def advance(self, seconds):
        self.at += seconds


def engine(*rules, exporter=None):
    clock = FakeClock()
    return AlertEngine(rules=rules, clock=clock, exporter=exporter), clock


RULE = AlertRule(name="r", signal="sig", threshold=5.0,
                 for_seconds=60.0, severity="page")


class TestAlertRule:
    def test_comparisons(self):
        assert RULE.breached(5.1) and not RULE.breached(5.0)
        below = AlertRule(name="b", signal="s", threshold=0.9,
                          comparison="<")
        assert below.breached(0.5) and not below.breached(0.9)

    def test_unknown_comparison_rejected(self):
        with pytest.raises(ValueError, match="comparison"):
            AlertRule(name="x", signal="s", threshold=1.0,
                      comparison="!=")

    def test_describe_is_json_ready(self):
        body = RULE.describe()
        assert body["name"] == "r"
        assert body["for_seconds"] == 60.0
        json.dumps(body)


class TestStateMachine:
    def test_breach_must_hold_before_firing(self):
        eng, clock = engine(RULE)
        assert eng.evaluate(lambda s: 10.0) == []  # breach → pending
        assert eng.snapshot()["alerts"][0]["state"] == "pending"
        clock.advance(59.0)
        assert eng.evaluate(lambda s: 10.0) == []  # still held
        clock.advance(1.0)
        events = eng.evaluate(lambda s: 10.0)
        assert [e["event"] for e in events] == ["firing"]
        assert events[0]["rule"] == "r"
        assert events[0]["value"] == 10.0
        snap = eng.snapshot()
        assert snap["firing"] == 1
        assert snap["alerts"][0]["state"] == "firing"
        assert snap["alerts"][0]["firing_count"] == 1

    def test_recovery_mid_hold_resets_the_clock(self):
        eng, clock = engine(RULE)
        eng.evaluate(lambda s: 10.0)
        clock.advance(59.0)
        eng.evaluate(lambda s: 1.0)  # recovered: back to ok
        assert eng.snapshot()["alerts"][0]["state"] == "ok"
        clock.advance(1.0)
        eng.evaluate(lambda s: 10.0)  # a fresh hold starts
        clock.advance(59.0)
        assert eng.evaluate(lambda s: 10.0) == []
        clock.advance(1.0)
        assert [e["event"] for e in eng.evaluate(lambda s: 10.0)] == \
            ["firing"]

    def test_firing_resolves_when_signal_recovers(self):
        eng, clock = engine(RULE)
        eng.evaluate(lambda s: 10.0)
        clock.advance(60.0)
        eng.evaluate(lambda s: 10.0)
        clock.advance(5.0)
        events = eng.evaluate(lambda s: 0.0)
        assert [e["event"] for e in events] == ["resolved"]
        snap = eng.snapshot()["alerts"][0]
        assert snap["state"] == "ok"
        assert snap["firing_count"] == snap["resolved_count"] == 1

    def test_unavailable_or_raising_signal_never_breaches(self):
        eng, clock = engine(RULE)
        eng.evaluate(lambda s: None)
        assert eng.snapshot()["alerts"][0]["state"] == "ok"

        def boom(spec):
            raise RuntimeError("scrape failed")

        eng.evaluate(lambda s: 10.0)
        clock.advance(60.0)
        eng.evaluate(boom)  # exception → not breaching → back to ok
        assert eng.snapshot()["alerts"][0]["state"] == "ok"

    def test_zero_hold_fires_immediately(self):
        instant = AlertRule(name="i", signal="s", threshold=1.0,
                            for_seconds=0.0)
        eng, _ = engine(instant)
        assert [e["event"] for e in eng.evaluate(lambda s: 2.0)] == \
            ["firing"]

    def test_add_rule_replaces_by_name_keeping_state(self):
        eng, clock = engine(RULE)
        eng.evaluate(lambda s: 10.0)
        clock.advance(60.0)
        eng.evaluate(lambda s: 10.0)
        eng.add_rule(AlertRule(name="r", signal="sig", threshold=50.0,
                               for_seconds=60.0))
        assert len(eng.rules()) == 1
        events = eng.evaluate(lambda s: 10.0)  # under the new threshold
        assert [e["event"] for e in events] == ["resolved"]


class TestExportAndFamilies:
    def test_events_land_in_the_jsonl_log(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        exporter = JsonlEventExporter(str(path))
        eng, clock = engine(RULE, exporter=exporter)
        eng.evaluate(lambda s: 10.0)
        clock.advance(60.0)
        eng.evaluate(lambda s: 10.0)
        eng.evaluate(lambda s: 0.0)
        exporter.close()
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [line["event"] for line in lines] == ["firing", "resolved"]
        assert lines[0]["rule"] == "r"
        assert lines[0]["severity"] == "page"

    def test_broken_exporter_never_breaks_evaluation(self):
        class Broken:
            def export(self, event):
                raise OSError("disk full")

        eng, clock = engine(RULE, exporter=Broken())
        eng.evaluate(lambda s: 10.0)
        clock.advance(60.0)
        events = eng.evaluate(lambda s: 10.0)
        assert [e["event"] for e in events] == ["firing"]

    def test_collect_families(self):
        eng, clock = engine(RULE)
        eng.evaluate(lambda s: 10.0)
        clock.advance(60.0)
        eng.evaluate(lambda s: 10.0)
        families = {name: (kind, samples) for kind, name, _h, samples
                    in eng.collect()}
        kind, samples = families["repro_alert_state"]
        assert kind == "gauge"
        assert samples == [({"rule": "r", "severity": "page"}, 2.0)]
        kind, samples = families["repro_alert_transitions_total"]
        assert kind == "counter"
        assert samples == [({"rule": "r", "event": "firing"}, 1.0)]

    def test_empty_engine_collects_nothing(self):
        eng = AlertEngine()
        assert eng.collect() == []
        assert eng.snapshot() == {"alerts": [], "firing": 0}


class TestDefaults:
    def test_stock_rules_cover_the_slos_and_drift(self):
        rules = {rule.name: rule for rule in default_alert_rules()}
        assert set(rules) == {"availability-fast-burn",
                              "latency-fast-burn", "qerror-fast-burn",
                              "drift-critical"}
        for name in ("availability", "latency", "qerror"):
            rule = rules[f"{name}-fast-burn"]
            assert rule.signal == f"slo_burn:{name}:5m"
            assert rule.threshold == 10.0
        assert rules["drift-critical"].signal == "drift:critical"
        assert rules["drift-critical"].severity == "page"
