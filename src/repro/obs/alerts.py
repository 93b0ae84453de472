"""Declarative alerting over metrics, SLO burn rates, and drift scores.

An :class:`AlertRule` names a *signal* — a string the evaluating host
resolves to a float each tick — and a threshold with a ``for_seconds``
hold, so one bad scrape does not page anyone.  The
:class:`AlertEngine` runs every rule through a
pending → firing → resolved state machine with an injectable clock and
emits transition events to a JSONL exporter (the trace-log rotation
machinery, reused).

Signal specs understood by the serving layer's resolver
(:meth:`repro.serve.service.EstimationService.evaluate_alerts`):

- ``slo_burn:<name>:<window>`` — an SLO's burn rate over a window
  label, e.g. ``slo_burn:availability:5m``;
- ``drift:critical`` / ``drift:drifting`` — how many attribution keys
  the drift report currently scores at (at least) that status;
- ``drift:max_score`` — the worst Page-Hinkley score across every key;
- ``metric:<name>`` — a registered instrument's value summed across
  label sets (histograms contribute their observation count).

The engine itself never interprets specs — it hands each rule's
``signal`` to the resolver callable and compares the float that comes
back (``None`` means "signal unavailable", treated as not breaching),
which keeps the rule grammar open for future hosts.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

#: Default breach-hold before a pending alert starts firing.
DEFAULT_HOLD_SECONDS = 60.0

#: Alert states in escalation order (gauge values 0/1/2).
ALERT_STATES = ("ok", "pending", "firing")

_COMPARATORS = {
    ">": lambda value, threshold: value > threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<": lambda value, threshold: value < threshold,
    "<=": lambda value, threshold: value <= threshold,
}


@dataclass(frozen=True)
class AlertRule:
    """One declarative alert condition.

    ``signal`` is resolved to a float by the evaluating host each tick;
    the rule breaches when ``value <comparison> threshold`` and fires
    once it has breached continuously for ``for_seconds``.
    """

    name: str
    signal: str
    threshold: float
    for_seconds: float = DEFAULT_HOLD_SECONDS
    comparison: str = ">"
    severity: str = "page"
    description: str = ""

    def __post_init__(self):
        if self.comparison not in _COMPARATORS:
            raise ValueError(
                f"unknown comparison {self.comparison!r}; "
                f"expected one of {sorted(_COMPARATORS)}")

    def breached(self, value: float) -> bool:
        """Whether ``value`` violates this rule's condition."""
        return _COMPARATORS[self.comparison](value, self.threshold)

    def describe(self) -> dict:
        """JSON-ready rule definition."""
        return {
            "name": self.name,
            "signal": self.signal,
            "comparison": self.comparison,
            "threshold": self.threshold,
            "for_seconds": self.for_seconds,
            "severity": self.severity,
            "description": self.description,
        }


def default_alert_rules() -> tuple[AlertRule, ...]:
    """The stock rule set: fast-burn alerts for the three serving SLOs
    plus one for any drift key going critical.

    A burn rate of 10 over the 5-minute window spends ~1% of a 30-day
    error budget in half an hour — the classic fast-burn page.
    """
    return (
        AlertRule(
            name="availability-fast-burn",
            signal="slo_burn:availability:5m", threshold=10.0,
            for_seconds=60.0, severity="page",
            description="Availability SLO burning >=10x over 5m."),
        AlertRule(
            name="latency-fast-burn",
            signal="slo_burn:latency:5m", threshold=10.0,
            for_seconds=60.0, severity="page",
            description="Latency SLO burning >=10x over 5m."),
        AlertRule(
            name="qerror-fast-burn",
            signal="slo_burn:qerror:5m", threshold=10.0,
            for_seconds=60.0, severity="ticket",
            description="Accuracy (q-error) SLO burning >=10x over 5m."),
        AlertRule(
            name="drift-critical",
            signal="drift:critical", threshold=0.5,
            for_seconds=60.0, severity="page",
            description="At least one drift attribution key is "
                        "critical (sustained accuracy shift)."),
    )


class _RuleState:
    """Mutable evaluation state for one rule."""

    __slots__ = ("status", "since", "pending_since", "value",
                 "firing_count", "resolved_count")

    def __init__(self, now: float):
        self.status = "ok"
        self.since = now
        self.pending_since: float | None = None
        self.value: float | None = None
        self.firing_count = 0
        self.resolved_count = 0


class AlertEngine:
    """Evaluates :class:`AlertRule` conditions through a
    pending → firing → resolved state machine.

    ``clock`` defaults to ``time.monotonic`` and is injectable;
    ``exporter`` (anything with ``export(dict)``, e.g.
    :class:`~repro.obs.export.JsonlEventExporter`) receives one event
    per firing/resolved transition.  Evaluation is driven by the host —
    the serving layer runs a background ticker — so the engine itself
    owns no threads.
    """

    def __init__(self, rules=(), clock=None, exporter=None):
        self._clock = clock if clock is not None else time.monotonic
        self.exporter = exporter
        self._lock = threading.Lock()
        self._rules: dict[str, AlertRule] = {}
        self._states: dict[str, _RuleState] = {}
        for rule in rules:
            self.add_rule(rule)

    def now(self) -> float:
        """The engine's clock."""
        return self._clock()

    def add_rule(self, rule: AlertRule) -> None:
        """Register (or replace, by name) one rule."""
        with self._lock:
            fresh = rule.name not in self._rules
            self._rules[rule.name] = rule
            if fresh:
                self._states[rule.name] = _RuleState(self._clock())

    def rules(self) -> tuple[AlertRule, ...]:
        """Every registered rule, in registration order."""
        with self._lock:
            return tuple(self._rules.values())

    def evaluate(self, resolver) -> list[dict]:
        """Run one evaluation tick.

        ``resolver(signal_spec)`` must return the signal's current
        float value, or ``None`` when the signal is unavailable
        (treated as not breaching).  Returns the transition events this
        tick produced (each also handed to the exporter)."""
        events = []
        with self._lock:
            now = self._clock()
            for name, rule in self._rules.items():
                state = self._states[name]
                try:
                    value = resolver(rule.signal)
                except Exception:
                    value = None
                state.value = value
                breached = value is not None and rule.breached(value)
                if breached:
                    if state.pending_since is None:
                        state.pending_since = now
                    held = now - state.pending_since
                    if state.status != "firing" and \
                            held >= rule.for_seconds:
                        state.status = "firing"
                        state.since = now
                        state.firing_count += 1
                        events.append(self._event(rule, state, "firing",
                                                  now))
                    elif state.status == "ok":
                        state.status = "pending"
                        state.since = now
                else:
                    state.pending_since = None
                    if state.status == "firing":
                        state.resolved_count += 1
                        events.append(self._event(rule, state,
                                                  "resolved", now))
                    if state.status != "ok":
                        state.status = "ok"
                        state.since = now
        if self.exporter is not None:
            for event in events:
                try:
                    self.exporter.export(event)
                except Exception:
                    pass
        return events

    def _event(self, rule: AlertRule, state: _RuleState, kind: str,
               now: float) -> dict:
        return {
            "event": kind,
            "rule": rule.name,
            "severity": rule.severity,
            "signal": rule.signal,
            "value": state.value,
            "threshold": rule.threshold,
            "comparison": rule.comparison,
            "at": now,
            "description": rule.description,
        }

    def snapshot(self) -> dict:
        """JSON-ready engine state: every rule with its current status,
        last value, and transition counts (the ``GET /v1/alerts``
        body)."""
        with self._lock:
            now = self._clock()
            alerts = []
            for name, rule in self._rules.items():
                state = self._states[name]
                alerts.append({
                    **rule.describe(),
                    "state": state.status,
                    "since": state.since,
                    "age_seconds": now - state.since,
                    "value": state.value,
                    "firing_count": state.firing_count,
                    "resolved_count": state.resolved_count,
                })
            firing = sum(1 for a in alerts if a["state"] == "firing")
            return {"alerts": alerts, "firing": firing}

    def collect(self) -> list[tuple[str, str, str, list]]:
        """``repro_alert_*`` families for the metrics registry."""
        with self._lock:
            if not self._rules:
                return []
            state_samples, transition_samples = [], []
            for name, rule in self._rules.items():
                state = self._states[name]
                state_samples.append((
                    {"rule": name, "severity": rule.severity},
                    float(ALERT_STATES.index(state.status))))
                for kind, count in (("firing", state.firing_count),
                                    ("resolved", state.resolved_count)):
                    if count:
                        transition_samples.append((
                            {"rule": name, "event": kind}, float(count)))
            families = [(
                "gauge", "repro_alert_state",
                "Alert rule state (0 ok, 1 pending, 2 firing).",
                state_samples)]
            if transition_samples:
                families.append((
                    "counter", "repro_alert_transitions_total",
                    "Alert firing/resolved transitions per rule.",
                    transition_samples))
            return families
