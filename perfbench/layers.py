"""Per-layer tracing for the benchmark's traced run (``--trace 1``).

Spans are recorded from the benchmark's own files: :class:`LayerTracer`
replaces public functions and methods of the program's modules with
timing wrappers while it is active and restores the originals when it
is not.  A module-level function is replaced at *every* import site (any
loaded ``repro`` module attribute bound to the same function object), so
``combine`` imported by name into ``repro.core.inference`` and
``optimize`` imported into ``repro.plan.planner`` are both seen.

Each benchmark operation opens a root span (``op.read``, ``op.write`` or
``op.check``) on the driving thread.  A span opened on another thread
with nothing open on that thread (the HTTP server's handler thread, the
cluster pool's fan-out threads) takes the driving thread's innermost
open span as its parent, so work done on behalf of a request nests
under it.  A span's self time is its duration minus the union of the
intervals its child spans cover (parallel children are not counted
twice).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


class Span:
    __slots__ = ("name", "parent", "start", "end", "outcome", "root",
                 "children")

    def __init__(self, name: str, parent: "Span | None", start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.outcome = None
        self.root = parent.root if parent is not None else self
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the union of the child spans' intervals."""
        covered = 0.0
        cursor = self.start
        for child in sorted(self.children, key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return self.duration - covered


class SpanRecorder:
    """Keeps every finished span in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._owner = threading.get_ident()
        self._owner_stack: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._owner_stack[-1]
            except IndexError:
                parent = None
        span = Span(name, parent, time.perf_counter())
        stack.append(span)
        return span

    def finish(self, span: Span, outcome=None) -> None:
        span.end = time.perf_counter()
        span.outcome = outcome
        self._stack().pop()
        with self._lock:
            if span.parent is not None:
                span.parent.children.append(span)
            self.spans.append(span)

    @contextmanager
    def root(self, kind: str):
        """One benchmark operation's root span, as a context."""
        span = self.start(f"op.{kind}")
        try:
            yield span
        finally:
            self.finish(span)

    def roots(self, kind: str) -> list[Span]:
        name = f"op.{kind}"
        return [s for s in self.spans if s.name == name]


@dataclass(frozen=True)
class Target:
    """One public callable to time: ``owner.attr`` on a class, or the
    function ``attr`` of module ``owner`` (a dotted name) at every import
    site.  ``outcome`` maps the return value to a label kept on the span
    (for example, whether a cache lookup hit)."""

    span: str
    owner: object
    attr: str
    outcome: Callable | None = None


def default_targets() -> list[Target]:
    """The layer boundaries the traced run times, named by module."""
    import repro.api  # noqa: F401 (every import site must be loaded)
    import repro.core.inference  # noqa: F401
    import repro.optimizer.endtoend  # noqa: F401
    import repro.plan.harness  # noqa: F401
    import repro.serve.warmup  # noqa: F401
    from repro.cluster.model import ClusterModel
    from repro.cluster.pool import WorkerPool
    from repro.core.estimator import FactorJoin
    from repro.serve.cache import EstimateCache
    from repro.serve.service import EstimationService

    def hit(result) -> bool:
        return result is not None

    targets = [
        Target("sql.parse", "repro.sql.parser", "parse_query"),
        Target("cache.get", EstimateCache, "get", hit),
        Target("cache.get_subplan", EstimateCache, "get_subplan", hit),
        Target("cache.lookup_subplans", EstimateCache, "lookup_subplans",
               hit),
        Target("cache.invalidate", EstimateCache, "invalidate"),
        Target("service.serve_estimate", EstimationService,
               "serve_estimate"),
        Target("service.serve_plan", EstimationService, "serve_plan"),
        Target("service.serve_update", EstimationService, "serve_update"),
        Target("core.estimate", FactorJoin, "estimate"),
        Target("core.estimate_subplans", FactorJoin, "estimate_subplans"),
        Target("core.base_factor", FactorJoin, "base_factor"),
        Target("core.update", FactorJoin, "update"),
        Target("core.combine", "repro.core.factors", "combine"),
        Target("plan.plan_query", "repro.plan.planner", "plan_query"),
        Target("optimizer.optimize", "repro.optimizer.dp", "optimize"),
        Target("cluster.call", WorkerPool, "call"),
    ]
    # the cluster model's driver-side work (probe batching and merging)
    # is its own span, so it does not count as service self time
    for attr in ("estimate", "estimate_subplans", "update"):
        targets.append(Target(f"cluster.model.{attr}", ClusterModel, attr))
    for cls in _table_estimator_classes():
        for attr in ("estimate_row_count", "key_distribution"):
            if attr in vars(cls):
                targets.append(Target(f"estimators.{attr}", cls, attr))
    return targets


def _table_estimator_classes() -> list[type]:
    """Every loaded table-estimator class that defines its own probe
    methods (the per-table estimators, the ensemble facade and the
    cluster facade)."""
    import repro.cluster.model  # noqa: F401 (loads the cluster facade)
    import repro.estimators  # noqa: F401 (loads every registered estimator)
    import repro.shard.ensemble  # noqa: F401 (loads the ensemble facade)

    found = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro.") or module is None:
            continue
        for value in vars(module).values():
            if (inspect.isclass(value) and value.__module__ == name
                    and ("estimate_row_count" in vars(value)
                         or "key_distribution" in vars(value))):
                found.append(value)
    return sorted(set(found), key=lambda c: (c.__module__, c.__qualname__))


def _wrap(recorder: SpanRecorder, target: Target, fn):
    name, outcome = target.span, target.outcome

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.start(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            recorder.finish(span, outcome(result)
                            if outcome is not None else None)

    return wrapper


def _module_sites(module_name: str, attr: str) -> list[tuple[object, str]]:
    """Every (module, name) binding of the function ``module.attr``
    among the loaded ``repro`` and ``perfbench`` modules."""
    original = getattr(sys.modules[module_name], attr)
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] not in ("repro",
                                                        "perfbench"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                sites.append((module, key))
    return sites


class LayerTracer:
    """Installs and removes the timing wrappers of
    :func:`default_targets`, recording into ``recorder``."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._sites: list[tuple[object, str, object, object]] = []
        for target in default_targets():
            if isinstance(target.owner, str):
                fn = getattr(importlib.import_module(target.owner),
                             target.attr)
                wrapper = _wrap(recorder, target, fn)
                for holder, key in _module_sites(target.owner, target.attr):
                    self._sites.append((holder, key, fn, wrapper))
            else:
                fn = vars(target.owner)[target.attr]
                if not inspect.isfunction(fn):
                    raise TypeError(f"{target.owner.__qualname__}."
                                    f"{target.attr} is not a plain method")
                self._sites.append((target.owner, target.attr, fn,
                                    _wrap(recorder, target, fn)))

    def install(self) -> None:
        for holder, key, _, wrapper in self._sites:
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original, _ in self._sites:
            setattr(holder, key, original)


# -- per-layer metrics ---------------------------------------------------------


def _outermost(spans: list[Span], prefix: str) -> list[Span]:
    """Spans named under ``prefix`` with no ancestor under it (an
    estimator facade delegating to another estimator counts once)."""
    out = []
    for span in spans:
        if not span.name.startswith(prefix):
            continue
        parent = span.parent
        while parent is not None and not parent.name.startswith(prefix):
            parent = parent.parent
        if parent is None:
            out.append(span)
    return out


def _under(spans: list[Span], kind: str) -> list[Span]:
    root = f"op.{kind}"
    return [s for s in spans if s.root.name == root and s.name != root]


def _named(spans: list[Span], *names: str) -> list[Span]:
    return [s for s in spans if s.name in names]


def _ms_per(spans: list[Span], count: int, self_time: bool = False) -> float:
    if count == 0:
        return 0.0
    total = sum(s.self_time() if self_time else s.duration for s in spans)
    return total * 1e3 / count


def _ratio(spans: list[Span]) -> float:
    return (sum(1 for s in spans if s.outcome) / len(spans)) if spans else 0.0


#: (metric, unit) for every per-layer metric, in report order.
LAYER_METRICS = (
    ("sql.parse_calls", "count"),
    ("sql.parse_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.subplan_hit_ratio", "ratio"),
    ("cache.invalidations", "count"),
    ("service.self_ms", "ms"),
    ("service.write_self_ms", "ms"),
    ("httpd.overhead_ms", "ms"),
    ("core.estimate_ms", "ms"),
    ("core.base_factor_calls", "count"),
    ("core.base_factor_ms", "ms"),
    ("core.combine_calls", "count"),
    ("core.combine_ms", "ms"),
    ("core.subplans_ms", "ms"),
    ("core.update_ms", "ms"),
    ("estimators.probe_calls", "count"),
    ("estimators.probe_ms", "ms"),
    ("plan.plan_query_ms", "ms"),
    ("optimizer.dp_calls", "count"),
    ("optimizer.dp_ms", "ms"),
    ("cluster.read_rpcs", "count"),
    ("cluster.write_rpcs", "count"),
    ("cluster.rpc_ms", "ms"),
    ("cluster.restarts", "count"),
    ("obs.overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.reads", "count"),
    ("trace.writes", "count"),
)

SERVE_READ = ("service.serve_estimate", "service.serve_plan")


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer numbers from the recorded spans.

    Counts are totals over the traced operations; ``_ms`` figures are
    milliseconds per traced read (``service.write_self_ms`` and
    ``core.update_ms``: per traced write), so they add up along a read's
    blocking path.  ``plan.plan_query_ms`` is the mean time of one
    ``plan_query`` call, measured in the bit-identity checks (the served
    plan path inlines its own DP call).  The cluster restarts and the
    two overhead percentages are filled in by the workload.
    """
    spans = recorder.spans
    reads = recorder.roots("read")
    writes = recorder.roots("write")
    n_reads, n_writes = len(reads), len(writes)
    in_reads = _under(spans, "read")
    in_writes = _under(spans, "write")

    parse = _named(in_reads, "sql.parse")
    gets = _named(in_reads, "cache.get")
    subplan_gets = _named(in_reads, "cache.get_subplan",
                          "cache.lookup_subplans")
    serve_reads = _named(in_reads, *SERVE_READ)
    serve_writes = _named(in_writes, "service.serve_update")
    base = _outermost(_named(in_reads, "core.base_factor"), "core.base_factor")
    combine = _named(in_reads, "core.combine")
    probes = _outermost(in_reads, "estimators.")
    dp = _named(in_reads, "optimizer.optimize")
    plan_calls = [s for s in spans if s.name == "plan.plan_query"]
    served_by_root = {}
    for span in serve_reads:
        served_by_root.setdefault(id(span.root), 0.0)
        served_by_root[id(span.root)] += span.duration
    front = sum(root.duration - served_by_root.get(id(root), 0.0)
                for root in reads)
    return {
        "sql.parse_calls": len(parse),
        "sql.parse_ms": _ms_per(parse, n_reads),
        "cache.hit_ratio": _ratio(gets),
        "cache.subplan_hit_ratio": _ratio(subplan_gets),
        "cache.invalidations": len(_named(spans, "cache.invalidate")),
        "service.self_ms": _ms_per(serve_reads, n_reads, self_time=True),
        "service.write_self_ms": _ms_per(serve_writes, n_writes,
                                         self_time=True),
        "httpd.overhead_ms": front * 1e3 / n_reads if n_reads else 0.0,
        "core.estimate_ms": _ms_per(_named(in_reads, "core.estimate"),
                                    n_reads),
        "core.base_factor_calls": len(base),
        "core.base_factor_ms": _ms_per(base, n_reads),
        "core.combine_calls": len(combine),
        "core.combine_ms": _ms_per(combine, n_reads),
        "core.subplans_ms": _ms_per(
            _named(in_reads, "core.estimate_subplans"), n_reads),
        "core.update_ms": _ms_per(
            _outermost(_named(in_writes, "core.update"), "core.update"),
            n_writes),
        "estimators.probe_calls": len(probes),
        "estimators.probe_ms": _ms_per(probes, n_reads),
        "plan.plan_query_ms": _ms_per(plan_calls, len(plan_calls)),
        "optimizer.dp_calls": len(dp),
        "optimizer.dp_ms": _ms_per(dp, n_reads),
        "cluster.read_rpcs": len(_named(in_reads, "cluster.call")),
        "cluster.write_rpcs": len(_named(in_writes, "cluster.call")),
        "cluster.rpc_ms": _ms_per(_named(in_reads, "cluster.call"),
                                  n_reads),
        "trace.reads": n_reads,
        "trace.writes": n_writes,
    }


def span_counts(recorder: SpanRecorder) -> dict[str, int]:
    """Calls recorded per span name, over every root."""
    counts: dict[str, int] = {}
    for span in recorder.spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    return counts
