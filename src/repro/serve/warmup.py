"""Workload recording and cache warming for the serving layer.

A serving process answers its fastest estimates from cache — but a freshly
started process has an empty cache and pays full inference for every early
request.  This module closes that gap:

- :class:`WorkloadRecorder` — the :class:`~repro.serve.service.
  EstimationService` logs every served estimation request to a JSONL
  *workload file* (one :class:`WorkloadEntry` per line);
- :func:`load_workload` — parse a recorded JSONL file (or a plain
  SQL-per-line file) back into entries;
- :func:`warm_service` — replay a workload against a freshly loaded
  artifact, pre-populating *both* cache levels (query fingerprints and the
  sub-plan table) before traffic is admitted;
- :func:`generated_workload` — synthesize a warming workload from a
  :mod:`repro.workloads` benchmark generator when no recording exists yet.

Exposed operationally as ``repro serve --warm <workload>`` (warm before
binding the port), ``repro serve --record <path>`` (record for next time),
and the ``POST /warmup`` HTTP endpoint (warm a live service).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.api import coerce_query

KIND_ESTIMATE = "estimate"
KIND_SUBPLANS = "subplans"
KINDS = (KIND_ESTIMATE, KIND_SUBPLANS)


@dataclass(frozen=True)
class WorkloadEntry:
    """One recorded estimation request.

    ``kind`` is ``"estimate"`` (plain) or ``"subplans"`` (optimizer-style
    sub-plan map, which warms every connected sub-plan of the query);
    ``model`` is the registry name the request targeted (None means the
    service default); ``min_tables`` only applies to sub-plan requests.
    """

    sql: str
    kind: str = KIND_ESTIMATE
    model: str | None = None
    min_tables: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown workload entry kind {self.kind!r}; "
                             f"choose from {KINDS}")

    def to_json(self) -> str:
        """One JSONL line (None fields omitted)."""
        payload = {k: v for k, v in asdict(self).items() if v is not None}
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "WorkloadEntry":
        """Parse one JSONL line back into an entry.

        Error messages never embed the line's content — workload files
        are read server-side (``POST /warmup {"path": ...}``), and a
        parse error must not become a file-content disclosure channel.
        """
        payload = json.loads(line)
        if (not isinstance(payload, dict)
                or not isinstance(payload.get("sql"), str)):
            raise ValueError("workload line must be a JSON object "
                             "with a string 'sql' field")
        kind = payload.get("kind", KIND_ESTIMATE)
        if kind not in KINDS:
            raise ValueError("workload entry has an unsupported 'kind'")
        model = payload.get("model")
        if model is not None and not isinstance(model, str):
            raise ValueError("workload entry 'model' must be a string")
        min_tables = payload.get("min_tables", 1)
        if not isinstance(min_tables, int) or isinstance(min_tables, bool):
            raise ValueError("workload entry 'min_tables' must be an "
                             "integer")
        return cls(sql=payload["sql"], kind=kind, model=model,
                   min_tables=min_tables)


class WorkloadRecorder:
    """Thread-safe append-only JSONL log of served requests.

    Each :meth:`record` appends and flushes one line, so a crash loses at
    most the in-flight entry and a concurrent reader (warming another
    process) always sees whole lines.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._file = open(self.path, "a", encoding="utf-8")
        self.recorded = 0

    def record(self, entry: WorkloadEntry) -> None:
        """Append one entry (no-op after :meth:`close`)."""
        with self._lock:
            if self._file.closed:
                return
            self._file.write(entry.to_json() + "\n")
            self._file.flush()
            self.recorded += 1

    def close(self) -> None:
        """Close the log file; later :meth:`record` calls are no-ops."""
        with self._lock:
            if not self._file.closed:
                self._file.close()


def load_workload(path) -> list[WorkloadEntry]:
    """Parse a workload file into entries.

    Accepts the recorder's JSONL format and, for hand-written files, plain
    SQL (one query per line; each line must parse as a supported query).
    Blank lines and ``#`` comments are skipped.

    Errors name only the file and line *number*, never the line content:
    this function runs against server-local paths (``POST /warmup``), and
    echoing unparseable lines back to a client would turn a typo'd path
    into an arbitrary-file-content disclosure.
    """
    entries = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("{"):
            try:
                entries.append(WorkloadEntry.from_json(line))
            except (ValueError, KeyError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: bad workload line: {exc}") from exc
        else:
            try:
                coerce_query(line)
            except Exception:
                raise ValueError(
                    f"{path}:{lineno}: not a supported workload query"
                    ) from None
            entries.append(WorkloadEntry(sql=line))
    return entries


def generated_workload(benchmark: str = "stats", scale: float = 0.1,
                       seed: int = 0, n_queries: int | None = None,
                       max_tables: int | None = None,
                       subplans: bool = True) -> list[WorkloadEntry]:
    """A warming workload from a :mod:`repro.workloads` generator.

    Multi-table queries become sub-plan requests when ``subplans`` is set
    (each one warms every connected sub-plan, so the sub-plan table covers
    far more than the queries themselves).
    """
    from repro.eval.harness import make_context

    context = make_context(benchmark, scale=scale, seed=seed,
                           n_queries=n_queries, max_tables=max_tables)
    entries = []
    for query in context.workload:
        kind = (KIND_SUBPLANS if subplans and query.num_tables() > 1
                else KIND_ESTIMATE)
        entries.append(WorkloadEntry(sql=query.to_sql(), kind=kind))
    return entries


def warm_service(service, entries: list[WorkloadEntry],
                 model: str | None = None, subplans: bool | None = None,
                 max_errors: int = 8) -> dict:
    """Replay ``entries`` through ``service``, populating both cache levels.

    Parameters
    ----------
    service:
        The :class:`~repro.serve.service.EstimationService` to warm.
    model:
        Registry name to warm against; overridden per entry when the entry
        recorded one.
    subplans:
        None replays each entry as recorded; True promotes *multi-table*
        plain estimates to sub-plan requests (denser warming — a
        single-table query's sub-plan map is just itself); False demotes
        everything to plain estimates.
    max_errors:
        Individual replay failures (e.g. a recorded query the current
        model's schema no longer supports) are collected, not raised — a
        stale workload line must not abort the warmup — but more than
        ``max_errors`` failures aborts, since that means the workload does
        not match the served model at all.

    Returns a JSON-ready summary: entries replayed, per-kind counts, both
    cache levels' sizes for the warmed models, elapsed seconds, and the
    (truncated) error list.

    Recording is suspended for the duration, so warming a service that is
    itself recording does not copy the old workload into the new log.
    """
    start = time.perf_counter()
    warmed = {KIND_ESTIMATE: 0, KIND_SUBPLANS: 0}
    errors: list[str] = []
    touched: set[str] = set()
    with service.recording_suspended():
        for entry in entries:
            target = entry.model or model
            try:
                kind = entry.kind
                if subplans is False:
                    kind = KIND_ESTIMATE
                elif subplans and kind == KIND_ESTIMATE and (
                        coerce_query(entry.sql).num_tables() > 1):
                    # a single-table query's sub-plan map is just itself;
                    # only multi-table estimates warm denser as sub-plans
                    kind = KIND_SUBPLANS
                if kind == KIND_SUBPLANS:
                    service.estimate_subplans(entry.sql, model=target,
                                              min_tables=entry.min_tables)
                else:
                    service.estimate(entry.sql, model=target)
                warmed[kind] += 1
                touched.add(target or "")
            except Exception as exc:  # noqa: BLE001 - summarized for caller
                errors.append(f"{entry.sql[:80]}: {exc}")
                if len(errors) > max_errors:
                    raise ValueError(
                        f"warmup aborted after {len(errors)} failures "
                        f"(workload does not match the served model?); "
                        f"first: {errors[0]}") from exc
    caches = {}
    for name in sorted(n for n in touched):
        stats = service._cache_of(name or service._default_name()).stats()
        caches[name or service._default_name()] = {
            "size": stats["size"], "subplan_size": stats["subplan_size"]}
    return {
        "entries": len(entries),
        "warmed_estimates": warmed[KIND_ESTIMATE],
        "warmed_subplan_maps": warmed[KIND_SUBPLANS],
        "caches": caches,
        "errors": errors,
        "seconds": time.perf_counter() - start,
    }
