"""Typed messages of the cluster RPC plane.

Every exchange between the driver and a shard worker process is one of
the frozen dataclasses below, wrapped in a :class:`Request` /
:class:`Reply` envelope and shipped over a stdlib
:mod:`multiprocessing` pipe.  The payloads deliberately reuse the
library's own value types — :class:`~repro.sql.predicates.Predicate`
filters, :class:`~repro.data.table.Table` mutation batches,
:class:`~repro.shard.ensemble.ShardStats` statistics — so the worker
executes exactly the code the in-process ensemble would, on exactly the
same inputs; bit-identical serving falls out of that.

Shard state on a worker is addressed by **token**: an opaque,
driver-issued id naming one immutable shard-model version.  Every probe
carries its token, so an estimate pinned to an old ensemble state keeps
reading the statistics that state was published with, even while an
update or hot-swap registers newer tokens — the cross-process analogue
of the ensemble's atomic state swap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import WorkerError


class UnknownTokenError(WorkerError):
    """A worker was asked about a shard-state token it does not hold
    (usually: the worker restarted and lost its in-memory versions).
    The driver reseeds the worker and answers the request locally."""


# ------------------------------------------------------------- envelope --


@dataclass(frozen=True)
class Request:
    """One framed request: a monotone per-connection id plus the typed
    message.  Replies echo the id, so a late reply to a timed-out
    request is recognized and dropped instead of answering the next one.

    ``trace`` optionally carries the driver's trace context — the
    ``(trace_id, span_id)`` pair of :func:`repro.obs.trace.wire_context`
    — so the worker can time its handling as a span nested under the
    exact driver span that issued the RPC.  ``None`` (the default, and
    what untraced requests send) keeps the worker's trace path entirely
    skipped.
    """

    id: int
    message: object
    trace: tuple | None = None


@dataclass(frozen=True)
class Reply:
    """One framed reply; ``error`` carries the worker-side exception
    (pickled whole when possible, re-raised verbatim in the driver).

    ``spans`` carries worker-recorded span dicts
    (:func:`repro.obs.trace.remote_span`) back to the driver, which
    grafts them into the live trace — on error replies too, so a failed
    RPC still shows up timed in the request's trace.
    """

    id: int
    ok: bool
    value: object = None
    error: BaseException | None = None
    spans: tuple = ()


# ------------------------------------------------------------- lifecycle --


@dataclass(frozen=True)
class Ping:
    """Health-check: answered with a :class:`WorkerInfo`."""


@dataclass(frozen=True)
class Shutdown:
    """Orderly exit: the worker acknowledges, then leaves its loop."""


@dataclass(frozen=True)
class WorkerInfo:
    """A worker's self-report (the :class:`Ping` answer)."""

    pid: int
    tokens: tuple[str, ...] = ()
    materialized: tuple[str, ...] = ()
    probes: int = 0
    updates: int = 0
    fits: int = 0

    def describe(self) -> dict:
        """JSON-ready view (surfaced by the pool's health checks)."""
        return {
            "pid": self.pid,
            "tokens": list(self.tokens),
            "materialized": list(self.materialized),
            "probes": self.probes,
            "updates": self.updates,
            "fits": self.fits,
        }


# ----------------------------------------------------------- shard state --


@dataclass(frozen=True)
class LoadShard:
    """Register ``token`` as the shard sub-artifact at ``path``.

    Loading is lazy: the worker records the path and deserializes
    (checksum-verified, via the ordinary artifact loader) the first time
    a probe needs the model — mirroring the lazy ``ShardSet`` slots of
    an in-process ensemble.
    """

    token: str
    path: str
    shard_index: int


@dataclass(frozen=True)
class ReleaseTokens:
    """Drop shard-state versions no ensemble state references anymore."""

    tokens: tuple[str, ...]


@dataclass(frozen=True)
class CloneUpdate:
    """Copy-on-write update: clone ``base_token``'s model, apply one
    insert/delete batch, register the result as ``token``.

    The base version survives untouched — estimates pinned to it keep
    their statistics — exactly like ``clone_for_update`` in the
    in-process ensemble.  Validation failures leave the worker holding
    only the base.
    """

    base_token: str
    token: str
    table: str
    rows: object | None = None
    deleted_rows: object | None = None


# ---------------------------------------------------------------- probes --


@dataclass(frozen=True)
class ProbeItem:
    """One shard probe: the filtered row count and/or binned key
    distributions a base factor needs from this shard."""

    token: str
    table: str
    pred: object
    columns: tuple[str, ...] = ()
    want_total: bool = True


@dataclass(frozen=True)
class BatchProbe:
    """A batch of probes answered in one round trip.

    The driver ships one batch per worker per query — the per-query key
    groups travel once, and session probes are then answered from the
    primed driver-side factors without further RPC.
    """

    items: tuple[ProbeItem, ...]


class ProbeResult(NamedTuple):
    """One :class:`ProbeItem` answer: the ``(total, dists)`` pair of
    :func:`~repro.shard.ensemble.probe_shard`, named for the wire."""

    total: float | None
    dists: dict


# ------------------------------------------------------------ statistics --


@dataclass(frozen=True)
class ShardStatsRequest:
    """Fetch one version's mergeable statistics
    (:class:`~repro.shard.ensemble.ShardStats`) — what a per-shard
    hot-swap subtracts/adds from the driver's merged state."""

    token: str


@dataclass(frozen=True)
class FingerprintRequest:
    """Content hash of one version's statistics (cache snapshots)."""

    token: str


@dataclass(frozen=True)
class ModelSizeRequest:
    """Pickled size of one version's online statistics."""

    token: str


# ------------------------------------------------------------ compaction --


@dataclass(frozen=True)
class CompactToken:
    """Ledger compaction: re-save ``token``'s *current* model as a fresh
    shard sub-artifact, worker-side.

    A long-lived shard accumulates an update journal in its driver-side
    ledger; every crash reseed replays the whole journal.  Compaction
    asks the worker holding the state to persist it — to ``save_dir``
    (a driver-chosen directory; same host or shared filesystem), or,
    when ``save_dir`` is ``None``, into the worker's own artifact store
    as a content-addressed entry.  The driver then resets the token's
    ledger to the fresh artifact with an empty journal, so the next
    reseed is a single ``LoadShard``.
    """

    token: str
    save_dir: str | None = None
    summary: object | None = None
    name: str = ""
    compress: bool = False


@dataclass(frozen=True)
class CompactResult:
    """A compaction's outcome: where the fresh sub-artifact lives (a
    directory path, or a ``cas://`` reference when the worker published
    into its store) plus the manifest entry."""

    path: str
    sha256: str
    model_bytes: int


# --------------------------------------------------------- observability --


@dataclass(frozen=True)
class CollectMetrics:
    """Scrape the worker's own metrics registry.

    Answered with a :class:`MetricsSnapshot` whose payload is the
    picklable dict of :func:`repro.obs.federate.snapshot_registry`; the
    driver merges it into the federated ``/metrics`` view under
    ``worker=``/``shard_group=`` labels.  Handling this message is
    deliberately excluded from the worker's own handler timing, so the
    snapshot a scrape returns is bit-identical to the worker registry's
    state at that moment.
    """


@dataclass(frozen=True)
class MetricsSnapshot:
    """A worker's frozen registry (the :class:`CollectMetrics` answer)."""

    pid: int
    snapshot: dict


@dataclass(frozen=True)
class RecordFeedback:
    """Absorb one accuracy-feedback sample into the worker's own
    :class:`~repro.obs.drift.DriftMonitor`.

    ``sample`` is a picklable :class:`~repro.obs.drift.DriftSample`
    already stamped by the driver's clock (bucketing follows the
    stamp, so forwarding never shifts a sample between windows);
    ``scopes`` restricts attribution — the driver keeps the
    model/table/template scopes itself and forwards only the shard
    scope, so every attribution key is fed from exactly one process and
    the federated merge is lossless.
    """

    sample: object
    scopes: tuple = ("shard",)


@dataclass(frozen=True)
class CollectDrift:
    """Scrape the worker's own drift-monitor state.

    Answered with a :class:`DriftSnapshot`; the driver merges worker
    snapshots through :func:`repro.obs.drift.merge_drift_snapshot` into
    the one ``/v1/drift`` view.  Untimed for the same reason as
    :class:`CollectMetrics`: the shipped snapshot must match the
    monitor bit-for-bit at scrape time.
    """


@dataclass(frozen=True)
class DriftSnapshot:
    """A worker's frozen drift-monitor state (the :class:`CollectDrift`
    answer)."""

    pid: int
    snapshot: dict


@dataclass(frozen=True)
class Profile:
    """Sample the worker process's stacks for ``seconds`` at ``hz``
    (clamped worker-side; see :mod:`repro.obs.profile`).  The worker's
    request loop blocks for the duration — callers must use a timeout
    comfortably above ``seconds``."""

    seconds: float = 1.0
    hz: float = 99.0


@dataclass(frozen=True)
class ProfileResult:
    """A remote profiling run: sample count plus collapsed-stack text
    ready for flamegraph tooling."""

    pid: int
    seconds: float
    hz: float
    samples: int
    collapsed: str


# ----------------------------------------------------------------- fit --


@dataclass(frozen=True)
class FitShardRequest:
    """Distributed fit: fit one shard under the shared global binning
    and save the sub-artifact worker-side.

    Ships ``(config, shard_db, binnings)`` — the exact arguments of the
    pure :func:`~repro.shard.ensemble.fit_shard` — and returns a
    :class:`FitShardResult` of statistics only, so the driver assembles
    the ensemble without ever materializing a shard model.
    """

    config: object
    database: object
    binnings: dict
    save_dir: str
    name: str
    compress: bool = False


@dataclass(frozen=True)
class FitShardResult:
    """What a fit worker ships back: mergeable statistics, the shard's
    pruning summary, timing, and the saved sub-artifact's manifest
    entry."""

    stats: object
    summary: object
    fit_seconds: float
    entry: dict
