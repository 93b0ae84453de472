"""The shard worker: one process hosting shard-model versions.

A worker owns the shards the pool assigned to it (shard *i* belongs to
worker ``i % n_workers``) and holds their models in a token-addressed
version map.  It answers the typed messages of
:mod:`repro.cluster.messages` in a single-threaded loop — the driver
serializes requests per worker, so the worker needs no locks — and runs
*exactly* the code an in-process ensemble runs: artifact loading through
the checksum-verified loader, probes through the shard model's fitted
table estimators, updates through ``clone_for_update``.  Whatever a
worker answers, the in-process path would have answered bit-identically.

``ShardWorker`` is deliberately runnable without a process around it:
the pool's inline fallback (for environments that cannot fork) and unit
tests drive the same handler table directly.
"""

from __future__ import annotations

import os
import pickle
import time

from repro.cluster.messages import (
    BatchProbe,
    CloneUpdate,
    CollectDrift,
    CollectMetrics,
    CompactResult,
    CompactToken,
    DriftSnapshot,
    FingerprintRequest,
    FitShardRequest,
    FitShardResult,
    LoadShard,
    MetricsSnapshot,
    ModelSizeRequest,
    Ping,
    ProbeItem,
    ProbeResult,
    Profile,
    ProfileResult,
    RecordFeedback,
    ReleaseTokens,
    Reply,
    Request,
    ShardStatsRequest,
    Shutdown,
    UnknownTokenError,
    WorkerInfo,
)
from repro.errors import ReproError
from repro.obs.drift import DriftMonitor
from repro.obs.metrics import MetricsRegistry
from repro.shard.ensemble import updated_clone


def probe_model(model, item: ProbeItem) -> ProbeResult:
    """Answer one probe against a shard model.

    The single definition of a probe's computation: the worker handler
    and the driver's in-process crash retry both call this, so the
    "retried requests answer bit-identically" guarantee is structural,
    not a convention two copies must keep honoring.
    """
    estimator = model.table_estimator(item.table)
    total = (float(estimator.estimate_row_count(item.pred))
             if item.want_total else None)
    dists = {column: estimator.key_distribution(column, item.pred)
             for column in item.columns}
    return ProbeResult(total=total, dists=dists)


def fit_and_save(request: FitShardRequest) -> FitShardResult:
    """Fit one shard and save its sub-artifact (the single definition
    the fit worker and the driver's crash fallback share)."""
    from repro.shard.artifact import save_shard_artifact
    from repro.shard.ensemble import fit_shard, shard_stats_of

    fit = fit_shard(request.config, request.database, request.binnings)
    entry = save_shard_artifact(fit.model, request.save_dir,
                                summary=fit.summary, name=request.name,
                                compress=request.compress)
    return FitShardResult(
        stats=shard_stats_of(fit.model, request.database.schema),
        summary=fit.summary, fit_seconds=fit.fit_seconds, entry=entry)


class _Slot:
    """One registered shard-state version: a lazy artifact path, a
    materialized model, or both (path kept for introspection)."""

    __slots__ = ("path", "shard_index", "model")

    def __init__(self, path=None, shard_index=-1, model=None):
        self.path = path
        self.shard_index = shard_index
        self.model = model


class ShardWorker:
    """Handler table for every cluster message (see module docstring).

    ``store`` optionally attaches an artifact store
    (:class:`~repro.serve.artifact.LocalArtifactStore` or compatible):
    with one, ``cas://<digest>`` shard paths resolve through the store —
    the multi-host mode, where a worker cannot see the driver's local
    paths — and compaction can publish fresh sub-artifacts back into it.

    Each worker runs its own :class:`~repro.obs.metrics.MetricsRegistry`
    (pass ``metrics=NULL_METRICS`` to disable): handler dispatch,
    artifact resolve/load, and the probe/update/compact paths are timed
    worker-side, and a ``CollectMetrics`` scrape ships the registry to
    the driver for federation.  Scrape and profile handling itself is
    excluded from handler timing, so the shipped snapshot matches the
    registry bit-for-bit at scrape time.
    """

    def __init__(self, store=None, metrics=None):
        self._slots: dict[str, _Slot] = {}
        self.store = store
        self.probes = 0
        self.updates = 0
        self.fits = 0
        self.metrics = MetricsRegistry() if metrics is None else metrics
        # shard-scope drift attribution for locally-owned shards; only
        # the driver's RecordFeedback feeds it (and CollectDrift scrapes
        # it), so the driver's telemetry switch decides whether it fills
        self.drift = DriftMonitor()
        self._handler_seconds = self.metrics.histogram(
            "repro_worker_handler_seconds",
            "Wall time handling each RPC message type, worker-side")
        self._artifact_seconds = self.metrics.histogram(
            "repro_worker_artifact_seconds",
            "Artifact latency worker-side: cas:// store resolve and "
            "shard-artifact load")
        self._probes_total = self.metrics.counter(
            "repro_worker_probes_total",
            "Shard probes answered by this worker")
        self._updates_total = self.metrics.counter(
            "repro_worker_updates_total",
            "Copy-on-write shard updates applied by this worker")
        self._compactions_total = self.metrics.counter(
            "repro_worker_compactions_total",
            "Shard compactions persisted by this worker")

    # -- state ----------------------------------------------------------------

    def _resolve_path(self, path: str):
        from repro.serve.artifact import is_store_ref

        if not is_store_ref(path):
            return path
        if self.store is None:
            raise ReproError(
                f"worker pid {os.getpid()} was asked to load {path} but "
                f"has no artifact store attached (start it with "
                f"--store DIR, or pass store= to the pool)")
        t0 = time.perf_counter()
        resolved = self.store.resolve(path)
        self._artifact_seconds.observe(time.perf_counter() - t0,
                                       op="resolve")
        return resolved

    def _model(self, token: str):
        slot = self._slots.get(token)
        if slot is None:
            raise UnknownTokenError(
                f"worker pid {os.getpid()} holds no shard state "
                f"{token!r} (restarted and not reseeded yet?)")
        if slot.model is None:
            from repro.shard.artifact import load_shard_artifact

            path = self._resolve_path(slot.path)
            t0 = time.perf_counter()
            slot.model, _ = load_shard_artifact(path)
            self._artifact_seconds.observe(time.perf_counter() - t0,
                                           op="load")
        return slot.model

    # -- handlers -------------------------------------------------------------

    #: Message types whose handling is not timed into the worker's own
    #: histograms: a metrics scrape must return the registry exactly as
    #: it stood (its own timing would land just after the snapshot and
    #: break bit-identity with the federated view), and a profile run
    #: blocks for seconds by design.
    _UNTIMED = (CollectMetrics, CollectDrift, Profile)

    def handle(self, message):
        """Dispatch one message; returns the reply value or raises."""
        handler = self._HANDLERS.get(type(message))
        if handler is None:
            raise ReproError(
                f"worker cannot handle message {type(message).__name__}")
        if not self.metrics.enabled or isinstance(message, self._UNTIMED):
            return handler(self, message)
        t0 = time.perf_counter()
        try:
            return handler(self, message)
        finally:
            self._handler_seconds.observe(
                time.perf_counter() - t0,
                message=type(message).__name__)

    def _ping(self, message: Ping) -> WorkerInfo:
        return WorkerInfo(
            pid=os.getpid(),
            tokens=tuple(sorted(self._slots)),
            materialized=tuple(sorted(
                token for token, slot in self._slots.items()
                if slot.model is not None)),
            probes=self.probes,
            updates=self.updates,
            fits=self.fits,
        )

    def _load(self, message: LoadShard) -> bool:
        self._slots[message.token] = _Slot(path=message.path,
                                           shard_index=message.shard_index)
        return True

    def _release(self, message: ReleaseTokens) -> int:
        dropped = 0
        for token in message.tokens:
            if self._slots.pop(token, None) is not None:
                dropped += 1
        return dropped

    def _clone_update(self, message: CloneUpdate) -> bool:
        base = self._slots.get(message.base_token)
        if base is None:
            raise UnknownTokenError(
                f"worker pid {os.getpid()} holds no shard state "
                f"{message.base_token!r} to clone")
        # FactorJoin.update validates before mutating (and mutates only
        # the table-scoped clone), so a failed batch leaves this worker
        # holding exactly the versions it held before
        clone = updated_clone(self._model(message.base_token),
                              message.table, message.rows,
                              message.deleted_rows)
        self._slots[message.token] = _Slot(shard_index=base.shard_index,
                                           model=clone)
        self.updates += 1
        self._updates_total.inc()
        return True

    def _probe_one(self, item: ProbeItem) -> ProbeResult:
        result = probe_model(self._model(item.token), item)
        self.probes += 1
        self._probes_total.inc()
        return result

    def _batch_probe(self, message: BatchProbe) -> tuple:
        return tuple(self._probe_one(item) for item in message.items)

    def _shard_stats(self, message: ShardStatsRequest):
        from repro.shard.ensemble import shard_stats_of

        model = self._model(message.token)
        return shard_stats_of(model, model.database.schema)

    def _fingerprint(self, message: FingerprintRequest) -> str:
        return self._model(message.token).fingerprint()

    def _model_size(self, message: ModelSizeRequest) -> int:
        return int(self._model(message.token).model_size_bytes())

    def _fit_shard(self, message: FitShardRequest) -> FitShardResult:
        result = fit_and_save(message)
        self.fits += 1
        return result

    def _compact(self, message: CompactToken) -> CompactResult:
        import tempfile

        from repro.shard.artifact import save_shard_artifact

        model = self._model(message.token)
        if message.save_dir is not None:
            dest = message.save_dir
            entry = save_shard_artifact(
                model, dest, summary=message.summary,
                name=message.name or None, compress=message.compress)
            path = str(dest)
        else:
            if self.store is None:
                raise ReproError(
                    f"worker pid {os.getpid()} cannot compact "
                    f"{message.token!r} into a store: none attached "
                    f"(pass save_dir, or start the worker with --store)")
            with tempfile.TemporaryDirectory(
                    prefix="repro-compact-") as staging:
                entry = save_shard_artifact(
                    model, staging, summary=message.summary,
                    name=message.name or None, compress=message.compress)
                path = self.store.publish(staging)
        self._compactions_total.inc()
        return CompactResult(path=path, sha256=entry["sha256"],
                             model_bytes=entry["model_bytes"])

    def _collect_metrics(self, message: CollectMetrics) -> MetricsSnapshot:
        from repro.obs.federate import snapshot_registry

        return MetricsSnapshot(pid=os.getpid(),
                               snapshot=snapshot_registry(self.metrics))

    def _record_feedback(self, message: RecordFeedback) -> bool:
        self.drift.absorb(message.sample, scopes=message.scopes)
        return True

    def _collect_drift(self, message: CollectDrift) -> DriftSnapshot:
        return DriftSnapshot(pid=os.getpid(),
                             snapshot=self.drift.snapshot())

    def _profile(self, message: Profile) -> ProfileResult:
        from repro.obs.profile import profile_here

        report = profile_here(seconds=message.seconds, hz=message.hz)
        return ProfileResult(pid=os.getpid(), seconds=report.seconds,
                             hz=report.hz, samples=report.samples,
                             collapsed=report.collapsed())

    _HANDLERS = {
        Ping: _ping,
        LoadShard: _load,
        ReleaseTokens: _release,
        CloneUpdate: _clone_update,
        BatchProbe: _batch_probe,
        ShardStatsRequest: _shard_stats,
        FingerprintRequest: _fingerprint,
        ModelSizeRequest: _model_size,
        FitShardRequest: _fit_shard,
        CompactToken: _compact,
        CollectMetrics: _collect_metrics,
        RecordFeedback: _record_feedback,
        CollectDrift: _collect_drift,
        Profile: _profile,
    }


def handle_traced(worker: ShardWorker, message, trace):
    """Run one handler, timing it into a remote span when the request
    carried trace context.

    Returns ``(value, error, spans)`` — exactly one of ``value`` /
    ``error`` is meaningful (``error is None`` on success), and
    ``spans`` is the tuple of picklable span dicts for the reply.  The
    single definition both transports use: the process loop
    (:func:`worker_main`) and the pool's inline fallback call this, so a
    traced request yields the identical ``worker.<Message>`` span
    whether its shard lives in another process or in the driver.
    """
    if trace is None:
        try:
            return worker.handle(message), None, ()
        except BaseException as exc:  # noqa: BLE001 — shipped in the reply
            return None, exc, ()
    from repro.obs.trace import remote_span

    trace_id, parent_id = trace
    started = time.time()
    t0 = time.perf_counter()
    value, error = None, None
    try:
        value = worker.handle(message)
    except BaseException as exc:  # noqa: BLE001 — shipped in the reply
        error = exc
    span = remote_span(
        trace_id, parent_id, f"worker.{type(message).__name__}",
        started, time.perf_counter() - t0,
        attributes={"pid": os.getpid()},
        error=(f"{type(error).__name__}: {error}"
               if error is not None else None))
    return value, error, (span,)


def _sendable_error(exc: BaseException) -> BaseException:
    """The exception itself when it pickles, else a same-message
    :class:`~repro.errors.ReproError` — the driver always re-raises
    *something* typed."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ReproError(f"{type(exc).__name__}: {exc}")


def worker_main(conn, store=None) -> None:
    """Process entry point: answer framed requests until shutdown.

    Runs single-threaded over one pipe; any exception a handler raises
    travels back in the :class:`~repro.cluster.messages.Reply` envelope
    instead of killing the process, so one bad request never takes the
    worker's shard state with it.  SIGINT is ignored — a Ctrl-C at the
    driver's terminal reaches the whole process group, but worker
    lifecycle belongs to the driver (an orderly ``Shutdown`` message, or
    a kill on restart), not the keyboard.
    """
    import signal

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    worker = ShardWorker(store=store)
    while True:
        try:
            request: Request = conn.recv()
        except (EOFError, OSError):
            break
        if isinstance(request.message, Shutdown):
            try:
                conn.send(Reply(id=request.id, ok=True, value=True))
            except (OSError, BrokenPipeError):
                pass
            break
        value, error, spans = handle_traced(
            worker, request.message, getattr(request, "trace", None))
        if error is None:
            reply = Reply(id=request.id, ok=True, value=value, spans=spans)
        else:
            reply = Reply(id=request.id, ok=False,
                          error=_sendable_error(error), spans=spans)
        try:
            conn.send(reply)
        except (OSError, BrokenPipeError):
            break
    conn.close()
