"""``ClusterModel``: a partitioned ensemble served by worker processes.

The sharded ensemble (PR 3) already decomposes every estimate into
per-shard probes — filtered row counts and binned key distributions —
summed under exactly-merged global statistics.  ``ClusterModel`` moves
those probes into worker processes: it *is* a
:class:`~repro.shard.ensemble.ShardedFactorJoin` whose shard slots are
:class:`RemoteShardModel` proxies, so the merged inference, sessions,
sub-plan maps, routed updates, capabilities, and the whole
:class:`~repro.api.protocol.CardinalityModel` protocol are inherited —
and answers are **bit-identical** to the in-process ensemble, because
every per-shard number is computed by the same code on the same
statistics, merely in another process, and summed in the same order.

Per-query batching
------------------
Opening a session (or any estimate) first resolves the query's key
groups and ships each worker **one** batch with every (table, filter,
key-columns) probe its shards owe the query.  The answers prime the
driver-side factor caches, so sub-plan lattice probes — the optimizer's
thousands of ``estimate_join`` calls — run incrementally in the driver
without further RPC.

Crash recovery
--------------
The driver keeps a *ledger* per shard-state token: the sub-artifact path
plus the update journal since.  When a worker dies, the pool restarts it
and replays the ledger; the request that observed the crash is answered
*in the driver* from a ledger-materialized local model — transparently,
with the same statistics the worker held.

Consistency
-----------
Updates and per-shard hot-swaps publish a new ensemble state whose slots
carry fresh tokens; in-flight estimates stay pinned to the tokens of the
state they resolved, and workers retain every token until the last
ensemble state referencing it is garbage-collected.  No estimate ever
mixes pre- and post-mutation statistics — the same contract the
in-process ensemble's atomic state swap gives, stretched across
processes.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import OrderedDict
from concurrent.futures import wait
from dataclasses import dataclass
from dataclasses import replace as _replace
from pathlib import Path

import numpy as np

from repro.cluster.messages import (
    BatchProbe,
    CloneUpdate,
    CollectDrift,
    CollectMetrics,
    CompactToken,
    FingerprintRequest,
    LoadShard,
    ModelSizeRequest,
    ProbeItem,
    ProbeResult,
    Profile,
    RecordFeedback,
    ReleaseTokens,
    ShardStatsRequest,
)
from repro.cluster.pool import DEFAULT_TIMEOUT, WorkerPool
from repro.core.key_groups import query_key_groups
from repro.obs.drift import empty_drift_snapshot, merge_drift_snapshot
from repro.obs.federate import MetricsFederator
from repro.obs.trace import capture_context, trace_span, use_context
from repro.errors import (
    ReproError,
    UnsupportedOperationError,
    WorkerError,
)
from repro.shard.artifact import (
    load_shard_artifact,
    load_shard_summary,
    read_ensemble,
)
from repro.shard.ensemble import (
    EnsembleTableEstimator,
    ShardedFactorJoin,
    _assemble_state,
    shard_stats_of,
    updated_clone,
)
from repro.shard.pruning import ShardSummary
from repro.sql.query import Query

_TOKEN_COUNTER = itertools.count()


def _new_token(shard_index: int) -> str:
    return f"s{shard_index}:v{next(_TOKEN_COUNTER)}"


@dataclass(frozen=True)
class _Ledger:
    """How to rebuild one shard-state token from durable parts: the
    sub-artifact on disk (a path, or a ``cas://`` store reference) plus
    the update journal applied since.  This is what worker reseeding
    replays and what the driver materializes for in-process crash
    retries.  ``worker_id`` records which worker currently owns the
    token — authoritative for reseeding, because re-homing moves shards
    off the pool's default modulo layout."""

    shard_index: int
    path: str
    journal: tuple = ()
    worker_id: int = -1


class _LedgerBook:
    """Thread-safe token -> :class:`_Ledger` map.

    Mutated from estimate threads (updates, hot-swaps) *and* from
    garbage-collection finalizers (token releases), and snapshotted by
    worker reseeding — plain dict iteration would race those mutations.
    The lock is re-entrant because a finalizer can fire via GC on the
    very thread that holds it; every critical section is a single small
    operation, so re-entry is harmless.

    ``store`` carries the model's artifact store (or ``None``) so every
    ledger consumer — crash-retry materialization, hot-swaps, compaction
    — resolves ``cas://`` paths the same way.
    """

    def __init__(self, store=None):
        self._lock = threading.RLock()
        self._entries: dict[str, _Ledger] = {}
        self.store = store

    def get(self, token: str) -> _Ledger | None:
        with self._lock:
            return self._entries.get(token)

    def set(self, token: str, ledger: _Ledger) -> None:
        with self._lock:
            self._entries[token] = ledger

    def pop(self, token: str) -> None:
        with self._lock:
            self._entries.pop(token, None)

    def snapshot(self) -> list[tuple[str, _Ledger]]:
        with self._lock:
            return sorted(self._entries.items())


def _materialize_ledger(ledger: _Ledger, store=None):
    """A local model holding exactly the token's statistics."""
    from repro.serve.artifact import is_store_ref

    path = ledger.path
    if is_store_ref(path):
        if store is None:
            raise ReproError(
                f"cannot materialize shard state from {path}: the driver "
                f"has no artifact store attached")
        path = store.resolve(path)
    model, _ = load_shard_artifact(path)
    for table, rows, deleted_rows in ledger.journal:
        model.update(table, rows, deleted_rows=deleted_rows)
    return model


def _reseed_token(pool: WorkerPool, worker_id: int, token: str,
                  ledger: _Ledger) -> None:
    """Rebuild ``token`` on a (re)started worker by replaying its ledger.

    Intermediate versions are released immediately; the final
    ``CloneUpdate`` binds ``token`` itself, so concurrent probes of the
    token never observe a half-replayed journal.
    """
    if not ledger.journal:
        pool.call(worker_id, LoadShard(token, ledger.path,
                                       ledger.shard_index))
        return
    prev = _new_token(ledger.shard_index)
    pool.call(worker_id, LoadShard(prev, ledger.path, ledger.shard_index))
    retire = []
    for position, (table, rows, deleted_rows) in enumerate(ledger.journal):
        last = position == len(ledger.journal) - 1
        nxt = token if last else _new_token(ledger.shard_index)
        pool.call(worker_id, CloneUpdate(prev, nxt, table, rows,
                                         deleted_rows))
        retire.append(prev)
        prev = nxt
    pool.call(worker_id, ReleaseTokens(tuple(retire)))


def _release_token(pool: WorkerPool, worker_id: int, token: str,
                   ledgers: "_LedgerBook", local_models: dict) -> None:
    """GC finalizer of a :class:`RemoteShardModel`: when no ensemble
    state references the token anymore, drop its ledger, any local
    fallback model, and queue the worker-side release."""
    ledgers.pop(token)
    local_models.pop(token, None)
    pool.schedule_release(worker_id, token)


class RemoteShardModel:
    """Driver-side handle to one shard-state version in a worker.

    Duck-types the slice of a shard :class:`~repro.core.estimator.
    FactorJoin` the ensemble layer touches — probes via
    ``table_estimator``, ``clone_for_update``/``update`` for the routed
    copy-on-write path, ``fingerprint``/``model_size_bytes`` for
    introspection — so the inherited ensemble machinery drives workers
    without knowing it.  Transport failures are absorbed here: the pool
    restarts the worker and the answer is computed in-process from the
    token's ledger.
    """

    def __init__(self, pool: WorkerPool, worker_id: int, shard_index: int,
                 token: str, ledgers: "_LedgerBook", local_models: dict,
                 base_token: str | None = None):
        self.pool = pool
        self.worker_id = worker_id
        self.shard_index = shard_index
        self.token = token
        self._ledgers = ledgers
        self._local_models = local_models
        self._base_token = base_token
        self._finalizer = weakref.finalize(
            self, _release_token, pool, worker_id, token, ledgers,
            local_models)

    # -- probes ---------------------------------------------------------------

    def probe(self, table: str, pred, columns=(),
              want_total: bool = True) -> ProbeResult:
        """One shard probe, worker-side when possible, ledger-local on
        crash (transparently, bit-identically)."""
        item = ProbeItem(self.token, table, pred, tuple(columns),
                         want_total)
        try:
            return self.pool.call(self.worker_id, BatchProbe((item,)))[0]
        except WorkerError:
            self.pool.ensure_alive(self.worker_id)
            with trace_span("probe.retry", retried=True,
                            restarted_worker=self.worker_id):
                return self.local_probe(item)

    def local_probe(self, item: ProbeItem) -> ProbeResult:
        """The in-process retry: the worker's own probe computation
        (:func:`~repro.cluster.worker.probe_model`), driver-side."""
        from repro.cluster.worker import probe_model

        return probe_model(self._local_model(), item)

    def _local_model(self):
        model = self._local_models.get(self.token)
        if model is None:
            ledger = self._ledgers.get(self.token)
            if ledger is None:
                raise WorkerError(
                    f"shard state {self.token!r} has no ledger to retry "
                    f"from (already released?)")
            model = _materialize_ledger(ledger, store=self._ledgers.store)
            self._local_models[self.token] = model
        return model

    def table_estimator(self, table_name: str) -> "_RemoteTableEstimator":
        return _RemoteTableEstimator(self, table_name)

    # -- copy-on-write update (the inherited _apply_update drives this) --------

    def clone_for_update(self, table_name: str) -> "RemoteShardModel":
        """A pending new version; :meth:`update` registers it worker-side
        (mirrors ``FactorJoin.clone_for_update`` + ``update``; the worker
        clones ``table_name``'s statistics from the ``CloneUpdate``)."""
        return RemoteShardModel(self.pool, self.worker_id,
                                self.shard_index,
                                _new_token(self.shard_index),
                                self._ledgers, self._local_models,
                                base_token=self.token)

    def update(self, table_name: str, new_rows=None,
               deleted_rows=None) -> None:
        if self._base_token is None:
            raise ReproError("update a handle obtained from "
                             "clone_for_update, not a published slot")
        message = CloneUpdate(self._base_token, self.token, table_name,
                              new_rows, deleted_rows)
        try:
            self.pool.call(self.worker_id, message)
        except WorkerError:
            # crash path: restart, rebuild the base version from its
            # ledger, and retry once — validation errors (the model
            # rejecting the batch) are not WorkerErrors and propagate
            self.pool.ensure_alive(self.worker_id)
            with trace_span("update.retry", retried=True,
                            restarted_worker=self.worker_id):
                base_ledger = self._ledgers.get(self._base_token)
                if base_ledger is not None:
                    try:
                        _reseed_token(self.pool, self.worker_id,
                                      self._base_token, base_ledger)
                    except WorkerError:
                        pass
                self.pool.call(self.worker_id, message)
        base_ledger = self._ledgers.get(self._base_token)
        if base_ledger is not None:
            self._ledgers.set(self.token, _Ledger(
                self.shard_index, base_ledger.path,
                base_ledger.journal
                + ((table_name, new_rows, deleted_rows),),
                worker_id=self.worker_id))

    # -- statistics -----------------------------------------------------------

    def shard_stats(self):
        """The version's mergeable statistics (hot-swap bookkeeping)."""
        try:
            return self.pool.call(self.worker_id,
                                  ShardStatsRequest(self.token))
        except WorkerError:
            self.pool.ensure_alive(self.worker_id)
            model = self._local_model()
            return shard_stats_of(model, model.database.schema)

    def fingerprint(self) -> str:
        try:
            return self.pool.call(self.worker_id,
                                  FingerprintRequest(self.token))
        except WorkerError:
            self.pool.ensure_alive(self.worker_id)
            return self._local_model().fingerprint()

    def model_size_bytes(self) -> int:
        try:
            return self.pool.call(self.worker_id,
                                  ModelSizeRequest(self.token))
        except WorkerError:
            self.pool.ensure_alive(self.worker_id)
            return self._local_model().model_size_bytes()

    def __repr__(self) -> str:
        return (f"RemoteShardModel(shard={self.shard_index}, "
                f"worker={self.worker_id}, token={self.token!r})")


class _RemoteTableEstimator:
    """Per-table probe surface of one :class:`RemoteShardModel` (what
    the inherited update path reads for post-delete row counts)."""

    def __init__(self, remote: RemoteShardModel, table_name: str):
        self._remote = remote
        self._table_name = table_name

    def estimate_row_count(self, pred) -> float:
        return self._remote.probe(self._table_name, pred, (), True).total

    def key_distribution(self, column: str, pred) -> np.ndarray:
        return self._remote.probe(self._table_name, pred, (column,),
                                  False).dists[column]


def _in_context(ctx, fn, *args):
    """Executor-thread shim for one fanned-out call (a shard probe or a
    shard update): pool executor threads do not inherit the request
    thread's trace context, so the caller captures it and this
    re-activates it around ``fn(*args)`` — the rpc and worker spans then
    nest under the request."""
    with use_context(ctx):
        return fn(*args)


def merge_probe_results(results, columns, binnings,
                        want_total: bool):
    """Sum per-shard probe answers — ``results`` ordered by shard index
    — into ``(total, dists)``.

    The single definition of the cluster's merge: a plain float sum for
    totals and a float64 zero-initialized accumulation per column,
    exactly mirroring the in-process
    :class:`~repro.shard.ensemble.EnsembleTableEstimator` loops, which
    is what makes cluster answers bit-identical.  Both the per-probe
    path and the batched prefetch call this.
    """
    total = (float(sum(result.total for result in results))
             if want_total else None)
    dists = {}
    for column in columns:
        acc = np.zeros(binnings[column].n_bins, dtype=np.float64)
        for result in results:
            acc += result.dists[column]
        dists[column] = acc
    return total, dists


class ClusterTableEstimator(EnsembleTableEstimator):
    """Ensemble-table facade whose per-shard reads go through workers.

    Overrides exactly the two probe methods; pruning, policy hints, and
    capability reporting are inherited.  Probes fan out across the
    candidate shards in parallel (one thread per worker) and merge in
    shard-index order, so sums are bit-identical to the in-process
    serial loop.  Answers are memoized per filter under the current
    ensemble state — a new state builds new estimators, so memoized
    probes can never survive an update or hot-swap.
    """

    name = "cluster"

    #: Per-estimator probe memo bound (per published ensemble state).
    MAX_PROBE_CACHE = 1024

    def __init__(self, *args):
        super().__init__(*args)
        self._probe_lock = threading.Lock()
        self._probe_cache: OrderedDict = OrderedDict()

    # -- memo -----------------------------------------------------------------

    def missing_requirements(self, pred, columns: tuple,
                             want_total: bool = True):
        """``(columns_needed, total_needed)`` not yet memoized for
        ``pred`` (the driver's batched prefetch plans with this)."""
        with self._probe_lock:
            entry = self._probe_cache.get(pred)
            if entry is None:
                return tuple(columns), want_total
            cols = tuple(c for c in columns if c not in entry["dists"])
            return cols, want_total and entry["total"] is None

    def store_probe(self, pred, total, dists: dict) -> None:
        """Memoize shard-summed probe results for ``pred``."""
        with self._probe_lock:
            entry = self._probe_cache.get(pred)
            if entry is None:
                entry = {"total": None, "dists": {}}
                self._probe_cache[pred] = entry
            if total is not None:
                entry["total"] = float(total)
            entry["dists"].update(dists)
            self._probe_cache.move_to_end(pred)
            while len(self._probe_cache) > self.MAX_PROBE_CACHE:
                self._probe_cache.popitem(last=False)

    # -- probes ---------------------------------------------------------------

    def _remotes(self, shard_ids) -> list[RemoteShardModel]:
        return [self._shard_set.model(index) for index in shard_ids]

    def fetch(self, pred, columns: tuple, want_total: bool):
        """Fan one probe out across the candidate shards and merge."""
        remotes = self._remotes(self.candidate_shards(pred))
        if len(remotes) <= 1:
            results = [remote.probe(self._table_name, pred, columns,
                                    want_total) for remote in remotes]
        else:
            pool = remotes[0].pool
            ctx = capture_context()
            futures = [pool.spawn(_in_context, ctx, remote.probe,
                                  self._table_name, pred, columns,
                                  want_total)
                       for remote in remotes]
            results = [future.result() for future in futures]
        return merge_probe_results(results, columns, self._binnings,
                                   want_total)

    def _ensure(self, pred, columns: tuple, want_total: bool):
        cols_needed, total_needed = self.missing_requirements(
            pred, columns, want_total)
        if cols_needed or total_needed:
            total, dists = self.fetch(pred, cols_needed, total_needed)
            self.store_probe(pred, total, dists)
        with self._probe_lock:
            entry = self._probe_cache.get(pred)
            if entry is not None and all(c in entry["dists"]
                                         for c in columns) and (
                    not want_total or entry["total"] is not None):
                return (entry["total"],
                        {c: entry["dists"][c] for c in columns})
        # evicted under memory pressure mid-flight: answer directly
        return self.fetch(pred, tuple(columns), want_total)

    def estimate_row_count(self, pred) -> float:
        total, _ = self._ensure(pred, (), True)
        return total

    def key_distribution(self, column: str, pred) -> np.ndarray:
        _, dists = self._ensure(pred, (column,), False)
        return dists[column].copy()


class ClusterModel(ShardedFactorJoin):
    """A served ensemble whose shards live in worker processes.

    Build with :meth:`from_artifact`; everything online — ``estimate``,
    ``estimate_subplans``, ``open_session``, routed ``update``,
    ``capabilities`` — is the inherited ensemble surface over
    worker-backed shard slots, plus :meth:`hot_swap_shard` for
    republishing one shard and :meth:`workers_health` for the pool.
    The registry, :class:`~repro.serve.service.EstimationService`, and
    the ``/v1`` routes serve it unchanged.
    """

    table_estimator_cls = ClusterTableEstimator

    def __init__(self, *args, **kwargs):
        raise TypeError(
            "ClusterModel serves a saved ensemble artifact; build one "
            "with ClusterModel.from_artifact(path, workers=N)")

    @classmethod
    def from_artifact(cls, path, *, workers: int | None = None,
                      pool: WorkerPool | None = None,
                      expected_schema=None,
                      timeout: float = DEFAULT_TIMEOUT,
                      inline: bool = False, addresses=None, store=None,
                      grace: float = 0.0,
                      compact_after: int | None = None) -> "ClusterModel":
        """Serve the ensemble artifact at ``path`` through a worker pool.

        ``workers`` defaults to one process per shard; fewer workers
        host shard groups (shard *i* on worker ``i % workers``).  Shard
        sub-artifacts are registered with the workers **lazily** — a
        worker deserializes a shard the first time a query needs it.
        Pass a shared ``pool`` to host several cluster models on one set
        of processes (the pool then outlives :meth:`close`).

        ``addresses`` serves through externally managed
        ``repro worker --listen`` servers instead of local processes.
        ``store`` attaches an artifact store
        (:class:`~repro.serve.artifact.LocalArtifactStore` on a path
        every worker can reach): shard sub-artifacts are published into
        it and registered as ``cas://`` references, which is how remote
        workers — blind to the driver's filesystem layout — resolve
        shard state.  ``grace`` is the pool's slow-vs-dead window and
        ``compact_after`` enables automatic ledger compaction once a
        shard's update journal reaches that many entries.
        """
        payload, shard_dirs, _ = read_ensemble(
            path, expected_schema=expected_schema)
        if not shard_dirs:
            raise ReproError(f"ensemble at {path} has no shards to serve")
        owns_pool = pool is None
        if pool is None:
            if addresses is not None:
                pool = WorkerPool(addresses=addresses, timeout=timeout,
                                  grace=grace, store=store)
            else:
                pool = WorkerPool(min(workers or len(shard_dirs),
                                      len(shard_dirs)),
                                  timeout=timeout, grace=grace,
                                  inline=inline, store=store)
        if store is None:
            store = getattr(pool, "store", None)
        ledgers = _LedgerBook(store=store)
        local_models: dict[str, object] = {}
        slots = []
        try:
            for index, shard_dir in enumerate(shard_dirs):
                token = _new_token(index)
                worker_id = pool.owner_of(index)
                # with a store, workers address the shard by content —
                # the only path a remote worker can resolve; without
                # one, by the driver-local directory
                ref = (store.publish(shard_dir) if store is not None
                       else str(shard_dir))
                ledgers.set(token, _Ledger(index, ref,
                                           worker_id=worker_id))
                pool.call(worker_id, LoadShard(token, ref, index))
                slots.append(RemoteShardModel(pool, worker_id, index,
                                              token, ledgers,
                                              local_models))
        except Exception:
            if owns_pool:
                pool.shutdown()
            raise
        model = cls.from_shared_state(payload, slots)
        model._pool = pool
        model._owns_pool = owns_pool
        model._ledgers = ledgers
        model._local_models = local_models
        model._artifact_path = str(path)
        model._compact_after = compact_after
        model._federator = MetricsFederator()
        model._drift_federator = MetricsFederator(empty_drift_snapshot,
                                                  merge_drift_snapshot)
        # hooks accumulate per model, so several cluster models can share
        # one pool and each reseeds its own tokens after a restart
        pool.add_restart_hook(model._reseed_worker)
        return model

    # -- worker lifecycle ------------------------------------------------------

    @property
    def pool(self) -> WorkerPool:
        return self._pool

    def workers_health(self) -> list[dict]:
        """Ping every worker (see :meth:`WorkerPool.health`)."""
        return self._pool.health()

    def collect_metrics(self, model_name: str = "") -> list:
        """Scrape-time metric families for ``GET /metrics`` (the serving
        layer calls this hook on every published model that has one):
        per-worker liveness gauges and restart counters from the pool's
        cheap :meth:`WorkerPool.describe`, plus the **federated** worker
        registries — each live worker answers a ``CollectMetrics`` RPC
        (5s timeout, like a ping) and its snapshot merges in under
        ``worker=``/``shard_group=`` labels with restart-safe monotone
        folding; a worker that fails the scrape keeps serving its
        last-known state, so one hung worker degrades the pane instead
        of killing it."""
        description = self._pool.describe()
        up, restarts = [], []
        for row in description["workers"]:
            labels = {"model": model_name, "worker": str(row["worker"])}
            up.append((labels, 1.0 if row["alive"] else 0.0))
            restarts.append((labels, float(row["restarts"])))
        transport = description.get("transport_stats") or {}
        frames = [({"model": model_name, "direction": "sent"},
                   float(transport.get("frames_sent", 0))),
                  ({"model": model_name, "direction": "recv"},
                   float(transport.get("frames_received", 0)))]
        octets = [({"model": model_name, "direction": "sent"},
                   float(transport.get("bytes_sent", 0))),
                  ({"model": model_name, "direction": "recv"},
                   float(transport.get("bytes_received", 0)))]
        families = [
            ("gauge", "repro_worker_up",
             "Shard worker liveness (1 serving, 0 awaiting restart).", up),
            ("counter", "repro_worker_restarts_total",
             "Crashed shard workers replaced by the pool.", restarts),
            ("counter", "repro_transport_frames_total",
             "RPC frames on the pool's TCP transports (pipe pools "
             "report 0).", frames),
            ("counter", "repro_transport_bytes_total",
             "Framed RPC bytes on the pool's TCP transports.", octets),
        ]
        families.extend(self._federated_families(model_name, description))
        return families

    def _shard_groups(self) -> dict[int, str]:
        """``worker id -> "0+3"``-style sorted shard-index labels, read
        from the token ledgers (re-homing moves shards off the pool's
        modulo layout, so placement must come from the ledger)."""
        groups: dict[int, set[int]] = {}
        for _token, ledger in self._ledgers.snapshot():
            owner = (ledger.worker_id if ledger.worker_id >= 0
                     else self._pool.owner_of(ledger.shard_index))
            groups.setdefault(owner, set()).add(ledger.shard_index)
        return {worker_id: "+".join(str(i) for i in sorted(indices))
                for worker_id, indices in groups.items()}

    def _federated_families(self, model_name: str,
                            description: dict) -> list:
        federator = getattr(self, "_federator", None)
        if federator is None:
            return []
        groups = self._shard_groups()
        self._scrape_workers(
            federator, CollectMetrics(), description,
            lambda worker_id: {"model": model_name, "worker": str(worker_id),
                               "shard_group": groups.get(worker_id, "")})
        return federator.families()

    def _scrape_workers(self, federator, message, description: dict,
                        labels_of=None) -> None:
        """Scrape every live worker with ``message`` (5s timeout, like a
        ping) into ``federator``: a retired worker is forgotten, a dead
        or failing one keeps serving its last-known state."""
        for row in description["workers"]:
            worker_id = row["worker"]
            if row["retired"]:
                federator.forget(worker_id)
                continue
            if not row["alive"]:
                federator.mark_unreachable(worker_id)
                continue
            try:
                reply = self._pool.call(worker_id, message, timeout=5.0)
            except WorkerError:
                federator.mark_unreachable(worker_id)
                continue
            federator.absorb(worker_id, row.get("generation", 0),
                             reply.snapshot,
                             labels_of(worker_id) if labels_of else None)

    def _shard_owners(self) -> dict[int, int]:
        """``shard index -> owning worker id``, read from the token
        ledgers (same re-homing caveat as :meth:`_shard_groups`)."""
        owners: dict[int, int] = {}
        for _token, ledger in self._ledgers.snapshot():
            owners[ledger.shard_index] = (
                ledger.worker_id if ledger.worker_id >= 0
                else self._pool.owner_of(ledger.shard_index))
        return owners

    def absorb_drift(self, sample) -> tuple:
        """Forward a feedback sample's shard-scope drift attribution to
        the workers owning those shards (the serving layer's hook;
        workers absorb with ``scopes=("shard",)`` so each attribution
        key lives in exactly one process).

        Returns the shard indices successfully delegated — the caller
        absorbs any remainder (unowned shards, failed workers) locally,
        so a dead worker degrades attribution locality, never loses the
        sample.  Bucketing follows ``sample.at``, the driver's stamp,
        so forwarding never shifts a sample between windows.
        """
        owners = self._shard_owners()
        by_worker: dict[int, list] = {}
        for shard in sample.shards:
            owner = owners.get(shard)
            if owner is not None:
                by_worker.setdefault(owner, []).append(shard)
        delegated: list = []
        for worker_id in sorted(by_worker):
            shards = tuple(sorted(by_worker[worker_id]))
            message = RecordFeedback(
                sample=_replace(sample, shards=shards))
            try:
                self._pool.call(worker_id, message, timeout=5.0)
            except WorkerError:
                continue
            delegated.extend(shards)
        return tuple(sorted(delegated))

    def collect_drift(self) -> dict:
        """The federated drift snapshot: every live worker answers a
        ``CollectDrift`` RPC (5s timeout, like a metrics scrape) and the
        snapshots merge under the same restart-safe semantics as
        :meth:`collect_metrics` — a failed scrape serves last-known
        state, a retired worker is forgotten.  The serving layer folds
        the result into its own monitor's report, so ``GET /v1/drift``
        is one merged view regardless of transport."""
        federator = getattr(self, "_drift_federator", None)
        if federator is None:
            return empty_drift_snapshot()
        self._scrape_workers(federator, CollectDrift(),
                             self._pool.describe())
        return federator.merged()

    def profile_worker(self, worker_id: int, seconds: float = 1.0,
                       hz: float = 99.0):
        """Sample a remote worker's stacks for ``seconds`` at ``hz``
        (the ``Profile`` RPC); returns the
        :class:`~repro.cluster.messages.ProfileResult` whose
        ``collapsed`` text feeds flamegraph tooling.  The worker's
        request loop blocks for the duration, so the RPC timeout is
        held comfortably above ``seconds``."""
        return self._pool.call(worker_id, Profile(seconds=seconds, hz=hz),
                               timeout=float(seconds) + 30.0)

    def _reseed_worker(self, worker_id: int) -> None:
        """Rebuild every live shard-state token a restarted worker owns
        (the pool's ``on_restart`` hook).  Ownership is read from the
        ledger itself — re-homing moves tokens off the pool's default
        layout, so the modulo placement cannot be trusted here."""
        for token, ledger in self._ledgers.snapshot():
            owner = (ledger.worker_id if ledger.worker_id >= 0
                     else self._pool.owner_of(ledger.shard_index))
            if owner == worker_id:
                _reseed_token(self._pool, worker_id, token, ledger)

    # -- elasticity ------------------------------------------------------------

    def grow_workers(self, count: int = 1, *, addresses=None) -> list[int]:
        """Add workers to the pool (processes, or TCP addresses of
        ``repro worker`` servers); returns the new worker ids.  New
        workers start empty — move load onto them with
        :meth:`rehome_shard`."""
        return self._pool.grow(count, addresses=addresses)

    def rehome_shard(self, index: int,
                     worker_id: int | None = None) -> dict:
        """Move one shard's state to another worker, atomically.

        The target (least-loaded active worker by default, excluding the
        current owner) is seeded with the shard's ledger — artifact plus
        journal, the exact replay a crash reseed runs — under a **new**
        token, and a new ensemble state pointing the shard's slot at the
        target is published with the merged statistics carried over
        unchanged, so answers before, during, and after the move are
        bit-identical.  In-flight estimates stay pinned to the old token
        on the old worker (which keeps it until they are garbage
        collected); even if the old worker is retired mid-flight, those
        probes are answered from the ledger in the driver — no token is
        ever dropped.
        """
        with self._update_lock:
            state = self._require_state()
            if not 0 <= index < len(state.shard_set):
                raise ReproError(
                    f"shard index {index} out of range for a "
                    f"{len(state.shard_set)}-shard ensemble")
            old_slot = state.shard_set.model(index)
            active = self._pool.active_workers()
            if worker_id is None:
                load = {w: 0 for w in active if w != old_slot.worker_id}
                if not load:
                    raise ReproError(
                        "no other active worker to re-home onto "
                        "(grow the pool first)")
                for i in range(len(state.shard_set)):
                    owner = state.shard_set.model(i).worker_id
                    if owner in load:
                        load[owner] += 1
                worker_id = min(sorted(load), key=load.__getitem__)
            elif worker_id not in active:
                raise ReproError(
                    f"worker {worker_id} is retired or unknown")
            if worker_id == old_slot.worker_id:
                return {"shard": index, "worker": worker_id,
                        "moved": False}
            old_ledger = self._ledgers.get(old_slot.token)
            if old_ledger is None:
                raise ReproError(
                    f"shard state {old_slot.token!r} has no ledger to "
                    f"re-home from")
            token = _new_token(index)
            ledger = _Ledger(index, old_ledger.path, old_ledger.journal,
                             worker_id=worker_id)
            self._ledgers.set(token, ledger)
            try:
                try:
                    _reseed_token(self._pool, worker_id, token, ledger)
                except WorkerError:
                    # the target died mid-seed: replace it and try once
                    # more before giving up (leaving the shard where it
                    # was — nothing was published yet)
                    self._pool.ensure_alive(worker_id)
                    _reseed_token(self._pool, worker_id, token, ledger)
            except Exception:
                _release_token(self._pool, worker_id, token,
                               self._ledgers, self._local_models)
                raise
            slot = RemoteShardModel(self._pool, worker_id, index, token,
                                    self._ledgers, self._local_models)
            # republish with the merged statistics passed through as-is
            # (the same objects — not a -old+new float round trip, which
            # would not be bit-stable even for identical stats)
            merged = state.merged
            self._state = _assemble_state(
                self.config, merged.database, self.policy,
                state.shard_set.replace({index: slot}), state.summaries,
                merged.key_statistics(), merged.key_trees(),
                merged._key_joints, state.merged_pairs, state.supports,
                estimator_cls=type(self).table_estimator_cls)
        return {"shard": index, "worker": worker_id,
                "from_worker": old_slot.worker_id, "token": token,
                "moved": True}

    def shrink_worker(self, worker_id: int) -> dict:
        """Drain one worker and retire it from the pool.

        Every shard currently homed on the worker is re-homed (one at a
        time, re-reading the published state each move, so concurrent
        updates and swaps interleave safely), then the worker id is
        permanently retired.  Estimates that raced the retirement with
        probes still pinned to the old worker's tokens fall back to the
        driver-side ledgers, bit-identically.
        """
        moved = []
        while True:
            state = self._require_state()
            victim = None
            for index in range(len(state.shard_set)):
                if state.shard_set.model(index).worker_id == worker_id:
                    victim = index
                    break
            if victim is None:
                break
            self.rehome_shard(victim)
            moved.append(victim)
        self._pool.retire(worker_id)
        return {"worker": worker_id, "moved_shards": moved,
                "retired": True}

    # -- ledger compaction -----------------------------------------------------

    def compact_shard(self, index: int, *, save_dir=None,
                      force: bool = False) -> dict:
        """Collapse one shard's ledger: persist its *current* state as a
        fresh sub-artifact and reset the journal.

        The owning worker re-saves the model it already holds
        (:class:`~repro.cluster.messages.CompactToken`) — into
        ``save_dir`` when given, into the attached artifact store
        otherwise (a driver-chosen temporary directory if neither) —
        and the token's ledger becomes ``(fresh artifact, empty
        journal)``, so the next crash reseed is a single ``LoadShard``
        instead of a full journal replay.  Serving state is untouched:
        same token, same worker-side model, same answers.  If the worker
        crashes mid-compaction, the driver materializes the ledger and
        saves it itself.
        """
        with self._update_lock:
            state = self._require_state()
            if not 0 <= index < len(state.shard_set):
                raise ReproError(
                    f"shard index {index} out of range for a "
                    f"{len(state.shard_set)}-shard ensemble")
            slot = state.shard_set.model(index)
            ledger = self._ledgers.get(slot.token)
            if ledger is None:
                raise ReproError(
                    f"shard state {slot.token!r} has no ledger to "
                    f"compact")
            if not ledger.journal and not force:
                return {"shard": index, "token": slot.token,
                        "compacted": False, "journal_dropped": 0,
                        "path": ledger.path}
            summary = state.summaries[index]
            store = self._ledgers.store
            if save_dir is None and store is None:
                import tempfile

                save_dir = tempfile.mkdtemp(
                    prefix=f"repro-compact-s{index}-")
            message = CompactToken(
                slot.token,
                save_dir=str(save_dir) if save_dir is not None else None,
                summary=summary)
            try:
                result = self._pool.call(slot.worker_id, message)
                path = result.path
            except WorkerError:
                self._pool.ensure_alive(slot.worker_id)
                path = self._compact_locally(slot, message, store)
            dropped = len(ledger.journal)
            self._ledgers.set(slot.token,
                              _Ledger(index, str(path),
                                      worker_id=slot.worker_id))
        return {"shard": index, "token": slot.token, "compacted": True,
                "journal_dropped": dropped, "path": str(path)}

    def _compact_locally(self, slot: RemoteShardModel, message, store):
        """Driver-side compaction fallback: materialize the ledger and
        persist it here (same artifact writer the worker would run)."""
        import tempfile

        from repro.shard.artifact import save_shard_artifact

        model = slot._local_model()
        if message.save_dir is not None:
            save_shard_artifact(model, message.save_dir,
                                summary=message.summary)
            return message.save_dir
        with tempfile.TemporaryDirectory(
                prefix="repro-compact-") as staging:
            save_shard_artifact(model, staging, summary=message.summary)
            return store.publish(staging)

    def update(self, table_name: str, new_rows=None,
               deleted_rows=None) -> None:
        """Routed incremental update (inherited), plus automatic ledger
        compaction when ``compact_after`` is configured."""
        super().update(table_name, new_rows, deleted_rows=deleted_rows)
        self._auto_compact()

    def _update_shards(self, state, table_name: str, new_split: dict,
                       del_split: dict):
        """Send every owning shard's ``CloneUpdate`` at once (one fan-out
        task per shard), so the worker round trips overlap each other and
        the driver's merged-statistics work; the returned join waits for
        all of them before it reports the first failure in shard order.
        Crash recovery is per shard, inside :meth:`RemoteShardModel.
        update`."""
        ctx = capture_context()
        futures = {
            index: self._pool.spawn(_in_context, ctx, updated_clone,
                                    state.shard_set.model(index),
                                    table_name, new_split.get(index),
                                    del_split.get(index))
            for index in sorted(set(new_split) | set(del_split))}

        def join() -> dict:
            wait(futures.values())
            return {index: future.result()
                    for index, future in futures.items()}
        return join

    def _auto_compact(self) -> None:
        limit = getattr(self, "_compact_after", None)
        if not limit:
            return
        state = self._require_state()
        for index in range(len(state.shard_set)):
            slot = state.shard_set.model(index)
            ledger = self._ledgers.get(slot.token)
            if ledger is not None and len(ledger.journal) >= limit:
                try:
                    self.compact_shard(index)
                except (WorkerError, ReproError):
                    pass  # best-effort; the next update tries again

    def close(self) -> None:
        """Detach from the pool: deregister the reseed hook, and shut
        the pool down when this model owns it (a shared pool keeps
        running for its other models)."""
        self._pool.remove_restart_hook(self._reseed_worker)
        if getattr(self, "_owns_pool", False):
            self._pool.shutdown()

    def __enter__(self) -> "ClusterModel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- estimation (batched per-query prefetch, then inherited inference) -----

    def estimate(self, query: Query) -> float:
        state = self._require_state()
        with trace_span("session.prep"):
            self._prefetch(state, query)
        with trace_span("bound.fold"):
            return state.merged.estimate(query)

    def estimate_subplans(self, query: Query, min_tables: int = 1,
                          progressive: bool = True) -> dict[frozenset, float]:
        state = self._require_state()
        with trace_span("session.prep"):
            self._prefetch(state, query)
        with trace_span("bound.fold"):
            return state.merged.estimate_subplans(
                query, min_tables=min_tables, progressive=progressive)

    def open_session(self, query: Query):
        """Prepared sub-plan probing: the query's per-alias key-group
        probes ship to the workers once (one batch per worker), and
        every session probe after that combines the primed factors in
        the driver — no further RPC."""
        state = self._require_state()
        with trace_span("session.prep"):
            self._prefetch(state, query)
        return state.merged.open_session(query)

    def base_factor(self, query: Query, alias: str, groups_q=None):
        state = self._require_state()
        with trace_span("session.prep"):
            self._prefetch(state, query)
        return state.merged.base_factor(query, alias, groups_q)

    def _prefetch(self, state, query: Query) -> None:
        """Ship every probe the query's base factors will need — one
        batch per worker, in parallel — and prime the estimators.

        Best-effort: anything this cannot plan (unsupported queries,
        exotic predicates) simply falls through to the per-probe path,
        which computes the same numbers one round trip at a time.
        """
        try:
            groups_q = query_key_groups(query)
        except ReproError:
            return
        # one requirement per (table, filter): several aliases of one
        # table with one filter share probes, exactly as the in-process
        # estimator would recompute them identically
        requirements: dict = {}
        for alias in query.aliases:
            table_name = query.table_of(alias)
            pred = query.filter_of(alias)
            columns: list[str] = []
            for var in groups_q.vars_of_alias(alias):
                for ref in groups_q.refs_of(alias, var):
                    if ref.column not in columns:
                        columns.append(ref.column)
            key = (table_name, pred)
            if key in requirements:
                merged_cols = requirements[key]
                for column in columns:
                    if column not in merged_cols:
                        merged_cols.append(column)
            else:
                requirements[key] = columns
        plan = []  # (estimator, pred, cols_needed, total_needed, shards)
        for (table_name, pred), columns in requirements.items():
            estimator = state.merged.table_estimator(table_name)
            cols_needed, total_needed = estimator.missing_requirements(
                pred, tuple(columns))
            if not cols_needed and not total_needed:
                continue
            plan.append((estimator, pred, cols_needed, total_needed,
                         estimator.candidate_shards(pred)))
        if not plan:
            return
        # group by worker: each worker answers all its shards' probes in
        # one round trip
        per_worker: dict[int, list] = {}
        for probe_id, (estimator, pred, cols, total_needed,
                       shards) in enumerate(plan):
            for shard_index in shards:
                remote = state.shard_set.model(shard_index)
                item = ProbeItem(remote.token, estimator._table_name,
                                 pred, cols, total_needed)
                per_worker.setdefault(remote.worker_id, []).append(
                    (probe_id, shard_index, remote, item))
        ctx = capture_context()
        futures = {
            worker_id: self._pool.spawn(self._batch_in_context, ctx,
                                        worker_id, entries)
            for worker_id, entries in per_worker.items()
        }
        by_probe: dict[tuple[int, int], ProbeResult] = {}
        for worker_id, future in futures.items():
            for (probe_id, shard_index, _, _), result in zip(
                    per_worker[worker_id], future.result()):
                by_probe[(probe_id, shard_index)] = result
        for probe_id, (estimator, pred, cols, total_needed,
                       shards) in enumerate(plan):
            ordered = [by_probe[(probe_id, s)] for s in shards]
            total, dists = merge_probe_results(ordered, cols,
                                               estimator._binnings,
                                               total_needed)
            estimator.store_probe(pred, total, dists)

    def _batch_in_context(self, ctx, worker_id: int, entries: list) -> list:
        """Executor-thread shim for one worker's prefetch batch:
        re-activates the request's trace context on the fan-out thread
        and wraps the batch in a per-worker span, so the rpc round trip
        and the worker's own span nest under the request."""
        with use_context(ctx):
            with trace_span("probe.fanout", worker=worker_id,
                            probes=len(entries)):
                return self._call_batch(worker_id, entries)

    def _call_batch(self, worker_id: int, entries: list) -> list:
        """One worker's batch; on a crash, restart it and answer each
        item in-process from its shard's ledger."""
        try:
            return list(self._pool.call(
                worker_id, BatchProbe(tuple(item for *_, item in entries))))
        except WorkerError:
            self._pool.ensure_alive(worker_id)
            with trace_span("probe.retry", retried=True,
                            restarted_worker=worker_id):
                return [remote.local_probe(item)
                        for _, _, remote, item in entries]

    # -- hot swap --------------------------------------------------------------

    def _swap_parts(self, state, index: int, replacement,
                    summary: ShardSummary | None):
        """Cluster resolution of a hot-swap replacement (see
        :meth:`ShardedFactorJoin.hot_swap_shard` for the shared
        skeleton): the owning worker loads the refreshed sub-artifact as
        a new token, and the new slot is a worker-backed proxy.
        In-flight estimates stay pinned to the outgoing token (the
        worker keeps it until they finish) and the other shards'
        worker-side models and driver-side probe memos are untouched.
        """
        if not isinstance(replacement, (str, Path)):
            raise UnsupportedOperationError(
                "a cluster hot-swap takes a shard artifact directory "
                "(the owning worker loads it); save the refreshed shard "
                "with repro.shard.save_shard_artifact first")
        path = Path(replacement)
        if summary is None:
            summary = load_shard_summary(path) or ShardSummary({})
        old_slot = state.shard_set.model(index)
        old_stats = old_slot.shard_stats()
        # the shard's *current* home (re-homing moves shards off the
        # pool's default layout, so owner_of(index) would be wrong)
        worker_id = old_slot.worker_id
        store = self._ledgers.store
        ref = store.publish(path) if store is not None else str(path)
        token = _new_token(index)
        ledger = _Ledger(index, ref, worker_id=worker_id)
        self._ledgers.set(token, ledger)
        try:
            try:
                self._pool.call(worker_id, LoadShard(token, ref, index))
                new_stats = self._pool.call(worker_id,
                                            ShardStatsRequest(token))
            except WorkerError:
                self._pool.ensure_alive(worker_id)
                model = _materialize_ledger(ledger, store=store)
                self._local_models[token] = model
                new_stats = shard_stats_of(model, model.database.schema)
        except Exception:
            # a bad replacement (corrupt/missing artifact) publishes
            # nothing — and must not leak its provisional token
            _release_token(self._pool, worker_id, token,
                           self._ledgers, self._local_models)
            raise
        slot = RemoteShardModel(self._pool, worker_id, index, token,
                                self._ledgers, self._local_models)
        return slot, old_stats, new_stats, summary, {"artifact": str(path)}

    # -- protocol / introspection ----------------------------------------------

    def capabilities(self):
        """The ensemble's declared capabilities under the cluster's
        family name."""
        return _replace(super().capabilities(), name="factorjoin-cluster")

    def describe(self) -> dict:
        base = super().describe()
        base.update(kind="ClusterModel", artifact=self._artifact_path,
                    cluster=self._pool.describe())
        return base

    # -- blocked persistence surface -------------------------------------------

    def fit(self, database):
        raise UnsupportedOperationError(
            "a ClusterModel serves a fitted artifact; fit with "
            "ShardedFactorJoin.fit (or repro.cluster.fit_distributed), "
            "save it, then ClusterModel.from_artifact")

    def save(self, path, name=None, compress=False):
        raise UnsupportedOperationError(
            "a ClusterModel is a serving facade over the ensemble "
            "artifact it was opened from; copy or refresh that artifact "
            "instead of saving the facade")

    def __getstate__(self):
        raise UnsupportedOperationError(
            "ClusterModel holds worker processes and cannot be pickled; "
            "reopen with ClusterModel.from_artifact")
