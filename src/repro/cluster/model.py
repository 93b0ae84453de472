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
Every probe that leaves the driver goes through one fan-out
(``_probe_remotes``): items are grouped by worker and each worker gets
**one** ``BatchProbe``, all sent at once.  Opening a session (or any
estimate) first resolves the query's key groups and ships every
(table, filter, key-columns) probe its shards owe the query; the merged
answers prime a per-state probe memo, so sub-plan lattice probes — the
optimizer's thousands of ``estimate_join`` calls — run in the driver
without further RPC.  A memo miss (a probe no prefetch planned) takes
the same fan-out, one batch per worker.  The per-shard probe and the
shard-order merge are the ensemble layer's own
(:func:`~repro.shard.ensemble.probe_shard`,
:func:`~repro.shard.ensemble.merge_probes`).

Crash recovery
--------------
The driver keeps a *ledger* per shard-state token: the sub-artifact path
plus the update journal since.  When a worker dies, the pool restarts it
and replays the ledger.  Every read that observed the crash — probes,
statistics, fingerprints, sizes, compaction — takes one fallback
(:meth:`RemoteShardModel.ask`): it is answered *in the driver* from a
ledger-materialized local model, transparently, with the same
statistics the worker held.  Writes (updates, seating a new token)
instead restart, reseed, and send the RPC once more.

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
    Profile,
    RecordFeedback,
    ReleaseTokens,
    ShardStatsRequest,
)
from repro.cluster.pool import DEFAULT_TIMEOUT, WorkerPool
from repro.cluster.worker import compact_model
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
    merge_probes,
    probe_shard,
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
    retries.  ``worker_id`` records which worker owns the token — the
    one placement record, because re-homing moves shards off the pool's
    default modulo layout."""

    shard_index: int
    path: str
    worker_id: int
    journal: tuple = ()


class _LedgerBook:
    """Every shard-state token of one cluster model: its ledger, its
    driver-side fallback model once materialized, and the steps that
    create, rebuild, and release it on the model's worker pool.

    Mutated from estimate threads (updates, hot-swaps) *and* from
    garbage-collection finalizers (token releases), and snapshotted by
    worker reseeding — plain dict iteration would race those mutations.
    The lock is re-entrant because a finalizer can fire via GC on the
    very thread that holds it; every critical section is a single small
    operation, so re-entry is harmless.

    ``store`` is the model's artifact store (or ``None``), so every
    ledger consumer — crash-retry materialization, hot-swaps, compaction
    — resolves ``cas://`` paths the same way.
    """

    def __init__(self, pool: WorkerPool, store=None):
        self._lock = threading.RLock()
        self._entries: dict[str, _Ledger] = {}
        self._local_models: dict[str, object] = {}
        self.pool = pool
        self.store = store

    def get(self, token: str) -> _Ledger | None:
        with self._lock:
            return self._entries.get(token)

    def set(self, token: str, ledger: _Ledger) -> None:
        with self._lock:
            self._entries[token] = ledger

    def snapshot(self) -> list[tuple[str, _Ledger]]:
        with self._lock:
            return sorted(self._entries.items())

    def seat(self, shard_index: int, worker_id: int, path: str,
             journal: tuple = ()) -> "RemoteShardModel":
        """Register the shard state ``(path, journal)`` on ``worker_id``
        under a fresh token and return its slot — the one way a token
        comes to exist.  A worker that dies mid-seed is replaced and
        seeded once more; if that fails too, the token is released
        before the error propagates, so a failed seat leaks nothing."""
        token = _new_token(shard_index)
        self.set(token, _Ledger(shard_index, path, worker_id, journal))
        slot = RemoteShardModel(self, worker_id, shard_index, token)
        try:
            try:
                self.reseed_token(worker_id, token)
            except WorkerError:
                self.revive(worker_id, token)
        except Exception:
            slot.release()
            raise
        return slot

    def reseed_token(self, worker_id: int, token: str) -> None:
        """Rebuild ``token`` on ``worker_id`` by replaying its ledger.

        Intermediate versions are released immediately; the final
        ``CloneUpdate`` binds ``token`` itself, so concurrent probes of
        the token never observe a half-replayed journal.
        """
        ledger = self.get(token)
        if ledger is None:
            return
        pool, index = self.pool, ledger.shard_index
        if not ledger.journal:
            pool.call(worker_id, LoadShard(token, ledger.path, index))
            return
        prev = _new_token(index)
        pool.call(worker_id, LoadShard(prev, ledger.path, index))
        retire = []
        for position, (table, rows, deleted_rows) in enumerate(
                ledger.journal):
            last = position == len(ledger.journal) - 1
            nxt = token if last else _new_token(index)
            pool.call(worker_id, CloneUpdate(prev, nxt, table, rows,
                                             deleted_rows))
            retire.append(prev)
            prev = nxt
        pool.call(worker_id, ReleaseTokens(tuple(retire)))

    def revive(self, worker_id: int, token: str) -> None:
        """The restart step of a retry: replace ``worker_id`` if it died
        and rebuild ``token`` on it, ready for the RPC to be sent
        again."""
        self.pool.ensure_alive(worker_id)
        self.reseed_token(worker_id, token)

    def reseed(self, worker_id: int) -> None:
        """Rebuild every live token a restarted worker owns (the pool's
        ``on_restart`` hook)."""
        for token, ledger in self.snapshot():
            if ledger.worker_id == worker_id:
                self.reseed_token(worker_id, token)

    def local_model(self, token: str):
        """A driver-side model holding exactly ``token``'s statistics,
        materialized from its ledger on first use."""
        model = self._local_models.get(token)
        if model is None:
            from repro.serve.artifact import is_store_ref

            ledger = self.get(token)
            if ledger is None:
                raise WorkerError(
                    f"shard state {token!r} has no ledger to retry "
                    f"from (already released?)")
            path = ledger.path
            if is_store_ref(path):
                if self.store is None:
                    raise ReproError(
                        f"cannot materialize shard state from {path}: "
                        f"the driver has no artifact store attached")
                path = self.store.resolve(path)
            model, _ = load_shard_artifact(path)
            for table, rows, deleted_rows in ledger.journal:
                model.update(table, rows, deleted_rows=deleted_rows)
            self._local_models[token] = model
        return model

    def release(self, worker_id: int, token: str) -> None:
        """Forget ``token``: its ledger, any local fallback model, and
        (queued) its worker-side state."""
        with self._lock:
            self._entries.pop(token, None)
        self._local_models.pop(token, None)
        self.pool.schedule_release(worker_id, token)


class RemoteShardModel:
    """Driver-side handle to one shard-state version in a worker.

    Duck-types the slice of a shard :class:`~repro.core.estimator.
    FactorJoin` the ensemble layer touches — the post-delete row count
    via ``table_estimator``, ``clone_for_update``/``update`` for the
    routed copy-on-write path, ``fingerprint``/``model_size_bytes`` for
    introspection — so the inherited ensemble machinery drives workers
    without knowing it.  Transport failures are absorbed in :meth:`ask`:
    the pool restarts the worker and the answer is computed in-process
    from the token's ledger.  When the last ensemble state referencing
    the handle is garbage-collected, a finalizer releases its token.
    """

    def __init__(self, ledgers: _LedgerBook, worker_id: int,
                 shard_index: int, token: str,
                 base_token: str | None = None):
        self.pool = ledgers.pool
        self.worker_id = worker_id
        self.shard_index = shard_index
        self.token = token
        self._ledgers = ledgers
        self._base_token = base_token
        self.release = weakref.finalize(self, ledgers.release, worker_id,
                                        token)

    def ask(self, message, fallback):
        """``message``'s answer from the owning worker; if the worker
        fails, restart it and return ``fallback()`` instead — computed in
        the driver from ledger-materialized models, which hold the same
        statistics the worker did."""
        try:
            return self.pool.call(self.worker_id, message)
        except WorkerError:
            self.pool.ensure_alive(self.worker_id)
            return fallback()

    def local_model(self):
        return self._ledgers.local_model(self.token)

    def table_estimator(self, table_name: str) -> "_RemoteTableEstimator":
        return _RemoteTableEstimator(self, table_name)

    # -- copy-on-write update (the inherited _apply_update drives this) --------

    def clone_for_update(self, table_name: str) -> "RemoteShardModel":
        """A pending new version; :meth:`update` registers it worker-side
        (mirrors ``FactorJoin.clone_for_update`` + ``update``; the worker
        clones ``table_name``'s statistics from the ``CloneUpdate``)."""
        return RemoteShardModel(self._ledgers, self.worker_id,
                                self.shard_index,
                                _new_token(self.shard_index),
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
            with trace_span("update.retry", retried=True,
                            restarted_worker=self.worker_id):
                self._ledgers.revive(self.worker_id, self._base_token)
                self.pool.call(self.worker_id, message)
        base = self._ledgers.get(self._base_token)
        if base is not None:
            self._ledgers.set(self.token, _Ledger(
                self.shard_index, base.path, self.worker_id,
                base.journal + ((table_name, new_rows, deleted_rows),)))

    # -- statistics -----------------------------------------------------------

    def shard_stats(self):
        """The version's mergeable statistics (hot-swap bookkeeping)."""
        def local():
            model = self.local_model()
            return shard_stats_of(model, model.database.schema)
        return self.ask(ShardStatsRequest(self.token), local)

    def fingerprint(self) -> str:
        return self.ask(FingerprintRequest(self.token),
                        lambda: self.local_model().fingerprint())

    def model_size_bytes(self) -> int:
        return self.ask(ModelSizeRequest(self.token),
                        lambda: self.local_model().model_size_bytes())

    def __repr__(self) -> str:
        return (f"RemoteShardModel(shard={self.shard_index}, "
                f"worker={self.worker_id}, token={self.token!r})")


class _RemoteTableEstimator:
    """The one per-table read the inherited update path makes of a
    shard slot: its post-delete row count."""

    def __init__(self, remote: RemoteShardModel, table_name: str):
        self._remote = remote
        self._table_name = table_name

    def estimate_row_count(self, pred) -> float:
        [[(total, _)]] = _probe_remotes(
            [((self._remote,), self._table_name, pred, (), True)])
        return total


def _in_context(ctx, fn, *args):
    """Executor-thread shim for one fanned-out call (a worker's probe
    batch or a shard update): pool executor threads do not inherit the
    request thread's trace context, so the caller captures it and this
    re-activates it around ``fn(*args)`` — the rpc and worker spans then
    nest under the request."""
    with use_context(ctx):
        return fn(*args)


def _probe_remotes(requests) -> list[list]:
    """The driver's one probe fan-out.

    ``requests`` holds ``(remotes, table, pred, columns, want_total)``
    tuples; the answer is, per request, one ``(total, dists)`` per
    remote, in the order given.  The items are grouped by worker and
    each worker gets **one** ``BatchProbe``, all sent at once on the
    pool's executor under the caller's trace context.
    """
    per_worker: dict[int, list] = {}
    for position, (remotes, table, pred, columns,
                   want_total) in enumerate(requests):
        for rank, remote in enumerate(remotes):
            item = ProbeItem(remote.token, table, pred, columns, want_total)
            per_worker.setdefault(remote.worker_id, []).append(
                (position, rank, remote, item))
    answers = [[None] * len(request[0]) for request in requests]
    if not per_worker:
        return answers
    pool = next(iter(per_worker.values()))[0][2].pool
    ctx = capture_context()
    futures = {worker_id: pool.spawn(_in_context, ctx, _probe_worker,
                                     worker_id, entries)
               for worker_id, entries in per_worker.items()}
    for worker_id, future in futures.items():
        for (position, rank, _, _), answer in zip(per_worker[worker_id],
                                                  future.result()):
            answers[position][rank] = answer
    return answers


def _probe_worker(worker_id: int, entries: list) -> list:
    """One worker's share of a fan-out, in a ``probe.fanout`` span; on a
    crash the worker is restarted and each item is answered in-process
    from its shard's ledger (a ``probe.retry`` span)."""
    def from_ledgers():
        with trace_span("probe.retry", retried=True,
                        restarted_worker=worker_id):
            return [probe_shard(remote.local_model(), item.table,
                                item.pred, item.columns, item.want_total)
                    for _, _, remote, item in entries]

    with trace_span("probe.fanout", worker=worker_id, probes=len(entries)):
        return entries[0][2].ask(
            BatchProbe(tuple(item for *_, item in entries)), from_ledgers)


def _fetch_probes(requests) -> list[tuple]:
    """Probe ``(estimator, pred, columns, want_total)`` requests through
    :func:`_probe_remotes`, merge each over its candidate shards, and
    memoize it; returns the merged answers, in order."""
    answers = _probe_remotes([
        ([estimator._shard_set.model(i)
          for i in estimator.candidate_shards(pred)],
         estimator._table_name, pred, columns, want_total)
        for estimator, pred, columns, want_total in requests])
    merged = []
    for (estimator, pred, columns, want_total), shard_answers in zip(
            requests, answers):
        answer = merge_probes(shard_answers, columns, estimator._binnings,
                              want_total)
        estimator.remember(pred, answer)
        merged.append(answer)
    return merged


class ClusterTableEstimator(EnsembleTableEstimator):
    """Ensemble-table facade whose per-shard reads go through workers.

    Overrides :meth:`probe`; pruning, policy hints, and capability
    reporting are inherited.  A probe is answered from a memo of merged
    answers per filter under the current ensemble state — a new state
    builds new estimators, so memoized probes can never survive an
    update or hot-swap.  A miss goes through the same per-worker fan-out
    as the driver's per-query prefetch (:func:`_fetch_probes`).
    """

    name = "cluster"

    #: Per-estimator probe memo bound (per published ensemble state).
    MAX_PROBE_CACHE = 1024

    def __init__(self, *args):
        super().__init__(*args)
        self._probe_lock = threading.Lock()
        self._probe_cache: OrderedDict = OrderedDict()

    def lacking(self, pred, columns: tuple, want_total: bool = True):
        """``(memo entry or None, columns, want_total)``: ``pred``'s memo
        entry and the part of a probe it cannot answer yet."""
        with self._probe_lock:
            entry = self._probe_cache.get(pred)
        if entry is None:
            return None, tuple(columns), want_total
        return (entry, tuple(c for c in columns if c not in entry[1]),
                want_total and entry[0] is None)

    def remember(self, pred, answer: tuple) -> None:
        """Fold a merged ``(total, dists)`` answer into ``pred``'s memo
        entry (entries are replaced, never mutated)."""
        total, dists = answer
        with self._probe_lock:
            entry = self._probe_cache.pop(pred, None)
            if entry is not None:
                total = entry[0] if total is None else total
                dists = {**entry[1], **dists}
            self._probe_cache[pred] = (total, dists)
            while len(self._probe_cache) > self.MAX_PROBE_CACHE:
                self._probe_cache.popitem(last=False)

    def probe(self, pred, columns: tuple = (),
              want_total: bool = True) -> tuple:
        """The memoized answer; its arrays are shared with the memo, so
        callers must not mutate them.  A miss fetches the whole probe
        and returns what it fetched, never a memo entry that another
        thread may have evicted meanwhile."""
        entry, lacking_columns, lacking_total = self.lacking(
            pred, columns, want_total)
        if lacking_columns or lacking_total:
            return _fetch_probes([(self, pred, tuple(columns),
                                   want_total)])[0]
        return entry

    def key_distribution(self, column: str, pred) -> np.ndarray:
        return self.probe(pred, (column,), False)[1][column].copy()


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
        ledgers = _LedgerBook(pool, store=store)
        # hooks accumulate per model, so several cluster models can share
        # one pool and each reseeds its own tokens after a restart
        pool.add_restart_hook(ledgers.reseed)
        try:
            # with a store, workers address a shard by content — the
            # only path a remote worker can resolve; without one, by the
            # driver-local directory
            slots = [ledgers.seat(index, pool.owner_of(index),
                                  store.publish(shard_dir)
                                  if store is not None else str(shard_dir))
                     for index, shard_dir in enumerate(shard_dirs)]
        except Exception:
            pool.remove_restart_hook(ledgers.reseed)
            if owns_pool:
                pool.shutdown()
            raise
        model = cls.from_shared_state(payload, slots)
        model._pool = pool
        model._owns_pool = owns_pool
        model._ledgers = ledgers
        model._artifact_path = str(path)
        model._compact_after = compact_after
        model._federator = MetricsFederator()
        model._drift_federator = MetricsFederator(empty_drift_snapshot,
                                                  merge_drift_snapshot)
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
            groups.setdefault(ledger.worker_id, set()).add(
                ledger.shard_index)
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
        return {ledger.shard_index: ledger.worker_id
                for _token, ledger in self._ledgers.snapshot()}

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
            old_slot = state.slot(index)
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
            # a failed seat leaves the shard where it was (nothing is
            # published yet)
            slot = self._ledgers.seat(index, worker_id, old_ledger.path,
                                      old_ledger.journal)
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
                "from_worker": old_slot.worker_id, "token": slot.token,
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
            slot = state.slot(index)
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
            path = slot.ask(message, lambda: compact_model(
                slot.local_model(), message, store)).path
            dropped = len(ledger.journal)
            self._ledgers.set(slot.token,
                              _Ledger(index, str(path), slot.worker_id))
        return {"shard": index, "token": slot.token, "compacted": True,
                "journal_dropped": dropped, "path": str(path)}

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
        self._pool.remove_restart_hook(self._ledgers.reseed)
        if getattr(self, "_owns_pool", False):
            self._pool.shutdown()

    def __enter__(self) -> "ClusterModel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- estimation (batched per-query prefetch, then inherited inference) -----

    def estimate(self, query: Query) -> float:
        state = self._prepared(query)
        with trace_span("bound.fold"):
            return state.merged.estimate(query)

    def estimate_subplans(self, query: Query, min_tables: int = 1,
                          progressive: bool = True) -> dict[frozenset, float]:
        state = self._prepared(query)
        with trace_span("bound.fold"):
            return state.merged.estimate_subplans(
                query, min_tables=min_tables, progressive=progressive)

    def open_session(self, query: Query):
        """Prepared sub-plan probing: the query's per-alias key-group
        probes ship to the workers once (one batch per worker), and
        every session probe after that combines the primed factors in
        the driver — no further RPC."""
        return self._prepared(query).merged.open_session(query)

    def base_factor(self, query: Query, alias: str, groups_q=None):
        return self._prepared(query).merged.base_factor(query, alias,
                                                        groups_q)

    def _prepared(self, query: Query):
        """The current state, with ``query``'s probes prefetched."""
        state = self._require_state()
        with trace_span("session.prep"):
            self._prefetch(state, query)
        return state

    def _prefetch(self, state, query: Query) -> None:
        """Ship every probe the query's base factors will need that the
        memo lacks — one batch per worker, in parallel — and memoize the
        merged answers.

        Best-effort: a query this cannot plan (unsupported shapes, exotic
        predicates) is probed on memo misses instead, through the same
        fan-out.
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
            columns = requirements.setdefault(
                (query.table_of(alias), query.filter_of(alias)), [])
            for var in groups_q.vars_of_alias(alias):
                for ref in groups_q.refs_of(alias, var):
                    if ref.column not in columns:
                        columns.append(ref.column)
        requests = []
        for (table_name, pred), columns in requirements.items():
            estimator = state.merged.table_estimator(table_name)
            _, cols, want_total = estimator.lacking(pred, tuple(columns))
            if cols or want_total:
                requests.append((estimator, pred, cols, want_total))
        if requests:
            _fetch_probes(requests)

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
        slot = self._ledgers.seat(
            index, worker_id,
            store.publish(path) if store is not None else str(path))
        try:
            new_stats = slot.shard_stats()
        except Exception:
            # a bad replacement (corrupt/missing artifact) publishes
            # nothing — and must not leak its provisional token
            slot.release()
            raise
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
