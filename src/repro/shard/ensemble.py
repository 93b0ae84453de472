"""Partitioned model ensembles: one FactorJoin per shard, one answer.

:class:`ShardedFactorJoin` fits one :class:`~repro.core.estimator.
FactorJoin` per horizontal partition of the database — **in parallel**,
with :mod:`concurrent.futures` — and serves the whole ensemble behind the
exact estimator surface a single model exposes (``estimate``,
``estimate_subplans``, ``update``, ``save``/``load``).

Why the merge is exact
----------------------
All shards fit under one *global* binning (computed once from the full
data), so per-shard bin statistics are mergeable: per-value counts sum,
which makes merged totals, MFV, and NDV bit-identical to an unsharded
fit (:meth:`~repro.core.bin_stats.BinStats.merged`); pairwise key-joint
histograms sum, which makes the merged Chow-Liu trees and conditionals
bit-identical too (:func:`~repro.factorgraph.chow_liu.
chow_liu_tree_from_joints`).  Per-table row counts and filtered key
distributions are summed across shards at query time.  With an exact
single-table estimator (``truescan``) the ensemble's estimates therefore
*equal* the unsharded model's; with approximate estimators they differ
only by the per-shard estimator error, never by the merge.

Shard pruning
-------------
Each shard keeps per-table summaries (:mod:`repro.shard.pruning`); a
factor evaluation skips every shard whose summary proves the filter
matches nothing there, and hash policies prune equality predicates on
the shard key to a single shard — so selective queries touch few shards
(and, for lazily loaded ensembles, deserialize few).

Concurrency contract
--------------------
All mutable state lives behind one ``_state`` reference.  ``update``
routes each batch to its owning shards, clones only those shard models
(copy-on-write), re-merges the affected statistics, and swaps the state
reference once — so an estimate running concurrently with an update
computes its whole answer from either the pre-update or the post-update
ensemble, never a mix.
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from repro.core.bin_stats import KeyStatistics, copy_on_write
from repro.core.binning import Binning
from repro.core.estimator import FactorJoin, FactorJoinConfig
from repro.data.database import Database
from repro.data.schema import DatabaseSchema, TableSchema
from repro.data.table import Table
from repro.errors import (
    NotFittedError,
    ReproError,
    UnsupportedOperationError,
)
from repro.estimators.base import BaseTableEstimator
from repro.factorgraph.chow_liu import (
    chow_liu_tree_from_joints,
    joint_histogram,
)
from repro.shard.policy import ShardingPolicy, make_policy, partition_database, split_rows
from repro.shard.pruning import ShardSummary, TableSummary, predicate_excludes
from repro.sql.predicates import Predicate, TruePredicate
from repro.sql.query import Query
from repro.utils import Timer, pickled_size_bytes

PARALLEL_MODES = ("process", "thread", "serial")


@dataclass
class ShardFit:
    """One shard's parallel-fit result (what a worker sends back)."""

    model: FactorJoin
    summary: ShardSummary
    fit_seconds: float


@dataclass
class ShardStats:
    """One shard's mergeable statistics, separated from its model.

    Everything the ensemble merge needs from a shard — per-group key
    statistics, full pairwise key joints, per-table update/delete support
    — without the table estimators.  Picklable, model-sized: this is
    what a remote fit worker ships back to the driver, and what a
    per-shard hot-swap subtracts/adds from the merged state.
    """

    key_stats: dict[str, KeyStatistics]
    pairs: dict[tuple[str, str, str], np.ndarray]
    supports: dict[str, tuple[bool, bool]]

    def digest(self) -> str:
        """Content hash of the shard's *mergeable* contribution.  Two
        shards with identical digests contribute identically to the
        merged statistics (the per-shard hot-swap uses this to decide
        whether untouched queries' cached estimates survive).

        Hashes the statistics' *values* — per-value counts, binnings,
        pairwise joints, support flags — never pickle bytes: pickle
        output depends on object-graph sharing, which differs between a
        fresh fit and an artifact reload even when the statistics are
        identical.
        """
        import hashlib

        h = hashlib.sha256()
        for name in sorted(self.key_stats):
            stats = self.key_stats[name]
            h.update(name.encode())
            binning = stats.binning
            h.update(np.ascontiguousarray(binning.domain).tobytes())
            h.update(np.ascontiguousarray(binning.bin_ids).tobytes())
            h.update(str(binning.n_bins).encode())
            for table, column in sorted(stats.keys):
                values, counts = stats.stats_of(table,
                                                column).value_counts()
                h.update(f"|{table}.{column}|".encode())
                h.update(np.ascontiguousarray(values).tobytes())
                h.update(np.ascontiguousarray(counts).tobytes())
        for key in sorted(self.pairs):
            h.update(repr(key).encode())
            h.update(np.ascontiguousarray(self.pairs[key]).tobytes())
        h.update(repr(sorted(self.supports.items())).encode())
        return h.hexdigest()


def shard_stats_of(model: FactorJoin,
                   schema: DatabaseSchema) -> ShardStats:
    """Extract one shard model's :class:`ShardStats`.

    Raises :class:`~repro.errors.ReproError` when the model was fitted
    without ``keep_pairwise_joints`` and a table has two or more join
    keys — its contribution to the merged Chow-Liu trees would be lost.
    """
    pairs: dict[tuple[str, str, str], np.ndarray] = {}
    for table_name in schema.table_names:
        table_pairs = model.pairwise_joints_of(table_name)
        if not table_pairs and len(
                schema.table(table_name).key_columns) >= 2:
            raise ReproError(
                f"shard model kept no pairwise key joints for table "
                f"{table_name!r}; fit shards with "
                f"keep_pairwise_joints=True (fit_shard does) so their "
                f"statistics stay mergeable")
        for (col_a, col_b), joint in table_pairs.items():
            pairs[(table_name, col_a, col_b)] = joint
    supports = {
        table_name: (
            model.table_estimator(table_name).supports_update(),
            model.table_estimator(table_name).supports_delete(),
        )
        for table_name in schema.table_names
    }
    return ShardStats(key_stats=dict(model.key_statistics()),
                      pairs=pairs, supports=supports)


def fit_shard(config: FactorJoinConfig, shard_db: Database,
              binnings: dict[str, Binning]) -> ShardFit:
    """Fit one shard model under the shared global binning.

    Module-level so :class:`~concurrent.futures.ProcessPoolExecutor` can
    pickle it; the returned model travels back model-sized because
    ``FactorJoin.__getstate__`` drops the base tables.
    """
    model = FactorJoin(config).fit(shard_db, shared_binnings=binnings)
    return ShardFit(model=model, summary=ShardSummary.of(shard_db),
                    fit_seconds=model.fit_seconds)


class ShardSet:
    """Ordered per-shard models, possibly lazily materialized.

    A slot is either a fitted :class:`FactorJoin` or a zero-argument
    loader callable; loaders run at most once (under a lock) the first
    time their shard is needed.  ``replace`` builds a new set sharing
    the untouched slots — the copy-on-write step of ensemble updates.
    """

    def __init__(self, slots: list):
        self._slots = list(slots)
        self._lock = threading.Lock()

    @classmethod
    def eager(cls, models: list[FactorJoin]) -> "ShardSet":
        return cls(models)

    def __len__(self) -> int:
        return len(self._slots)

    def model(self, index: int) -> FactorJoin:
        slot = self._slots[index]
        if not callable(slot):
            return slot
        with self._lock:
            slot = self._slots[index]
            if callable(slot):
                slot = slot()
                self._slots[index] = slot
        return slot

    def models(self) -> list[FactorJoin]:
        return [self.model(i) for i in range(len(self))]

    def materialized_flags(self) -> list[bool]:
        """Which shards are deserialized (False = still a lazy loader)."""
        return [not callable(slot) for slot in self._slots]

    def replace(self, replacements: dict[int, FactorJoin]) -> "ShardSet":
        slots = list(self._slots)
        for index, model in replacements.items():
            slots[index] = model
        return ShardSet(slots)


def probe_shard(model, table_name: str, pred: Predicate,
                columns: tuple = (), want_total: bool = True) -> tuple:
    """One shard's probe: ``(filtered row count or None, {column: binned
    key distribution})``.

    The single definition of a shard probe: the ensemble's table view,
    a cluster worker, and the cluster driver's crash retry all call it,
    so an answer never depends on where it was computed.
    """
    estimator = model.table_estimator(table_name)
    total = (float(estimator.estimate_row_count(pred))
             if want_total else None)
    dists = {column: estimator.key_distribution(column, pred)
             for column in columns}
    return total, dists


def merge_probes(answers, columns: tuple, binnings: dict[str, Binning],
                 want_total: bool) -> tuple:
    """Sum per-shard :func:`probe_shard` answers — ordered by shard
    index — into one ``(total, dists)`` of fresh arrays.

    The single definition of the merge: a plain float sum for totals
    and a float64 zero-initialized accumulation per column, wherever the
    shard answers were computed — which is what makes a cluster's
    answers bit-identical to the in-process ensemble's.
    """
    total = (float(sum(answer[0] for answer in answers))
             if want_total else None)
    dists = {}
    for column in columns:
        acc = np.zeros(binnings[column].n_bins, dtype=np.float64)
        for answer in answers:
            acc += answer[1][column]
        dists[column] = acc
    return total, dists


class EnsembleTableEstimator(BaseTableEstimator):
    """Single-table estimator view over all shards of one table.

    Row counts and filtered key distributions are *sums* over the
    non-pruned shards; everything else about the bound computation reads
    the exactly-merged global statistics, so inference never knows the
    fit was partitioned.
    """

    name = "ensemble"

    def __init__(self, table_name: str, shard_set: ShardSet,
                 table_summaries: list[TableSummary | None],
                 policy: ShardingPolicy, table_schema: TableSchema,
                 key_binnings: dict[str, Binning],
                 supports: tuple[bool, bool]):
        self._table_name = table_name
        self._shard_set = shard_set
        self._summaries = table_summaries
        self._policy = policy
        self._schema = table_schema
        self._binnings = dict(key_binnings)
        self._supports_update, self._supports_delete = supports

    def fit(self, table, schema, key_binnings):
        raise NotImplementedError(
            "EnsembleTableEstimator is assembled from fitted shards, "
            "never fitted directly")

    def candidate_shards(self, pred: Predicate) -> list[int]:
        """Shards that may contribute rows under ``pred`` (never excludes
        a shard that could change the answer)."""
        policy_hint = self._policy.candidate_shards(
            self._table_name, self._schema, pred)
        out = []
        for index, summary in enumerate(self._summaries):
            if policy_hint is not None and index not in policy_hint:
                continue
            if summary is not None and predicate_excludes(pred, summary):
                continue
            out.append(index)
        return out

    def probe(self, pred: Predicate, columns: tuple = (),
              want_total: bool = True) -> tuple:
        """``(row count or None, {column: key distribution})`` under
        ``pred``: every candidate shard probed, summed in shard order."""
        return merge_probes(
            [probe_shard(self._shard_set.model(i), self._table_name, pred,
                         columns, want_total)
             for i in self.candidate_shards(pred)],
            columns, self._binnings, want_total)

    def estimate_row_count(self, pred: Predicate) -> float:
        return self.probe(pred)[0]

    def key_distribution(self, column: str, pred: Predicate) -> np.ndarray:
        return self.probe(pred, (column,), False)[1][column]

    # mutations go through ShardedFactorJoin.update (routed + atomic
    # state swap); the assembled view only reports capability
    def update(self, new_rows: Table) -> None:
        raise NotImplementedError(
            "update the ensemble through ShardedFactorJoin.update")

    def delete(self, deleted_rows: Table) -> None:
        raise NotImplementedError(
            "delete through ShardedFactorJoin.update(deleted_rows=...)")

    def supports_update(self) -> bool:
        return self._supports_update

    def supports_delete(self) -> bool:
        return self._supports_delete


@dataclass(frozen=True)
class _EnsembleState:
    """One immutable snapshot of everything estimation reads.

    ``ShardedFactorJoin`` swaps this reference atomically on update, so
    concurrent readers see a consistent ensemble end to end.
    """

    shard_set: ShardSet
    summaries: tuple[ShardSummary, ...]
    merged: FactorJoin
    # full pairwise key-joint sums (NULL codes included), kept so updates
    # can refresh edge conditionals without touching unaffected shards
    merged_pairs: dict[tuple[str, str, str], np.ndarray] = field(
        default_factory=dict)
    supports: dict[str, tuple[bool, bool]] = field(default_factory=dict)

    def slot(self, index: int):
        """Shard ``index``'s model; a :class:`ReproError` when the index
        is out of range."""
        if not 0 <= index < len(self.shard_set):
            raise ReproError(
                f"shard index {index} out of range for a "
                f"{len(self.shard_set)}-shard ensemble")
        return self.shard_set.model(index)


class ShardedFactorJoin:
    """A FactorJoin-compatible estimator over a partitioned ensemble."""

    #: The per-table estimator facade assembled over the shard set;
    #: subclasses (the cluster model) substitute a facade that reads
    #: shards through worker processes instead of local models.
    table_estimator_cls: type = EnsembleTableEstimator

    def __init__(self, config: FactorJoinConfig | None = None, *,
                 n_shards: int = 4,
                 policy: ShardingPolicy | str = "hash",
                 parallel: str = "process",
                 max_workers: int | None = None,
                 **kwargs):
        if config is None:
            config = FactorJoinConfig(**kwargs)
        elif kwargs:
            raise ValueError("pass either a config object or kwargs, "
                             "not both")
        if parallel not in PARALLEL_MODES:
            raise ValueError(f"unknown parallel mode {parallel!r}; "
                             f"choose from {PARALLEL_MODES}")
        self.config = config
        self.policy = (policy if isinstance(policy, ShardingPolicy)
                       else make_policy(policy, n_shards))
        self.parallel = parallel
        self.max_workers = max_workers
        self.parallel_fallback: str | None = None
        self.fit_seconds = 0.0
        self.last_update_seconds = 0.0
        self.shard_fit_seconds: list[float] = []
        self._state: _EnsembleState | None = None
        self._update_lock = threading.Lock()

    @property
    def n_shards(self) -> int:
        return self.policy.n_shards

    # ------------------------------------------------------------------ fit --

    def fit(self, database: Database) -> "ShardedFactorJoin":
        """Partition, fit every shard (in parallel), merge statistics."""
        with Timer() as timer:
            shard_config = replace(self.config, keep_pairwise_joints=True)
            binnings = FactorJoin(replace(self.config)).build_binnings(
                database)
            shard_dbs = partition_database(database, self.policy)
            fits = self._fit_all(shard_config, shard_dbs, binnings)
            self.shard_fit_seconds = [f.fit_seconds for f in fits]
            self._state = _build_state(
                self.config, database, self.policy,
                ShardSet.eager([f.model for f in fits]),
                tuple(f.summary for f in fits),
                estimator_cls=type(self).table_estimator_cls)
        self.fit_seconds = timer.elapsed
        return self

    def _fit_all(self, config: FactorJoinConfig,
                 shard_dbs: list[Database],
                 binnings: dict[str, Binning]) -> list[ShardFit]:
        if self.parallel == "serial" or len(shard_dbs) == 1:
            return [fit_shard(config, db, binnings) for db in shard_dbs]
        workers = self.max_workers or min(len(shard_dbs),
                                          os.cpu_count() or 1)
        workers = max(1, workers)
        pool_cls = (ProcessPoolExecutor if self.parallel == "process"
                    else ThreadPoolExecutor)
        try:
            with pool_cls(max_workers=workers) as pool:
                return list(pool.map(fit_shard, repeat(config), shard_dbs,
                                     repeat(binnings)))
        except (BrokenProcessPool, OSError, pickle.PicklingError) as exc:
            # constrained environments (no fork, no /dev/shm) fall back
            # to a serial fit rather than failing the whole job
            self.parallel_fallback = f"{type(exc).__name__}: {exc}"
            return [fit_shard(config, db, binnings) for db in shard_dbs]

    # ------------------------------------------------------------- estimate --

    def _require_state(self) -> _EnsembleState:
        state = self._state
        if state is None:
            raise NotFittedError("ShardedFactorJoin.fit was never called")
        return state

    def estimate(self, query: Query) -> float:
        """Estimated cardinality; resolves one ensemble snapshot for the
        whole computation (see the module's concurrency contract)."""
        return self._require_state().merged.estimate(query)

    def estimate_subplans(self, query: Query, min_tables: int = 1,
                          progressive: bool = True) -> dict[frozenset, float]:
        return self._require_state().merged.estimate_subplans(
            query, min_tables=min_tables, progressive=progressive)

    def open_session(self, query: Query):
        """Prepared sub-plan probing over the merged ensemble view (see
        :meth:`repro.core.estimator.FactorJoin.open_session`).  The
        session pins the current ensemble state: per the concurrency
        contract, probes never mix pre- and post-update statistics."""
        return self._require_state().merged.open_session(query)

    def capabilities(self):
        """Ensemble :class:`~repro.api.protocol.Capabilities`: the
        merged model's, with deletion support additionally requiring a
        policy that can route deleted rows to their owning shard by
        content."""
        from dataclasses import replace as _replace

        from repro.estimators.base import ESTIMATOR_REGISTRY

        state = self._require_state()
        merged = state.merged.capabilities()
        routable = all(
            self.policy.can_route_deletes(
                state.merged.database.schema.table(name))
            for name in state.merged.database.schema.table_names)
        # the merged view's table estimators are ensemble facades; the
        # predicate classes are those of the configured shard estimator
        shard_cls = ESTIMATOR_REGISTRY.get(self.config.table_estimator)
        predicates = (tuple(sorted(shard_cls.predicate_classes))
                      if shard_cls is not None
                      else merged.predicate_classes)
        return _replace(merged, name="factorjoin-sharded",
                        supports_delete=merged.supports_delete and routable,
                        predicate_classes=predicates)

    def subplan_fingerprints(self, query: Query, min_tables: int = 1
                             ) -> dict[frozenset, tuple]:
        return self._require_state().merged.subplan_fingerprints(
            query, min_tables=min_tables)

    def base_factor(self, query: Query, alias: str, groups_q=None):
        return self._require_state().merged.base_factor(query, alias,
                                                        groups_q)

    def candidate_shards(self, query: Query, alias: str) -> list[int]:
        """Which shards alias's factor would read (pruning introspection)."""
        state = self._require_state()
        estimator = state.merged.table_estimator(query.table_of(alias))
        return estimator.candidate_shards(query.filter_of(alias))

    # --------------------------------------------------------------- update --

    def supports_update(self, table_name: str) -> bool:
        state = self._require_state()
        return state.supports.get(table_name, (True, True))[0]

    def supports_delete(self, table_name: str) -> bool:
        """Deletions need every shard estimator to support them *and* a
        policy that can locate a deleted row's owner by content (range
        placement cannot; neither can hash on a keyless table)."""
        state = self._require_state()
        try:
            tschema = state.merged.database.schema.table(table_name)
        except Exception:
            return state.supports.get(table_name, (True, True))[1]
        return (self.policy.can_route_deletes(tschema)
                and state.supports.get(table_name, (True, True))[1])

    def update(self, table_name: str, new_rows: Table | None = None,
               deleted_rows: Table | None = None) -> None:
        """Incremental insert/delete, routed to the owning shards.

        Only the shards that receive rows are cloned and updated
        (copy-on-write); merged statistics absorb the same delta, and the
        new ensemble state is published with a single reference swap, so
        concurrent estimates never observe a half-applied batch.
        """
        self._require_state()
        with self._update_lock, Timer() as timer:
            # resolve the state inside the lock: a concurrent update must
            # build on the previous update's published state, not on a
            # shared stale snapshot (lost-update hazard)
            self._apply_update(self._require_state(), table_name,
                               new_rows, deleted_rows)
        self.last_update_seconds = timer.elapsed

    def _apply_update(self, state: _EnsembleState, table_name: str,
                      new_rows: Table | None,
                      deleted_rows: Table | None) -> None:
        merged = state.merged
        schema = merged.database.schema
        tschema = schema.table(table_name)  # unknown table: SchemaError
        sup_update, sup_delete = state.supports.get(table_name,
                                                    (True, True))
        if new_rows is not None and not sup_update:
            raise UnsupportedOperationError(
                f"ensemble shards cannot absorb inserts into "
                f"{table_name!r} (table estimator has no update)")
        if deleted_rows is not None and not (
                sup_delete and self.policy.can_route_deletes(tschema)):
            raise UnsupportedOperationError(
                f"ensemble shards cannot absorb deletions from "
                f"{table_name!r} (table estimator has no delete, or the "
                f"{self.policy.kind!r} policy cannot route deletions "
                f"from this table by row content)")
        new_split = (split_rows(self.policy, new_rows, tschema)
                     if new_rows is not None else {})
        del_split = (split_rows(self.policy, deleted_rows, tschema,
                                op="delete")
                     if deleted_rows is not None else {})
        affected = sorted(set(new_split) | set(del_split))
        if not affected:
            return

        # 1. clone + update the owning shards only; FactorJoin.update
        # validates before mutating, and it mutates the clone — a failure
        # here leaves the published state untouched
        join = self._update_shards(state, table_name, new_split, del_split)

        # 2. the merged statistics absorb the same delta (while a cluster's
        # workers are still applying theirs)
        try:
            new_key_stats, new_pairs, new_key_joints, new_db = (
                _merged_delta(state, table_name, tschema, new_rows,
                              deleted_rows))
        finally:
            # always wait for the shards; a shard's own validation error
            # explains a bad batch better than the driver's
            new_models = join()

        # 3. shard summaries
        new_summaries = list(state.summaries)
        for index in affected:
            tables = dict(new_summaries[index].tables)
            summary = tables.get(table_name,
                                 TableSummary(0, {}))
            if index in new_split:
                summary = summary.after_insert(new_split[index])
            if index in del_split:
                remaining = int(round(new_models[index].table_estimator(
                    table_name).estimate_row_count(TruePredicate())))
                # approximate estimators under-count after tolerated
                # over-deletes (rows that were never present); a summary
                # must never claim emptiness it cannot prove, or pruning
                # would wrongly exclude a shard that still has rows
                if summary.row_count > 0:
                    remaining = max(1, remaining)
                summary = summary.after_delete(del_split[index],
                                               remaining_rows=remaining)
            tables[table_name] = summary
            new_summaries[index] = ShardSummary(tables)

        # 4. assemble + publish (single reference swap)
        new_shard_set = state.shard_set.replace(new_models)
        self._state = _assemble_state(
            self.config, new_db, self.policy, new_shard_set,
            tuple(new_summaries), new_key_stats,
            dict(merged.key_trees()), new_key_joints, new_pairs,
            dict(state.supports),
            estimator_cls=type(self).table_estimator_cls)

    def _update_shards(self, state: _EnsembleState, table_name: str,
                       new_split: dict, del_split: dict):
        """Clone and update every owning shard (step 1 of
        :meth:`_apply_update`); returns a zero-argument join that gives
        ``{index: updated model}`` or raises the first shard's error.
        Serial in process — each clone is table-scoped, see
        :meth:`FactorJoin.clone_for_update`; the cluster model overrides
        this to overlap its workers' round trips."""
        new_models = {
            index: updated_clone(state.shard_set.model(index), table_name,
                                 new_split.get(index),
                                 del_split.get(index))
            for index in sorted(set(new_split) | set(del_split))}
        return lambda: new_models

    # ------------------------------------------------------------- hot swap --

    def hot_swap_shard(self, index: int, replacement,
                       summary: ShardSummary | None = None) -> dict:
        """Republish one shard of a served ensemble, atomically.

        ``replacement`` is a fitted per-shard :class:`FactorJoin` (fitted
        under the ensemble's global binning, with pairwise joints kept —
        :func:`fit_shard` does both) or a shard artifact directory.  Only
        shard ``index``'s slot is replaced; the other shards' models stay
        materialized and warm.  The merged statistics absorb the swap as
        an exact ``- old + new`` delta (:meth:`~repro.core.bin_stats.
        BinStats.replaced`), the Chow-Liu trees are rebuilt from the new
        merged joints, and the new ensemble state is published with a
        single reference swap — an estimate racing the swap computes its
        whole answer from either the old or the new ensemble, never a
        mix.

        Returns a summary dict whose ``stats_changed`` flag reports
        whether the replacement's mergeable statistics differ from the
        outgoing shard's.  When they do not (a refit of the same rows, an
        artifact re-encoding), estimates of queries that never probed
        this shard are unchanged — the serving layer uses this to evict
        only the cache entries that touched the swapped shard.

        A failed swap (bad index, unreadable artifact) publishes
        nothing: the state assignment is the final step.  Subclasses
        override only :meth:`_swap_parts` (how the replacement slot and
        its statistics are resolved); the lock / delta-merge / publish /
        digest skeleton stays defined once.
        """
        with self._update_lock, Timer() as timer:
            state = self._require_state()
            state.slot(index)  # a bad index fails before anything loads
            slot, old_stats, new_stats, summary, extra = self._swap_parts(
                state, index, replacement, summary)
            self._state = replaced_shard_state(
                self.config, self.policy, state, index, slot,
                old_stats, new_stats, summary,
                estimator_cls=type(self).table_estimator_cls)
            changed = old_stats.digest() != new_stats.digest()
        self.last_update_seconds = timer.elapsed
        return {"shard": index, "stats_changed": changed,
                "seconds": timer.elapsed, **extra}

    def _swap_parts(self, state: "_EnsembleState", index: int,
                    replacement, summary: ShardSummary | None):
        """Resolve a hot-swap replacement into ``(slot, old_stats,
        new_stats, summary, extra)`` — the only step of
        :meth:`hot_swap_shard` that differs per execution plane.  Here
        the replacement is a fitted model (or artifact) loaded into this
        process; the cluster override registers it with the owning
        worker instead."""
        if isinstance(replacement, FactorJoin):
            new_model, loaded_summary = replacement, None
        else:
            from repro.shard.artifact import load_shard_artifact

            new_model, loaded_summary = load_shard_artifact(replacement)
        if summary is None:
            # a permissive summary never prunes, so it is always correct
            # (just less selective) when the replacement carries none
            summary = loaded_summary or ShardSummary({})
        schema = state.merged.database.schema
        old_stats = shard_stats_of(state.shard_set.model(index), schema)
        new_stats = shard_stats_of(new_model, schema)
        return new_model, old_stats, new_stats, summary, {}

    # -------------------------------------------------------------- persist --

    def save(self, path, name: str | None = None,
             compress: bool = False) -> "ShardedFactorJoin":
        """Persist as an ensemble artifact directory (one sub-artifact
        per shard + shared merged statistics; ``compress`` gzips each
        shard's pickle); see :mod:`repro.shard.artifact`.  Returns
        self."""
        from repro.shard.artifact import save_ensemble

        self._require_state()
        save_ensemble(self, path, name=name, compress=compress)
        return self

    @classmethod
    def load(cls, path, expected_schema=None) -> "ShardedFactorJoin":
        """Load an ensemble artifact with lazy per-shard materialization
        (a shard deserializes the first time a query needs it)."""
        from repro.shard.artifact import load_ensemble

        model = load_ensemble(path, expected_schema=expected_schema)
        if not isinstance(model, cls):
            raise TypeError(
                f"artifact at {path} holds a {type(model).__name__}, "
                f"not a {cls.__name__}")
        return model

    def shared_state(self) -> dict:
        """Everything the ensemble persists *except* the shard models.

        Built by :func:`shared_payload` — the single definition of the
        persisted field set: plain pickling (``__getstate__`` /
        ``__setstate__``), the ensemble artifact
        (:mod:`repro.shard.artifact`), and the distributed fit all go
        through it and :meth:`from_shared_state`, so a field added there
        round-trips through every path or none.
        """
        state = self._require_state()
        return shared_payload(
            config=self.config, policy=self.policy,
            parallel=self.parallel, max_workers=self.max_workers,
            parallel_fallback=self.parallel_fallback,
            fit_seconds=self.fit_seconds,
            last_update_seconds=self.last_update_seconds,
            shard_fit_seconds=self.shard_fit_seconds,
            summaries=state.summaries,
            key_stats=state.merged.key_statistics(),
            key_trees=state.merged.key_trees(),
            key_joints=state.merged._key_joints,
            merged_pairs=state.merged_pairs,
            supports=state.supports,
            db_shell=state.merged.database.empty_copy())

    @classmethod
    def from_shared_state(cls, payload: dict,
                          shard_slots: list) -> "ShardedFactorJoin":
        """Rebuild an ensemble from :meth:`shared_state` output plus
        shard slots (fitted models, or lazy loaders for artifacts)."""
        model = cls.__new__(cls)
        model.config = payload["config"]
        model.policy = payload["policy"]
        model.parallel = payload.get("parallel", "process")
        model.max_workers = payload.get("max_workers")
        model.parallel_fallback = payload.get("parallel_fallback")
        model.fit_seconds = float(payload.get("fit_seconds", 0.0))
        model.last_update_seconds = float(
            payload.get("last_update_seconds", 0.0))
        model.shard_fit_seconds = list(
            payload.get("shard_fit_seconds", []))
        model._update_lock = threading.Lock()
        model._state = _assemble_state(
            model.config, payload["db_shell"], model.policy,
            ShardSet(shard_slots), payload["summaries"],
            payload["key_stats"], payload["key_trees"],
            payload["key_joints"], payload["merged_pairs"],
            payload["supports"],
            estimator_cls=cls.table_estimator_cls)
        return model

    def __getstate__(self):
        """Plain pickling materializes every shard and, like
        ``FactorJoin.__getstate__``, drops base-table data."""
        return {**self.shared_state(),
                "shards": self._require_state().shard_set.models()}

    def __setstate__(self, state):
        rebuilt = type(self).from_shared_state(state, state["shards"])
        self.__dict__ = rebuilt.__dict__

    # ----------------------------------------------------------- introspect --

    @property
    def database(self) -> Database:
        return self._require_state().merged.database

    @property
    def shards(self) -> list[FactorJoin]:
        """Materialized per-shard models (loads any lazy shard)."""
        return self._require_state().shard_set.models()

    def materialized_shards(self) -> list[bool]:
        """Which shards are deserialized (lazy-loading introspection)."""
        return self._require_state().shard_set.materialized_flags()

    def model_size_bytes(self) -> int:
        state = self._require_state()
        merged = state.merged
        shared = pickled_size_bytes(
            (merged.key_statistics(), merged._key_joints,
             merged.key_trees(), state.merged_pairs))
        return shared + sum(m.model_size_bytes()
                            for m in state.shard_set.models())

    def fingerprint(self) -> str:
        """Content hash of the ensemble's statistics (see
        :meth:`FactorJoin.fingerprint`); materializes every shard."""
        import hashlib

        state = self._require_state()
        parts = "|".join([self.policy.kind, str(self.n_shards)]
                         + [m.fingerprint()
                            for m in state.shard_set.models()])
        return hashlib.sha256(parts.encode()).hexdigest()

    def group_names(self) -> list[str]:
        return self._require_state().merged.group_names()

    def group_name_of(self, table_name: str, column: str) -> str:
        """The equivalent key group a join key belongs to (explain
        traces read this alongside :meth:`binning_for_group`)."""
        return self._require_state().merged.group_name_of(table_name,
                                                          column)

    def binning_for_group(self, name: str) -> Binning:
        return self._require_state().merged.binning_for_group(name)

    def describe(self) -> dict:
        """JSON-ready ensemble summary (manifest + ``GET /v1/models``)."""
        state = self._require_state()
        return {
            "kind": "ShardedFactorJoin",
            "policy": self.policy.describe(),
            "n_shards": self.n_shards,
            "parallel": self.parallel,
            "materialized_shards": sum(state.shard_set.
                                       materialized_flags()),
        }


# -------------------------------------------------------------- assembly --


def shared_payload(*, config, policy, parallel, max_workers,
                   parallel_fallback, fit_seconds, last_update_seconds,
                   shard_fit_seconds, summaries, key_stats, key_trees,
                   key_joints, merged_pairs, supports, db_shell) -> dict:
    """The persisted ensemble payload, defined once.

    :meth:`ShardedFactorJoin.shared_state` (fitted models) and the
    distributed fit (statistics shipped from workers) both assemble the
    payload here, and :meth:`ShardedFactorJoin.from_shared_state` reads
    it back — keyword-only so a field added to the set breaks every
    producer loudly instead of silently missing from one artifact path.
    """
    return {
        "config": config,
        "policy": policy,
        "parallel": parallel,
        "max_workers": max_workers,
        "parallel_fallback": parallel_fallback,
        "fit_seconds": fit_seconds,
        "last_update_seconds": last_update_seconds,
        "shard_fit_seconds": shard_fit_seconds,
        "summaries": summaries,
        "key_stats": key_stats,
        "key_trees": key_trees,
        "key_joints": key_joints,
        "merged_pairs": merged_pairs,
        "supports": supports,
        "db_shell": db_shell,
    }


def _build_state(config: FactorJoinConfig, database: Database,
                 policy: ShardingPolicy, shard_set: ShardSet,
                 summaries: tuple[ShardSummary, ...],
                 estimator_cls: type | None = None) -> _EnsembleState:
    """Merge freshly fitted shard models into one ensemble state."""
    stats_list = [shard_stats_of(model, database.schema)
                  for model in shard_set.models()]
    key_stats, merged_pairs, key_trees, key_joints, supports = (
        merged_components(database.schema, stats_list))
    return _assemble_state(config, database, policy, shard_set, summaries,
                           key_stats, key_trees, key_joints, merged_pairs,
                           supports, estimator_cls=estimator_cls)


def merged_components(schema: DatabaseSchema, stats_list: list[ShardStats]):
    """Merge per-shard :class:`ShardStats` into the ensemble's shared
    components; returns ``(key_stats, merged_pairs, key_trees,
    key_joints, supports)``.

    This is the single definition of the lossless merge: the in-process
    fit, the distributed fit (whose driver never holds shard models, only
    their shipped statistics), and artifact assembly all go through it.
    """
    group_names = list(stats_list[0].key_stats)
    key_stats = {
        name: KeyStatistics.merged([s.key_stats[name] for s in stats_list])
        for name in group_names
    }
    merged_pairs: dict[tuple[str, str, str], np.ndarray] = {}
    for stats in stats_list:
        for key, joint in stats.pairs.items():
            if key in merged_pairs:
                merged_pairs[key] = merged_pairs[key] + joint
            else:
                merged_pairs[key] = joint.copy()
    key_trees, key_joints = trees_from_pairs(schema, merged_pairs)
    supports = {
        table_name: (
            all(s.supports.get(table_name, (True, True))[0]
                for s in stats_list),
            all(s.supports.get(table_name, (True, True))[1]
                for s in stats_list),
        )
        for table_name in schema.table_names
    }
    return key_stats, merged_pairs, key_trees, key_joints, supports


def replaced_shard_state(config: FactorJoinConfig, policy: ShardingPolicy,
                         state: _EnsembleState, index: int, slot,
                         old_stats: ShardStats, new_stats: ShardStats,
                         summary: ShardSummary,
                         estimator_cls: type | None = None
                         ) -> _EnsembleState:
    """The ensemble state after shard ``index`` is replaced by ``slot``.

    Merged statistics absorb an exact ``- old + new`` delta; no other
    shard is touched (their slots — and, for lazily loaded ensembles,
    their deserialized models — carry over).  Shared by the in-process
    :meth:`ShardedFactorJoin.hot_swap_shard` and the cluster model, whose
    ``slot`` is a worker-backed proxy and whose stats arrive over RPC.
    """
    merged = state.merged
    schema = merged.database.schema
    key_stats = {
        name: KeyStatistics.replaced(merged.key_statistics()[name],
                                     old_stats.key_stats[name],
                                     new_stats.key_stats[name])
        for name in merged.key_statistics()
    }
    pairs = dict(state.merged_pairs)
    for key in sorted(set(old_stats.pairs) | set(new_stats.pairs)):
        old = old_stats.pairs.get(key)
        new = new_stats.pairs.get(key)
        base = pairs.get(key)
        if base is None:
            base = np.zeros_like(old if old is not None else new)
        out = base.copy()
        if old is not None:
            out -= old
        if new is not None:
            out += new
        np.maximum(out, 0.0, out=out)
        pairs[key] = out
    key_trees, key_joints = trees_from_pairs(schema, pairs)
    # support flags cannot be un-ANDed without every shard's answer, so
    # the swap narrows conservatively: an ability the ensemble already
    # lost stays lost even if the outgoing shard caused it
    supports = {
        table_name: (
            state.supports.get(table_name, (True, True))[0]
            and new_stats.supports.get(table_name, (True, True))[0],
            state.supports.get(table_name, (True, True))[1]
            and new_stats.supports.get(table_name, (True, True))[1],
        )
        for table_name in schema.table_names
    }
    summaries = list(state.summaries)
    summaries[index] = summary
    return _assemble_state(config, merged.database, policy,
                           state.shard_set.replace({index: slot}),
                           tuple(summaries), key_stats, key_trees,
                           key_joints, pairs, supports,
                           estimator_cls=estimator_cls)


def trees_from_pairs(schema: DatabaseSchema,
                     merged_pairs: dict[tuple[str, str, str], np.ndarray]):
    """Chow-Liu key trees and edge joints from merged pairwise joints."""
    key_trees: dict[str, list[tuple[str, str]]] = {}
    key_joints: dict[tuple[str, str, str], np.ndarray] = {}
    for table_name in schema.table_names:
        keys = schema.table(table_name).key_columns
        if len(keys) < 2:
            key_trees[table_name] = []
            continue
        index = {column: i for i, column in enumerate(keys)}
        joints_by_index = {
            (index[a], index[b]): merged_pairs[(t, a, b)]
            for (t, a, b) in merged_pairs if t == table_name
        }
        edges = chow_liu_tree_from_joints(joints_by_index, len(keys))
        tree = []
        for pi, ci in edges:
            parent, child = keys[pi], keys[ci]
            pair = _pair_lookup(merged_pairs, table_name, parent, child)
            key_joints[(table_name, parent, child)] = pair[:-1, :-1].copy()
            tree.append((parent, child))
        key_trees[table_name] = tree
    return key_trees, key_joints


def _assemble_state(config: FactorJoinConfig, database: Database,
                    policy: ShardingPolicy, shard_set: ShardSet,
                    summaries: tuple[ShardSummary, ...],
                    key_stats: dict[str, KeyStatistics],
                    key_trees: dict[str, list[tuple[str, str]]],
                    key_joints: dict[tuple[str, str, str], np.ndarray],
                    merged_pairs: dict[tuple[str, str, str], np.ndarray],
                    supports: dict[str, tuple[bool, bool]],
                    estimator_cls: type | None = None
                    ) -> _EnsembleState:
    """Wrap merged components into a fresh immutable ensemble state."""
    merged = FactorJoin.from_components(
        config, database, key_stats,
        _ensemble_estimators(database.schema, shard_set, summaries, policy,
                             key_stats, supports,
                             estimator_cls=estimator_cls),
        key_trees, key_joints)
    return _EnsembleState(shard_set=shard_set, summaries=tuple(summaries),
                          merged=merged, merged_pairs=merged_pairs,
                          supports=supports)


def _ensemble_estimators(schema: DatabaseSchema, shard_set: ShardSet,
                         summaries: tuple[ShardSummary, ...],
                         policy: ShardingPolicy,
                         key_stats: dict[str, KeyStatistics],
                         supports: dict[str, tuple[bool, bool]],
                         estimator_cls: type | None = None
                         ) -> dict[str, EnsembleTableEstimator]:
    if estimator_cls is None:
        estimator_cls = EnsembleTableEstimator
    group_of_key = {}
    for name, stats in key_stats.items():
        for table_name, column in stats.keys:
            group_of_key[(table_name, column)] = name
    estimators = {}
    for table_name in schema.table_names:
        tschema = schema.table(table_name)
        binnings = {
            column: key_stats[group_of_key[(table_name, column)]].binning
            for column in tschema.key_columns
            if (table_name, column) in group_of_key
        }
        estimators[table_name] = estimator_cls(
            table_name, shard_set,
            [summary.table(table_name) for summary in summaries],
            policy, tschema, binnings,
            supports.get(table_name, (True, True)))
    return estimators


def updated_clone(model, table_name: str, rows: Table | None,
                  deleted_rows: Table | None):
    """A table-scoped clone of one shard ``model`` with one batch
    applied; ``model`` itself is untouched."""
    clone = model.clone_for_update(table_name)
    clone.update(table_name, rows, deleted_rows=deleted_rows)
    return clone


def _merged_delta(state: _EnsembleState, table_name: str,
                  tschema: TableSchema, new_rows: Table | None,
                  deleted_rows: Table | None):
    """The merged statistics after one batch, copy-on-write: ``(key
    statistics, pairwise joints, key-tree joints, database view)`` with
    only ``table_name``'s entries replaced."""
    merged = state.merged
    groups = {column: merged.group_name_of(table_name, column)
              for column in tschema.key_columns}
    new_key_stats = copy_on_write(merged.key_statistics(), table_name,
                                  groups)
    for column, group_name in groups.items():
        bin_stats = new_key_stats[group_name].stats_of(table_name, column)
        if new_rows is not None:
            bin_stats.insert(
                new_rows[column].non_null_values().astype(np.int64))
        if deleted_rows is not None:
            bin_stats.delete(
                deleted_rows[column].non_null_values().astype(np.int64))

    # pairwise joints + the fixed tree's edge conditionals
    new_pairs = dict(state.merged_pairs)
    binning_of = {column: new_key_stats[group_name].binning
                  for column, group_name in groups.items()}
    for (tname, col_a, col_b), joint in state.merged_pairs.items():
        if tname != table_name:
            continue
        joint = joint.copy()
        if new_rows is not None:
            joint += _pair_histogram(new_rows, col_a, col_b,
                                     binning_of, joint.shape)
        if deleted_rows is not None:
            joint -= _pair_histogram(deleted_rows, col_a, col_b,
                                     binning_of, joint.shape)
            np.maximum(joint, 0.0, out=joint)
        new_pairs[(tname, col_a, col_b)] = joint
    new_key_joints = dict(merged._key_joints)
    for parent, child in merged.key_trees().get(table_name, []):
        pair = _pair_lookup(new_pairs, table_name, parent, child)
        new_key_joints[(table_name, parent, child)] = pair[:-1, :-1].copy()

    new_db = merged.database
    if new_rows is not None:
        new_db = new_db.insert(table_name, new_rows)
    if deleted_rows is not None:
        new_db = new_db.delete(table_name, deleted_rows, strict=False)
    return new_key_stats, new_pairs, new_key_joints, new_db


def _pair_lookup(pairs: dict[tuple[str, str, str], np.ndarray],
                 table_name: str, parent: str, child: str) -> np.ndarray:
    """The (parent, child)-oriented full joint from canonical storage."""
    if (table_name, parent, child) in pairs:
        return pairs[(table_name, parent, child)]
    return pairs[(table_name, child, parent)].T


def _pair_histogram(rows: Table, col_a: str, col_b: str,
                    binnings: dict[str, Binning],
                    shape: tuple[int, int]) -> np.ndarray:
    """Full (NULL-padded) joint histogram of one batch's two key columns
    (same NULL-code convention as the fit path:
    :meth:`~repro.core.binning.Binning.assign_with_null_code`)."""
    return joint_histogram(
        binnings[col_a].assign_with_null_code(rows[col_a]),
        binnings[col_b].assign_with_null_code(rows[col_b]),
        shape[0], shape[1])
