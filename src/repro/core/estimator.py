"""The FactorJoin cardinality estimator (the paper's contribution).

Offline (``fit``, Section 3.3): discover equivalent key groups, bin their
domains (GBSA by default, optionally workload-aware budgets), record per-bin
MFV/total/NDV statistics, learn each table's Chow-Liu key tree conditionals
(Section 5.1), and train one pluggable single-table estimator per table.

Online (``estimate`` / ``estimate_subplans``): translate the query into
factors over its equivalent key group variables and run bound-based
variable elimination (Section 4) — progressively for sub-plans (Section 5.2).

``update`` implements Section 4.3: incremental, bins stay fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import bound as bound_mod
from repro.core.bin_stats import BinStats, KeyStatistics, copy_on_write
from repro.core.binning import (
    Binning,
    equal_depth_binning,
    equal_width_binning,
    gbsa_binning,
    split_bin_budget,
)
from repro.core.factors import JoinFactor
from repro.core.inference import (
    estimate_subplans_independently,
    fold_query,
)
from repro.core.key_groups import (
    KeyGroup,
    query_key_groups,
    schema_key_groups,
)
from repro.data.database import Database
from repro.data.table import Table
from repro.errors import (
    NotFittedError,
    UnsupportedOperationError,
    UnsupportedQueryError,
)
from repro.estimators.base import make_table_estimator
from repro.factorgraph.chow_liu import (
    chow_liu_tree_from_joints,
    joint_histogram,
    pairwise_joints,
)
from repro.sql.query import Query
from repro.utils import Timer, pickled_size_bytes

BINNING_STRATEGIES = ("gbsa", "equal_width", "equal_depth")


@dataclass
class FactorJoinConfig:
    """Hyperparameters (paper Section 6.1 defaults: k=100, GBSA, BayesCard)."""

    n_bins: int = 100
    binning: str = "gbsa"
    table_estimator: str = "bayescard"
    bound_mode: str = bound_mod.BOUND
    sample_rate: float = 0.05
    max_sample_rows: int = 50_000
    attribute_codes: int = 32
    fit_sample_rows: int = 50_000
    workload: list[Query] | None = None
    total_bin_budget: int | None = None
    seed: int = 0
    estimator_kwargs: dict = field(default_factory=dict)
    # retain full pairwise key-joint histograms (not just tree edges) so
    # per-partition models can be merged exactly (joint histograms sum
    # across horizontal shards); costs O(|JK|^2 k^2) floats per table
    keep_pairwise_joints: bool = False

    def __post_init__(self):
        if self.binning not in BINNING_STRATEGIES:
            raise ValueError(f"unknown binning strategy {self.binning!r}; "
                             f"choose from {BINNING_STRATEGIES}")
        if self.bound_mode not in bound_mod.MODES:
            raise ValueError(f"unknown bound mode {self.bound_mode!r}")


class FactorJoin:
    """Join-query cardinality estimation from single-table statistics."""

    def __init__(self, config: FactorJoinConfig | None = None, **kwargs):
        if config is None:
            config = FactorJoinConfig(**kwargs)
        elif kwargs:
            raise ValueError("pass either a config object or kwargs, not both")
        self.config = config
        self._fitted = False
        self.fit_seconds = 0.0
        self.last_update_seconds = 0.0

    # ------------------------------------------------------------------ fit --

    def fit(self, database: Database,
            shared_binnings: dict[str, Binning] | None = None
            ) -> "FactorJoin":
        """Fit on ``database``.

        ``shared_binnings`` (group name -> :class:`Binning`) overrides the
        per-group binning construction.  A sharded ensemble fits one model
        per horizontal partition under one *global* binning so per-shard
        bin statistics stay mergeable (equal values must land in equal
        bins across shards just as they must across keys, Equation 3).
        """
        with Timer() as timer:
            self._fit(database, shared_binnings=shared_binnings)
        self.fit_seconds = timer.elapsed
        return self

    def _fit(self, database: Database,
             shared_binnings: dict[str, Binning] | None = None) -> None:
        self._db = database
        self._groups: list[KeyGroup] = schema_key_groups(database.schema)
        self._group_of_key: dict[tuple[str, str], KeyGroup] = {}
        for group in self._groups:
            for member in group.members:
                self._group_of_key[member] = group

        budgets = self._bin_budgets()
        self._key_stats: dict[str, KeyStatistics] = {}
        for group in self._groups:
            if shared_binnings and group.name in shared_binnings:
                binning = shared_binnings[group.name]
            else:
                binning = self._build_binning(group, budgets[group.name])
            stats = KeyStatistics(group.name, binning)
            for table_name, column in group.members:
                stats.add_key(table_name, column,
                              self._key_values(table_name, column))
            self._key_stats[group.name] = stats

        self._table_estimators = {}
        self._key_trees: dict[str, list[tuple[str, str]]] = {}
        self._key_joints: dict[tuple[str, str, str], np.ndarray] = {}
        self._pairwise_joints: dict[tuple[str, str, str], np.ndarray] = {}
        for table_name in database.table_names:
            self._fit_table(table_name)
        self._key_conditionals = {}
        self._fitted = True

    def build_binnings(self, database: Database) -> dict[str, Binning]:
        """Per-group binnings for ``database`` without fitting anything
        else — the (cheap) serial prologue of a sharded parallel fit."""
        self._db = database
        self._groups = schema_key_groups(database.schema)
        self._group_of_key = {}
        for group in self._groups:
            for member in group.members:
                self._group_of_key[member] = group
        budgets = self._bin_budgets()
        return {group.name: self._build_binning(group, budgets[group.name])
                for group in self._groups}

    def _bin_budgets(self) -> dict[str, int]:
        """Per-group bin counts (Section 4.2 when a workload is given)."""
        cfg = self.config
        names = [g.name for g in self._groups]
        if cfg.workload:
            freqs = {name: 0 for name in names}
            for query in cfg.workload:
                q_groups = query_key_groups(query)
                seen = set()
                for refs in q_groups.members:
                    ref = refs[0]
                    member = (query.table_of(ref.alias), ref.column)
                    group = self._group_of_key.get(member)
                    if group is not None and group.name not in seen:
                        freqs[group.name] += 1
                        seen.add(group.name)
            budget = cfg.total_bin_budget or cfg.n_bins * len(names)
            return split_bin_budget(budget, freqs)
        if cfg.total_bin_budget:
            even = max(1, cfg.total_bin_budget // max(1, len(names)))
            return {name: even for name in names}
        return {name: cfg.n_bins for name in names}

    def _key_values(self, table_name: str, column: str) -> np.ndarray:
        col = self._db.table(table_name)[column]
        return col.non_null_values().astype(np.int64)

    def _build_binning(self, group: KeyGroup, n_bins: int) -> Binning:
        columns = [self._key_values(t, c) for t, c in group.members]
        columns = [c for c in columns if len(c)]
        if not columns:
            return Binning(np.zeros(0, np.int64), np.zeros(0, np.int64), 1)
        if self.config.binning == "gbsa":
            return gbsa_binning(columns, n_bins)
        domain = np.unique(np.concatenate(columns))
        if self.config.binning == "equal_width":
            return equal_width_binning(domain, n_bins)
        counts = np.zeros(len(domain))
        for col in columns:
            vals, cnts = np.unique(col, return_counts=True)
            counts[np.searchsorted(domain, vals)] += cnts
        return equal_depth_binning(domain, counts, n_bins)

    def _fit_table(self, table_name: str) -> None:
        cfg = self.config
        table = self._db.table(table_name)
        tschema = self._db.schema.table(table_name)
        binnings = {
            column: self._key_stats[self._group_of_key[(table_name,
                                                        column)].name].binning
            for column in tschema.key_columns
        }
        estimator = self._make_estimator()
        estimator.fit(table, tschema, binnings)
        self._table_estimators[table_name] = estimator

        # Section 5.1: Chow-Liu tree over this table's join keys, with per-
        # edge binned conditionals used to avoid the k^|JK| joint.
        keys = tschema.key_columns
        if len(keys) >= 2:
            codes, cards = [], []
            for column in keys:
                binning = binnings[column]
                codes.append(binning.assign_with_null_code(table[column]))
                cards.append(binning.n_bins + 1)
            matrix = np.stack(codes, axis=1)
            joints = pairwise_joints(matrix, cards)
            if cfg.keep_pairwise_joints:
                for (i, j), joint in joints.items():
                    self._pairwise_joints[(table_name, keys[i],
                                           keys[j])] = joint
            edges = chow_liu_tree_from_joints(joints, len(keys))
            tree = []
            for pi, ci in edges:
                parent, child = keys[pi], keys[ci]
                joint = (joints[(pi, ci)] if pi < ci
                         else joints[(ci, pi)].T)
                # drop NULL codes; conditionals only describe joinable rows
                self._key_joints[(table_name, parent, child)] = (
                    joint[:-1, :-1].copy())
                tree.append((parent, child))
            self._key_trees[table_name] = tree
        else:
            self._key_trees[table_name] = []

    def _make_estimator(self):
        cfg = self.config
        kwargs = dict(cfg.estimator_kwargs)
        if cfg.table_estimator == "sampling":
            kwargs.setdefault("sample_rate", cfg.sample_rate)
            kwargs.setdefault("max_sample_rows", cfg.max_sample_rows)
            kwargs.setdefault("seed", cfg.seed)
        elif cfg.table_estimator == "bayescard":
            kwargs.setdefault("attribute_codes", cfg.attribute_codes)
            kwargs.setdefault("fit_sample_rows", cfg.fit_sample_rows)
            kwargs.setdefault("seed", cfg.seed)
        return make_table_estimator(cfg.table_estimator, **kwargs)

    # ------------------------------------------------------------- estimate --

    def estimate(self, query: Query) -> float:
        """Estimated (probabilistically upper-bounded) cardinality."""
        self._check_fitted()
        groups_q = query_key_groups(query)
        provider = self._provider(groups_q)
        return fold_query(query, provider, mode=self.config.bound_mode)

    def open_session(self, query: Query):
        """Prepare ``query`` for repeated sub-plan probing.

        The :class:`~repro.api.session.FactorJoinSession` resolves key
        groups and memoizes base factors once; every
        ``estimate_join(subset)`` probe after that is one pairwise factor
        combination (Section 5.2), bit-identical to estimating the
        induced sub-query from scratch.  This is the interface a query
        optimizer should hold for the duration of planning one query.
        """
        from repro.api.session import FactorJoinSession

        self._check_fitted()
        return FactorJoinSession(self, query)

    def estimate_subplans(self, query: Query, min_tables: int = 1,
                          progressive: bool = True) -> dict[frozenset, float]:
        """Estimates for every connected sub-plan (Section 5.2).

        The progressive path runs through :meth:`open_session` — one
        prepared session computing the whole lattice; ``progressive=
        False`` is the ablation that re-folds every sub-plan from
        scratch.
        """
        self._check_fitted()
        if progressive:
            return self.open_session(query).estimate_all(
                min_tables=min_tables)
        groups_q = query_key_groups(query)
        provider = self._provider(groups_q)
        return estimate_subplans_independently(
            query, provider, mode=self.config.bound_mode,
            min_tables=min_tables)

    def capabilities(self):
        """Declared :class:`~repro.api.protocol.Capabilities`: updates
        and deletions reflect what every fitted table estimator can
        absorb, predicate classes are the intersection across tables."""
        from repro.api.protocol import Capabilities

        self._check_fitted()
        estimators = list(self._table_estimators.values())
        supports_update = all(e.supports_update() for e in estimators)
        supports_delete = all(e.supports_delete() for e in estimators)
        predicate_classes = set(
            estimators[0].predicate_classes if estimators else ())
        for estimator in estimators[1:]:
            predicate_classes &= set(estimator.predicate_classes)
        return Capabilities(
            name="factorjoin",
            supports_update=supports_update,
            supports_delete=supports_delete,
            supports_subplans=True,
            supports_sessions=True,
            predicate_classes=tuple(sorted(predicate_classes)),
            update_granularity=("row-batch" if supports_update
                                else "refit"),
            supports_cyclic_joins=True,
            supports_self_joins=True)

    def subplan_fingerprints(self, query: Query, min_tables: int = 1
                             ) -> dict[frozenset, tuple]:
        """Stable, alias-invariant cache keys for the sub-plan map.

        Returns one canonical :meth:`~repro.sql.query.Query.subplan_key`
        per entry :meth:`estimate_subplans` would produce for ``query``
        (same subset universe, same ``min_tables`` semantics).  The
        serving layer keys its cross-request sub-plan table on these, so
        an estimate computed for a sub-plan of one query is reusable for
        any later query containing — or equal to — the same canonical
        sub-plan, regardless of alias spelling.  Keys are plain tuples of
        strings and ints: hashable, order-stable, and identical across
        processes and pickling round-trips.
        """
        return query.subplan_keys(min_tables=min_tables)

    def _provider(self, groups_q):
        def provider(query: Query, alias: str) -> JoinFactor:
            return self.base_factor(query, alias, groups_q)
        return provider

    def base_factor(self, query: Query, alias: str, groups_q=None
                    ) -> JoinFactor:
        """Factor node of one table occurrence (Lemma 1's factor nodes)."""
        self._check_fitted()
        if groups_q is None:
            groups_q = query_key_groups(query)
        table_name = query.table_of(alias)
        pred = query.filter_of(alias)
        estimator = self._table_estimators[table_name]
        total = estimator.estimate_row_count(pred)

        vars_q = groups_q.vars_of_alias(alias)
        totals: dict[int, np.ndarray] = {}
        mfvs: dict[int, np.ndarray] = {}
        ndvs: dict[int, np.ndarray] = {}
        chosen_column: dict[int, str] = {}
        for var in vars_q:
            refs = groups_q.refs_of(alias, var)
            ref_groups = {self._group_of_key.get((table_name, r.column))
                          for r in refs}
            if None in ref_groups or len(ref_groups) != 1:
                raise UnsupportedQueryError(
                    f"join keys of {alias} in one equivalence class must "
                    f"belong to one declared key group: {refs}")
            per_ref = []
            for ref in refs:
                stats = self._stats_for(table_name, ref.column)
                dist = estimator.key_distribution(ref.column, pred)
                per_ref.append((ref.column, dist, stats))
            # several refs of one alias in the same variable means the join
            # implies equality among them; the elementwise min is an upper
            # bound of the rows satisfying all equalities
            column, dist, stats = per_ref[0]
            for _, other_dist, other_stats in per_ref[1:]:
                dist = np.minimum(dist, other_dist)
                stats = _min_stats(stats, other_stats)
            chosen_column[var] = column
            totals[var] = np.maximum(dist, 0.0)
            mfvs[var] = stats.mfv.copy()
            ndvs[var] = np.maximum(stats.ndv.copy(), 1.0)

        conditionals = self._factor_conditionals(
            table_name, vars_q, chosen_column)
        return JoinFactor(tuple(vars_q), float(max(total, 0.0)),
                          totals, mfvs, ndvs, conditionals)

    def _factor_conditionals(self, table_name: str, vars_q: list[int],
                             chosen_column: dict[int, str]) -> dict:
        """Chow-Liu key-tree conditionals restricted to the query's vars.

        Each ``P(child | parent)`` is normalized once per statistics
        version: ``_update_key_joints`` swaps in a fresh cache, so a
        concurrent reader holding the old one never publishes a stale
        matrix into the new one.  Cached matrices are read-only because
        every factor shares them."""
        cache = self._key_conditionals
        conditionals: dict[tuple[int, int], np.ndarray] = {}
        column_var = {col: var for var, col in chosen_column.items()}
        for parent, child in self._key_trees.get(table_name, []):
            if parent in column_var and child in column_var:
                key = (table_name, parent, child)
                cond = cache.get(key)
                if cond is None:
                    joint = self._key_joints[key]
                    row_sums = joint.sum(axis=1, keepdims=True)
                    cond = np.divide(joint, row_sums,
                                     out=np.zeros_like(joint),
                                     where=row_sums > 0)
                    cond.flags.writeable = False
                    cache[key] = cond
                conditionals[(column_var[parent], column_var[child])] = cond
        return conditionals

    def _stats_for(self, table_name: str, column: str) -> BinStats:
        group = self._group_of_key.get((table_name, column))
        if group is None:
            raise UnsupportedQueryError(
                f"{table_name}.{column} is not a declared join key")
        return self._key_stats[group.name].stats_of(table_name, column)

    # --------------------------------------------------------------- update --

    def update(self, table_name: str, new_rows: Table | None = None,
               deleted_rows: Table | None = None) -> None:
        """Incremental insertion and/or deletion (Section 4.3).

        Bins stay fixed; per-value counts, key-joint histograms, and the
        table estimator are updated exactly.  Everything is validated
        (columns, dtypes, estimator support) *before* any statistic
        mutates — a malformed batch must not half-update the model.
        ``deleted_rows`` removes one table row per given row; the fitted
        table estimator must implement ``delete`` (TrueScan and
        Histogram1D do; sample-based estimators reject deletions).
        """
        self._check_fitted()
        with Timer() as timer:
            tschema = self._db.schema.table(table_name)
            estimator = self._table_estimators[table_name]
            if deleted_rows is not None and not estimator.supports_delete():
                raise UnsupportedOperationError(
                    f"{type(estimator).__name__} for table {table_name!r} "
                    f"does not support deletions")
            # validation pass: both batches must apply cleanly to the
            # database view before any statistic mutates.  Deletion is
            # non-strict: after an artifact reload the model's database is
            # an empty shell (see __getstate__), so row presence cannot be
            # checked there — the statistics themselves floor at zero.
            new_db = self._db
            if new_rows is not None:
                new_db = new_db.insert(table_name, new_rows)
            if deleted_rows is not None:
                new_db = new_db.delete(table_name, deleted_rows,
                                       strict=False)
            for column in tschema.key_columns:
                group = self._group_of_key[(table_name, column)]
                stats = self._key_stats[group.name]
                if new_rows is not None:
                    values = new_rows[column].non_null_values()
                    stats.insert(table_name, column,
                                 values.astype(np.int64))
                if deleted_rows is not None:
                    values = deleted_rows[column].non_null_values()
                    stats.delete(table_name, column,
                                 values.astype(np.int64))
            if new_rows is not None:
                estimator.update(new_rows)
                self._update_key_joints(table_name, new_rows, sign=1.0)
            if deleted_rows is not None:
                estimator.delete(deleted_rows)
                self._update_key_joints(table_name, deleted_rows, sign=-1.0)
            self._db = new_db
        self.last_update_seconds = timer.elapsed

    def _update_key_joints(self, table_name: str, rows: Table,
                           sign: float = 1.0) -> None:
        for parent, child in self._key_trees.get(table_name, []):
            joint = self._key_joints[(table_name, parent, child)]
            p_col, c_col = rows[parent], rows[child]
            valid = ~p_col.null_mask & ~c_col.null_mask
            if not valid.any():
                continue
            p_bin = self._binning_of(table_name, parent).assign(
                p_col.values[valid])
            c_bin = self._binning_of(table_name, child).assign(
                c_col.values[valid])
            joint += sign * joint_histogram(p_bin, c_bin, joint.shape[0],
                                            joint.shape[1])
            if sign < 0:
                np.maximum(joint, 0.0, out=joint)
        # full pairwise joints (kept for ensemble merging) include the
        # NULL code row/column, so they absorb every row of the batch
        for (tname, a, b), joint in getattr(self, "_pairwise_joints",
                                            {}).items():
            if tname != table_name:
                continue
            a_code = self._binning_of(table_name,
                                      a).assign_with_null_code(rows[a])
            b_code = self._binning_of(table_name,
                                      b).assign_with_null_code(rows[b])
            joint += sign * joint_histogram(a_code, b_code, joint.shape[0],
                                            joint.shape[1])
            if sign < 0:
                np.maximum(joint, 0.0, out=joint)
        # swap, never clear in place (see _factor_conditionals)
        self._key_conditionals = {}

    def _binning_of(self, table_name: str, column: str) -> Binning:
        group = self._group_of_key[(table_name, column)]
        return self._key_stats[group.name].binning

    def supports_update(self, table_name: str) -> bool:
        """Whether inserts into ``table_name`` can be absorbed — i.e. the
        fitted table estimator implements ``update``.  Unknown tables
        return True so ``update`` raises its own (clearer) SchemaError."""
        self._check_fitted()
        estimator = self._table_estimators.get(table_name)
        return estimator is None or estimator.supports_update()

    def supports_delete(self, table_name: str) -> bool:
        """Whether deletions from ``table_name`` can be absorbed — i.e. the
        fitted table estimator implements ``delete``."""
        self._check_fitted()
        estimator = self._table_estimators.get(table_name)
        return estimator is None or estimator.supports_delete()

    # -------------------------------------------------------------- persist --

    def __getstate__(self):
        """Pickle the online phase only: statistics, per-table estimators,
        key trees, and the schema — not the base tables the model was
        fitted on.  Artifacts stay model-sized instead of data-sized, and
        ``update`` keeps working after a reload (the schema survives;
        rows inserted post-load accumulate into the empty shell).  The
        derived conditional cache is never pickled."""
        state = dict(self.__dict__)
        state.pop("_key_conditionals", None)
        db = state.get("_db")
        if db is not None:
            state["_db"] = db.empty_copy()
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # artifacts written before pairwise joints existed stay loadable
        self.__dict__.setdefault("_pairwise_joints", {})
        self._key_conditionals = {}

    def __deepcopy__(self, memo):
        """In-memory clones keep the base tables.

        Without this, ``copy.deepcopy`` would route through
        ``__getstate__`` and silently drop the database view — the
        persistence trade-off is for artifacts, not for in-memory
        copies.  (Updates that must leave this model serving use the
        cheaper :meth:`clone_for_update`.)"""
        import copy as _copy

        clone = type(self).__new__(type(self))
        memo[id(self)] = clone
        state = dict(self.__dict__)
        state.pop("_key_conditionals", None)
        clone.__dict__ = _copy.deepcopy(state, memo)
        clone._key_conditionals = {}
        return clone

    def clone_for_update(self, table_name: str) -> "FactorJoin":
        """Copy that ``update(table_name, ...)`` may mutate while this
        model keeps serving (the ensemble's copy-on-write update path).

        Only what that update mutates is copied: the table's estimator,
        the :class:`BinStats` of its key columns (see
        :func:`~repro.core.bin_stats.copy_on_write`), and its key-tree
        and pairwise joints.  Everything else — other tables' statistics,
        the binnings, the key trees, the database view (``update`` only
        rebinds ``_db``; ``Database.insert``/``delete`` are functional)
        — is shared by reference, so the copy costs one table, not the
        model."""
        import copy as _copy

        self._check_fitted()
        tschema = self._db.schema.table(table_name)
        key_stats = copy_on_write(self._key_stats, table_name, {
            column: self._group_of_key[(table_name, column)].name
            for column in tschema.key_columns})
        # seed the deepcopy memo with what the estimator shares with the
        # rest of the model: a copied Binning would be pickled once per
        # holder (inflating every artifact), and base tables are
        # immutable (estimators rebind them, as TrueScan does)
        shared = {id(stats.binning): stats.binning
                  for stats in self._key_stats.values()}
        for name in self._db.table_names:
            table = self._db.table(name)
            shared[id(table)] = table
        estimators = dict(self._table_estimators)
        estimators[table_name] = _copy.deepcopy(estimators[table_name],
                                                shared)

        clone = type(self).__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._key_stats = key_stats
        clone._table_estimators = estimators
        clone._key_joints = _copy_table_entries(self._key_joints,
                                                table_name)
        clone._pairwise_joints = _copy_table_entries(self._pairwise_joints,
                                                     table_name)
        clone._key_conditionals = {}
        return clone

    def save(self, path, name: str | None = None,
             compress: bool = False) -> "FactorJoin":
        """Persist the fitted model as an artifact directory (manifest +
        pickle, gzip-compressed on disk with ``compress``); see
        :mod:`repro.serve.artifact`.  Returns self."""
        from repro.serve.artifact import save_model

        self._check_fitted()
        save_model(self, path, name=name, compress=compress)
        return self

    @classmethod
    def load(cls, path, expected_schema=None) -> "FactorJoin":
        """Load a saved artifact, verifying integrity (and optionally that
        it was fitted against ``expected_schema``)."""
        from repro.serve.artifact import load_model

        model = load_model(path, expected_schema=expected_schema)
        if not isinstance(model, cls):
            raise TypeError(
                f"artifact at {path} holds a {type(model).__name__}, "
                f"not a {cls.__name__}")
        return model

    # ------------------------------------------------------------- assemble --

    @classmethod
    def from_components(cls, config: FactorJoinConfig, database: Database,
                        key_stats: dict[str, KeyStatistics],
                        table_estimators: dict[str, object],
                        key_trees: dict[str, list[tuple[str, str]]],
                        key_joints: dict[tuple[str, str, str], np.ndarray],
                        fit_seconds: float = 0.0) -> "FactorJoin":
        """Assemble a fitted model from pre-built components.

        The merge hook the sharded ensemble uses: per-shard statistics are
        merged exactly (see :meth:`~repro.core.bin_stats.BinStats.merged`)
        and plugged in here together with ensemble table estimators, so
        the assembled model runs the ordinary online phase — inference
        never learns it is looking at a partitioned fit.
        """
        model = cls(config)
        model._db = database
        model._groups = schema_key_groups(database.schema)
        model._group_of_key = {}
        for group in model._groups:
            for member in group.members:
                model._group_of_key[member] = group
        model._key_stats = dict(key_stats)
        model._table_estimators = dict(table_estimators)
        model._key_trees = dict(key_trees)
        model._key_joints = dict(key_joints)
        model._key_conditionals = {}
        model._pairwise_joints = {}
        model._fitted = True
        model.fit_seconds = fit_seconds
        return model

    # ----------------------------------------------------------- introspect --

    def key_statistics(self) -> dict[str, KeyStatistics]:
        """Per-group key statistics (group name -> :class:`KeyStatistics`);
        the raw material of ensemble merging."""
        self._check_fitted()
        return self._key_stats

    def group_name_of(self, table_name: str, column: str) -> str:
        """The equivalent key group a join key belongs to."""
        self._check_fitted()
        group = self._group_of_key.get((table_name, column))
        if group is None:
            raise UnsupportedQueryError(
                f"{table_name}.{column} is not a declared join key")
        return group.name

    def key_trees(self) -> dict[str, list[tuple[str, str]]]:
        """Per-table Chow-Liu key-tree edges (fixed after fit)."""
        self._check_fitted()
        return self._key_trees

    def pairwise_joints_of(self, table_name: str
                           ) -> dict[tuple[str, str], np.ndarray]:
        """Full pairwise key-joint histograms of one table (only populated
        when ``config.keep_pairwise_joints`` was set at fit time)."""
        self._check_fitted()
        return {(a, b): joint
                for (t, a, b), joint in self._pairwise_joints.items()
                if t == table_name}

    def table_estimator(self, table_name: str):
        """The fitted single-table estimator of ``table_name``."""
        self._check_fitted()
        return self._table_estimators[table_name]

    @property
    def database(self) -> Database:
        """The model's database view: the fit data plus rows absorbed by
        ``update`` — or, after a pickle/artifact reload, an empty-table
        shell of the same schema (see :meth:`__getstate__`)."""
        self._check_fitted()
        return self._db

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("FactorJoin.fit was never called")

    def model_size_bytes(self) -> int:
        """Pickled size of everything the online phase needs."""
        self._check_fitted()
        return pickled_size_bytes(
            (self._key_stats, self._table_estimators, self._key_joints,
             self._key_trees))

    def fingerprint(self) -> str:
        """Content hash of the model's *statistics* (not timings).

        Two fits producing identical statistics fingerprint identically,
        and any statistic mutation (``update``) changes it — the property
        cache snapshots rely on (:mod:`repro.serve.snapshot`)."""
        import hashlib
        import pickle as _pickle

        self._check_fitted()
        blob = _pickle.dumps(
            (self.config, self._key_stats, self._table_estimators,
             self._key_trees, self._key_joints, self._pairwise_joints),
            protocol=_pickle.HIGHEST_PROTOCOL)
        return hashlib.sha256(blob).hexdigest()

    def group_names(self) -> list[str]:
        self._check_fitted()
        return [g.name for g in self._groups]

    def binning_for_group(self, name: str) -> Binning:
        self._check_fitted()
        return self._key_stats[name].binning


@dataclass(frozen=True)
class _MinStatsView:
    """Elementwise-min over two keys' bin summaries (self-join within one
    alias).  A real (picklable) dataclass: the previous implementation was
    a function-local class with *class* attributes, which pickle cannot
    reduce — breaking persistence of anything that captured one."""

    mfv: np.ndarray
    ndv: np.ndarray


def _min_stats(a: BinStats, b: BinStats) -> _MinStatsView:
    return _MinStatsView(np.minimum(a.mfv, b.mfv), np.minimum(a.ndv, b.ndv))


def _copy_table_entries(joints: dict, table_name: str) -> dict:
    """``joints`` (keyed ``(table, a, b)``) with ``table_name``'s arrays
    copied and every other table's shared."""
    return {key: joint.copy() if key[0] == table_name else joint
            for key, joint in joints.items()}
