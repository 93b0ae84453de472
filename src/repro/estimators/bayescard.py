"""BayesCard estimator: tree Bayesian network over one table (paper [70]).

All columns — join keys (binned by their group binning, plus a NULL code)
and attributes (equal-depth discretized) — become nodes of a Chow-Liu tree
BN.  Filter predicates turn into exact per-code soft evidence, and the
conditional key distributions FactorJoin needs are read off BN marginals.

A predicate's row count and its key distributions are all read off one
evidence build and one set of tree messages (a per-thread memo keyed by
network version and predicate), so ``FactorJoin.base_factor`` probing
an alias once for its rows and once per join key calibrates once.

Matches the paper's support matrix: conjunctive numeric/categorical filters
(including single-column disjunctions and IN/BETWEEN) are supported; LIKE
and cross-column disjunctions raise ``UnsupportedQueryError``.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.binning import Binning
from repro.data.column import Column
from repro.data.schema import TableSchema
from repro.data.table import Table
from repro.errors import NotFittedError, UnsupportedQueryError
from repro.estimators.base import BaseTableEstimator, register_estimator
from repro.factorgraph.bayesnet import MessageSet, TreeBayesNet
from repro.sql.predicates import (
    And,
    Between,
    Comparison,
    In,
    IsNull,
    Like,
    Not,
    Or,
    Predicate,
    TruePredicate,
    conjoin,
)
from repro.stats.discretize import Discretizer
from repro.utils import resolve_rng, restore_state


def _contains_like(pred: Predicate) -> bool:
    if isinstance(pred, Like):
        return True
    if isinstance(pred, (And, Or)):
        return any(_contains_like(c) for c in pred.children)
    if isinstance(pred, Not):
        return _contains_like(pred.child)
    return False


@register_estimator
class BayesCardEstimator(BaseTableEstimator):
    name = "bayescard"
    # LIKE and cross-column disjunctions raise UnsupportedQueryError (the
    # framework falls back to the sampling estimator, Section 6.1)
    predicate_classes = ("equality", "range", "in", "disjunction",
                         "is_null")

    def __init__(self, attribute_codes: int = 32, fit_sample_rows: int = 50_000,
                 smoothing: float = 0.1, seed: int = 0):
        self._attribute_codes = attribute_codes
        self._fit_sample_rows = fit_sample_rows
        self._smoothing = smoothing
        self._rng = resolve_rng(seed)
        self._bn: TreeBayesNet | None = None
        self._probe_memo = threading.local()
        self._key_domains: dict[str, tuple[Table, np.ndarray]] = {}

    def __getstate__(self):
        """Derived state (the probe memo, the key-domain constants) is
        never pickled: it rebuilds on demand, and pickling it would make
        ``model_size_bytes`` and ``fingerprint`` depend on query history."""
        state = dict(self.__dict__)
        del state["_probe_memo"], state["_key_domains"]
        return state

    def __setstate__(self, state):
        restore_state(self, state)
        self._probe_memo = threading.local()
        self._key_domains = {}

    # -- training -------------------------------------------------------------------

    def fit(self, table: Table, schema: TableSchema,
            key_binnings: dict[str, Binning]) -> "BayesCardEstimator":
        self._total_rows = len(table)
        self._key_binnings = dict(key_binnings)
        self._node_of: dict[str, int] = {}
        self._key_columns: list[str] = []
        self._discretizers: dict[str, Discretizer] = {}

        fit_table = table
        if len(table) > self._fit_sample_rows:
            idx = np.sort(self._rng.choice(len(table),
                                           size=self._fit_sample_rows,
                                           replace=False))
            fit_table = table.take(idx)

        code_columns: list[np.ndarray] = []
        cardinalities: list[int] = []
        for cschema in schema.columns:
            name = cschema.name
            column = fit_table[name]
            if name in key_binnings:
                codes = self._encode_key(column, key_binnings[name])
                cardinality = key_binnings[name].n_bins + 1
                self._key_columns.append(name)
            else:
                disc = Discretizer(table[name],
                                   max_codes=self._attribute_codes)
                self._discretizers[name] = disc
                codes = disc.encode(column)
                cardinality = disc.n_codes
            self._node_of[name] = len(code_columns)
            code_columns.append(codes)
            cardinalities.append(cardinality)

        matrix = (np.stack(code_columns, axis=1) if code_columns
                  else np.zeros((len(fit_table), 0), dtype=np.int64))
        self._bn = TreeBayesNet(smoothing=self._smoothing)
        self._bn.fit(matrix, cardinalities)
        return self

    @staticmethod
    def _encode_key(column: Column, binning: Binning) -> np.ndarray:
        return binning.assign_with_null_code(column)

    # -- evidence construction ----------------------------------------------------------

    def _evidence(self, pred: Predicate) -> dict[int, np.ndarray]:
        """Per-node soft evidence vectors for a conjunctive predicate."""
        if isinstance(pred, TruePredicate):
            return {}
        per_column: dict[str, list[Predicate]] = {}
        for conjunct in pred.conjuncts():
            if _contains_like(conjunct):
                raise UnsupportedQueryError(
                    "BayesCard cannot evaluate LIKE predicates; "
                    "use the sampling estimator")
            cols = conjunct.columns()
            if len(cols) != 1:
                raise UnsupportedQueryError(
                    "BayesCard requires each conjunct to reference one "
                    f"column, got {sorted(cols)}")
            per_column.setdefault(next(iter(cols)), []).append(conjunct)

        evidence: dict[int, np.ndarray] = {}
        for column, preds in per_column.items():
            combined = conjoin(preds)
            node = self._node_of.get(column)
            if node is None:
                raise UnsupportedQueryError(
                    f"predicate references unknown column {column!r}")
            if column in self._key_binnings:
                evidence[node] = self._key_evidence(column, combined)
            else:
                evidence[node] = self._attribute_evidence(column, combined)
        return evidence

    def _attribute_evidence(self, column: str, pred: Predicate) -> np.ndarray:
        disc = self._discretizers[column]
        if isinstance(pred, IsNull):
            return disc.null_evidence(pred.negated)
        weights = disc.evidence_weights(_strip_nulls(pred))
        extra = _null_part(pred)
        if extra is not None:
            weights = np.maximum(weights, disc.null_evidence(extra.negated))
        return weights

    def _key_evidence(self, column: str, pred: Predicate) -> np.ndarray:
        """Filters directly on a join key: evaluate on the binning's domain."""
        binning = self._key_binnings[column]
        if isinstance(pred, IsNull):
            weights = np.zeros(binning.n_bins + 1)
            if pred.negated:
                weights[: binning.n_bins] = 1.0
            else:
                weights[binning.n_bins] = 1.0
            return weights
        from repro.engine.filter import evaluate_predicate

        # the binning's domain and its per-bin value counts are fixed at
        # fit: build them once per column
        domain = self._key_domains.get(column)
        if domain is None:
            domain = self._key_domains[column] = (
                Table("_k", [Column(column, binning.domain)]),
                np.bincount(binning.bin_ids,
                            minlength=binning.n_bins).astype(float))
        tiny, per_bin_total = domain
        satisfied = evaluate_predicate(pred, tiny)
        weights = np.zeros(binning.n_bins + 1)
        per_bin_hit = np.bincount(binning.bin_ids, weights=satisfied,
                                  minlength=binning.n_bins)
        with np.errstate(divide="ignore", invalid="ignore"):
            weights[: binning.n_bins] = np.where(
                per_bin_total > 0, per_bin_hit / per_bin_total, 0.0)
        return weights

    # -- estimation API --------------------------------------------------------------------

    def _require_bn(self) -> TreeBayesNet:
        if self._bn is None:
            raise NotFittedError("BayesCardEstimator not fitted")
        return self._bn

    def _messages(self, pred: Predicate) -> MessageSet:
        """The evidence and tree messages of ``pred``.

        One entry per thread, keyed by (network version, predicate): a
        predicate's row count and every key distribution share one
        evidence build and one message set, and an ``update`` (which
        bumps the version) retires the entry."""
        bn = self._require_bn()
        memo = self._probe_memo
        messages = getattr(memo, "messages", None)
        if (messages is None or messages.version != bn.version
                or memo.pred != pred):
            messages = bn.messages(self._evidence(pred))
            memo.pred, memo.messages = pred, messages
        return messages

    def estimate_row_count(self, pred: Predicate) -> float:
        return self._messages(pred).probability() * self._total_rows

    def key_distribution(self, column: str, pred: Predicate) -> np.ndarray:
        binning = self._key_binnings[column]
        marginal = self._messages(pred).marginal(self._node_of[column])
        # drop the NULL code: NULL keys never join
        return marginal[: binning.n_bins] * self._total_rows

    def update(self, new_rows: Table) -> None:
        bn = self._require_bn()
        code_columns = []
        for name, node in sorted(self._node_of.items(), key=lambda kv: kv[1]):
            column = new_rows[name]
            if name in self._key_binnings:
                code_columns.append(
                    self._encode_key(column, self._key_binnings[name]))
            else:
                code_columns.append(self._discretizers[name].encode(column))
        matrix = (np.stack(code_columns, axis=1) if code_columns
                  else np.zeros((len(new_rows), 0), dtype=np.int64))
        bn.partial_fit(matrix)
        self._total_rows += len(new_rows)


def _strip_nulls(pred: Predicate) -> Predicate:
    """Remove IS NULL leaves (handled separately) from a predicate tree."""
    if isinstance(pred, And):
        parts = [_strip_nulls(c) for c in pred.children
                 if not isinstance(c, IsNull)]
        return conjoin(parts) if parts else TruePredicate()
    return pred


def _null_part(pred: Predicate) -> IsNull | None:
    if isinstance(pred, IsNull):
        return pred
    if isinstance(pred, And):
        for child in pred.children:
            if isinstance(child, IsNull):
                return child
    return None
