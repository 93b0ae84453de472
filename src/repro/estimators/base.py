"""Interface that single-table estimators implement.

An estimator answers two questions about *one* table (paper Equation 1):

- ``estimate_row_count(pred)``: estimated ``|Q(T)|``;
- ``key_distribution(column, pred)``: estimated per-bin counts of a join
  key among rows satisfying the filter, i.e. ``P(key in bin | Q) * |Q(T)|``.

Estimators that cannot evaluate a predicate class (e.g. BayesCard with LIKE)
raise :class:`~repro.errors.UnsupportedQueryError` so the framework or the
user can fall back to the sampling estimator, exactly as Section 6.1 does
for IMDB-JOB.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.binning import Binning
from repro.data.schema import TableSchema
from repro.data.table import Table
from repro.errors import UnsupportedOperationError
from repro.sql.predicates import Predicate


class BaseTableEstimator(ABC):
    """One instance models one table.

    Persistence contract: a fitted estimator must survive a pickle
    round-trip with bit-identical answers — the serving layer
    (:mod:`repro.serve.artifact`) persists whole fitted models this way.
    Keep state in plain attributes (numpy arrays, dicts, dataclasses);
    no lambdas, no function-local classes, no open handles.
    """

    name: str = "base"
    #: Predicate classes this estimator evaluates (see
    #: :data:`repro.api.protocol.PREDICATE_CLASSES`); estimators raise
    #: :class:`~repro.errors.UnsupportedQueryError` outside this set.
    predicate_classes: tuple[str, ...] = ("equality", "range", "in",
                                          "like", "disjunction", "is_null")

    @abstractmethod
    def fit(self, table: Table, schema: TableSchema,
            key_binnings: dict[str, Binning]) -> "BaseTableEstimator":
        """Train on the table; ``key_binnings`` maps key columns to the
        binning of their equivalent key group."""

    @abstractmethod
    def estimate_row_count(self, pred: Predicate) -> float:
        """Estimated number of rows satisfying ``pred``."""

    @abstractmethod
    def key_distribution(self, column: str, pred: Predicate) -> np.ndarray:
        """Estimated per-bin counts of ``column`` among rows matching
        ``pred`` (unnormalized; sums to at most the row-count estimate —
        rows with NULL keys are excluded since they can never join)."""

    def update(self, new_rows: Table) -> None:
        """Incrementally absorb inserted rows (Section 4.3)."""
        raise UnsupportedOperationError(
            f"{type(self).__name__} does not support incremental updates")

    def supports_update(self) -> bool:
        """Whether this estimator overrides :meth:`update` (the serving
        layer rejects ``POST /v1/update`` early for models that would raise)."""
        return type(self).update is not BaseTableEstimator.update

    def delete(self, deleted_rows: Table) -> None:
        """Incrementally absorb deleted rows (Section 4.3, symmetric to
        :meth:`update`).  Sample-based estimators cannot delete without
        bias and keep the default, which raises."""
        raise UnsupportedOperationError(
            f"{type(self).__name__} does not support incremental deletions")

    def supports_delete(self) -> bool:
        """Whether this estimator overrides :meth:`delete` (the serving
        layer rejects delete requests early for models that would raise)."""
        return type(self).delete is not BaseTableEstimator.delete


ESTIMATOR_REGISTRY: dict[str, type] = {}


def register_estimator(cls: type) -> type:
    """Class decorator adding an estimator to the plug-in registry."""
    ESTIMATOR_REGISTRY[cls.name] = cls
    return cls


def make_table_estimator(name: str, **kwargs) -> BaseTableEstimator:
    """Instantiate a registered estimator by name (user plug-in point)."""
    try:
        cls = ESTIMATOR_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown single-table estimator {name!r}; "
            f"available: {sorted(ESTIMATOR_REGISTRY)}") from None
    return cls(**kwargs)
