"""Attribute discretization with exact per-code predicate weights.

The BayesCard estimator needs, for any filter predicate over an attribute,
the probability that each *code* (discretized bucket) of the attribute
satisfies the predicate.  Because the discretizer keeps the full distinct
value histogram, those weights are exact: it evaluates the predicate once on
the distinct values and aggregates satisfied counts per code.
"""

from __future__ import annotations

import numpy as np

from repro.data.column import Column
from repro.data.table import Table
from repro.data.types import DataType
from repro.engine.filter import evaluate_predicate
from repro.sql.predicates import Predicate
from repro.utils import restore_state


class Discretizer:
    """Equal-depth discretization of one column into at most ``max_codes``.

    NULLs map to a dedicated extra code (the last one).  String columns are
    supported: codes follow lexicographic order of distinct values.
    """

    def __init__(self, column: Column, max_codes: int = 32):
        self._name = column.name
        self._dtype = column.dtype
        values = column.non_null_values()
        if len(values) == 0:
            self._distinct = values
            self._counts = np.zeros(0)
            self._code_of_value = np.zeros(0, dtype=np.int64)
            n_value_codes = 1
        else:
            self._distinct, counts = np.unique(values, return_counts=True)
            self._counts = counts.astype(np.float64)
            n_value_codes = min(max_codes, len(self._distinct))
            cum = np.cumsum(self._counts)
            total = cum[-1]
            self._code_of_value = np.minimum(
                ((cum - self._counts / 2) / total * n_value_codes),
                n_value_codes - 1).astype(np.int64)
            n_value_codes = int(self._code_of_value.max()) + 1
        self.n_value_codes = n_value_codes
        self.null_code = n_value_codes
        self.n_codes = n_value_codes + 1
        self._constants: tuple[Table, np.ndarray] | None = None

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_constants"]
        return state

    def __setstate__(self, state):
        restore_state(self, state)
        self._constants = None

    def _evidence_constants(self) -> tuple[Table, np.ndarray]:
        """The distinct values as a one-column table and the row count per
        code: fixed by the fit, so built on first use and never pickled."""
        if self._constants is None:
            self._constants = (
                Table("_d", [Column(self._name, self._distinct,
                                    self._dtype)]),
                np.bincount(self._code_of_value, weights=self._counts,
                            minlength=self.n_value_codes))
        return self._constants

    # -- encoding --------------------------------------------------------------

    def encode(self, column: Column) -> np.ndarray:
        """Codes for a column's rows (unseen values snap to nearest code)."""
        out = np.full(len(column), self.null_code, dtype=np.int64)
        valid = ~column.null_mask
        if valid.any() and len(self._distinct):
            vals = column.values[valid]
            if self._dtype is DataType.STRING:
                vals = vals.astype(object)
            pos = np.searchsorted(self._distinct, vals)
            pos = np.clip(pos, 0, len(self._distinct) - 1)
            out[valid] = self._code_of_value[pos]
        return out

    # -- evidence ----------------------------------------------------------------

    def evidence_weights(self, pred: Predicate) -> np.ndarray:
        """Per-code probability that a row with that code satisfies ``pred``.

        Exact w.r.t. the training distribution: the predicate is evaluated on
        the stored distinct values, weighted by their frequencies.
        """
        weights = np.zeros(self.n_codes, dtype=np.float64)
        if len(self._distinct) == 0:
            return weights
        domain, per_code_total = self._evidence_constants()
        satisfied = evaluate_predicate(pred, domain)
        per_code_hit = np.bincount(self._code_of_value,
                                   weights=self._counts * satisfied,
                                   minlength=self.n_value_codes)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(per_code_total > 0,
                            per_code_hit / per_code_total, 0.0)
        weights[: self.n_value_codes] = frac
        # NULL rows never satisfy a value predicate (IS NULL is handled by
        # the caller flipping the null code explicitly)
        return weights

    def null_evidence(self, negated: bool) -> np.ndarray:
        """Evidence vector for IS [NOT] NULL."""
        weights = np.zeros(self.n_codes)
        if negated:
            weights[: self.n_value_codes] = 1.0
        else:
            weights[self.null_code] = 1.0
        return weights
