"""Per-bin statistics of join keys (paper Section 4.1 and Figure 5).

For every join key and every bin the offline phase records:

- ``totals``: how many rows fall in the bin,
- ``mfv``: the most-frequent-value count ``V*`` (the quantity the
  probabilistic bound divides by),
- ``ndv``: distinct values in the bin (used by the JoinHist per-bin
  distinct-value formula, the paper's "with Conditional" ablation).

Exact per-value counts are retained so incremental updates (Section 4.3)
keep the MFV exact: inserting rows only touches the affected values' counts
and their bins' summaries, never the binning itself.
"""

from __future__ import annotations

import numpy as np

from repro.core.binning import Binning
from repro.errors import ReproError


class BinStats:
    """Summaries of one join key column under a fixed group binning."""

    def __init__(self, binning: Binning, values: np.ndarray):
        self._binning = binning
        values = np.asarray(values, dtype=np.int64)
        self._values, self._counts = np.unique(values, return_counts=True)
        self._counts = self._counts.astype(np.float64)
        self._rebuild()

    def _rebuild(self) -> None:
        k = self._binning.n_bins
        bins = self._binning.assign(self._values)
        self.totals = np.zeros(k, dtype=np.float64)
        self.mfv = np.zeros(k, dtype=np.float64)
        self.ndv = np.zeros(k, dtype=np.float64)
        np.add.at(self.totals, bins, self._counts)
        np.add.at(self.ndv, bins, 1.0)
        np.maximum.at(self.mfv, bins, self._counts)

    @classmethod
    def from_value_counts(cls, binning: Binning, values: np.ndarray,
                          counts: np.ndarray) -> "BinStats":
        """Build directly from exact per-value counts (merge fast path)."""
        out = cls.__new__(cls)
        out._binning = binning
        out._values = np.asarray(values, dtype=np.int64)
        out._counts = np.asarray(counts, dtype=np.float64)
        out._rebuild()
        return out

    @classmethod
    def merged(cls, parts: list["BinStats"]) -> "BinStats":
        """Exact union of per-partition statistics.

        All parts must share one :class:`Binning`.  Because every part
        retains exact per-value counts, the merge is *lossless*: the
        result's totals, MFV, and NDV are bit-identical to fitting one
        ``BinStats`` on the concatenated data — the property that lets a
        sharded ensemble reproduce the unsharded model's join bounds.
        """
        if not parts:
            raise ReproError("cannot merge zero BinStats parts")
        binning = parts[0]._binning
        for part in parts[1:]:
            if part._binning is not binning and (
                    part._binning.n_bins != binning.n_bins
                    or not np.array_equal(part._binning.domain,
                                          binning.domain)
                    or not np.array_equal(part._binning.bin_ids,
                                          binning.bin_ids)):
                raise ReproError(
                    "BinStats.merged requires all parts to share one "
                    "binning; fit shards with a shared global binning")
        merged_vals = parts[0]._values
        for part in parts[1:]:
            merged_vals = np.union1d(merged_vals, part._values)
        merged_counts = np.zeros(len(merged_vals), dtype=np.float64)
        for part in parts:
            merged_counts[np.searchsorted(merged_vals,
                                          part._values)] += part._counts
        return cls.from_value_counts(binning, merged_vals, merged_counts)

    @classmethod
    def replaced(cls, base: "BinStats", old: "BinStats",
                 new: "BinStats") -> "BinStats":
        """``base - old + new``: exact merged statistics after one
        partition's contribution is swapped out.

        ``base`` is a merged statistic that *contains* ``old`` as one of
        its parts (the invariant per-shard hot-swap maintains); counts are
        exact integers in float64, so the subtraction reproduces bit for
        bit what merging the surviving parts with ``new`` would produce.
        """
        for part in (old, new):
            if part._binning is not base._binning and (
                    part._binning.n_bins != base._binning.n_bins
                    or not np.array_equal(part._binning.domain,
                                          base._binning.domain)
                    or not np.array_equal(part._binning.bin_ids,
                                          base._binning.bin_ids)):
                raise ReproError(
                    "BinStats.replaced requires all parts to share one "
                    "binning; refit the replacement shard under the "
                    "ensemble's global binning")
        vals = np.union1d(base._values, np.union1d(old._values, new._values))
        counts = np.zeros(len(vals), dtype=np.float64)
        counts[np.searchsorted(vals, base._values)] += base._counts
        counts[np.searchsorted(vals, old._values)] -= old._counts
        counts[np.searchsorted(vals, new._values)] += new._counts
        keep = counts > 0
        return cls.from_value_counts(base._binning, vals[keep], counts[keep])

    def copy(self) -> "BinStats":
        """Independent copy (copy-on-write updates in ensembles)."""
        return BinStats.from_value_counts(self._binning, self._values.copy(),
                                          self._counts.copy())

    def value_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """The exact per-value counts ``(values, counts)`` (read-only
        views; the full information content of this statistic)."""
        return self._values, self._counts

    # -- accessors -------------------------------------------------------------

    @property
    def n_bins(self) -> int:
        return self._binning.n_bins

    @property
    def binning(self) -> Binning:
        return self._binning

    @property
    def total_rows(self) -> float:
        return float(self.totals.sum())

    def distribution(self) -> np.ndarray:
        """Unconditional per-bin row counts (copy)."""
        return self.totals.copy()

    # -- incremental maintenance (Section 4.3) ------------------------------------

    def insert(self, values: np.ndarray) -> None:
        """Add rows; bins stay fixed, per-value counts updated exactly."""
        values = np.asarray(values, dtype=np.int64)
        if len(values) == 0:
            return
        new_vals, new_cnts = np.unique(values, return_counts=True)
        self._merge(new_vals, new_cnts.astype(np.float64))

    def delete(self, values: np.ndarray) -> None:
        """Remove rows (counts floor at zero)."""
        values = np.asarray(values, dtype=np.int64)
        if len(values) == 0:
            return
        del_vals, del_cnts = np.unique(values, return_counts=True)
        self._merge(del_vals, -del_cnts.astype(np.float64))

    def _merge(self, vals: np.ndarray, deltas: np.ndarray) -> None:
        merged_vals = np.union1d(self._values, vals)
        merged_counts = np.zeros(len(merged_vals), dtype=np.float64)
        merged_counts[np.searchsorted(merged_vals, self._values)] = self._counts
        merged_counts[np.searchsorted(merged_vals, vals)] += deltas
        keep = merged_counts > 0
        self._values = merged_vals[keep]
        self._counts = merged_counts[keep]
        self._rebuild()


class KeyStatistics:
    """All bin statistics for one equivalent key group.

    Holds the shared :class:`Binning` plus one :class:`BinStats` per member
    key ``(table, column)``.
    """

    def __init__(self, group_name: str, binning: Binning):
        self.group_name = group_name
        self.binning = binning
        self._per_key: dict[tuple[str, str], BinStats] = {}

    def add_key(self, table: str, column: str, values: np.ndarray) -> None:
        self._per_key[(table, column)] = BinStats(self.binning, values)

    @classmethod
    def merged(cls, parts: list["KeyStatistics"]) -> "KeyStatistics":
        """Exact union of per-partition group statistics (see
        :meth:`BinStats.merged`).  Keys present in only some parts are
        merged from the parts that have them."""
        if not parts:
            raise ReproError("cannot merge zero KeyStatistics parts")
        out = cls(parts[0].group_name, parts[0].binning)
        keys: list[tuple[str, str]] = []
        for part in parts:
            for key in part.keys:
                if key not in keys:
                    keys.append(key)
        for table, column in keys:
            per_part = [part.stats_of(table, column) for part in parts
                        if part.has_key(table, column)]
            out._per_key[(table, column)] = BinStats.merged(per_part)
        return out

    @classmethod
    def replaced(cls, base: "KeyStatistics", old: "KeyStatistics",
                 new: "KeyStatistics") -> "KeyStatistics":
        """``base - old + new`` per member key (see
        :meth:`BinStats.replaced`): the merged group statistics after one
        partition's contribution is hot-swapped.  Keys absent from a part
        contribute nothing for that part."""
        out = cls(base.group_name, base.binning)
        empty = None
        for table, column in base.keys:
            old_part = (old.stats_of(table, column)
                        if old.has_key(table, column) else None)
            new_part = (new.stats_of(table, column)
                        if new.has_key(table, column) else None)
            if old_part is None and new_part is None:
                out._per_key[(table, column)] = base.stats_of(table, column)
                continue
            if old_part is None or new_part is None:
                if empty is None:
                    empty = BinStats(base.binning,
                                     np.zeros(0, dtype=np.int64))
                old_part = old_part if old_part is not None else empty
                new_part = new_part if new_part is not None else empty
            out._per_key[(table, column)] = BinStats.replaced(
                base.stats_of(table, column), old_part, new_part)
        return out

    def shallow_copy(self) -> "KeyStatistics":
        """Copy sharing the per-key :class:`BinStats` objects; replace
        individual entries (via :meth:`BinStats.copy`) before mutating —
        the copy-on-write discipline atomic ensemble updates rely on."""
        out = KeyStatistics(self.group_name, self.binning)
        out._per_key = dict(self._per_key)
        return out

    def stats_of(self, table: str, column: str) -> BinStats:
        try:
            return self._per_key[(table, column)]
        except KeyError:
            raise ReproError(
                f"no bin statistics for key {table}.{column} in group "
                f"{self.group_name!r}") from None

    def has_key(self, table: str, column: str) -> bool:
        return (table, column) in self._per_key

    def insert(self, table: str, column: str, values: np.ndarray) -> None:
        self.stats_of(table, column).insert(values)

    def delete(self, table: str, column: str, values: np.ndarray) -> None:
        self.stats_of(table, column).delete(values)

    @property
    def keys(self) -> list[tuple[str, str]]:
        return list(self._per_key)


def copy_on_write(key_stats: dict[str, KeyStatistics], table: str,
                  groups: dict[str, str]) -> dict[str, KeyStatistics]:
    """``key_stats`` (group name -> statistics) with the :class:`BinStats`
    of ``table``'s key columns (column -> group name in ``groups``)
    replaced by copies inside shallow copies of their groups; every other
    object is shared.  An update may then mutate those ``BinStats`` while
    ``key_stats`` keeps serving."""
    out = dict(key_stats)
    for column, name in groups.items():
        if out[name] is key_stats[name]:
            out[name] = key_stats[name].shallow_copy()
        stats = out[name]
        stats._per_key[(table, column)] = stats.stats_of(table,
                                                         column).copy()
    return out
