"""Table-scoped copy-on-write updates (``FactorJoin.clone_for_update``).

Two promises: a sharded ensemble that absorbs random insert/delete
sequences answers bit-identically to an unsharded model given the same
batches, while an ensemble state captured before the sequence keeps its
answers and its shard fingerprints; and the scoped clone leaves a shard
that pickles to exactly the bytes of a shard updated after a full
``copy.deepcopy`` (no shared object is duplicated on the way).
"""

import copy
import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import FactorJoin, FactorJoinConfig
from repro.errors import SchemaError
from repro.shard import ShardedFactorJoin
from repro.workloads.benchmark import split_for_update
from repro.workloads.stats_ceb import build_stats_ceb

N_SHARDS = 3


@functools.lru_cache(maxsize=None)
def stats_bench():
    """Small seeded STATS: (benchmark, older half, newer rows per table)."""
    bench = build_stats_ceb(scale=0.02, seed=0, n_queries=24,
                            n_templates=12)
    stale, inserts = split_for_update(bench.database, fraction=0.5)
    return bench, stale, inserts


def _config(estimator="truescan"):
    return FactorJoinConfig(n_bins=8, table_estimator=estimator, seed=0)


TABLES = ("users", "posts", "badges", "comments", "votes", "postHistory",
          "postLinks", "tags")

operation = st.tuples(st.sampled_from(TABLES), st.booleans(),
                      st.integers(1, 6), st.integers(0, 2**16))


class TestShardedEqualsUnsharded:
    @given(st.lists(operation, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_random_update_sequences(self, ops):
        bench, stale, inserts = stats_bench()
        flat = FactorJoin(_config()).fit(stale)
        sharded = ShardedFactorJoin(_config(), n_shards=N_SHARDS,
                                    parallel="serial").fit(stale)
        captured = sharded._require_state()
        before = [sharded.estimate(q) for q in bench.workload]
        prints = [m.fingerprint() for m in captured.shard_set.models()]
        # deletes remove distinct rows that are really present: a
        # tolerated over-delete floors per-value counts per shard, which
        # no unsharded model can mirror
        deletable = {name: list(range(len(stale.table(name))))
                     for name in TABLES}
        for table, is_delete, n, seed in ops:
            rng = np.random.default_rng(seed)
            if is_delete and sharded.supports_delete(table):
                pool = deletable[table]
                n = min(n, len(pool))
                if n == 0:
                    continue
                picks = rng.choice(len(pool), size=n, replace=False)
                positions = [pool[i] for i in picks]
                for i in sorted(picks, reverse=True):
                    pool.pop(i)
                rows = stale.table(table).take(np.array(positions))
                flat.update(table, deleted_rows=rows)
                sharded.update(table, deleted_rows=rows)
            else:
                source = inserts[table]
                rows = source.take(rng.integers(0, len(source), n))
                flat.update(table, rows)
                sharded.update(table, rows)
        for query in bench.workload:
            assert sharded.estimate(query) == flat.estimate(query)
        # the pre-sequence snapshot shared nothing the updates mutated
        assert [captured.merged.estimate(q)
                for q in bench.workload] == before
        assert [m.fingerprint()
                for m in captured.shard_set.models()] == prints


def _shard(estimator):
    _, stale, _ = stats_bench()
    return ShardedFactorJoin(_config(estimator), n_shards=2,
                             parallel="serial").fit(stale).shards[0]


def _scoped_and_deep(shard, table, rows=None, deleted_rows=None):
    scoped = shard.clone_for_update(table)
    scoped.update(table, rows, deleted_rows=deleted_rows)
    deep = copy.deepcopy(shard)
    deep.update(table, rows, deleted_rows=deleted_rows)
    scoped.last_update_seconds = deep.last_update_seconds = 0.0
    return pickle.dumps(scoped), pickle.dumps(deep)


class TestSharingPreserved:
    """A copied Binning (or any other shared object) would be pickled
    once per holder, growing every artifact and ``model_size_bytes``."""

    def test_bayescard_insert_pickles_like_a_deepcopy(self):
        _, _, inserts = stats_bench()
        shard = _shard("bayescard")
        for table in ("posts", "comments"):
            scoped, deep = _scoped_and_deep(shard, table,
                                            rows=inserts[table].head(9))
            assert scoped == deep

    def test_truescan_delete_pickles_like_a_deepcopy(self):
        shard = _shard("truescan")
        for table in ("posts", "votes"):
            rows = shard.database.table(table).head(5)
            scoped, deep = _scoped_and_deep(shard, table,
                                            deleted_rows=rows)
            assert scoped == deep

    def test_clone_copies_only_the_touched_table(self):
        _, stale, inserts = stats_bench()
        model = FactorJoin(_config("bayescard")).fit(stale)
        clone = model.clone_for_update("comments")
        for name in TABLES:
            shared = (clone.table_estimator(name)
                      is model.table_estimator(name))
            assert shared == (name != "comments")
        for key, joint in model._key_joints.items():
            assert (clone._key_joints[key] is joint) == (
                key[0] != "comments")
        before = model.fingerprint()
        clone.update("comments", inserts["comments"].head(7))
        assert model.fingerprint() == before
        assert clone.fingerprint() != before

    def test_unknown_table_raises(self):
        _, stale, _ = stats_bench()
        model = FactorJoin(_config()).fit(stale)
        with pytest.raises(SchemaError):
            model.clone_for_update("nope")
