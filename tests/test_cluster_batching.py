"""The cluster's batching contract, counted at the one RPC entry
(``WorkerPool.call``): every probe leaves the driver as one
``BatchProbe`` per worker — for a query's prefetch and for a memo miss
alike — and a repeat in the same ensemble state sends none."""

import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.cluster import ClusterModel, WorkerPool
from repro.core.estimator import FactorJoinConfig
from repro.obs.trace import Tracer
from repro.plan.messages import PlanRequest
from repro.serve import EstimationService
from repro.shard import ShardedFactorJoin
from repro.sql import parse_query

N_SHARDS = 3
N_WORKERS = 2

SQL = ("SELECT COUNT(*) FROM A a, B b "
       "WHERE a.id = b.aid AND a.x > 1")


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    from tests.conftest import build_toy_db

    db = build_toy_db(seed=3)
    config = FactorJoinConfig(n_bins=4, table_estimator="truescan", seed=0)
    path = tmp_path_factory.mktemp("cluster-batching") / "ensemble"
    ShardedFactorJoin(config, n_shards=N_SHARDS,
                      parallel="serial").fit(db).save(path)
    return str(path)


@pytest.fixture
def cluster(artifact):
    with ClusterModel.from_artifact(artifact,
                                    workers=N_WORKERS) as model:
        yield model


@pytest.fixture
def rpcs(monkeypatch):
    """``(message type, worker id) -> calls`` through ``WorkerPool.call``
    from the moment the fixture is requested."""
    counts: Counter = Counter()
    lock = threading.Lock()
    original = WorkerPool.call

    def counting(self, worker_id, message, timeout=None):
        with lock:
            counts[type(message).__name__, worker_id] += 1
        return original(self, worker_id, message, timeout)

    monkeypatch.setattr(WorkerPool, "call", counting)
    return counts


def _batches(counts: Counter) -> dict[int, int]:
    return {worker: n for (kind, worker), n in counts.items()
            if kind == "BatchProbe"}


def _workers_read(cluster, query) -> set[int]:
    """The workers owning a shard that one of ``query``'s filters can
    read (shard pruning decides, not the query's size)."""
    state = cluster._require_state()
    workers = set()
    for alias in query.aliases:
        estimator = state.merged.table_estimator(query.table_of(alias))
        for shard in estimator.candidate_shards(query.filter_of(alias)):
            workers.add(state.shard_set.model(shard).worker_id)
    return workers


def _direct_probe(model, pred):
    """A row count and a key distribution read straight off the merged
    view's table estimator — no prefetch plans them."""
    estimator = model._require_state().merged.table_estimator("A")
    return (estimator.estimate_row_count(pred),
            estimator.key_distribution("id", pred))


def _kill_workers(cluster) -> None:
    for victim in cluster.pool.workers:
        victim.transport.process.kill()
    time.sleep(0.2)


class TestQueryBatching:
    def test_cold_estimate_sends_one_batch_per_worker(self, cluster,
                                                      rpcs):
        query = parse_query(SQL)
        cluster.estimate(query)
        expected = _workers_read(cluster, query)
        assert expected
        assert _batches(rpcs) == {worker: 1 for worker in expected}
        rpcs.clear()
        cluster.estimate(query)
        assert _batches(rpcs) == {}

    def test_serve_plan_sends_one_batch_per_worker(self, cluster, rpcs):
        query = parse_query(SQL)
        service = EstimationService()
        service.register("cluster", cluster)
        service.serve_plan(PlanRequest(query=SQL))
        assert _batches(rpcs) == {
            worker: 1 for worker in _workers_read(cluster, query)}
        # a second service has cold caches of its own, but the cluster
        # state's probe memo answers every probe
        rpcs.clear()
        again = EstimationService()
        again.register("cluster", cluster)
        again.serve_plan(PlanRequest(query=SQL))
        assert _batches(rpcs) == {}


class TestMemoMissBatching:
    def test_direct_probe_batches_per_worker_bit_identically(
            self, artifact, cluster, rpcs):
        pred = parse_query(SQL).filter_of("a")
        reference = ShardedFactorJoin.load(artifact)
        rows, dist = _direct_probe(cluster, pred)
        ref_rows, ref_dist = _direct_probe(reference, pred)
        assert rows == ref_rows
        assert dist.dtype == ref_dist.dtype
        assert dist.tobytes() == ref_dist.tobytes()
        # two memo misses (the row count, then the key distribution),
        # each one batch per worker — not one RPC per shard
        state = cluster._require_state()
        owners = {state.shard_set.model(shard).worker_id
                  for shard in state.merged.table_estimator(
                      "A").candidate_shards(pred)}
        assert len(owners) == N_WORKERS
        assert _batches(rpcs) == {worker: 2 for worker in owners}
        # answers are fresh arrays: mutating one leaves the memo intact
        dist[:] = -1.0
        rpcs.clear()
        _, again = _direct_probe(cluster, pred)
        assert again.tobytes() == ref_dist.tobytes()
        assert _batches(rpcs) == {}

    def test_direct_probe_survives_both_workers_dying(self, artifact,
                                                      cluster):
        pred = parse_query(SQL).filter_of("a")
        reference = ShardedFactorJoin.load(artifact)
        _kill_workers(cluster)
        tracer = Tracer()
        with tracer.trace("test.probe") as root:
            rows, dist = _direct_probe(cluster, pred)
        ref_rows, ref_dist = _direct_probe(reference, pred)
        assert rows == ref_rows
        assert np.array_equal(dist, ref_dist)
        assert dist.tobytes() == ref_dist.tobytes()
        names = [span["name"]
                 for span in tracer.record_of(root).span_dicts()]
        assert "probe.fanout" in names
        assert "probe.retry" in names
