"""Concurrent shard updates on a cluster: one ``CloneUpdate`` per owning
shard, sent at once.  A rejected shard publishes nothing, a worker that
dies mid-write recovers through its ledger, and the fanned-out rpcs stay
inside the update's trace."""

import gc
import threading

import numpy as np
import pytest

from repro.api import UpdateRequest
from repro.cluster import ClusterModel
from repro.cluster.messages import CloneUpdate
from repro.cluster.worker import ShardWorker
from repro.core.estimator import FactorJoinConfig
from repro.data import Column, Table
from repro.errors import DataError
from repro.serve import EstimationService
from repro.shard import ShardedFactorJoin
from repro.sql import parse_query

N_SHARDS = 2
N_WORKERS = 2

QUERIES = [
    "SELECT COUNT(*) FROM A a, B b WHERE a.id = b.aid",
    ("SELECT COUNT(*) FROM A a, B b, C c "
     "WHERE a.id = b.aid AND b.cid = c.id AND c.z = 1"),
    "SELECT COUNT(*) FROM C c WHERE c.z = 1",
]


def _fit_sharded(db):
    config = FactorJoinConfig(n_bins=4, table_estimator="truescan", seed=0)
    return ShardedFactorJoin(config, n_shards=N_SHARDS,
                             parallel="serial").fit(db)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    from tests.conftest import build_toy_db

    db = build_toy_db(seed=5)
    path = tmp_path_factory.mktemp("fanout") / "ensemble"
    _fit_sharded(db).save(path)
    return str(path), db


def _two_shard_batch():
    # hash placement on C.id: 700 -> shard 0 (worker 0), 701 -> shard 1
    # (worker 1), so the write needs both workers
    ids = np.array([700, 701, 702, 703])
    return Table("C", [Column("id", ids),
                       Column("z", np.ones(len(ids), dtype=ids.dtype))])


def _answers(model):
    return [model.estimate(parse_query(sql)) for sql in QUERIES]


class TestConcurrency:
    def test_both_workers_update_at_once(self, artifact, monkeypatch):
        """Each worker's handler waits for the other to arrive: a serial
        fan-out would break the barrier instead of publishing."""
        path, db = artifact
        reference = _fit_sharded(db)
        reference.update("C", _two_shard_batch())
        with ClusterModel.from_artifact(path, workers=N_WORKERS,
                                        inline=True) as cluster:
            barrier = threading.Barrier(N_WORKERS, timeout=2.0)
            clone_update = ShardWorker._HANDLERS[CloneUpdate]

            def meet(worker, message):
                barrier.wait()
                return clone_update(worker, message)

            for slot in cluster.pool.workers:
                monkeypatch.setattr(slot.transport.worker, "_HANDLERS", {
                    **ShardWorker._HANDLERS, CloneUpdate: meet})
            cluster.update("C", _two_shard_batch())
            assert _answers(cluster) == _answers(reference)


class TestRejection:
    def test_one_rejecting_worker_publishes_nothing(self, artifact,
                                                    monkeypatch):
        path, _ = artifact
        with ClusterModel.from_artifact(path, workers=N_WORKERS,
                                        inline=True) as cluster:
            before = _answers(cluster)
            state = cluster._require_state()
            tokens = {token for token, _ in cluster._ledgers.snapshot()}

            def reject(worker, message):
                raise DataError(f"shard rejects {message.table} batch")

            worker = cluster.pool.workers[1].transport.worker
            monkeypatch.setattr(worker, "_HANDLERS", {
                **ShardWorker._HANDLERS, CloneUpdate: reject})
            with pytest.raises(DataError, match="shard rejects"):
                cluster.update("C", _two_shard_batch())
            assert cluster._require_state() is state
            assert _answers(cluster) == before
            # shard 0's accepted version was never published, so its
            # token and ledger go away with the handle
            gc.collect()
            assert {token for token, _ in
                    cluster._ledgers.snapshot()} == tokens


class TestCrashDuringWrite:
    def test_worker_killed_mid_write_answers_bit_identically(self,
                                                            artifact):
        path, db = artifact
        reference = _fit_sharded(db)
        batch = _two_shard_batch()
        reference.update("C", batch)
        with ClusterModel.from_artifact(path, workers=N_WORKERS) as cluster:
            victim = cluster.pool.workers[1]
            transport = victim.transport
            send = transport.request

            def die_on_update(message, timeout, grace=0.0):
                if isinstance(message, CloneUpdate):
                    transport.process.kill()
                    transport.process.join()
                return send(message, timeout, grace=grace)

            transport.request = die_on_update
            cluster.update("C", batch)
            health = cluster.workers_health()
            assert health[1]["alive"] and health[1]["restarts"] == 1
            assert health[0]["restarts"] == 0
            assert _answers(cluster) == _answers(reference)


def _flatten(span, out):
    out.append(span)
    for child in span["children"]:
        _flatten(child, out)
    return out


class TestFanOutTracing:
    def test_per_worker_rpcs_nest_under_the_update(self, artifact):
        path, _ = artifact
        with ClusterModel.from_artifact(path, workers=N_WORKERS) as cluster:
            service = EstimationService()
            service.register("cluster", cluster)
            service.serve_update(UpdateRequest(
                table="C", rows=_two_shard_batch(), model="cluster"))
            tree = service.tracer.traces(limit=1)[0]
            assert tree["name"] == "request.update"
            spans = _flatten(tree["root"], [])
            by_id = {span["span_id"]: span for span in spans}
            rpcs = [span for span in spans
                    if span["name"] == "rpc.CloneUpdate"]
            assert sorted(span["attributes"]["worker"]
                          for span in rpcs) == [0, 1]
            for span in rpcs:
                # a real parent chain up to the root — not an orphan the
                # renderer parked there
                chain = []
                while span.get("parent_id") in by_id:
                    span = by_id[span["parent_id"]]
                    chain.append(span["name"])
                assert chain[0] == "model.update"
                assert chain[-1] == "request.update"
            workers = [span for span in spans
                       if span["name"] == "worker.CloneUpdate"]
            assert len(workers) == 2
            assert all(by_id[span["parent_id"]]["name"]
                       == "rpc.CloneUpdate" for span in workers)
