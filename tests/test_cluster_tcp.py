"""TCP transport end to end: framed RPC over localhost, the artifact
store, fault-injected retries (bit-identical, single-rooted traces),
worker-initiated ledger compaction, and driver operations aimed at a
worker that just crashed."""

import contextlib
import gc
import json
import time

import pytest

from repro.api import EstimateRequest
from repro.cluster import (
    ClusterModel,
    Ping,
    TcpTransport,
    WorkerPool,
    WorkerServer,
)
from repro.cluster.messages import (
    BatchProbe,
    CloneUpdate,
    CompactToken,
    FingerprintRequest,
    LoadShard,
    ModelSizeRequest,
    ProbeItem,
    ReleaseTokens,
    ShardStatsRequest,
    Shutdown,
)
from repro.core.estimator import FactorJoinConfig
from repro.errors import ReproError, WorkerError
from repro.serve import EstimationService, LocalArtifactStore, is_store_ref
from repro.shard import ShardedFactorJoin, save_shard_artifact
from repro.sql import parse_query
from tests.fakenet import FaultProxy
from tests.test_cluster_model import (
    N_SHARDS,
    QUERIES,
    _config,
    _fit_sharded,
    _insert_batch,
    _refit_shard,
)

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    from tests.conftest import build_toy_db

    db = build_toy_db(seed=3)
    path = tmp_path_factory.mktemp("cluster-tcp") / "ensemble"
    _fit_sharded(db).save(path)
    return str(path), db


@pytest.fixture(scope="module")
def reference(artifact):
    _, db = artifact
    return _fit_sharded(db)


@contextlib.contextmanager
def tcp_cluster(path, store_root, n_servers=2, timeout=30.0, grace=0.0,
                via_proxy=False, **model_kw):
    """A ClusterModel over in-process TCP worker servers sharing one
    content-addressed store; optionally behind per-worker fault
    proxies."""
    servers = [WorkerServer(store=LocalArtifactStore(store_root)).start()
               for _ in range(n_servers)]
    proxies = ([FaultProxy(server.address) for server in servers]
               if via_proxy else [])
    addresses = [proxy.address for proxy in proxies] or \
        [server.address for server in servers]
    model = ClusterModel.from_artifact(
        path, addresses=addresses, store=LocalArtifactStore(store_root),
        timeout=timeout, grace=grace, **model_kw)
    try:
        yield model, proxies, servers
    finally:
        model.close()
        for proxy in proxies:
            proxy.close()
        for server in servers:
            server.stop()


class TestTcpBitIdentity:
    def test_estimates_match_in_process_and_pipe(self, artifact,
                                                 reference, tmp_path):
        """Three-way: TCP-localhost == pipe workers == in-process."""
        path, _ = artifact
        queries = [parse_query(sql) for sql in QUERIES]
        with tcp_cluster(path, tmp_path / "store") as (tcp, _, _), \
                ClusterModel.from_artifact(path, workers=2) as pipe:
            for query in queries:
                want = reference.estimate(query)
                assert tcp.estimate(query) == want
                assert pipe.estimate(query) == want

    def test_subplans_sessions_and_updates_match(self, artifact,
                                                 tmp_path):
        path, db = artifact
        local = _fit_sharded(db)
        query = parse_query(QUERIES[2])
        with tcp_cluster(path, tmp_path / "store") as (tcp, _, _):
            assert tcp.estimate_subplans(query) == \
                local.estimate_subplans(query)
            with tcp.open_session(query) as remote, \
                    local.open_session(query) as in_proc:
                for subset in in_proc.estimate_all():
                    assert remote.estimate_join(subset) == \
                        in_proc.estimate_join(subset)
            batch = _insert_batch()
            tcp.update("C", batch)
            local.update("C", batch)
            for sql in QUERIES:
                assert tcp.estimate(parse_query(sql)) == \
                    local.estimate(parse_query(sql))

    def test_stats_workload_matches_over_tcp(self, tmp_path):
        """The acceptance gate, TCP edition: the STATS workload answers
        identically through TCP-localhost workers resolving shard state
        from the content-addressed store."""
        from repro.eval.harness import make_context

        ctx = make_context("stats", scale=0.1, seed=0, max_tables=4)
        sharded = ShardedFactorJoin(
            FactorJoinConfig(n_bins=8, table_estimator="truescan", seed=0),
            n_shards=4, parallel="serial").fit(ctx.database)
        path = tmp_path / "stats-ensemble"
        sharded.save(path)
        with tcp_cluster(str(path), tmp_path / "store",
                         n_servers=2) as (tcp, _, _):
            for query in ctx.workload:
                assert tcp.estimate(query) == sharded.estimate(query)


class TestEveryRpcType:
    def test_all_messages_round_trip_over_tcp(self, artifact, tmp_path):
        """Every RPC the pipe transport carries also works framed: load,
        probe, clone-update, stats, fingerprint, size, release, compact,
        ping, shutdown."""
        from repro.shard.artifact import read_ensemble

        path, _ = artifact
        _, shard_dirs, _ = read_ensemble(path)
        pred = parse_query(QUERIES[1]).filter_of("a")
        with WorkerServer() as server:
            server.start()
            transport = TcpTransport(server.address)
            try:
                info = transport.request(Ping(), 10.0)
                assert info.pid > 0 and transport.pid == info.pid
                assert transport.request(
                    LoadShard("t0", str(shard_dirs[0]), 0), 10.0)
                result = transport.request(BatchProbe((
                    ProbeItem("t0", "A", pred, (), True),)), 30.0)
                assert result[0].total > 0
                assert transport.request(
                    CloneUpdate("t0", "t1", "C", _insert_batch()), 30.0)
                stats = transport.request(ShardStatsRequest("t1"), 10.0)
                assert stats is not None
                assert len(transport.request(
                    FingerprintRequest("t1"), 10.0)) == 64
                assert transport.request(ModelSizeRequest("t1"), 10.0) > 0
                compacted = transport.request(
                    CompactToken("t1", save_dir=str(tmp_path / "c")), 30.0)
                assert compacted.sha256 and compacted.model_bytes > 0
                assert transport.request(ReleaseTokens(("t1",)), 10.0) == 1
                # Shutdown closes only this connection; the server (and
                # its token state) survives for the next connection
                assert transport.request(Shutdown(), 10.0) is True
            finally:
                transport.close()
            again = TcpTransport(server.address)
            try:
                assert "t0" in again.request(Ping(), 10.0).tokens
            finally:
                again.close()

    def test_application_errors_reraise_without_closing(self, tmp_path):
        from repro.cluster import UnknownTokenError

        with WorkerServer() as server:
            server.start()
            transport = TcpTransport(server.address)
            try:
                with pytest.raises(UnknownTokenError):
                    transport.request(ShardStatsRequest("ghost"), 10.0)
                # the connection survived the typed error
                assert transport.request(Ping(), 10.0).pid > 0
            finally:
                transport.close()


class TestArtifactStore:
    def test_publish_resolve_round_trip(self, artifact, tmp_path):
        from repro.shard.artifact import read_ensemble

        path, _ = artifact
        _, shard_dirs, _ = read_ensemble(path)
        store = LocalArtifactStore(tmp_path / "store")
        ref = store.publish(shard_dirs[0])
        assert is_store_ref(ref)
        assert store.contains(ref)
        assert ref in store.refs()
        resolved = store.resolve(ref)
        assert (resolved / "manifest.json").is_file()
        # publishing the same content again is an idempotent no-op
        assert store.publish(shard_dirs[0]) == ref

    def test_corrupt_entry_is_refused(self, artifact, tmp_path):
        from repro.errors import ArtifactError
        from repro.shard.artifact import read_ensemble

        path, _ = artifact
        _, shard_dirs, _ = read_ensemble(path)
        store = LocalArtifactStore(tmp_path / "store")
        ref = store.publish(shard_dirs[0])
        target = store.resolve(ref) / "manifest.json"
        manifest = json.loads(target.read_text())
        manifest["sha256"] = "f" * 64
        target.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="corrupt"):
            store.resolve(ref)

    def test_worker_without_store_refuses_cas_paths(self):
        from repro.sql.predicates import TruePredicate

        digest = "0" * 64
        with WorkerServer() as server:  # no store attached
            server.start()
            transport = TcpTransport(server.address)
            try:
                transport.request(
                    LoadShard("t0", f"cas://{digest}", 0), 10.0)
                with pytest.raises(ReproError, match="store"):
                    transport.request(BatchProbe((
                        ProbeItem("t0", "A", TruePredicate(), (),
                                  True),)), 10.0)
            finally:
                transport.close()


class TestFaultInjection:
    """Every fault answers bit-identically: a lost frame costs a retry
    (ledger replay), never a wrong or missing answer."""

    @pytest.fixture
    def faulty(self, artifact, tmp_path):
        path, _ = artifact
        with tcp_cluster(path, tmp_path / "store", timeout=1.0,
                         via_proxy=True) as parts:
            yield parts

    def _assert_identical(self, tcp, reference, queries=QUERIES):
        for sql in queries:
            assert tcp.estimate(parse_query(sql)) == \
                reference.estimate(parse_query(sql))

    def test_dropped_request_frame(self, faulty, reference):
        tcp, proxies, _ = faulty
        for proxy in proxies:
            proxy.inject("c2s", "drop")
        self._assert_identical(tcp, reference)
        assert any(proxy.stats["fault_drop_c2s"] for proxy in proxies)

    def test_dropped_reply_frame(self, faulty, reference):
        tcp, proxies, _ = faulty
        for proxy in proxies:
            proxy.inject("s2c", "drop")
        self._assert_identical(tcp, reference)

    def test_truncated_reply_then_hard_close(self, faulty, reference):
        tcp, proxies, _ = faulty
        for proxy in proxies:
            proxy.inject("s2c", "truncate", keep=5)
        self._assert_identical(tcp, reference)

    def test_hard_disconnect_mid_request(self, faulty, reference):
        tcp, proxies, _ = faulty
        for proxy in proxies:
            proxy.inject("s2c", "disconnect")
        self._assert_identical(tcp, reference)
        # the pool reconnected through the proxy and reseeded
        health = tcp.workers_health()
        assert all(row["alive"] for row in health)
        assert all(row["tokens"] for row in health)

    def test_duplicated_reply_is_dropped_as_stale(self, faulty,
                                                  reference):
        tcp, proxies, _ = faulty
        for proxy in proxies:
            proxy.inject("s2c", "dup")
        self._assert_identical(tcp, reference)
        # and the duplicates poison nothing afterwards
        self._assert_identical(tcp, reference)

    def test_slowloris_bytes_resume_partial_frames(self, faulty,
                                                   reference):
        tcp, proxies, _ = faulty
        for proxy in proxies:
            proxy.inject("s2c", "slowloris", chunk=7, pause=0.001)
            proxy.inject("c2s", "slowloris", chunk=7, pause=0.001)
        self._assert_identical(tcp, reference, QUERIES[:2])

    def test_repeated_disconnects_keep_serving(self, faulty, reference):
        tcp, proxies, _ = faulty
        for _ in range(3):
            for proxy in proxies:
                proxy.drop_connections()
            self._assert_identical(tcp, reference, QUERIES[:3])

    def test_updates_survive_faults_bit_identically(self, faulty,
                                                    artifact):
        tcp, proxies, _ = faulty
        _, db = artifact
        local = _fit_sharded(db)
        batch = _insert_batch()
        for proxy in proxies:
            proxy.inject("c2s", "drop")
        tcp.update("C", batch)
        local.update("C", batch)
        self._assert_identical(tcp, local)

    def test_crash_retry_trace_stays_single_rooted(self, faulty):
        """A fault-injected retry still yields ONE trace tree, with the
        retry marked, never a second root."""
        tcp, proxies, _ = faulty
        service = EstimationService()
        service.register("cluster", tcp)
        for proxy in proxies:
            proxy.inject("s2c", "disconnect")
        response = service.serve_estimate(EstimateRequest(
            query=QUERIES[2], model="cluster", explain=True, trace=True))
        tree = response.trace
        assert tree is not None

        def flatten(span, out):
            out.append(span)
            for child in span["children"]:
                flatten(child, out)
            return out

        spans = flatten(tree["root"], [])
        assert all(span["trace_id"] == tree["trace_id"] for span in spans)
        retries = [span for span in spans
                   if span["name"] in ("probe.retry", "update.retry")]
        assert retries and all(span["attributes"].get("retried")
                               for span in retries)
        assert service.tracer.traces(limit=10)
        trace_ids = {t["trace_id"] for t in service.tracer.traces(limit=10)}
        assert len(trace_ids) == 1


class TestCompaction:
    def test_compact_resets_journal_and_keeps_answers(self, artifact,
                                                      tmp_path):
        path, db = artifact
        local = _fit_sharded(db)
        with tcp_cluster(path, tmp_path / "store") as (tcp, _, _):
            batch = _insert_batch()
            tcp.update("C", batch)
            local.update("C", batch)
            state = tcp._require_state()
            compacted_any = False
            for index in range(N_SHARDS):
                token = state.shard_set.model(index).token
                journal_len = len(tcp._ledgers.get(token).journal)
                info = tcp.compact_shard(index)
                if journal_len:
                    assert info["compacted"] is True
                    assert info["journal_dropped"] == journal_len
                    assert is_store_ref(info["path"])
                    compacted_any = True
                else:
                    assert info["compacted"] is False
                assert not tcp._ledgers.get(token).journal or \
                    not info["compacted"]
            assert compacted_any
            for sql in QUERIES:
                assert tcp.estimate(parse_query(sql)) == \
                    local.estimate(parse_query(sql))

    def test_crash_after_compaction_reseeds_from_fresh_artifact(
            self, artifact, tmp_path):
        path, db = artifact
        local = _fit_sharded(db)
        with tcp_cluster(path, tmp_path / "store", timeout=2.0,
                         via_proxy=True) as (tcp, proxies, _):
            batch = _insert_batch()
            tcp.update("C", batch)
            local.update("C", batch)
            for index in range(N_SHARDS):
                tcp.compact_shard(index, force=True)
            state = tcp._require_state()
            for index in range(N_SHARDS):
                ledger = tcp._ledgers.get(
                    state.shard_set.model(index).token)
                assert ledger.journal == ()
            for proxy in proxies:
                proxy.drop_connections()
            for sql in QUERIES:
                assert tcp.estimate(parse_query(sql)) == \
                    local.estimate(parse_query(sql))

    def test_auto_compaction_after_journal_threshold(self, artifact,
                                                     tmp_path):
        path, db = artifact
        local = _fit_sharded(db)
        with tcp_cluster(path, tmp_path / "store",
                         compact_after=2) as (tcp, _, _):
            for round_no in range(3):
                batch = _insert_batch(start=700 + 10 * round_no)
                tcp.update("C", batch)
                local.update("C", batch)
            state = tcp._require_state()
            journals = [len(tcp._ledgers.get(
                state.shard_set.model(i).token).journal)
                for i in range(N_SHARDS)]
            assert all(j < 2 for j in journals)
            for sql in QUERIES:
                assert tcp.estimate(parse_query(sql)) == \
                    local.estimate(parse_query(sql))

    def test_pipe_cluster_compacts_to_directory(self, artifact, tmp_path):
        """Compaction also works without a store: pipe workers save to a
        driver-chosen directory."""
        path, db = artifact
        local = _fit_sharded(db)
        with ClusterModel.from_artifact(path, workers=2) as cluster:
            batch = _insert_batch()
            cluster.update("C", batch)
            local.update("C", batch)
            updated = [i for i in range(N_SHARDS)
                       if cluster._ledgers.get(
                           cluster._require_state().shard_set.model(i)
                           .token).journal]
            assert updated
            info = cluster.compact_shard(updated[0],
                                         save_dir=tmp_path / "compact0")
            assert info["compacted"] and not is_store_ref(info["path"])
            for victim in cluster.pool.workers:
                if getattr(victim.transport, "process", None) is not None:
                    victim.transport.process.kill()
            time.sleep(0.2)
            for sql in QUERIES:
                assert cluster.estimate(parse_query(sql)) == \
                    local.estimate(parse_query(sql))



def _kill(cluster, worker_id: int) -> None:
    cluster.pool.workers[worker_id].transport.process.kill()
    time.sleep(0.2)


class TestCrashedTarget:
    """Each driver operation aimed at a worker that just died succeeds,
    answers like the in-process ensemble (or its own pre-crash value),
    and leaks no shard-state token."""

    @pytest.fixture
    def pipe_cluster(self, artifact):
        path, db = artifact
        with ClusterModel.from_artifact(path, workers=2) as cluster:
            yield cluster, _fit_sharded(db), db

    @staticmethod
    def _assert_matches(cluster, reference):
        for sql in QUERIES:
            assert cluster.estimate(parse_query(sql)) == \
                reference.estimate(parse_query(sql))

    @staticmethod
    def _assert_no_leak(cluster, baseline: int):
        gc.collect()
        assert len(cluster._ledgers.snapshot()) == baseline

    def test_hot_swap_onto_a_crashed_owner(self, pipe_cluster, tmp_path):
        cluster, reference, db = pipe_cluster
        baseline = len(cluster._ledgers.snapshot())
        refit = _refit_shard(db, 1)
        shard_path = tmp_path / "refresh1"
        save_shard_artifact(refit.model, shard_path, summary=refit.summary)
        _kill(cluster, cluster._require_state().shard_set.model(1).worker_id)
        info = cluster.hot_swap_shard(1, shard_path)
        assert info["stats_changed"] is False
        self._assert_matches(cluster, reference)
        self._assert_no_leak(cluster, baseline)

    def test_rehome_onto_a_crashed_worker(self, pipe_cluster):
        cluster, reference, _ = pipe_cluster
        baseline = len(cluster._ledgers.snapshot())
        assert cluster._require_state().shard_set.model(0).worker_id == 0
        _kill(cluster, 1)
        info = cluster.rehome_shard(0, worker_id=1)
        assert info["moved"] is True
        assert cluster._require_state().shard_set.model(0).worker_id == 1
        self._assert_matches(cluster, reference)
        assert cluster.workers_health()[1]["alive"] is True
        self._assert_no_leak(cluster, baseline)

    def test_fingerprint_and_size_after_crashes(self, pipe_cluster):
        cluster, _, _ = pipe_cluster
        baseline = len(cluster._ledgers.snapshot())
        fingerprint = cluster.fingerprint()
        size = cluster.model_size_bytes()
        for worker_id in range(2):
            _kill(cluster, worker_id)
        assert cluster.fingerprint() == fingerprint
        for worker_id in range(2):
            _kill(cluster, worker_id)
        assert cluster.model_size_bytes() == size
        self._assert_no_leak(cluster, baseline)

    def test_compaction_on_a_crashed_owner(self, pipe_cluster, tmp_path):
        cluster, reference, _ = pipe_cluster
        batch = _insert_batch()
        cluster.update("C", batch)
        reference.update("C", batch)
        gc.collect()
        baseline = len(cluster._ledgers.snapshot())
        state = cluster._require_state()
        index = next(i for i in range(N_SHARDS)
                     if cluster._ledgers.get(
                         state.shard_set.model(i).token).journal)
        slot = state.shard_set.model(index)
        _kill(cluster, slot.worker_id)
        info = cluster.compact_shard(index, save_dir=tmp_path / "compact")
        assert info["compacted"] is True and info["journal_dropped"] == 1
        assert cluster._ledgers.get(slot.token).journal == ()
        # the fresh artifact is what the next crash reseeds from
        _kill(cluster, slot.worker_id)
        self._assert_matches(cluster, reference)
        self._assert_no_leak(cluster, baseline)


class TestPoolOverTcp:
    def test_pool_rejects_bad_addresses(self):
        with pytest.raises(ReproError):
            WorkerPool(2, addresses=["127.0.0.1:1"])
        with pytest.raises(ReproError):
            WorkerPool(addresses=[])
        with pytest.raises(WorkerError):
            # nothing listens there: construction must fail loudly
            WorkerPool(addresses=["127.0.0.1:9"], connect_timeout=0.2)

    def test_describe_reports_transport_and_counters(self, artifact,
                                                     tmp_path):
        path, _ = artifact
        with tcp_cluster(path, tmp_path / "store") as (tcp, _, _):
            tcp.estimate(parse_query(QUERIES[0]))
            description = tcp.pool.describe()
            assert all(row["transport"] == "tcp"
                       for row in description["workers"])
            stats = description["transport_stats"]
            assert stats["frames_sent"] > 0
            assert stats["bytes_received"] > 0
            families = {name: values for _, name, _, values
                        in tcp.collect_metrics("m")}
            assert "repro_transport_frames_total" in families
            sent = [v for labels, v
                    in families["repro_transport_frames_total"]
                    if labels["direction"] == "sent"]
            assert sent and sent[0] > 0
