"""Tests for the EstimationService: caching, updates, hot-swap, concurrency."""

import threading

import pytest

from repro.core.estimator import FactorJoin, FactorJoinConfig
from repro.errors import ModelNotFoundError
from repro.serve import EstimationService
from repro.sql import parse_query
from tests.conftest import request_count

SQL = "SELECT COUNT(*) FROM A a, B b WHERE a.id = b.aid AND a.x > 1"


@pytest.fixture
def fitted(toy_db):
    return FactorJoin(FactorJoinConfig(n_bins=4)).fit(toy_db)


@pytest.fixture
def service(fitted):
    svc = EstimationService(cache_size=64)
    svc.register("default", fitted)
    return svc


class TestEstimate:
    def test_matches_direct_model_call(self, service, fitted):
        result = service.estimate(SQL)
        assert result.estimate == fitted.estimate(parse_query(SQL))
        assert result.model == "default"
        assert result.version == 1
        assert not result.cached
        assert result.seconds >= 0

    def test_repeat_is_cached_and_identical(self, service):
        first = service.estimate(SQL)
        second = service.estimate(SQL)
        assert second.cached and not first.cached
        assert second.estimate == first.estimate

    def test_accepts_parsed_queries(self, service):
        assert service.estimate(parse_query(SQL)).estimate > 0

    def test_single_model_is_implicit_default(self, fitted):
        svc = EstimationService()
        svc.register("toy", fitted)
        assert svc.estimate(SQL).model == "toy"

    def test_ambiguous_default_raises(self, fitted):
        svc = EstimationService()
        svc.register("a", fitted)
        svc.register("b", fitted)
        with pytest.raises(ModelNotFoundError):
            svc.estimate(SQL)
        assert svc.estimate(SQL, model="a").estimate > 0

    def test_repeated_estimate_is_cached(self, service, fitted):
        other = "SELECT COUNT(*) FROM B b, C c WHERE b.cid = c.id"
        results = [service.estimate(sql) for sql in (SQL, other, SQL)]
        assert len(results) == 3
        assert results[2].cached
        assert results[0].estimate == results[2].estimate

    def test_estimate_subplans(self, service, fitted):
        got = service.estimate_subplans(SQL)
        want = fitted.estimate_subplans(parse_query(SQL))
        assert got == want
        # second call is served from cache (same object is fine here)
        assert service.estimate_subplans(SQL) == want
        assert service._cache_of("default").stats()["hits"] >= 1


class TestSubplanReuse:
    BIG = ("SELECT COUNT(*) FROM A a, B b, C c "
           "WHERE a.id = b.aid AND b.cid = c.id AND a.x > 1")
    # the {a, b} sub-plan of BIG, spelled with different aliases
    SMALL = "SELECT COUNT(*) FROM A q, B r WHERE q.id = r.aid AND q.x > 1"

    def test_plain_estimate_served_from_subplan_table(self, service,
                                                      fitted):
        service.estimate_subplans(self.BIG)
        result = service.estimate(self.SMALL)
        assert result.cached and result.cache_level == "subplan"
        direct = fitted.estimate(parse_query(self.SMALL))
        assert result.estimate == pytest.approx(direct, rel=1e-9)

    def test_subplan_hit_promotes_to_query_level(self, service):
        service.estimate_subplans(self.BIG)
        assert service.estimate(self.SMALL).cache_level == "subplan"
        assert service.estimate(self.SMALL).cache_level == "query"

    def test_plain_estimates_populate_subplan_table(self, service):
        """An isomorphic alias respelling of a served query hits the
        sub-plan table even though its query fingerprint differs."""
        computed = service.estimate(self.SMALL)
        respelled = service.estimate(
            "SELECT COUNT(*) FROM A x, B y WHERE x.id = y.aid AND x.x > 1")
        assert not computed.cached
        assert respelled.cache_level == "subplan"
        assert respelled.estimate == computed.estimate

    def test_subplan_map_assembled_from_table(self, service, fitted):
        """Once the table holds every sub-plan, estimate_subplans answers
        without calling the model at all."""
        service.estimate_subplans(self.BIG)
        calls = []
        original = fitted.estimate_subplans
        fitted.estimate_subplans = (
            lambda *a, **k: calls.append(a) or original(*a, **k))
        small_subplans = service.estimate_subplans(self.SMALL)
        fitted.estimate_subplans = original
        assert not calls
        want = original(parse_query(self.SMALL))
        assert set(small_subplans) == set(want)
        for subset, value in small_subplans.items():
            assert value == pytest.approx(want[subset], rel=1e-9), subset

    def test_reuse_disabled_skips_subplan_table(self, fitted):
        svc = EstimationService(cache_size=64, subplan_reuse=False)
        svc.register("default", fitted)
        svc.estimate_subplans(self.BIG)
        result = svc.estimate(self.SMALL)
        assert not result.cached and result.cache_level is None
        stats = svc._cache_of("default").stats()
        assert stats["subplan_size"] == 0
        assert stats["subplan_hits"] == 0 and stats["subplan_misses"] == 0

    def test_cache_level_in_to_json(self, service):
        service.estimate_subplans(self.BIG)
        body = service.estimate(self.SMALL).to_json()
        assert body["cache_level"] == "subplan" and body["cached"]
        assert service.estimate(self.SMALL).to_json()[
            "cache_level"] == "query"

    def test_stats_report_both_levels(self, service):
        service.estimate_subplans(self.BIG)
        service.estimate(self.SMALL)
        cache_stats = service._cache_of("default").stats()
        assert cache_stats["subplan_hits"] >= 1
        assert cache_stats["subplan_size"] >= 5
        assert service.stats_v1()["subplan_reuse"] is True


class TestUpdate:
    def test_update_invalidates_cache(self, service, toy_db):
        before = service.estimate(SQL)
        info = service.update("B", toy_db.table("B").head(30))
        after = service.estimate(SQL)
        assert info.rows == 30
        assert not after.cached
        # 30 extra B rows must raise the join estimate
        assert after.estimate > before.estimate

    def test_update_latency_recorded(self, service, toy_db):
        service.update("C", toy_db.table("C").head(3))
        assert request_count(service, "update") == 1

    def test_malformed_insert_rejected_before_mutation(self, service,
                                                       toy_db):
        """A column-set mismatch must fail up front — never half-apply."""
        from repro.data import Column, Table
        from repro.errors import DataError
        before = service.estimate(SQL).estimate
        bad = Table("B", [Column("aid", [1, 2])])  # missing cid, y
        with pytest.raises(DataError, match="exactly the columns"):
            service.update("B", bad)
        assert service.estimate(SQL).estimate == before

    def test_dtype_mismatch_rejected_before_mutation(self, service, toy_db):
        """Right columns, wrong dtype: the model's statistics must be
        untouched after the rejected insert (no half-applied update)."""
        import numpy as np
        from repro.data import Column, DataType, Table
        from repro.errors import DataError
        before = service.estimate(SQL).estimate
        bad = Table("B", [
            Column("aid", np.array([1.5, 2.5]), dtype=DataType.FLOAT),
            Column("cid", [1, 2]),
            Column("y", [0, 1]),
        ])
        with pytest.raises(DataError):
            service.update("B", bad)
        assert service.estimate(SQL).estimate == before

    def test_subplan_result_mutation_does_not_poison_cache(self, service):
        first = service.estimate_subplans(SQL)
        keys = set(first)
        first.clear()
        assert set(service.estimate_subplans(SQL)) == keys

    def test_insert_column_order_normalized(self, service, toy_db):
        from repro.data import Column, Table
        src = toy_db.table("B").head(4)
        shuffled = Table("B", [src["y"], src["aid"], src["cid"]])
        assert service.update("B", shuffled).rows == 4

    def test_non_updatable_estimator_rejected_early(self, service):
        """A table estimator without update support fails cleanly, before
        any key statistics mutate."""
        from repro.estimators.base import BaseTableEstimator

        class Frozen(BaseTableEstimator):
            name = "frozen"

            def fit(self, *a, **k):
                return self

            def estimate_row_count(self, pred):
                return 0.0

            def key_distribution(self, column, pred):
                raise NotImplementedError

        model = service.registry.get("default")
        model._table_estimators["B"] = Frozen()
        with pytest.raises(NotImplementedError, match="cannot absorb"):
            service.update("B", None)


class TestHotSwap:
    def test_swap_invalidates_cache_and_bumps_version(self, service, toy_db):
        stale = service.estimate(SQL)
        assert service.estimate(SQL).cached
        refit = FactorJoin(FactorJoinConfig(n_bins=8)).fit(toy_db)
        service.register("default", refit)
        fresh = service.estimate(SQL)
        assert not fresh.cached
        assert fresh.version == 2
        assert fresh.estimate == refit.estimate(parse_query(SQL))
        assert stale.version == 1

    def test_stale_record_result_not_cached_after_swap(self, service,
                                                       toy_db):
        """A computation pinned to a pre-swap record (a request whose
        model was swapped mid-flight) must not poison the cache for the
        new version."""
        old_record = service.registry.record("default")
        refit = FactorJoin(FactorJoinConfig(n_bins=8)).fit(toy_db)
        service.register("default", refit)
        stale = service._estimate_with(old_record, SQL)
        assert stale.version == 1                 # request stays on v1
        fresh = service.estimate(SQL)
        assert fresh.version == 2
        assert not fresh.cached                       # v1's answer dropped
        assert fresh.estimate == refit.estimate(parse_query(SQL))

    def test_pinned_stale_record_never_serves_new_version_cache(
            self, service, toy_db):
        """A request pinned to a swapped-out record must not return the new
        version's cached values labeled with the old version — at either
        cache level."""
        old_record = service.registry.record("default")
        refit = FactorJoin(FactorJoinConfig(n_bins=8)).fit(toy_db)
        service.register("default", refit)
        # new-version traffic repopulates both cache levels
        fresh = service.estimate(SQL)
        assert service.estimate(SQL).cached
        stale = service._estimate_with(old_record, SQL)
        assert stale.version == 1
        assert not stale.cached and stale.cache_level is None
        old_model = old_record.model
        assert stale.estimate == old_model.estimate(parse_query(SQL))
        assert fresh.estimate != stale.estimate

    def test_stats_shape(self, service):
        service.estimate(SQL)
        stats = service.stats_v1()
        assert stats["models"][0]["name"] == "default"
        assert request_count(service) == 1
        assert service._cache_of("default").stats()["misses"] == 1
        assert stats["uptime_seconds"] >= 0


class TestConcurrency:
    def test_concurrent_estimates_with_updates(self, service, toy_db):
        """Readers keep getting positive finite answers while a writer
        applies incremental inserts and hot-swaps."""
        queries = [
            SQL,
            "SELECT COUNT(*) FROM B b, C c WHERE b.cid = c.id",
            "SELECT COUNT(*) FROM A a, B b, C c "
            "WHERE a.id = b.aid AND b.cid = c.id",
        ]
        errors = []
        done = threading.Event()

        def reader(sql):
            while not done.is_set():
                try:
                    result = service.estimate(sql)
                    if not result.estimate >= 0:
                        errors.append(result)
                except Exception as exc:  # noqa: BLE001 - recording
                    errors.append(exc)

        threads = [threading.Thread(target=reader, args=(q,))
                   for q in queries for _ in range(2)]
        for t in threads:
            t.start()
        try:
            for _ in range(5):
                service.update("B", toy_db.table("B").head(10))
            refit = FactorJoin(FactorJoinConfig(n_bins=4)).fit(toy_db)
            service.register("default", refit)
        finally:
            done.set()
            for t in threads:
                t.join()
        assert not errors
        assert request_count(service) > 0


class TestDeletes:
    def test_delete_through_service(self, toy_db):
        model = FactorJoin(FactorJoinConfig(
            n_bins=4, table_estimator="truescan")).fit(toy_db)
        svc = EstimationService()
        svc.register("default", model)
        before = svc.estimate(SQL).estimate
        batch = toy_db.table("B").head(25)
        svc.update("B", batch)
        mid = svc.estimate(SQL).estimate
        assert mid != before
        summary = svc.update("B", deleted_rows=batch)
        assert summary.deleted_rows == 25 and summary.rows == 0
        after = svc.estimate(SQL).estimate
        assert after == pytest.approx(before, rel=1e-9)

    def test_delete_invalidates_cache(self, toy_db):
        model = FactorJoin(FactorJoinConfig(
            n_bins=4, table_estimator="truescan")).fit(toy_db)
        svc = EstimationService()
        svc.register("default", model)
        svc.estimate(SQL)
        assert svc.estimate(SQL).cached
        svc.update("B", deleted_rows=toy_db.table("B").head(5))
        assert not svc.estimate(SQL).cached

    def test_unsupported_delete_rejected(self, service, toy_db):
        # the default fixture model uses bayescard, which cannot delete
        with pytest.raises(NotImplementedError, match="no delete"):
            service.update("B", deleted_rows=toy_db.table("B").head(2))

    def test_update_without_any_rows_rejected(self, service):
        from repro.errors import DataError

        with pytest.raises(DataError, match="new_rows and/or deleted"):
            service.update("B")


class TestSnapshots:
    def _exercised(self, svc):
        svc.estimate(SQL)
        svc.estimate_subplans("SELECT COUNT(*) FROM A a, B b, C c "
                              "WHERE a.id = b.aid AND b.cid = c.id")
        return svc

    def test_save_restore_round_trip(self, toy_db, tmp_path):
        model = FactorJoin(FactorJoinConfig(n_bins=4)).fit(toy_db)
        svc = EstimationService()
        svc.register("default", model)
        self._exercised(svc)
        path = tmp_path / "cache.snap"
        saved = svc.save_snapshot(path)
        assert saved["entries"] >= 2 and saved["subplans"] >= 1

        fresh = EstimationService()
        fresh.register("default", model)
        restored = fresh.restore_snapshot(path)
        assert restored["entries"] == saved["entries"]
        assert fresh.estimate(SQL).cached

    def test_restore_refused_for_different_model(self, toy_db, tmp_path):
        from repro.errors import ArtifactError

        model = FactorJoin(FactorJoinConfig(n_bins=4)).fit(toy_db)
        svc = EstimationService()
        svc.register("default", model)
        self._exercised(svc)
        path = tmp_path / "cache.snap"
        svc.save_snapshot(path)

        other = EstimationService()
        other.register("default",
                       FactorJoin(FactorJoinConfig(n_bins=8)).fit(toy_db))
        with pytest.raises(ArtifactError, match="refusing"):
            other.restore_snapshot(path)

    def test_update_changes_fingerprint(self, toy_db, tmp_path):
        """A snapshot saved pre-update must not restore post-update."""
        from repro.errors import ArtifactError

        model = FactorJoin(FactorJoinConfig(
            n_bins=4, table_estimator="truescan")).fit(toy_db)
        svc = EstimationService()
        svc.register("default", model,
                     metadata={"fingerprint": "artifact-sha"})
        self._exercised(svc)
        path = tmp_path / "cache.snap"
        svc.save_snapshot(path)
        svc.update("B", toy_db.table("B").head(3))
        # the artifact fingerprint was dropped by the update; the content
        # hash of the mutated model no longer matches the stamp
        with pytest.raises(ArtifactError, match="refusing"):
            svc.restore_snapshot(path)


class TestEnsembleConcurrency:
    """Satellite: parallel estimates against a served ShardedFactorJoin
    racing a per-shard update must never mix pre/post-update shard stats
    in one answer (extends the stamped-put race coverage)."""

    def _sharded_service(self, toy_db):
        from repro.shard import ShardedFactorJoin

        model = ShardedFactorJoin(
            FactorJoinConfig(n_bins=4, table_estimator="truescan"),
            n_shards=4, parallel="serial").fit(toy_db)
        svc = EstimationService(cache_size=64)
        svc.register("default", model)
        return svc, model

    def test_served_answers_are_pre_or_post_update(self, toy_db):
        svc, model = self._sharded_service(toy_db)
        query = parse_query(SQL)
        before = model.estimate(query)
        batch = toy_db.table("B").head(40)
        observed, errors = [], []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    observed.append(svc.estimate(SQL).estimate)
                except Exception as exc:  # noqa: BLE001 - recording
                    errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(3):
                svc.update("B", batch)
                svc.update("B", deleted_rows=batch)
        finally:
            stop.set()
            for t in threads:
                t.join()
        after = model.estimate(query)
        assert not errors
        assert after == pytest.approx(before, rel=1e-9)
        mid_model = None  # the transient post-insert value
        import copy as _copy

        probe = _copy.deepcopy(model)
        probe.update("B", batch)
        mid_model = probe.estimate(query)
        allowed = {before, after, mid_model}
        unexpected = [v for v in observed if v not in allowed]
        assert not unexpected, f"mixed-state answers: {unexpected[:5]}"

    def test_stamped_put_drops_raced_ensemble_entry(self, toy_db):
        """A cache put computed against the pre-update ensemble must not
        land after the update invalidated the cache."""
        svc, model = self._sharded_service(toy_db)
        cache = svc._cache_of("default")
        from repro.serve.cache import query_fingerprint

        query = parse_query(SQL)
        key = query_fingerprint(query)
        stamp = cache.invalidations
        stale_value = model.estimate(query)
        svc.update("B", toy_db.table("B").head(10))
        cache.put(key, stale_value, stamp=stamp)  # must be dropped
        assert cache.get(key) is None
