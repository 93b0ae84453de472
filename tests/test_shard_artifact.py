"""Tests for ensemble artifacts: manifest, integrity, lazy shard loading."""

import json

import pytest

from repro.core.estimator import FactorJoin, FactorJoinConfig
from repro.errors import ArtifactError
from repro.serve import EstimationService, load_model, read_manifest
from repro.shard import ShardedFactorJoin, is_ensemble_manifest, load_ensemble
from repro.sql import parse_query

SQL = "SELECT COUNT(*) FROM A a, B b WHERE a.id = b.aid"
SQL_PRUNED = "SELECT COUNT(*) FROM A a WHERE a.id = 5"


def _config():
    return FactorJoinConfig(n_bins=4, table_estimator="truescan")


@pytest.fixture
def sharded(toy_db):
    return ShardedFactorJoin(_config(), n_shards=4,
                             parallel="serial").fit(toy_db)


@pytest.fixture
def artifact(sharded, tmp_path):
    path = tmp_path / "ensemble"
    sharded.save(path, name="toy-ensemble")
    return path


class TestManifest:
    def test_layout_and_manifest_fields(self, artifact):
        manifest = read_manifest(artifact)
        assert is_ensemble_manifest(manifest)
        assert manifest["name"] == "toy-ensemble"
        assert manifest["n_shards"] == 4
        assert manifest["policy"]["kind"] == "hash"
        assert len(manifest["shards"]) == 4
        for entry in manifest["shards"]:
            assert (artifact / entry["dir"] / "model.pkl").is_file()
            shard_manifest = read_manifest(artifact / entry["dir"])
            assert shard_manifest["sha256"] == entry["sha256"]
        assert (artifact / "shared.pkl").is_file()

    def test_schema_hash_recorded(self, artifact, toy_db):
        from repro.serve import schema_fingerprint

        manifest = read_manifest(artifact)
        assert manifest["schema_hash"] == schema_fingerprint(toy_db.schema)


class TestRoundTrip:
    def test_loaded_estimates_match(self, artifact, sharded):
        loaded = ShardedFactorJoin.load(artifact)
        for sql in (SQL, SQL_PRUNED):
            query = parse_query(sql)
            assert loaded.estimate(query) == sharded.estimate(query)

    def test_load_model_dispatches_to_ensemble(self, artifact):
        loaded = load_model(artifact)
        assert isinstance(loaded, ShardedFactorJoin)

    def test_schema_check_on_load(self, artifact, toy_db):
        loaded = load_ensemble(artifact, expected_schema=toy_db.schema)
        assert loaded.n_shards == 4

    def test_updates_still_work_after_reload(self, artifact, toy_db):
        loaded = ShardedFactorJoin.load(artifact)
        before = loaded.estimate(parse_query(SQL))
        loaded.update("B", toy_db.table("B").head(20))
        assert loaded.estimate(parse_query(SQL)) != before

    def test_factorjoin_load_rejects_ensembles(self, artifact):
        with pytest.raises(TypeError, match="not a FactorJoin"):
            FactorJoin.load(artifact)


class TestLazyLoading:
    def test_load_deserializes_no_shard(self, artifact):
        loaded = ShardedFactorJoin.load(artifact)
        assert loaded.materialized_shards() == [False] * 4

    def test_pruned_query_materializes_one_shard(self, artifact):
        loaded = ShardedFactorJoin.load(artifact)
        loaded.estimate(parse_query(SQL_PRUNED))  # a.id = 5 -> shard 1
        assert loaded.materialized_shards() == [False, True, False, False]

    def test_full_query_materializes_all(self, artifact):
        loaded = ShardedFactorJoin.load(artifact)
        loaded.estimate(parse_query(SQL))
        assert loaded.materialized_shards() == [True] * 4


class TestIntegrity:
    def test_tampered_shared_statistics_refused(self, artifact):
        blob = (artifact / "shared.pkl").read_bytes()
        (artifact / "shared.pkl").write_bytes(blob + b"x")
        with pytest.raises(ArtifactError, match="integrity"):
            load_ensemble(artifact)

    def test_replaced_shard_refused_at_load(self, artifact):
        # rewrite one shard's manifest to claim a different checksum
        shard_manifest = artifact / "shards" / "shard-0002" / "manifest.json"
        manifest = json.loads(shard_manifest.read_text())
        manifest["sha256"] = "0" * 64
        shard_manifest.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="does not match"):
            load_ensemble(artifact)

    def test_tampered_shard_pickle_fails_on_materialization(self, artifact):
        pickle_path = artifact / "shards" / "shard-0001" / "model.pkl"
        pickle_path.write_bytes(pickle_path.read_bytes() + b"x")
        loaded = load_ensemble(artifact)  # lazy: not verified yet
        with pytest.raises(ArtifactError, match="integrity"):
            loaded.estimate(parse_query(SQL))

    def test_missing_shard_directory_refused(self, artifact, tmp_path):
        import shutil

        shutil.rmtree(artifact / "shards" / "shard-0003")
        with pytest.raises(ArtifactError, match="missing shard"):
            load_ensemble(artifact)

    def test_single_model_artifact_rejected_by_load_ensemble(
            self, toy_db, tmp_path):
        FactorJoin(_config()).fit(toy_db).save(tmp_path / "single")
        with pytest.raises(ArtifactError, match="single-model"):
            load_ensemble(tmp_path / "single")


class TestServing:
    def test_service_serves_reloaded_ensemble(self, artifact, sharded):
        service = EstimationService()
        service.register("ens", load_model(artifact))
        result = service.estimate(SQL, model="ens")
        assert result.estimate == sharded.estimate(parse_query(SQL))
        assert service.estimate(SQL, model="ens").cached

    def test_service_update_routes_through_ensemble(self, artifact, toy_db):
        service = EstimationService()
        service.register("ens", load_model(artifact))
        before = service.estimate(SQL, model="ens").estimate
        batch = toy_db.table("B").head(10)
        summary = service.update("B", batch, model="ens")
        assert summary.rows == 10
        after = service.estimate(SQL, model="ens").estimate
        assert after != before
        summary = service.update("B", deleted_rows=batch, model="ens")
        assert summary.deleted_rows == 10
        assert service.estimate(SQL, model="ens").estimate == pytest.approx(
            before, rel=1e-12)
