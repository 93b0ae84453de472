"""Tests for cardinality generators (local, remote, memoization)."""

import pytest

from repro.core.estimator import FactorJoin, FactorJoinConfig
from repro.plan import (
    GeneratorError,
    LocalCardinalityGenerator,
    RemoteCardinalityGenerator,
    plan_query,
)
from repro.serve import EstimationService, serve_in_background
from repro.sql import parse_query
from tests.conftest import request_count

SQL = ("SELECT COUNT(*) FROM A a, B b, C c "
       "WHERE a.id = b.aid AND b.cid = c.id AND a.x > 1")
TWO_TABLE = "SELECT COUNT(*) FROM A a, B b WHERE a.id = b.aid AND a.x > 1"


@pytest.fixture(scope="module")
def model():
    from tests.conftest import build_toy_db

    return FactorJoin(FactorJoinConfig(n_bins=4)).fit(build_toy_db())


@pytest.fixture
def served(model):
    service = EstimationService()
    service.register("default", model)
    server, _ = serve_in_background(service, port=0)
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", service
    server.shutdown()
    server.server_close()


class TestLocalGenerator:
    def test_matches_model_subplans(self, model):
        generator = LocalCardinalityGenerator(model=model)
        query = parse_query(SQL)
        assert generator.prepare(query) == model.estimate_subplans(
            query, min_tables=1)

    def test_card_probes(self, model):
        generator = LocalCardinalityGenerator(model=model)
        query = parse_query(SQL)
        expected = model.estimate_subplans(query, min_tables=1)
        assert generator.card(query, ["a", "b"]) == expected[
            frozenset(["a", "b"])]
        assert generator.card(query, ["a"]) == expected[frozenset(["a"])]

    def test_memo_is_alias_invariant(self, model):
        generator = LocalCardinalityGenerator(model=model)
        generator.prepare(parse_query(SQL))
        size = generator.memo_size
        # the same sub-plans under different alias spellings hit the memo
        renamed = parse_query(
            "SELECT COUNT(*) FROM A x, B y, C z "
            "WHERE x.id = y.aid AND y.cid = z.id AND x.x > 1")
        cards = generator.prepare(renamed)
        assert generator.memo_size == size
        assert cards[frozenset(["x", "y"])] == generator.card(
            parse_query(SQL), ["a", "b"])

    def test_oracle_answers_off_lattice_probes(self, model):
        generator = LocalCardinalityGenerator(model=model)
        query = parse_query(SQL)
        oracle = generator.oracle(query)
        # {a, c} is disconnected (not in the lattice) — the oracle must
        # still answer it through the backend rather than crash
        assert oracle(frozenset(["a", "b"])) > 0
        assert generator.card(query, ["a", "b"]) == oracle(
            frozenset(["a", "b"]))

    def test_rejects_unknown_aliases(self, model):
        generator = LocalCardinalityGenerator(model=model)
        with pytest.raises(ValueError):
            generator.card(parse_query(SQL), ["nope"])
        with pytest.raises(ValueError):
            generator.card(parse_query(SQL), [])

    def test_needs_exactly_one_backend(self, model):
        with pytest.raises(ValueError):
            LocalCardinalityGenerator()
        with pytest.raises(ValueError):
            LocalCardinalityGenerator(model=model, service=object())

    def test_service_backend(self, model):
        service = EstimationService()
        service.register("default", model)
        generator = LocalCardinalityGenerator(service=service)
        assert generator.prepare(SQL) == model.estimate_subplans(
            parse_query(SQL), min_tables=1)


class TestRemoteGenerator:
    def test_agrees_exactly_with_local(self, served, model):
        base_url, _ = served
        local = LocalCardinalityGenerator(model=model)
        remote = RemoteCardinalityGenerator(base_url)
        for sql in (SQL, TWO_TABLE):
            assert remote.prepare(sql) == local.prepare(sql)
        assert remote.card(SQL, ["a", "b"]) == local.card(SQL, ["a", "b"])

    def test_plans_agree_exactly(self, served, model):
        base_url, _ = served
        local_decision = plan_query(
            SQL, LocalCardinalityGenerator(model=model))
        remote_decision = plan_query(
            SQL, RemoteCardinalityGenerator(base_url))
        assert local_decision.plan == remote_decision.plan
        assert local_decision.estimated_cost == \
            remote_decision.estimated_cost
        for dialect in ("pg_hint_plan", "json"):
            assert local_decision.hint_text(dialect) == \
                remote_decision.hint_text(dialect)

    def test_memo_avoids_repeat_requests(self, served):
        base_url, service = served
        remote = RemoteCardinalityGenerator(base_url)
        remote.prepare(SQL)
        requests_after_first = request_count(service)
        remote.prepare(SQL)  # fully memoized: no new HTTP request
        assert request_count(service) == requests_after_first

    def test_server_error_carries_taxonomy_code(self, served):
        base_url, _ = served
        remote = RemoteCardinalityGenerator(base_url, model="missing")
        with pytest.raises(GeneratorError) as info:
            remote.prepare(TWO_TABLE)
        assert "model_not_found" in str(info.value)

    def test_unreachable_server(self):
        remote = RemoteCardinalityGenerator("http://127.0.0.1:1",
                                            timeout=0.5)
        with pytest.raises(GeneratorError):
            remote.prepare(TWO_TABLE)
