"""The SQL parse memo behind ``coerce_query``, and the request paths
that parse each query once."""

import sys
import threading

import pytest

import repro.sql
from repro.api import coerce
from repro.api.coerce import (
    PARSE_MEMO_MAX_CHARS,
    PARSE_MEMO_SIZE,
    coerce_query,
)
from repro.core.estimator import FactorJoin, FactorJoinConfig
from repro.errors import ParseError
from repro.plan import PlanRequest
from repro.serve import EstimationService
from repro.serve.warmup import WorkloadEntry, load_workload, warm_service
from repro.sql import parse_query

SQL = "SELECT COUNT(*) FROM A a, B b WHERE a.id = b.aid AND a.x > 1"
THREE = ("SELECT COUNT(*) FROM A a, B b, C c "
         "WHERE a.id = b.aid AND b.cid = c.id AND a.x > 1")
ONE = "SELECT COUNT(*) FROM A a WHERE a.x > 1"
# longer than the memo's cap, so every coercion parses afresh
LONG = THREE.replace(" FROM", " " * PARSE_MEMO_MAX_CHARS + "FROM")


@pytest.fixture(autouse=True)
def empty_memo():
    coerce._parse.cache_clear()
    yield
    coerce._parse.cache_clear()


@pytest.fixture
def parse_calls(monkeypatch):
    """The SQL texts handed to the parser, in call order."""
    calls = []
    parse = repro.sql.parse_query

    def counting(sql):
        calls.append(sql)
        return parse(sql)

    monkeypatch.setattr(repro.sql, "parse_query", counting)
    return calls


@pytest.fixture
def model(toy_db):
    return FactorJoin(FactorJoinConfig(n_bins=4)).fit(toy_db)


@pytest.fixture
def service(model):
    service = EstimationService()
    service.register("default", model)
    return service


class TestParseMemo:
    def test_equal_text_estimates_bit_identically(self, model,
                                                  parse_calls):
        first = coerce_query(SQL)
        again = coerce_query("".join(SQL))  # equal text, new object
        assert again is first
        assert parse_calls == [SQL]
        assert model.estimate(again) == model.estimate(parse_query(SQL))

    def test_parse_errors_are_never_memoized(self, parse_calls):
        for _ in range(3):
            with pytest.raises(ParseError):
                coerce_query("not sql at all")
        assert len(parse_calls) == 3
        assert coerce._parse.cache_info().currsize == 0

    @pytest.mark.parametrize("bad", [None, 42, b"SELECT", ["SELECT"]])
    def test_non_query_input_raises_type_error(self, bad):
        with pytest.raises(TypeError):
            coerce_query(bad)

    def test_query_passes_through(self, parse_calls):
        query = parse_query(SQL)
        assert coerce_query(query) is query
        assert parse_calls == []

    def test_text_over_the_cap_bypasses_the_memo(self, parse_calls):
        first, second = coerce_query(LONG), coerce_query(LONG)
        assert first is not second
        assert first.signature() == parse_query(THREE).signature()
        assert len(parse_calls) == 2
        assert coerce._parse.cache_info().currsize == 0

    def test_memo_stays_bounded(self):
        for i in range(PARSE_MEMO_SIZE + 16):
            coerce_query(f"SELECT COUNT(*) FROM A a WHERE a.x > {i}")
        info = coerce._parse.cache_info()
        assert info.maxsize == PARSE_MEMO_SIZE
        assert info.currsize == PARSE_MEMO_SIZE

    def test_shared_query_is_never_mutated_by_serving(self, service):
        query = coerce_query(THREE)
        before = (query.signature(), query.to_sql(), query.subplan_key())
        service.estimate(THREE)
        service.explain(THREE)
        service.estimate_subplans(THREE)
        service.serve_plan(PlanRequest(query=THREE))
        assert coerce_query(THREE) is query
        assert (query.signature(), query.to_sql(),
                query.subplan_key()) == before

    def test_concurrent_coercion_shares_one_query_per_text(self):
        """Threads racing on a small set of texts all get queries equal
        to a fresh parse, and the memo ends holding each text once."""
        texts = [f"SELECT COUNT(*) FROM A a, B b WHERE a.id = b.aid "
                 f"AND a.x > {i}" for i in range(8)]
        want = {t: parse_query(t).signature() for t in texts}
        wrong, errors = [], []

        def worker(offset):
            try:
                for i in range(400):
                    text = texts[(offset + i) % len(texts)]
                    if coerce_query(text).signature() != want[text]:
                        wrong.append(text)
            except Exception as exc:  # noqa: BLE001 - recording
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and not wrong
        assert coerce._parse.cache_info().currsize == len(texts)


class TestOneParsePerRequest:
    def test_serve_plan_parses_once(self, service, parse_calls):
        service.serve_plan(PlanRequest(query=THREE))
        assert parse_calls == [THREE]
        # the memo plays no part above the cap: one parse all the same
        service.serve_plan(PlanRequest(query=LONG))
        assert parse_calls == [THREE, LONG]

    def test_warm_service_parses_each_entry_once(self, service,
                                                 parse_calls):
        entries = [WorkloadEntry(sql=THREE), WorkloadEntry(sql=SQL),
                   WorkloadEntry(sql=ONE)]
        summary = warm_service(service, entries, subplans=True)
        assert summary["warmed_subplan_maps"] == 2 and not summary["errors"]
        assert sorted(parse_calls) == sorted([THREE, SQL, ONE])

    def test_loaded_workload_is_parsed_once(self, service, parse_calls,
                                            tmp_path):
        path = tmp_path / "warm.sql"
        path.write_text(f"{THREE}\n{ONE}\n")
        warm_service(service, load_workload(path), subplans=True)
        assert sorted(parse_calls) == sorted([THREE, ONE])
