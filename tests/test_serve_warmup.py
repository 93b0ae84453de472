"""Tests for workload recording, replay warming, and warm invalidation."""

import json

import pytest

from repro.core.estimator import FactorJoin, FactorJoinConfig
from repro.serve import (
    EstimationService,
    WorkloadEntry,
    WorkloadRecorder,
    load_workload,
    warm_service,
)
from repro.sql import parse_query

BIG = ("SELECT COUNT(*) FROM A a, B b, C c "
       "WHERE a.id = b.aid AND b.cid = c.id AND a.x > 1")
SMALL = "SELECT COUNT(*) FROM A q, B r WHERE q.id = r.aid AND q.x > 1"


@pytest.fixture
def fitted(toy_db):
    return FactorJoin(FactorJoinConfig(n_bins=4)).fit(toy_db)


@pytest.fixture
def service(fitted):
    svc = EstimationService(cache_size=64)
    svc.register("default", fitted)
    return svc


class TestWorkloadEntry:
    def test_json_round_trip(self):
        entry = WorkloadEntry(sql=BIG, kind="subplans", model="m",
                              min_tables=2)
        assert WorkloadEntry.from_json(entry.to_json()) == entry

    def test_defaults_omitted_from_json(self):
        line = WorkloadEntry(sql=SMALL).to_json()
        assert "model" not in json.loads(line)
        assert WorkloadEntry.from_json(line) == WorkloadEntry(sql=SMALL)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            WorkloadEntry(sql=SMALL, kind="mystery")

    def test_non_object_line_rejected(self):
        with pytest.raises(ValueError):
            WorkloadEntry.from_json('["not", "an", "object"]')

    def test_field_errors_never_echo_values(self):
        """from_json parses server-local files (POST /warmup {"path"}):
        its error messages must not embed field values."""
        bad_lines = [
            '{"sql": "SELECT COUNT(*) FROM A a", "kind": "secret-v"}',
            '{"sql": "SELECT COUNT(*) FROM A a", "min_tables": "secret-v"}',
            '{"sql": "SELECT COUNT(*) FROM A a", "model": 7}',
        ]
        for line in bad_lines:
            with pytest.raises(ValueError) as info:
                WorkloadEntry.from_json(line)
            assert "secret-v" not in str(info.value), line


class TestRecorder:
    def test_service_records_served_queries(self, service, tmp_path):
        log = tmp_path / "workload.jsonl"
        service.start_recording(log)
        service.estimate(SMALL)
        service.estimate_subplans(BIG, min_tables=2)
        assert service.stop_recording() == 2
        entries = load_workload(log)
        assert entries[0] == WorkloadEntry(
            sql=parse_query(SMALL).to_sql(), kind="estimate")
        assert entries[1].kind == "subplans"
        assert entries[1].min_tables == 2

    def test_record_append_and_close_idempotent(self, tmp_path):
        log = tmp_path / "w.jsonl"
        recorder = WorkloadRecorder(log)
        recorder.record(WorkloadEntry(sql=SMALL))
        recorder.close()
        recorder.record(WorkloadEntry(sql=BIG))   # no-op after close
        recorder.close()
        again = WorkloadRecorder(log)              # append, not truncate
        again.record(WorkloadEntry(sql=BIG))
        again.close()
        assert [e.sql for e in load_workload(log)] == [SMALL, BIG]

    def test_stop_without_start_is_zero(self, service):
        assert service.stop_recording() == 0

    def test_stats_expose_recording(self, service, tmp_path):
        assert service.stats_v1()["recording"] is None
        service.start_recording(tmp_path / "w.jsonl")
        service.estimate(SMALL)
        info = service.stats_v1()["recording"]
        assert info["recorded"] == 1 and info["path"].endswith("w.jsonl")


class TestLoadWorkload:
    def test_plain_sql_lines_with_comments(self, tmp_path):
        path = tmp_path / "w.sql"
        path.write_text(f"# warming set\n\n{SMALL}\n{BIG}\n")
        entries = load_workload(path)
        assert [e.sql for e in entries] == [SMALL, BIG]
        assert all(e.kind == "estimate" for e in entries)

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text('{"nosql": true}\n')
        with pytest.raises(ValueError, match="w.jsonl:1"):
            load_workload(path)

    def test_non_sql_content_rejected_without_disclosure(self, tmp_path):
        """Pointing the loader at a non-workload file (POST /warmup takes
        a server-local path) must fail naming only the line NUMBER — an
        error echoing line content would disclose arbitrary files."""
        path = tmp_path / "secrets.txt"
        path.write_text("root:x:0:0:supersecret\n")
        with pytest.raises(ValueError) as info:
            load_workload(path)
        assert "secrets.txt:1" in str(info.value)
        assert "supersecret" not in str(info.value)


class TestWarmService:
    def test_warming_populates_both_levels(self, service):
        summary = warm_service(service, [
            WorkloadEntry(sql=BIG, kind="subplans"),
            WorkloadEntry(sql=SMALL),
        ])
        assert summary["entries"] == 2
        assert summary["warmed_subplan_maps"] == 1
        assert summary["warmed_estimates"] == 1
        assert not summary["errors"]
        assert summary["caches"]["default"]["subplan_size"] >= 6
        # warm traffic is admitted straight from cache
        assert service.estimate(SMALL).cached
        assert service.estimate(BIG).cache_level == "subplan"

    def test_warming_promotes_plain_entries_to_subplans(self, service):
        warm_service(service, [WorkloadEntry(sql=BIG)], subplans=True)
        # the {a,b} sub-plan was warmed even though BIG was recorded as a
        # plain estimate
        assert service.estimate(SMALL).cache_level == "subplan"

    def test_warm_errors_collected_not_raised(self, service):
        summary = warm_service(service, [
            WorkloadEntry(sql="SELECT COUNT(*) FROM Nope n"),
            WorkloadEntry(sql=SMALL),
        ])
        assert summary["warmed_estimates"] == 1
        assert len(summary["errors"]) == 1

    def test_warm_aborts_after_too_many_errors(self, service):
        bad = [WorkloadEntry(sql="SELECT COUNT(*) FROM Nope n")] * 4
        with pytest.raises(ValueError, match="aborted"):
            warm_service(service, bad, max_errors=2)

    def test_single_table_entries_not_promoted(self, service):
        """subplans=True promotes only multi-table estimates; a
        single-table query's sub-plan map is just itself, and the summary
        counters must say what actually ran."""
        summary = warm_service(service, [
            WorkloadEntry(sql="SELECT COUNT(*) FROM A a WHERE a.x > 1"),
            WorkloadEntry(sql=BIG),
        ], subplans=True)
        assert summary["warmed_estimates"] == 1
        assert summary["warmed_subplan_maps"] == 1

    def test_suspension_is_thread_local(self, service, tmp_path):
        """A warmup on one thread must not stop concurrent traffic on
        other threads from being recorded."""
        import threading
        service.start_recording(tmp_path / "w.jsonl")
        recorded_inside = []

        def other_traffic():
            service.estimate(BIG)

        with service.recording_suspended():
            thread = threading.Thread(target=other_traffic)
            thread.start()
            thread.join()
            service.estimate(SMALL)            # this thread: suppressed
            recorded_inside.append(service._recorder.recorded)
        assert recorded_inside == [1]          # only the other thread's
        assert service.stop_recording() == 1

    def test_warming_suspends_recording(self, service, tmp_path):
        """Warming a recording service must not copy the warm workload
        into the new log."""
        log = tmp_path / "w.jsonl"
        service.start_recording(log)
        warm_service(service, [WorkloadEntry(sql=SMALL)])
        service.estimate(BIG)          # real traffic IS recorded
        assert service.stop_recording() == 1
        assert [e.sql for e in load_workload(log)] == [
            parse_query(BIG).to_sql()]


class TestWarmupInvalidation:
    def test_hot_swap_after_warming_never_serves_stale_subplans(
            self, service, toy_db, fitted):
        """The satellite guarantee: warm, then hot-swap — no pre-swap
        sub-plan estimate may survive at either cache level."""
        warm_service(service, [WorkloadEntry(sql=BIG, kind="subplans")])
        stale = service.estimate(SMALL)
        assert stale.cache_level == "subplan"

        refit = FactorJoin(FactorJoinConfig(n_bins=8)).fit(toy_db)
        service.register("default", refit)

        fresh = service.estimate(SMALL)
        assert not fresh.cached and fresh.cache_level is None
        assert fresh.estimate == refit.estimate(parse_query(SMALL))
        assert fresh.estimate != stale.estimate
        stats = service._cache_of("default").stats()
        assert stats["invalidations"] >= 1

    def test_update_after_warming_invalidates_subplan_table(
            self, service, toy_db):
        warm_service(service, [WorkloadEntry(sql=BIG, kind="subplans")])
        before = service.estimate(SMALL)
        assert before.cached
        service.update("B", toy_db.table("B").head(30))
        after = service.estimate(SMALL)
        assert not after.cached and after.cache_level is None
        assert after.estimate > before.estimate

    def test_rewarming_after_swap_serves_new_model_values(
            self, service, toy_db):
        warm_service(service, [WorkloadEntry(sql=BIG, kind="subplans")])
        refit = FactorJoin(FactorJoinConfig(n_bins=8)).fit(toy_db)
        service.register("default", refit)
        warm_service(service, [WorkloadEntry(sql=BIG, kind="subplans")])
        result = service.estimate(SMALL)
        assert result.cache_level == "subplan"
        assert result.estimate == pytest.approx(
            refit.estimate(parse_query(SMALL)), rel=1e-9)


class TestCLIWarm:
    ARGS = ["--scale", "0.02", "--queries", "4", "--max-tables", "3",
            "--seed", "21", "--bins", "4"]
    SQL = ("SELECT COUNT(*) FROM posts p, comments c "
           "WHERE p.id = c.post_id AND p.score > 0")

    def _artifact(self, tmp_path, capsys):
        from repro.cli import main
        artifact = str(tmp_path / "m.fj")
        assert main(["estimate", self.SQL, *self.ARGS,
                     "--save", artifact]) == 0
        capsys.readouterr()
        return artifact

    def test_serve_warm_from_file(self, tmp_path, capsys):
        from repro.cli import build_parser, build_service
        artifact = self._artifact(tmp_path, capsys)
        workload = tmp_path / "warm.jsonl"
        workload.write_text(
            WorkloadEntry(sql=self.SQL, kind="subplans").to_json() + "\n")
        args = build_parser().parse_args(
            ["serve", "--load", f"default={artifact}",
             "--warm", str(workload)])
        service = build_service(args)
        out = capsys.readouterr().out
        assert "warmed 1 workload entries" in out
        assert service.estimate(self.SQL).cached

    def test_serve_record_flag(self, tmp_path, capsys):
        from repro.cli import build_parser, build_service
        artifact = self._artifact(tmp_path, capsys)
        log = tmp_path / "recorded.jsonl"
        args = build_parser().parse_args(
            ["serve", "--load", f"default={artifact}",
             "--record", str(log)])
        service = build_service(args)
        service.estimate(self.SQL)
        assert service.stop_recording() == 1
        assert load_workload(log)[0].sql == parse_query(self.SQL).to_sql()

    def test_serve_no_subplan_reuse_flag(self, tmp_path, capsys):
        from repro.cli import build_parser, build_service
        artifact = self._artifact(tmp_path, capsys)
        args = build_parser().parse_args(
            ["serve", "--load", f"default={artifact}",
             "--no-subplan-reuse"])
        service = build_service(args)
        assert service.subplan_reuse is False
