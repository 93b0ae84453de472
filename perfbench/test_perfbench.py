"""The benchmark's own checks: input determinism, workload invariants,
the tracing mechanics, and the output contract of ``run.py``.

They run the workloads on a small STATS fixture (scale 0.05) with
shrunken operation counts, so they take seconds, not minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import workloads as wl
from perfbench.layers import LAYER_METRICS, LayerTracer, Span, SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL = dict(setup_repeats=1, cluster_setup_repeats=1, warmup_reads=70,
             write_warmup=2, write_batches=24, check_rate=0.5,
             final_check_queries=8, http_warmup=4)


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    return wl.Fixture(scale=0.05,
                      workdir=tmp_path_factory.mktemp("perfbench"))


def _settings(**overrides) -> wl.Settings:
    return wl.Settings(**{**SMALL, **overrides})


def _metric_names(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _assert_clean(result) -> None:
    assert result.ledger.failed == 0, result.ledger.errors
    assert not result.ledger.violations, result.ledger.violations
    assert result.correct


def _units(result) -> dict:
    return {name: unit for name, (_, unit) in result.metrics.items()}


# -- inputs --------------------------------------------------------------------


def test_same_seed_same_sql_and_operations(fixture):
    first = wl.MissStream(fixture, 7)
    chunked = first.take(30) + first.take(110)
    assert chunked == wl.MissStream(fixture, 7).take(140)
    assert chunked != wl.MissStream(fixture, 8).take(140)

    def head(gen, n):
        return [next(gen) for _ in range(n)]

    assert head(wl.cycled(fixture, 7), 300) == head(wl.cycled(fixture, 7),
                                                    300)
    batches = [head(wl.sampled_batches(fixture, 7, 32), 20)
               for _ in range(2)]
    for a, b in zip(*batches):
        assert a.to_json() == b.to_json()

    ops = [wl.replay_ops(fixture, 7, 16, 3) for _ in range(2)]
    assert [(k, i if k == "read" else json.dumps(i.to_json()))
            for k, i in ops[0]] == [
        (k, i if k == "read" else json.dumps(i.to_json()))
        for k, i in ops[1]]


def test_miss_stream_repeats_no_text_or_subplan_key(fixture):
    sqls = wl.MissStream(fixture, 3).take(500)
    assert len(set(sqls)) == len(sqls)
    keys = {wl.parse_query(sql).subplan_key() for sql in sqls}
    assert len(keys) == len(sqls)


def test_replay_covers_every_held_out_row_once(fixture):
    _, inserts = fixture.split()
    ops = wl.replay_ops(fixture, 1, 16, 2)
    writes = [item for kind, item in ops if kind == "write"]
    assert len(ops) == 3 * len(writes)
    for name, rows in inserts.items():
        replayed = [b.rows for b in writes if b.table == name]
        joined = replayed[0]
        for part in replayed[1:]:
            joined = joined.concat(part)
        for column in rows.column_names:
            assert np.array_equal(joined[column].values,
                                  rows[column].values)


# -- tracing mechanics ---------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    parent = Span("p", None, 0.0)
    parent.end = 10.0
    for start, end in ((1.0, 4.0), (2.0, 5.0), (8.0, 12.0)):
        child = Span("c", parent, start)
        child.end = end
        parent.children.append(child)
    assert parent.self_time() == pytest.approx(10.0 - 4.0 - 2.0)


def test_tracer_wraps_every_import_site_and_restores():
    import repro.core.factors
    import repro.core.inference
    import repro.optimizer.dp
    import repro.plan.planner

    originals = (repro.core.inference.combine, repro.plan.planner.optimize)
    tracer = LayerTracer(SpanRecorder())
    tracer.install()
    try:
        assert repro.core.inference.combine is repro.core.factors.combine
        assert repro.core.inference.combine is not originals[0]
        assert repro.plan.planner.optimize is repro.optimizer.dp.optimize
        assert repro.plan.planner.optimize is not originals[1]
    finally:
        tracer.uninstall()
    assert (repro.core.inference.combine,
            repro.plan.planner.optimize) == originals


# -- workloads -----------------------------------------------------------------


def test_estimate_miss_timed_run_reports_end_to_end_metrics(fixture):
    result = wl.run_estimate_miss(fixture, 1, 0.5, False, _settings())
    _assert_clean(result)
    assert _units(result) == _metric_names("end_to_end")


def test_estimate_miss_never_hits_a_cache(fixture):
    result = wl.run_estimate_miss(fixture, 2, 0.6, True, _settings())
    _assert_clean(result)
    assert _units(result) == _metric_names("per_layer")
    assert result.metrics["cache.hit_ratio"][0] == 0
    assert result.metrics["cache.subplan_hit_ratio"][0] == 0
    assert result.metrics["core.combine_calls"][0] > 0
    assert result.metrics["estimators.probe_calls"][0] > 0


def test_http_keepalive_one_connection_all_hits(fixture):
    result = wl.run_http_keepalive(fixture, 3, 0.5, True, _settings())
    _assert_clean(result)  # more than one connection is a violation
    assert result.metrics["cache.hit_ratio"][0] >= 0.99
    assert result.metrics["httpd.overhead_ms"][0] > 0


def test_plan_update_replays_every_row_deterministically(fixture):
    settings = _settings(batch_rows=128)
    runs = [wl.run_plan_update(fixture, 4, 1.0, False, settings)
            for _ in range(2)]
    for result in runs:
        _assert_clean(result)
    for name in ("qerror_p50", "qerror_p90", "perror_mean", "model_bytes"):
        assert runs[0].metrics[name] == runs[1].metrics[name]
    traced = wl.run_plan_update(fixture, 4, 1.0, True, settings)
    _assert_clean(traced)
    assert traced.metrics["cluster.restarts"][0] == 0
    assert traced.metrics["cluster.write_rpcs"][0] > 0
    assert traced.metrics["optimizer.dp_calls"][0] > 0
    assert traced.metrics["plan.plan_query_ms"][0] > 0


def test_plan_update_repeats_a_replay_the_hypervisor_stole_from(
        fixture, monkeypatch):
    # readings (steal, total) before/after each replay: 20%, 10%, 30%
    readings = iter([(0, 0), (20, 100), (20, 100), (30, 200),
                     (30, 200), (60, 300)])
    monkeypatch.setattr(wl, "host_steal", lambda: next(readings))
    result = wl.run_plan_update(fixture, 5, 1.0, False,
                                _settings(batch_rows=128))
    _assert_clean(result)
    assert result.info["steal_pct"] == [20.0, 10.0, 30.0]
    # every replay's operations count, warm-up included
    ops = wl.replay_ops(fixture, 5, 128, 1)
    assert result.ledger.attempted == 3 * (len(fixture.sqls) + len(ops))


def test_layer_metric_list_matches_the_spec():
    assert dict(LAYER_METRICS) == _metric_names("per_layer")


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "estimate-miss",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
