"""Cache warming: record a workload, warm a fresh process, compare latency.

The serving cache has two levels — exact query fingerprints and a
cross-request *sub-plan table* keyed on canonical, alias-invariant
sub-plan fingerprints.  This walkthrough shows the operational loop that
exploits it:

1. serve traffic on process #1 while **recording** the workload to JSONL;
2. start a "fresh process" (new service, same artifact) — the cold
   reality every restart faces;
3. **warm** it by replaying the recorded workload into both cache levels
   before admitting traffic;
4. serve overlapping traffic (sub-plans of the recorded queries, spelled
   with different aliases) cold vs warm and print the latency difference.

Run:  python examples/cache_warming.py
"""

import tempfile
import time
from pathlib import Path

from repro import FactorJoin, FactorJoinConfig, parse_query
from repro.serve import EstimationService, load_model, warm_service
from repro.serve.warmup import load_workload

from quickstart import build_database


def overlapping_queries(recorded_sql: list[str]) -> list:
    """Sub-plans of the recorded queries, respelled with fresh aliases —
    the overlapping traffic an optimizer (or a dashboard variant)
    generates."""
    targets, seen = [], set()
    for sql in recorded_sql:
        query = parse_query(sql)
        for subset in query.connected_subsets(min_tables=2):
            sub = query.subquery(subset)
            key = sub.subplan_key()
            if key not in seen:
                seen.add(key)
                targets.append(sub)
    return targets


def timed(service, queries) -> tuple[list[float], list[float]]:
    latencies, answers = [], []
    for query in queries:
        start = time.perf_counter()
        answers.append(service.estimate(query).estimate)
        latencies.append(time.perf_counter() - start)
    return latencies, answers


def run(workdir: Path) -> None:
    db = build_database()
    artifact = workdir / "orders.fj"
    workload_log = workdir / "workload.jsonl"

    # -- 1. process #1: serve and record --------------------------------------
    model = FactorJoin(FactorJoinConfig(n_bins=128,
                                        table_estimator="bayescard"))
    model.fit(db)
    model.save(artifact)
    recording = EstimationService()
    recording.register("orders", load_model(artifact))
    recording.start_recording(workload_log)
    traffic = [
        "SELECT COUNT(*) FROM users u, orders o "
        "WHERE u.id = o.user_id AND u.age < 30",
        "SELECT COUNT(*) FROM users u, orders o "
        "WHERE u.id = o.user_id AND o.amount > 250",
        "SELECT COUNT(*) FROM users u, orders o WHERE u.id = o.user_id",
    ]
    for sql in traffic:
        # sub-plan requests warm richest: one entry per connected sub-plan
        recording.estimate_subplans(sql)
    recorded = recording.stop_recording()
    print(f"process #1 served {len(traffic)} queries, recorded {recorded} "
          f"workload entries to {workload_log.name}")

    # -- 2 + 3. a fresh process: cold vs warmed -------------------------------
    targets = overlapping_queries(traffic)

    cold = EstimationService()
    cold.register("orders", load_model(artifact))
    cold_lat, cold_answers = timed(cold, targets)

    warmed = EstimationService()
    warmed.register("orders", load_model(artifact))
    summary = warm_service(warmed, load_workload(workload_log))
    print(f"warmed {summary['entries']} entries in "
          f"{summary['seconds'] * 1e3:.1f} ms -> "
          f"{summary['caches']['orders']['subplan_size']} sub-plan entries")

    # -- 4. before/after on overlapping traffic -------------------------------
    warm_lat, warm_answers = timed(warmed, targets)
    assert warm_answers == cold_answers  # reuse never changes an answer

    print(f"\n{len(targets)} overlapping queries (sub-plans of the "
          f"recorded workload):")
    print(f"  cold (empty caches):   "
          f"{sum(cold_lat) / len(cold_lat) * 1e3:8.3f} ms/query")
    print(f"  warm (replayed log):   "
          f"{sum(warm_lat) / len(warm_lat) * 1e3:8.3f} ms/query")
    print(f"  speedup:               "
          f"{sum(cold_lat) / sum(warm_lat):8.1f}x")
    stats = warmed._cache_of("orders").stats()
    print(f"  warm cache stats:      {stats['subplan_hits']} sub-plan hits, "
          f"{stats['hits']} query-level hits")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-warming-") as workdir:
        run(Path(workdir))


if __name__ == "__main__":
    main()
