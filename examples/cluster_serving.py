"""Cluster serving: distributed fit, worker processes, per-shard hot-swap.

Walks the whole multi-process lifecycle on a laptop-sized STATS benchmark:

1. fit a 4-shard ensemble **distributed** — worker processes fit and save
   their shards, the driver only merges statistics;
2. serve it through a :class:`~repro.cluster.ClusterModel` — one worker
   process per shard, answers bit-identical to in-process serving;
3. route an incremental update to the owning workers;
4. republish one refreshed shard with a **hot swap** while estimates keep
   flowing.

Run::

    PYTHONPATH=src python examples/cluster_serving.py
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from repro.cluster import ClusterModel, fit_distributed
from repro.core.estimator import FactorJoin, FactorJoinConfig
from repro.eval.harness import make_context
from repro.shard import (
    ShardedFactorJoin,
    fit_shard,
    partition_database,
    save_shard_artifact,
)


def run(workdir: Path) -> None:
    context = make_context("stats", scale=0.2, seed=0, max_tables=4)
    config = FactorJoinConfig(n_bins=16, table_estimator="truescan",
                              seed=0)

    # 1. distributed fit: shard sub-artifacts are written by the workers
    artifact = workdir / "ensemble"
    summary = fit_distributed(config, context.database, artifact,
                              n_shards=4, compress=True)
    print(f"distributed fit: {summary['n_shards']} shards across "
          f"{summary['workers']} workers in "
          f"{summary['fit_seconds']:.2f}s -> {summary['path']}")

    # 2. serve through worker processes, bit-identical to in-process
    in_process = ShardedFactorJoin(config, n_shards=4,
                                   parallel="serial").fit(context.database)
    with ClusterModel.from_artifact(artifact, workers=4) as cluster:
        query = context.workload[0]
        print(f"cluster estimate:    {cluster.estimate(query):,.1f}")
        print(f"in-process estimate: {in_process.estimate(query):,.1f}")
        assert cluster.estimate(query) == in_process.estimate(query)

        # prepared sessions ship the query's probes to the workers once
        with cluster.open_session(query) as session:
            subplans = session.estimate_all()
        print(f"session answered {len(subplans)} sub-plans")

        # 3. updates route to the shards that own the new rows
        table_name = context.database.table_names[0]
        batch = context.database.table(table_name).head(16)
        cluster.update(table_name, batch)
        print(f"routed an insert of {len(batch)} rows into "
              f"{table_name!r}; worker update counts: "
              f"{[row['updates'] for row in cluster.workers_health()]}")

        # 4. hot-swap: refit shard 2 from its base partition (a refresh
        # from the source of truth — it drops the routed update above,
        # so the merged statistics change and the serving layer knows)
        shard_db = partition_database(context.database,
                                      in_process.policy)[2]
        binnings = FactorJoin(replace(config)).build_binnings(
            context.database)
        refreshed = fit_shard(replace(config, keep_pairwise_joints=True),
                              shard_db, binnings)
        shard_artifact = workdir / "shard2-refreshed"
        save_shard_artifact(refreshed.model, shard_artifact,
                            summary=refreshed.summary)
        info = cluster.hot_swap_shard(2, shard_artifact)
        print(f"hot-swapped shard 2 in {info['seconds'] * 1e3:.1f}ms "
              f"(merged statistics changed: {info['stats_changed']})")
        print(f"post-swap estimate:  {cluster.estimate(query):,.1f}")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-cluster-example-") as workdir:
        run(Path(workdir))


if __name__ == "__main__":
    main()
