"""The benchmark's three closed-loop workloads.

Every workload serves the same fixture: seeded STATS at scale 0.2 (data
seed 0) with its 146-query STATS-CEB workload, estimated by FactorJoin
with 64 bins and the BayesCard table estimator.  The ``--seed`` argument
drives only the traffic: which queries are generated, the order they are
sent in, and which rows are written.  One client thread issues one
operation at a time and waits for the answer.

- ``estimate-miss`` — ``EstimationService.serve_estimate`` in process on
  SQL text that never repeats, so every read runs the model.
- ``http-keepalive`` — ``POST /v1/estimate`` over one persistent HTTP/1.1
  connection, cycling the 146 queries; after warm-up every read is an
  estimate-cache hit, so the HTTP front end, SQL parsing and the cache
  carry the request.
- ``plan-update`` — the paper's Table 5 update experiment as serving
  traffic: a 2-shard ensemble fitted on the older half of every table,
  served by a 2-worker cluster, replays the newer half as insert batches
  with ``serve_plan`` requests in between.

Each workload also measures writes: ``estimate-miss`` and
``http-keepalive`` insert seeded samples of existing rows after their
read phase (in process, and over the same HTTP connection), and
``plan-update`` interleaves its replay with its reads.

A timed phase is always a continuous loop that follows an untimed
warm-up and a ``gc.collect()``.  In the traced run every operation is
applied to three independent stacks in rotating order — default
telemetry, telemetry off (``NULL_METRICS``/``NULL_TRACER``), and default
telemetry with the layer wrappers installed — so the two overhead
percentages compare paired, interleaved samples.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api import EstimateRequest, UpdateRequest
from repro.cluster.model import ClusterModel
from repro.cluster.pool import WorkerPool
from repro.core.estimator import FactorJoin, FactorJoinConfig
from repro.eval.metrics import q_error_percentiles
from repro.obs import NULL_METRICS, NULL_TRACER
from repro.plan import LocalCardinalityGenerator, PlanHarness, plan_query
from repro.plan.messages import PlanRequest
from repro.serve import EstimationService, serve_in_background
from repro.shard.ensemble import ShardedFactorJoin
from repro.sql import parse_query
from repro.workloads import build_stats_ceb
from repro.workloads.benchmark import split_for_update
from repro.workloads.querygen import QueryGenerator

from perfbench.layers import LAYER_METRICS, LayerTracer, SpanRecorder, \
    layer_metrics, span_counts

SCALE = 0.2
DATA_SEED = 0
N_BINS = 64
MODEL = "stats"
#: The STATS-CEB template set, sampled exactly as ``build_stats_ceb``
#: samples it (generator seed ``DATA_SEED + 1``, 70 templates of at most
#: five tables); the miss stream instantiates fresh predicates on it.
N_TEMPLATES = 70
MAX_TABLES = 5

#: Salts separating the random streams derived from one ``--seed``.
SALT_MISS, SALT_ORDER, SALT_ROWS, SALT_CHECK = 11, 13, 17, 19

#: The estimate-miss query pool holds this many times the reads the
#: warm-up rate predicts for the timed phase, and never more than
#: ``MAX_POOL`` queries (generating one costs about 1.3 ms).
POOL_MARGIN = 1.3
MAX_POOL = 20_000
#: The estimate-miss and http-keepalive write phases last this share of
#: ``--seconds`` (and apply at least ``Settings.write_batches``).
WRITE_SHARE = 0.3
#: plan-update repeats a replay during which the hypervisor took more
#: than this share of the CPU (at most ``REPLAY_ATTEMPTS`` replays).
MAX_STEAL = 0.05
REPLAY_ATTEMPTS = 3


def model_config() -> FactorJoinConfig:
    return FactorJoinConfig(n_bins=N_BINS, table_estimator="bayescard",
                            seed=0)


def derive_seed(seed: int, salt: int) -> int:
    """An independent, reproducible seed for one stream of ``seed``."""
    return int(np.random.SeedSequence([seed, salt]).generate_state(1)[0])


@dataclass
class Settings:
    """Operation counts of the workloads (tests shrink them)."""

    setup_repeats: int = 9
    cluster_setup_repeats: int = 5
    warmup_reads: int = 210
    http_warmup: int = 32
    write_warmup: int = 16
    #: At least this many timed writes: enough for a p95 with ten
    #: samples beyond it.
    write_batches: int = 224
    batch_rows: int = 16
    check_rate: float = 1 / 16
    final_check_queries: int = 24


class Fixture:
    """The served data and the 146 STATS-CEB queries, built once."""

    def __init__(self, scale: float = SCALE, workdir: Path | None = None):
        self.bench = build_stats_ceb(scale=scale, seed=DATA_SEED)
        self.database = self.bench.database
        self.queries = list(self.bench.workload)
        self.sqls = [q.to_sql() for q in self.queries]
        self.aliases = {sql: frozenset(parse_query(sql).aliases)
                        for sql in self.sqls}
        self.templates = QueryGenerator(
            self.database, seed=DATA_SEED + 1).sample_templates(
                N_TEMPLATES, max_tables=MAX_TABLES)
        self.workdir = workdir
        self._split = None
        self._truth = None

    def split(self):
        """(older half, newer rows per table): the Table 5 split."""
        if self._split is None:
            self._split = split_for_update(self.database, fraction=0.5)
        return self._split

    def truth(self) -> list[float]:
        if self._truth is None:
            self._truth = self.bench.true_cardinalities()
        return self._truth


# -- inputs --------------------------------------------------------------------


class MissStream:
    """Generated SQL on the STATS-CEB templates, never repeating a text
    or a canonical sub-plan key (so no cache level can answer)."""

    def __init__(self, fixture: Fixture, seed: int):
        self._templates = fixture.templates
        self._gen = QueryGenerator(fixture.database,
                                   seed=derive_seed(seed, SALT_MISS))
        self._seen: set = set()
        self._ready: list[str] = []

    def take(self, n: int) -> list[str]:
        while len(self._ready) < n:
            # whole template rounds, buffered, keep the sequence
            # independent of how it is taken
            for query in self._gen.generate_workload(
                    self._templates, len(self._templates),
                    max_predicates=16, ensure_nonzero=False):
                sql = query.to_sql()
                key = query.subplan_key()
                if sql in self._seen or key in self._seen:
                    continue
                self._seen.update((sql, key))
                self._ready.append(sql)
        out, self._ready = self._ready[:n], self._ready[n:]
        return out


def cycled(fixture: Fixture, seed: int):
    """Seeded permutations of the 146 queries, back to back, forever."""
    rng = np.random.default_rng(derive_seed(seed, SALT_ORDER))
    while True:
        for i in rng.permutation(len(fixture.sqls)):
            yield fixture.sqls[i]


@dataclass(frozen=True)
class Batch:
    table: str
    rows: object  # repro.data.Table

    def to_json(self) -> dict:
        payload = {}
        for name in self.rows.column_names:
            column = self.rows[name]
            values = column.values.tolist()
            payload[name] = [None if null else value for value, null
                             in zip(values, column.null_mask.tolist())]
        return {"table": self.table, "rows": payload, "model": MODEL}


def sampled_batches(fixture: Fixture, seed: int, rows: int):
    """Insert batches of ``rows`` rows sampled (with replacement) from
    the served tables, round-robin over the tables, forever."""
    rng = np.random.default_rng(derive_seed(seed, SALT_ROWS))
    tables = [fixture.database.table(name)
              for name in fixture.database.table_names]
    while True:
        for table in tables:
            yield Batch(table.name,
                        table.take(rng.integers(0, len(table), rows)))


def replay_ops(fixture: Fixture, seed: int, batch_rows: int,
               plans_per_write: int) -> list[tuple[str, object]]:
    """The plan-update operation sequence: every held-out row once, in
    ``batch_rows`` batches round-robin over the tables, each batch
    followed by ``plans_per_write`` plans from seeded permutations of the
    146 queries."""
    _, inserts = fixture.split()
    batches: list[Batch] = []
    offsets = {name: 0 for name in inserts}
    while any(offsets[name] < len(rows) for name, rows in inserts.items()):
        for name, rows in inserts.items():
            start = offsets[name]
            if start < len(rows):
                stop = min(start + batch_rows, len(rows))
                batches.append(Batch(name, rows.take(np.arange(start, stop))))
                offsets[name] = stop
    plans = cycled(fixture, seed)
    ops: list[tuple[str, object]] = []
    for batch in batches:
        ops.append(("write", batch))
        ops.extend(("read", next(plans)) for _ in range(plans_per_write))
    return ops


# -- served stacks -------------------------------------------------------------


def _service(telemetry: bool) -> EstimationService:
    if telemetry:
        return EstimationService()
    return EstimationService(metrics=NULL_METRICS, tracer=NULL_TRACER)


def _bad_estimate(value) -> str | None:
    if not isinstance(value, float) or not math.isfinite(value) or value < 0:
        return f"estimate {value!r} is not a finite non-negative float"
    return None


class ServiceStack:
    """``estimate-miss``: one FactorJoin behind an in-process service.
    Every write is mirrored into a shadow model fitted the same way."""

    def __init__(self, fixture: Fixture, telemetry: bool):
        self.model = FactorJoin(model_config()).fit(fixture.database)
        self.service = _service(telemetry)
        self.service.register(MODEL, self.model)
        self.shadow = None
        self._fixture = fixture
        self.cached = 0

    def read(self, sql: str):
        return self.service.serve_estimate(EstimateRequest(query=sql,
                                                           model=MODEL))

    def validate_read(self, sql: str, response) -> str | None:
        if response.cached:
            self.cached += 1
        return _bad_estimate(response.estimate)

    def check_read(self, sql: str, response) -> str | None:
        direct = float(self.model.estimate(parse_query(sql)))
        if direct != response.estimate:
            return f"served {response.estimate!r} != direct {direct!r}"
        return None

    def write(self, batch: Batch):
        return self.service.serve_update(UpdateRequest(
            table=batch.table, rows=batch.rows, model=MODEL))

    def validate_write(self, batch: Batch, response) -> str | None:
        if response.rows != len(batch.rows):
            return f"wrote {response.rows} rows of {len(batch.rows)}"
        return None

    def mirror_write(self, batch: Batch) -> None:
        if self.shadow is None:
            self.shadow = FactorJoin(model_config()).fit(
                self._fixture.database)
        self.shadow.update(batch.table, batch.rows)

    def served_estimate(self, sql: str) -> float:
        return self.read(sql).estimate

    def model_bytes(self) -> int:
        return self.model.model_size_bytes()

    def close(self) -> None:
        pass


class HttpStack(ServiceStack):
    """``http-keepalive``: the same service behind ``serve_in_background``,
    read and written over one persistent ``http.client`` connection."""

    def __init__(self, fixture: Fixture, telemetry: bool):
        super().__init__(fixture, telemetry)
        self.server, self._thread = serve_in_background(self.service)
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.server_address[1], timeout=30)
        self.conn.connect()
        self.sockets = {id(self.conn.sock)}
        self.answers: dict[str, float] = {}

    def fill_cache(self, sqls: list[str]) -> None:
        for sql in sqls:
            self.answers[sql] = super().read(sql).estimate

    def _post(self, route: str, body: bytes):
        self.conn.request("POST", route, body=body,
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        data = response.read()
        self.sockets.add(id(self.conn.sock))
        return response.status, data

    def read(self, body: bytes):
        return self._post("/v1/estimate", body)

    def validate_read(self, body: bytes, response) -> str | None:
        status, data = response
        if status != 200:
            return f"status {status}: {data[:200]!r}"
        payload = json.loads(data)
        if payload.get("cached"):
            self.cached += 1
        return _bad_estimate(payload.get("estimate"))

    def check_read(self, body: bytes, response) -> str | None:
        sql = json.loads(body)["sql"]
        served = json.loads(response[1])["estimate"]
        direct = float(self.model.estimate(parse_query(sql)))
        if direct != served:
            return f"served {served!r} != direct {direct!r}"
        return None

    def write(self, body_and_batch):
        return self._post("/v1/update", body_and_batch[0])

    def validate_write(self, body_and_batch, response) -> str | None:
        status, data = response
        if status != 200:
            return f"status {status}: {data[:200]!r}"
        rows = json.loads(data).get("rows")
        if rows != len(body_and_batch[1].rows):
            return f"wrote {rows} rows of {len(body_and_batch[1].rows)}"
        return None

    def mirror_write(self, body_and_batch) -> None:
        super().mirror_write(body_and_batch[1])

    def served_estimate(self, sql: str) -> float:
        status, data = self.read(request_body(sql))
        if status != 200:
            raise RuntimeError(f"status {status}: {data[:200]!r}")
        return json.loads(data)["estimate"]

    def close(self) -> None:
        self.conn.close()
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=10)


def request_body(sql: str) -> bytes:
    return json.dumps({"sql": sql, "model": MODEL}).encode()


class ClusterStack:
    """``plan-update``: a 2-shard ensemble fitted on the older half,
    saved, and served by ``ClusterModel.from_artifact(workers=2)``.  The
    traced run's three stacks share one 2-worker pool, so the host runs
    two worker processes in both kinds of run."""

    def __init__(self, fixture: Fixture, telemetry: bool, path: Path,
                 pool: WorkerPool | None = None):
        stale, _ = fixture.split()
        self.cluster = None
        ensemble = ShardedFactorJoin(model_config(), n_shards=2,
                                     parallel="serial").fit(stale)
        ensemble.save(path)
        self.cluster = ClusterModel.from_artifact(path, workers=2,
                                                  pool=pool)
        self.service = _service(telemetry)
        self.service.register(MODEL, self.cluster)
        self._aliases = fixture.aliases
        self.rows_written = 0

    def read(self, sql: str):
        return self.service.serve_plan(PlanRequest(query=sql, model=MODEL))

    def validate_read(self, sql: str, response) -> str | None:
        leaves = set(_leaves(response.leading))
        if leaves != set(self._aliases[sql]):
            return f"plan {response.join_order} does not cover {sql}"
        if not (math.isfinite(response.estimated_cost)
                and response.estimated_cost >= 0):
            return f"plan cost {response.estimated_cost!r}"
        for value in response.cardinalities.values():
            error = _bad_estimate(float(value))
            if error:
                return error
        return None

    def check_read(self, sql: str, response) -> str | None:
        decision = plan_query(sql, LocalCardinalityGenerator(
            model=self.cluster))
        if (decision.plan.render() != response.join_order
                or decision.estimated_cost != response.estimated_cost
                or decision.hint_text(response.dialect)
                != response.hint_text):
            return (f"served plan {response.join_order} "
                    f"({response.estimated_cost!r}) != plan_query "
                    f"{decision.plan.render()} "
                    f"({decision.estimated_cost!r})")
        return None

    def write(self, batch: Batch):
        return self.service.serve_update(UpdateRequest(
            table=batch.table, rows=batch.rows, model=MODEL))

    def validate_write(self, batch: Batch, response) -> str | None:
        self.rows_written += response.rows
        if response.rows != len(batch.rows):
            return f"wrote {response.rows} rows of {len(batch.rows)}"
        return None

    def restarts(self) -> int:
        return sum(worker["restarts"]
                   for worker in self.cluster.pool.describe()["workers"])

    def model_bytes(self) -> int:
        return self.cluster.model_size_bytes()

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.close()


def _leaves(tree):
    if isinstance(tree, str):
        yield tree
    else:
        for child in tree:
            yield from _leaves(child)


# -- driving -------------------------------------------------------------------


@dataclass
class Ledger:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


class Runner:
    """Applies each operation to every stack, rotating which goes first,
    and times each application.  Validation, bit-identity checks and
    mirrored writes happen after the timed interval and are excluded from
    a phase's active seconds."""

    def __init__(self, stacks: list, ledger: Ledger, seed: int,
                 check_rate: float, tracer: LayerTracer | None = None,
                 traced: int | None = None):
        self.stacks = stacks
        self.ledger = ledger
        self.check_rate = check_rate
        self.tracer = tracer
        self.traced = traced
        self._rng = np.random.default_rng(derive_seed(seed, SALT_CHECK))
        self.latency = [{"read": [], "write": []} for _ in stacks]
        self._verify_seconds = 0.0
        self._count = 0

    def apply(self, kind: str, item, record: bool = True) -> None:
        check = kind == "read" and self._rng.random() < self.check_rate
        n = len(self.stacks)
        first = self._count % n
        self._count += 1
        for k in range(n):
            self._apply_one((first + k) % n, kind, item, check, record)

    def _apply_one(self, j: int, kind: str, item, check: bool,
                   record: bool) -> None:
        stack = self.stacks[j]
        # warm-up operations (record=False) are never traced
        traced = record and self.tracer is not None and j == self.traced
        recorder = self.tracer.recorder if traced else None
        self.ledger.attempted += 1
        error = None
        if traced:
            self.tracer.install()
        try:
            with recorder.root(kind) if traced else nullcontext():
                start = time.perf_counter()
                if kind == "read":
                    response = stack.read(item)
                else:
                    response = stack.write(item)
                elapsed = time.perf_counter() - start
            if record:
                self.latency[j][kind].append(elapsed)
            verify_start = time.perf_counter()
            if kind == "read":
                error = stack.validate_read(item, response)
                if error is None and check:
                    with recorder.root("check") if traced else nullcontext():
                        error = stack.check_read(item, response)
            else:
                error = stack.validate_write(item, response)
                if error is None and hasattr(stack, "mirror_write"):
                    stack.mirror_write(item)
            self._verify_seconds += time.perf_counter() - verify_start
        except Exception as exc:  # a failed operation: counted, reported
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if traced:
                self.tracer.uninstall()
        if error is not None:
            self.ledger.fail(f"{kind}: {error}")

    def run_all(self, kind: str, items, record: bool = True) -> float:
        """Apply every item; returns the phase's active seconds."""
        return self.run_ops(((kind, item) for item in items), record)

    def run_ops(self, ops, record: bool = True) -> float:
        """Apply every (kind, item); returns the active seconds."""
        start, verified = time.perf_counter(), self._verify_seconds
        for kind, item in ops:
            self.apply(kind, item, record)
        return (time.perf_counter() - start
                - (self._verify_seconds - verified))

    def run_for(self, kind: str, items, seconds: float,
                minimum: int = 0) -> tuple[int, float]:
        """Apply items until ``seconds`` pass and at least ``minimum``
        were applied, or the items run out; returns (items applied,
        active seconds)."""
        start, verified = time.perf_counter(), self._verify_seconds
        deadline = start + seconds
        done = 0
        for item in items:
            if done >= minimum and time.perf_counter() >= deadline:
                break
            self.apply(kind, item)
            done += 1
        return done, (time.perf_counter() - start
                      - (self._verify_seconds - verified))


def _p(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    ledger: Ledger = field(default_factory=Ledger)
    info: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.ledger.failed == 0 and not self.ledger.violations

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def _latency_metrics(result: Result, runner: Runner,
                     read_seconds: float) -> None:
    reads = runner.latency[0]["read"]
    writes = runner.latency[0]["write"]
    result.put("read_p50_ms", _p(reads, 50) * 1e3, "ms")
    result.put("read_p95_ms", _p(reads, 95) * 1e3, "ms")
    result.put("read_rps", len(reads) / read_seconds, "1/s")
    result.put("write_p50_ms", _p(writes, 50) * 1e3, "ms")
    result.put("write_p95_ms", _p(writes, 95) * 1e3, "ms")
    result.info.update(reads=len(reads), writes=len(writes))


def _quality(result: Result, fixture: Fixture, estimate, generator,
             model_bytes: int) -> None:
    """q-error and P-error on the 146 STATS-CEB queries, against the
    full database, plus the served model's pickled size."""
    estimates = [estimate(q) for q in fixture.queries]
    qerr = q_error_percentiles(estimates, fixture.truth(), (50, 90))
    result.put("qerror_p50", qerr[50], "ratio")
    result.put("qerror_p90", qerr[90], "ratio")
    report = PlanHarness(fixture.database).run(generator, fixture.queries)
    if report.num_unsupported:
        result.ledger.violations.append(
            f"{report.num_unsupported} queries unsupported by the planner")
    result.put("perror_mean", report.p_error_summary()["mean"], "ratio")
    result.put("model_bytes", model_bytes, "bytes")


def _timed_setups(make, repeats: int, result: Result):
    """Build the stack ``repeats`` times, keep the last, and report the
    median build time as ``setup_s``."""
    times, stack = [], None
    for _ in range(repeats):
        if stack is not None:
            stack.close()
        gc.collect()
        start = time.perf_counter()
        stack = make(True)
        times.append(time.perf_counter() - start)
    result.put("setup_s", statistics.median(times), "s")
    return stack


def _stacks(make, trace: bool, repeats: int, result: Result) -> list:
    """One stack (its build timed) for a timed run; default-telemetry,
    telemetry-off and traced stacks, in that order, for a traced run."""
    if not trace:
        return [_timed_setups(make, repeats, result)]
    stacks = []
    try:
        for telemetry in (True, False, True):
            stacks.append(make(telemetry))
    except BaseException:
        for stack in stacks:
            stack.close()
        raise
    return stacks


def _layer_report(result: Result, runner: Runner,
                  required: tuple[str, ...], restarts: int = 0) -> dict:
    """Per-layer metrics, the two overheads, and the zero-call guard."""
    plain, null, traced = (statistics.median(v["read"])
                           for v in runner.latency)
    values = layer_metrics(runner.tracer.recorder)
    values["cluster.restarts"] = restarts
    values["obs.overhead_pct"] = (plain / null - 1) * 100
    values["trace.overhead_pct"] = (traced / plain - 1) * 100
    for name, unit in LAYER_METRICS:
        result.put(name, values[name], unit)
    counts = span_counts(runner.tracer.recorder)
    for span in required:
        if not any(name.startswith(span) for name in counts):
            result.ledger.violations.append(
                f"the traced run recorded no {span} calls")
    result.info["span_counts"] = counts
    return values


def _write_phase(runner: Runner, fixture: Fixture, seed: int,
                 seconds: float, settings: Settings, encode) -> None:
    batches = (encode(b) for b in sampled_batches(fixture, seed,
                                                  settings.batch_rows))
    runner.run_all("write", itertools.islice(batches,
                                             settings.write_warmup),
                   record=False)
    gc.collect()
    # a traced run applies every batch to three stacks: the same number
    # of writes in total
    minimum = -(-settings.write_batches // len(runner.stacks))
    runner.run_for("write", batches, seconds * WRITE_SHARE,
                   minimum)


def _final_write_check(result: Result, stack, fixture: Fixture,
                       seed: int, settings: Settings) -> None:
    """After the write phase the served model must answer exactly as a
    shadow model that absorbed the same batches through the public
    ``FactorJoin.update``."""
    rng = np.random.default_rng(derive_seed(seed, SALT_CHECK + 1))
    picks = rng.choice(len(fixture.queries),
                       min(settings.final_check_queries,
                           len(fixture.queries)), replace=False)
    for i in picks:
        result.ledger.attempted += 1
        sql = fixture.sqls[int(i)]
        try:
            served = stack.served_estimate(sql)
            shadow = float(stack.shadow.estimate(parse_query(sql)))
        except Exception as exc:  # counted as a failed check
            result.ledger.fail(f"final check: {type(exc).__name__}: {exc}")
            continue
        if served != shadow:
            result.ledger.fail(f"after writes: served {served!r} != "
                               f"shadow {shadow!r} for {sql}")


# -- workloads -----------------------------------------------------------------


def run_estimate_miss(fixture: Fixture, seed: int, seconds: float,
                      trace: bool, settings: Settings | None = None
                      ) -> Result:
    settings = settings or Settings()
    result = Result()
    stream = MissStream(fixture, seed)
    warm = stream.take(settings.warmup_reads)
    stacks = _stacks(lambda t: ServiceStack(fixture, t), trace,
                     settings.setup_repeats, result)
    tracer = LayerTracer(SpanRecorder()) if trace else None
    runner = Runner(stacks, result.ledger, seed, settings.check_rate,
                    tracer, traced=2 if trace else None)
    try:
        per_read = runner.run_all("read", warm, record=False) / len(warm)
        need = int(seconds / max(per_read, 1e-6) * POOL_MARGIN) + 1
        pool = stream.take(min(need, MAX_POOL))
        result.info["pool"] = len(pool)
        gc.collect()
        done, active = runner.run_for("read", pool, seconds)
        result.info["pool_exhausted"] = done == len(pool)
        for stack in stacks:
            if stack.cached:
                result.ledger.violations.append(
                    f"{stack.cached} estimate-miss reads hit a cache")
        if not trace:
            model = stacks[0].model
            _quality(result, fixture, model.estimate,
                     LocalCardinalityGenerator(model=model),
                     stacks[0].model_bytes())
        _write_phase(runner, fixture, seed, seconds, settings,
                     lambda b: b)
        for stack in stacks:
            _final_write_check(result, stack, fixture, seed, settings)
        if trace:
            values = _layer_report(result, runner, (
                "sql.parse", "cache.get", "service.serve_estimate",
                "service.serve_update", "core.estimate", "core.base_factor",
                "core.combine", "core.update", "estimators."))
            if values["cache.hit_ratio"] != 0:
                result.ledger.violations.append(
                    f"cache.hit_ratio {values['cache.hit_ratio']} != 0")
        else:
            _latency_metrics(result, runner, active)
    finally:
        for stack in stacks:
            stack.close()
    return result


def run_http_keepalive(fixture: Fixture, seed: int, seconds: float,
                       trace: bool, settings: Settings | None = None
                       ) -> Result:
    settings = settings or Settings()
    result = Result()
    stacks = _stacks(lambda t: HttpStack(fixture, t), trace,
                     settings.setup_repeats, result)
    tracer = LayerTracer(SpanRecorder()) if trace else None
    runner = Runner(stacks, result.ledger, seed, settings.check_rate,
                    tracer, traced=2 if trace else None)
    try:
        # warm-up: the 146 queries fill each stack's estimate cache in
        # process, then a slice of them warms the HTTP path
        for stack in stacks:
            stack.fill_cache(fixture.sqls)
        runner.run_all("read", [request_body(s) for s in
                                fixture.sqls[:settings.http_warmup]],
                       record=False)
        for stack in stacks:
            stack.cached = 0
        gc.collect()
        done, active = runner.run_for(
            "read", (request_body(s) for s in cycled(fixture, seed)),
            seconds)
        for stack in stacks:
            if stack.cached < 0.99 * done:
                result.ledger.violations.append(
                    f"only {stack.cached} of {done} reads hit the cache")
        if not trace:
            stack = stacks[0]
            # q-error of the estimates the warm-up pass was served
            _quality(result, fixture, lambda q: stack.answers[q.to_sql()],
                     LocalCardinalityGenerator(service=stack.service,
                                               model_name=MODEL),
                     stack.model_bytes())
        _write_phase(runner, fixture, seed, seconds, settings,
                     lambda b: (json.dumps(b.to_json()).encode(), b))
        for stack in stacks:
            _final_write_check(result, stack, fixture, seed, settings)
            if len(stack.sockets) != 1:
                result.ledger.violations.append(
                    f"{len(stack.sockets)} connections, expected one")
        if trace:
            values = _layer_report(result, runner, (
                "sql.parse", "cache.get", "service.serve_estimate",
                "service.serve_update", "core.update"))
            if values["cache.hit_ratio"] < 0.99:
                result.ledger.violations.append(
                    f"cache.hit_ratio {values['cache.hit_ratio']} < 0.99")
        else:
            _latency_metrics(result, runner, active)
    finally:
        for stack in stacks:
            stack.close()
    return result


def host_steal() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the machine so far, from the first
    line of ``/proc/stat``; None where that is unavailable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    ticks = [int(v) for v in fields[1:]]
    return ticks[7], sum(ticks)


def steal_share(before, after) -> float:
    """Share of the CPU the hypervisor took between two readings."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def run_plan_update(fixture: Fixture, seed: int, seconds: float,
                    trace: bool, settings: Settings | None = None
                    ) -> Result:
    """The replay is a fixed amount of work: every held-out row once,
    each batch followed by one plan for every three seconds asked for, so
    the operation sequence depends only on the seed and the run length,
    never on the host's speed.

    A replay during which the hypervisor took more than ``MAX_STEAL`` of
    the machine's CPU is repeated on a fresh cluster, up to
    ``REPLAY_ATTEMPTS`` replays in all, and the replay with the least
    steal is reported: the fan-out to two worker processes turns a
    stolen vCPU into a much larger latency swing than a single-threaded
    loop shows (see README).  Every attempt counts its operations and
    failures.
    """
    settings = settings or Settings()
    result = Result()
    workdir = Path(fixture.workdir)
    built = itertools.count()
    pool = WorkerPool(2) if trace else None
    ops = replay_ops(fixture, seed, settings.batch_rows,
                     max(1, round(seconds / 3)))
    held_out = sum(len(rows) for rows in fixture.split()[1].values())
    result.info["held_out_rows"] = held_out

    def make(telemetry: bool) -> ClusterStack:
        return ClusterStack(fixture, telemetry,
                            workdir / f"ensemble-{next(built)}", pool)

    def replay(stacks: list, tracer=None):
        """Warm up, replay, check the invariants; returns (runner,
        active seconds, steal share)."""
        runner = Runner(stacks, result.ledger, seed, settings.check_rate,
                        tracer, traced=2 if tracer else None)
        runner.run_all("read", fixture.sqls, record=False)
        gc.collect()
        before = host_steal()
        active = runner.run_ops(ops)
        steal = steal_share(before, host_steal())
        for stack in stacks:
            if stack.rows_written != held_out:
                result.ledger.violations.append(
                    f"replayed {stack.rows_written} of {held_out} rows")
            if stack.restarts():
                result.ledger.violations.append(
                    f"{stack.restarts()} worker restarts")
        return runner, active, steal

    stacks: list = []
    try:
        stacks = _stacks(make, trace, settings.cluster_setup_repeats,
                         result)
        if trace:
            tracer = LayerTracer(SpanRecorder())
            runner, _, _ = replay(stacks, tracer)
            values = _layer_report(result, runner, (
                "service.serve_plan", "service.serve_update",
                "core.estimate_subplans", "core.base_factor", "core.combine",
                "optimizer.optimize", "cluster.call", "plan.plan_query",
                "cache.invalidate", "estimators."),
                restarts=stacks[2].restarts())
            if values["cluster.write_rpcs"] <= 0:
                result.ledger.violations.append("no cluster write RPCs")
            return result
        best = None
        steals = []
        for attempt in range(REPLAY_ATTEMPTS):
            if attempt:
                stacks.append(make(True))
            runner, active, steal = replay(stacks[-1:])
            steals.append(round(steal * 100, 1))
            loser = None
            if best is None or steal < best[2]:
                loser = best[3] if best is not None else None
                best = (runner, active, steal, stacks[-1])
            else:
                loser = stacks[-1]
            if loser is not None:  # only the reported replay stays up
                stacks.remove(loser)
                loser.close()
            if steal <= MAX_STEAL:
                break
        result.info["steal_pct"] = steals
        runner, active, _, stack = best
        _quality(result, fixture, stack.cluster.estimate,
                 LocalCardinalityGenerator(model=stack.cluster),
                 stack.model_bytes())
        _latency_metrics(result, runner, active)
    finally:
        for stack in stacks:
            stack.close()
        if pool is not None:
            pool.shutdown()
    return result


WORKLOADS = {
    "estimate-miss": run_estimate_miss,
    "http-keepalive": run_http_keepalive,
    "plan-update": run_plan_update,
}
