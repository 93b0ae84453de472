"""Serving: fit once, save the artifact, serve it over HTTP with caching.

Walks the whole ``repro.serve`` stack in-process:

1. fit FactorJoin and save a versioned artifact (manifest + pickle);
2. load it back (the warm start a serving process does instead of fitting);
3. publish it in an EstimationService and answer queries,
   watching the estimate cache kick in;
4. apply an incremental insert (paper Section 4.3) — the cache invalidates
   and estimates shift;
5. talk to the same service over the JSON HTTP API.

Run:  python examples/serving.py
"""

import json
import tempfile
import urllib.request
from pathlib import Path

from repro import FactorJoin, FactorJoinConfig
from repro.serve import EstimationService, load_model, serve_in_background

from quickstart import build_database


def run(workdir: Path) -> None:
    db = build_database()

    # -- 1. offline phase, paid once ------------------------------------------
    model = FactorJoin(FactorJoinConfig(n_bins=128,
                                        table_estimator="bayescard"))
    model.fit(db)
    artifact = workdir / "orders.fj"
    model.save(artifact)
    manifest = json.loads((artifact / "manifest.json").read_text())
    print(f"fit in {model.fit_seconds * 1e3:.1f} ms, saved "
          f"{manifest['model_bytes'] / 1024:.1f} KiB artifact to {artifact}")

    # -- 2. warm start ---------------------------------------------------------
    served_model = load_model(artifact, expected_schema=db.schema)

    # -- 3. the estimation service --------------------------------------------
    service = EstimationService(cache_size=256)
    service.register("orders", served_model,
                     metadata={"source": "examples/serving.py"})
    sql = ("SELECT COUNT(*) FROM users u, orders o "
           "WHERE u.id = o.user_id AND u.age < 30")
    first = service.estimate(sql)
    second = service.estimate(sql)
    print(f"\nestimate {first.estimate:,.0f}: "
          f"{first.seconds * 1e3:.3f} ms uncached, "
          f"{second.seconds * 1e3:.3f} ms cached")

    batch = [service.estimate(q) for q in (
        "SELECT COUNT(*) FROM users u, orders o WHERE u.id = o.user_id",
        sql,
        "SELECT COUNT(*) FROM users u, orders o "
        "WHERE u.id = o.user_id AND o.amount > 250",
    )]
    print(f"batch of {len(batch)}: "
          f"{[round(r.estimate) for r in batch]} "
          f"(cached: {[r.cached for r in batch]})")

    # -- 4. incremental insert -------------------------------------------------
    inserts = db.table("orders").head(2000)
    info = service.update("orders", inserts)
    after = service.estimate(sql)
    print(f"\ninserted {info.rows} orders in {info.seconds * 1e3:.1f} "
          f"ms; estimate moved {first.estimate:,.0f} -> "
          f"{after.estimate:,.0f} (cache invalidated: {not after.cached})")

    # -- 5. the HTTP front end (versioned /v1 API) ----------------------------
    server, _ = serve_in_background(service, port=0)
    host, port = server.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}/v1/estimate",
        data=json.dumps({"sql": sql, "model": "orders",
                         "explain": True}).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request) as response:
        body = json.loads(response.read())
    trace = body["explain"]
    print(f"\nPOST /v1/estimate -> {body['estimate']:,.0f} "
          f"(model {body['model']} v{body['version']}, "
          f"cached: {body['cached']}, api {body['api_version']})")
    print(f"  explain: bound_mode={trace['bound_mode']}, "
          f"bins touched={trace['bins_touched']}, "
          f"cache_level={trace['cache_level']}")
    metrics = json.loads(urllib.request.urlopen(
        f"http://{host}:{port}/v1/stats").read())["metrics"]
    hits = metrics["repro_cache_hits_total"]["values"]
    misses = metrics["repro_cache_misses_total"]["values"]
    latency = metrics["repro_request_seconds"]["summary"]
    print(f"GET /v1/stats -> {hits['level=query,model=orders']:.0f} hits / "
          f"{misses['level=query,model=orders']:.0f} misses, "
          f"p50 {latency['p50'] * 1e3:.3f} ms")
    server.shutdown()
    server.server_close()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-serving-") as workdir:
        run(Path(workdir))


if __name__ == "__main__":
    main()
