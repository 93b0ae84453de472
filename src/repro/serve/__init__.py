"""Serving layer: model persistence, registry, caching, and an HTTP API.

FactorJoin's offline phase is minutes, its online phase sub-millisecond
(paper Sections 3.3, 4) — this package makes that asymmetry operational:

- :mod:`repro.serve.artifact` — fit once, save a versioned artifact with a
  manifest and integrity checks, load it anywhere;
- :mod:`repro.serve.registry` — hold many named models, hot-swap refreshed
  ones atomically under concurrent readers;
- :mod:`repro.serve.cache` — two-level LRU estimate cache: canonical query
  fingerprints plus a cross-request sub-plan table, invalidated together
  on swap/update;
- :mod:`repro.serve.service` — single-query / sub-plan estimation with
  sub-plan reuse, workload recording, and latency accounting, safe under
  concurrent callers;
- :mod:`repro.serve.warmup` — workload recording/replay: warm both cache
  levels from a recorded (or generated) workload before admitting traffic;
- :mod:`repro.serve.snapshot` — persist/restore the cache itself beside
  the artifact, stamped with a model fingerprint and refused on mismatch;
- :mod:`repro.serve.httpd` — a dependency-free JSON HTTP front end
  (``repro serve`` on the command line).

The sharding layer (:mod:`repro.shard`) plugs in transparently:
``load_model`` dispatches ensemble artifacts to it, and ensembles serve
through the registry, caches, and HTTP front end unchanged.
"""

from repro.serve.artifact import (
    FORMAT_VERSION,
    LocalArtifactStore,
    is_store_ref,
    load_model,
    read_manifest,
    save_model,
    schema_fingerprint,
)
from repro.serve.cache import EstimateCache, query_fingerprint
from repro.serve.httpd import ServingServer, make_server, serve_in_background
from repro.serve.registry import ModelRecord, ModelRegistry
from repro.serve.service import DEFAULT_MODEL, EstimationService
from repro.serve.snapshot import (
    model_fingerprint,
    read_snapshot,
    restore_snapshot,
    save_snapshot,
)
from repro.serve.warmup import (
    WorkloadEntry,
    WorkloadRecorder,
    generated_workload,
    load_workload,
    warm_service,
)

__all__ = [
    "DEFAULT_MODEL",
    "EstimateCache",
    "EstimationService",
    "FORMAT_VERSION",
    "generated_workload",
    "is_store_ref",
    "load_model",
    "LocalArtifactStore",
    "load_workload",
    "make_server",
    "model_fingerprint",
    "ModelRecord",
    "ModelRegistry",
    "query_fingerprint",
    "read_manifest",
    "read_snapshot",
    "restore_snapshot",
    "save_model",
    "save_snapshot",
    "schema_fingerprint",
    "serve_in_background",
    "ServingServer",
    "warm_service",
    "WorkloadEntry",
    "WorkloadRecorder",
]
