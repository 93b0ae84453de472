"""``repro.api`` — the single public estimation API.

One protocol (:class:`CardinalityModel` with explicit
:class:`Capabilities`), one prepared-query session interface
(:class:`EstimationSession`, opened via ``model.open_session(query)``),
one set of typed request/response objects with a machine-readable error
taxonomy, and one canonical query-coercion helper.  Every estimator
family — :class:`~repro.core.estimator.FactorJoin`,
:class:`~repro.shard.ensemble.ShardedFactorJoin`, and all
:mod:`repro.baselines` — implements the protocol; the registry, the
:class:`~repro.serve.service.EstimationService`, the versioned ``/v1``
HTTP routes, and the CLI all program against it.

This is the contract later work (multi-process workers, per-shard
hot-swap, remote fit) builds on (see the migration table in
``docs/API.md``).
"""

from repro.api.coerce import coerce_query
from repro.api.explain import (
    build_explain_trace,
    with_cache_level,
    with_trace_id,
)
from repro.api.messages import (
    API_VERSION,
    ERROR_TAXONOMY,
    EstimateRequest,
    EstimateResponse,
    ExplainTrace,
    FeedbackRequest,
    FeedbackResponse,
    SubplanRequest,
    SubplanResponse,
    UpdateRequest,
    UpdateResponse,
    error_code,
    error_payload,
    http_status_of,
    p_error,
    q_error,
    render_subplan_keys,
)
from repro.api.protocol import (
    PREDICATE_CLASSES,
    UPDATE_GRANULARITIES,
    Capabilities,
    CardinalityModel,
    EstimationSession,
    GenericEstimationSession,
    NativeSubplanSession,
    check_operation,
)
from repro.api.registry import (
    build_model,
    model_families,
    register_model_family,
)
from repro.api.session import FactorJoinSession, ProgressiveProbeSession

__all__ = [
    "API_VERSION",
    "build_explain_trace",
    "build_model",
    "Capabilities",
    "CardinalityModel",
    "check_operation",
    "coerce_query",
    "ERROR_TAXONOMY",
    "error_code",
    "error_payload",
    "EstimateRequest",
    "EstimateResponse",
    "EstimationSession",
    "ExplainTrace",
    "FactorJoinSession",
    "FeedbackRequest",
    "FeedbackResponse",
    "GenericEstimationSession",
    "http_status_of",
    "model_families",
    "NativeSubplanSession",
    "p_error",
    "PREDICATE_CLASSES",
    "ProgressiveProbeSession",
    "q_error",
    "register_model_family",
    "render_subplan_keys",
    "SubplanRequest",
    "SubplanResponse",
    "UPDATE_GRANULARITIES",
    "UpdateRequest",
    "UpdateResponse",
    "with_cache_level",
    "with_trace_id",
]
