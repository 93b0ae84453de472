"""Typed request/response objects and the machine-readable error taxonomy.

The serving layer used to pass dict-shaped payloads around; this module
gives every request and response a declared shape:

- requests (:class:`EstimateRequest`, :class:`SubplanRequest`,
  :class:`UpdateRequest`) validate on construction and parse themselves
  from ``/v1`` JSON bodies (:meth:`from_json`);
- responses (:class:`EstimateResponse`, :class:`SubplanResponse`,
  :class:`UpdateResponse`) render their versioned ``/v1`` body
  (:meth:`to_json`, which stamps ``api_version`` and carries the optional
  :class:`ExplainTrace`);
- the **error taxonomy** maps every exception the library raises to a
  stable machine-readable code and an HTTP status
  (:func:`error_code`, :func:`error_payload`, :func:`http_status_of`),
  so ``/v1`` clients dispatch on ``error.code`` instead of parsing
  English prose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    ArtifactError,
    DataError,
    InferenceError,
    ModelNotFoundError,
    NotFittedError,
    ParseError,
    ReproError,
    SchemaError,
    UnsupportedOperationError,
    UnsupportedQueryError,
)
from repro.sql.query import Query

#: The current versioned serving API. Bump only with a new route prefix.
API_VERSION = "v1"

# ------------------------------------------------------------ taxonomy --

#: Ordered (exception type, code, http status) — first match wins, so
#: subclasses must precede their bases.
ERROR_TAXONOMY: tuple[tuple[type, str, int], ...] = (
    (ModelNotFoundError, "model_not_found", 404),
    (ParseError, "parse_error", 400),
    (UnsupportedQueryError, "unsupported_query", 400),
    (UnsupportedOperationError, "unsupported_operation", 400),
    (NotFittedError, "not_fitted", 409),
    (SchemaError, "schema_error", 400),
    (DataError, "invalid_data", 400),
    (ArtifactError, "artifact_error", 409),
    (InferenceError, "inference_error", 500),
    (ReproError, "error", 400),
    (NotImplementedError, "unsupported_operation", 400),
    (KeyError, "invalid_request", 400),
    (ValueError, "invalid_request", 400),
    (TypeError, "invalid_request", 400),
)

INTERNAL_ERROR_CODE = "internal_error"


def error_code(exc: BaseException) -> str:
    """The stable taxonomy code of an exception (``internal_error`` for
    anything the taxonomy does not know)."""
    for exc_type, code, _ in ERROR_TAXONOMY:
        if isinstance(exc, exc_type):
            return code
    return INTERNAL_ERROR_CODE


def http_status_of(exc: BaseException) -> int:
    """The HTTP status a ``/v1`` route answers for an exception."""
    for exc_type, _, status in ERROR_TAXONOMY:
        if isinstance(exc, exc_type):
            return status
    return 500


def error_payload(exc: BaseException) -> dict:
    """The ``/v1`` error body: ``{"error": {"code", "message", "type"}}``
    — machine-dispatchable code first, prose second."""
    return {
        "error": {
            "code": error_code(exc),
            "message": str(exc),
            "type": type(exc).__name__,
        },
        "api_version": API_VERSION,
    }


# ------------------------------------------------------------ requests --


def _query_text(payload: dict) -> str:
    sql = payload.get("sql", payload.get("query"))
    if not isinstance(sql, str) or not sql.strip():
        raise ValueError("'sql' must be a non-empty SQL string")
    return sql


@dataclass(frozen=True)
class EstimateRequest:
    """One single-query estimation request.

    ``query`` may be a parsed :class:`~repro.sql.query.Query` or SQL text
    (coerced by the service); ``explain`` asks for an
    :class:`ExplainTrace` alongside the number; ``trace`` additionally
    asks for the request's rendered span tree
    (``POST /v1/explain?trace=true``).
    """

    query: Query | str
    model: str | None = None
    explain: bool = False
    trace: bool = False

    @classmethod
    def from_json(cls, payload: dict) -> "EstimateRequest":
        """Parse and validate a ``POST /v1/estimate`` body."""
        return cls(query=_query_text(payload), model=payload.get("model"),
                   explain=bool(payload.get("explain", False)),
                   trace=bool(payload.get("trace", False)))


@dataclass(frozen=True)
class SubplanRequest:
    """An optimizer-style request for the whole sub-plan map."""

    query: Query | str
    model: str | None = None
    min_tables: int = 1

    @classmethod
    def from_json(cls, payload: dict) -> "SubplanRequest":
        """Parse and validate a ``POST /v1/subplans`` body."""
        try:
            min_tables = int(payload.get("min_tables", 1))
        except (TypeError, ValueError):
            raise ValueError("'min_tables' must be an integer") from None
        return cls(query=_query_text(payload), model=payload.get("model"),
                   min_tables=min_tables)


@dataclass(frozen=True)
class UpdateRequest:
    """An incremental mutation: insert and/or delete one table's rows.

    ``rows`` / ``deleted_rows`` are :class:`~repro.data.table.Table`
    batches (the HTTP layer builds them from ``{column: [values]}`` JSON,
    nulls included); at least one must be given.
    """

    table: str
    rows: object | None = None
    deleted_rows: object | None = None
    model: str | None = None


@dataclass(frozen=True)
class ExplainTrace:
    """Where an estimate came from: the inference knobs and data touched.

    ``bound_mode`` / ``table_estimator`` are the model's inference
    configuration; ``key_groups`` maps each equivalent key group the
    query touches to its bin count (``bins_touched`` sums them);
    ``shards`` reports per-alias shard pruning for ensembles (absent for
    single models); ``cache_level`` is filled in by the serving layer
    (``"query"``, ``"subplan"``, or None when the model computed the
    answer); ``trace_id`` links the explain to the request's span tree
    when structured tracing recorded one.
    """

    model_kind: str
    capabilities: dict | None = None
    bound_mode: str | None = None
    table_estimator: str | None = None
    key_groups: dict = field(default_factory=dict)
    bins_touched: int = 0
    aliases: tuple[str, ...] = ()
    shards: dict | None = None
    cache_level: str | None = None
    trace_id: str | None = None

    def to_json(self) -> dict:
        """JSON-ready trace (the ``"explain"`` response field)."""
        payload = {
            "model_kind": self.model_kind,
            "bound_mode": self.bound_mode,
            "table_estimator": self.table_estimator,
            "key_groups": dict(self.key_groups),
            "bins_touched": self.bins_touched,
            "aliases": list(self.aliases),
            "cache_level": self.cache_level,
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.capabilities is not None:
            payload["capabilities"] = self.capabilities
        if self.shards is not None:
            payload["shards"] = self.shards
        return payload


# ----------------------------------------------------------- responses --


@dataclass(frozen=True)
class EstimateResponse:
    """One answered request: the number plus serving metadata.

    ``cache_level`` records where the answer came from: ``"query"``
    (exact request fingerprint), ``"subplan"`` (the cross-request
    sub-plan table), or None (computed by the model); ``cached`` stays
    the boolean summary of the first two.  ``explain`` is only populated
    when the request asked for it.
    """

    estimate: float
    model: str
    version: int
    cached: bool
    seconds: float
    sql: str
    cache_level: str | None = None
    explain: ExplainTrace | None = None
    trace: dict | None = None

    def to_json(self) -> dict:
        """Versioned JSON view (the ``POST /v1/estimate`` body)."""
        payload = {
            "estimate": self.estimate,
            "model": self.model,
            "version": self.version,
            "cached": self.cached,
            "cache_level": self.cache_level,
            "seconds": self.seconds,
            "sql": self.sql,
            "api_version": API_VERSION,
            "explain": (self.explain.to_json()
                        if self.explain is not None else None),
        }
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload


def render_subplan_keys(subplans: dict) -> dict:
    """``{frozenset({'a','b'}): v}`` → ``{"a,b": v}`` (JSON keys)."""
    return {",".join(sorted(aliases)): value
            for aliases, value in subplans.items()}


@dataclass(frozen=True)
class SubplanResponse:
    """The whole connected sub-plan map plus serving metadata."""

    subplans: dict
    model: str
    version: int
    seconds: float
    sql: str
    min_tables: int = 1

    def to_json(self) -> dict:
        """Versioned JSON view (the ``POST /v1/subplans`` body); alias
        sets become comma-joined sorted keys."""
        return {
            "subplans": render_subplan_keys(self.subplans),
            "model": self.model,
            "version": self.version,
            "count": len(self.subplans),
            "min_tables": self.min_tables,
            "seconds": self.seconds,
            "sql": self.sql,
            "api_version": API_VERSION,
        }


def q_error(estimate: float, true_cardinality: float) -> float:
    """The symmetric multiplicative error ``max(est/true, true/est)``.

    Both sides are clamped to at least one row first (the convention
    FactorJoin's evaluation uses), so empty results do not divide by
    zero and a perfect estimate scores exactly 1.0.
    """
    est = max(float(estimate), 1.0)
    true = max(float(true_cardinality), 1.0)
    return max(est / true, true / est)


def p_error(plan_cost: float, optimal_cost: float) -> float:
    """The plan-cost suboptimality ratio ``plan_cost / optimal_cost``.

    Both costs are the *true*-cardinality costs of two plans for the
    same query — the chosen plan's and the best-known plan's — so the
    ratio measures how much the optimizer lost by planning under
    estimates (the paper's end-to-end plan-quality signal, P-error).
    Costs are clamped to at least one unit and the ratio to at least
    1.0: cost models legitimately emit 0 for single-join plans, and
    jitter must not score a plan as better than optimal.
    """
    plan = max(float(plan_cost), 1.0)
    optimal = max(float(optimal_cost), 1.0)
    return max(plan / optimal, 1.0)


@dataclass(frozen=True)
class FeedbackRequest:
    """Ground truth for one served query (``POST /v1/feedback``).

    The executor (or a truth-computing harness) reports the observed
    ``true_cardinality``; ``estimate`` optionally pins the estimate the
    feedback refers to — when absent the service re-derives it, which is
    cheap because the answer is still cached.

    ``plan_cost`` / ``optimal_cost`` optionally carry end-to-end plan
    quality from a plan harness (both plans costed under truth); when
    both are present the service records their :func:`p_error` into the
    plan-quality histogram and SLO.  They come as a pair or not at all.
    """

    query: Query | str
    true_cardinality: float
    model: str | None = None
    estimate: float | None = None
    plan_cost: float | None = None
    optimal_cost: float | None = None

    def __post_init__(self):
        if (self.plan_cost is None) != (self.optimal_cost is None):
            raise ValueError(
                "'plan_cost' and 'optimal_cost' come as a pair: P-error "
                "is their ratio under true cardinalities")

    @classmethod
    def from_json(cls, payload: dict) -> "FeedbackRequest":
        """Parse and validate a ``POST /v1/feedback`` body."""
        true_cardinality = payload.get("true_cardinality",
                                       payload.get("true_card"))
        if isinstance(true_cardinality, bool) or not isinstance(
                true_cardinality, (int, float)):
            raise ValueError(
                "'true_cardinality' must be a number (the observed "
                "result cardinality)")
        if true_cardinality < 0:
            raise ValueError("'true_cardinality' must be >= 0")

        def number_or_none(field_name: str, minimum: float | None = None):
            value = payload.get(field_name)
            if value is None:
                return None
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, float)):
                raise ValueError(
                    f"'{field_name}' must be a number when given")
            if minimum is not None and value < minimum:
                raise ValueError(f"'{field_name}' must be >= {minimum}")
            return float(value)

        return cls(query=_query_text(payload),
                   true_cardinality=float(true_cardinality),
                   model=payload.get("model"),
                   estimate=number_or_none("estimate"),
                   plan_cost=number_or_none("plan_cost", minimum=0.0),
                   optimal_cost=number_or_none("optimal_cost",
                                               minimum=0.0))


@dataclass(frozen=True)
class FeedbackResponse:
    """One absorbed feedback sample: the recorded q-error (and, when the
    request carried plan costs, the recorded P-error) and where it was
    filed (per-model, and per-shard for sharded ensembles)."""

    model: str
    version: int
    estimate: float
    true_cardinality: float
    q_error: float
    sql: str
    shards: tuple[int, ...] = ()
    p_error: float | None = None

    def to_json(self) -> dict:
        """Versioned JSON view (the ``POST /v1/feedback`` body)."""
        payload = {
            "model": self.model,
            "version": self.version,
            "estimate": self.estimate,
            "true_cardinality": self.true_cardinality,
            "q_error": self.q_error,
            "sql": self.sql,
            "shards": list(self.shards),
            "api_version": API_VERSION,
        }
        if self.p_error is not None:
            payload["p_error"] = self.p_error
        return payload


@dataclass(frozen=True)
class UpdateResponse:
    """One applied mutation: what changed, where, and how long it took."""

    model: str
    version: int
    table: str
    rows: int
    deleted_rows: int
    seconds: float

    def to_json(self) -> dict:
        """Versioned JSON view (the ``POST /v1/update`` body)."""
        return {
            "model": self.model,
            "version": self.version,
            "table": self.table,
            "rows": self.rows,
            "deleted_rows": self.deleted_rows,
            "seconds": self.seconds,
            "api_version": API_VERSION,
        }
