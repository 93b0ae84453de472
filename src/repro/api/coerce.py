"""The one canonical query-coercion helper.

Every entry point that accepts "a query" — the estimation service, the
HTTP layer, the CLI, warmup replay — used to carry its own ``_as_query``
variant.  They all route here now, so SQL-vs-``Query`` handling, type
validation, and the taxonomy error raised for garbage input are defined
exactly once.

SQL text goes through a bounded process-wide memo: a repeated text (the
common case for a served workload) reuses its parsed ``Query`` instead
of parsing again.  Parsing is pure,
so the memo never needs invalidation; failures are never memoized, so
bad SQL raises on every call.  Memoized queries are shared between
callers and must not be mutated in place.
"""

from __future__ import annotations

import functools

from repro.sql.query import Query

# Entries in the parse memo; a parsed STATS-CEB query holds about 3.9 KB,
# so a full memo is about 4 MB (sized like the query-level cache).
PARSE_MEMO_SIZE = 1024
# Longer texts bypass the memo, so request bodies of up to 32 MiB cannot
# pin that much memory in keys; STATS-CEB's longest query is 604 chars.
PARSE_MEMO_MAX_CHARS = 4096


def _parse_uncached(sql: str) -> Query:
    from repro.sql import parse_query

    return parse_query(sql)


_parse = functools.lru_cache(maxsize=PARSE_MEMO_SIZE)(_parse_uncached)


def coerce_query(query: "Query | str") -> Query:
    """``Query`` passes through; SQL text parses; anything else raises.

    Parse failures raise :class:`~repro.errors.ParseError` (taxonomy code
    ``parse_error``); non-query, non-string input raises ``TypeError``
    (taxonomy code ``invalid_request``).
    """
    if isinstance(query, Query):
        return query
    if isinstance(query, str):
        if len(query) <= PARSE_MEMO_MAX_CHARS:
            return _parse(query)
        return _parse_uncached(query)
    raise TypeError(
        f"expected a Query or a SQL string, got {type(query).__name__}")
