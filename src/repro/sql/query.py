"""Join query model: table references with aliases, equi-join conditions,
per-alias filters, the join graph, and connected sub-plan enumeration.

Aliases make self joins first-class (the same base table may appear under
several aliases, each with its own filter), which is one of the query classes
FactorJoin supports and the learned data-driven baselines reject.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import SchemaError
from repro.sql.predicates import Predicate, TruePredicate


@dataclass(frozen=True, order=True)
class ColumnRef:
    """``alias.column`` reference."""

    alias: str
    column: str

    def __str__(self) -> str:
        return f"{self.alias}.{self.column}"


@dataclass(frozen=True)
class TableRef:
    """A base table occurrence with its alias."""

    table: str
    alias: str

    def to_sql(self) -> str:
        if self.table == self.alias:
            return self.table
        return f"{self.table} AS {self.alias}"


@dataclass(frozen=True)
class JoinCondition:
    """Equi-join ``left = right`` between two column references."""

    left: ColumnRef
    right: ColumnRef

    def __post_init__(self):
        if self.left == self.right:
            raise SchemaError(f"degenerate join condition {self.left} = {self.right}")

    def normalized(self) -> "JoinCondition":
        """Canonical orientation (sorted endpoints) for deduplication."""
        if (self.right < self.left):
            return JoinCondition(self.right, self.left)
        return self

    def aliases(self) -> set[str]:
        return {self.left.alias, self.right.alias}

    def to_sql(self) -> str:
        return f"{self.left} = {self.right}"


class Query:
    """A COUNT(*) equi-join query.

    Parameters
    ----------
    tables:
        The base-table occurrences (alias must be unique).
    joins:
        Equi-join conditions between column references of those aliases.
    filters:
        Mapping ``alias -> Predicate`` (missing aliases mean no filter).
    """

    def __init__(self, tables: list[TableRef], joins: list[JoinCondition],
                 filters: dict[str, Predicate] | None = None):
        self.tables = list(tables)
        self._by_alias = {}
        for tref in self.tables:
            if tref.alias in self._by_alias:
                raise SchemaError(f"duplicate alias {tref.alias!r} in query")
            self._by_alias[tref.alias] = tref
        self.joins = [j.normalized() for j in joins]
        for join in self.joins:
            for ref in (join.left, join.right):
                if ref.alias not in self._by_alias:
                    raise SchemaError(
                        f"join condition references unknown alias {ref.alias!r}")
        self.filters: dict[str, Predicate] = {}
        for alias, pred in (filters or {}).items():
            if alias not in self._by_alias:
                raise SchemaError(f"filter references unknown alias {alias!r}")
            if not isinstance(pred, TruePredicate):
                self.filters[alias] = pred

    # -- accessors --------------------------------------------------------------

    @property
    def aliases(self) -> list[str]:
        return [t.alias for t in self.tables]

    def table_of(self, alias: str) -> str:
        return self._by_alias[alias].table

    def filter_of(self, alias: str) -> Predicate:
        return self.filters.get(alias, TruePredicate())

    def num_tables(self) -> int:
        return len(self.tables)

    def num_filter_predicates(self) -> int:
        return sum(len(p.conjuncts()) or 1 for p in self.filters.values())

    # -- join graph ---------------------------------------------------------------

    def join_graph_edges(self) -> list[tuple[str, str]]:
        """Alias-level edges (one per join condition, possibly parallel)."""
        return [(j.left.alias, j.right.alias) for j in self.joins]

    def adjacency(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {a: set() for a in self.aliases}
        for left, right in self.join_graph_edges():
            if left != right:
                adj[left].add(right)
                adj[right].add(left)
        return adj

    def is_connected(self) -> bool:
        if not self.tables:
            return True
        adj = self.adjacency()
        seen = {self.aliases[0]}
        stack = [self.aliases[0]]
        while stack:
            for nbr in adj[stack.pop()]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return len(seen) == len(self.aliases)

    def is_cyclic(self) -> bool:
        """True if the alias-level join graph contains a cycle.

        Parallel edges between the same pair of aliases (a composite join
        condition) do not count as a cycle here; a self-join condition within
        one alias does.
        """
        adj = self.adjacency()
        num_edges = sum(len(v) for v in adj.values()) // 2
        if any(j.left.alias == j.right.alias for j in self.joins):
            return True
        if not self.is_connected():
            # per-component check: edges >= nodes implies a cycle somewhere
            return num_edges > len(self.aliases) - self._num_components()
        return num_edges > len(self.aliases) - 1

    def _num_components(self) -> int:
        adj = self.adjacency()
        seen: set[str] = set()
        comps = 0
        for alias in self.aliases:
            if alias in seen:
                continue
            comps += 1
            stack = [alias]
            seen.add(alias)
            while stack:
                for nbr in adj[stack.pop()]:
                    if nbr not in seen:
                        seen.add(nbr)
                        stack.append(nbr)
        return comps

    def has_self_join(self) -> bool:
        """True if one base table appears under more than one alias, or a
        join condition relates two keys of the same alias."""
        names = [t.table for t in self.tables]
        if len(set(names)) != len(names):
            return True
        return any(j.left.alias == j.right.alias for j in self.joins)

    # -- sub-plans ------------------------------------------------------------------

    def subquery(self, aliases: set[str] | frozenset[str]) -> "Query":
        """The induced sub-query over a subset of aliases."""
        aliases = set(aliases)
        tables = [t for t in self.tables if t.alias in aliases]
        joins = [j for j in self.joins if j.aliases() <= aliases]
        filters = {a: p for a, p in self.filters.items() if a in aliases}
        return Query(tables, joins, filters)

    def connected_subsets(self, min_tables: int = 2) -> list[frozenset[str]]:
        """Connected alias subsets, ordered by size then lexicographically."""
        adj = self.adjacency()
        aliases = self.aliases
        out: list[frozenset[str]] = []
        n = len(aliases)
        for size in range(min_tables, n + 1):
            for combo in itertools.combinations(aliases, size):
                s = set(combo)
                if _is_connected_subset(s, adj):
                    out.append(frozenset(combo))
        return out

    # -- rendering ---------------------------------------------------------------------

    def to_sql(self) -> str:
        from_clause = ", ".join(t.to_sql() for t in self.tables)
        conds = [j.to_sql() for j in self.joins]
        for alias, pred in self.filters.items():
            conds.append(pred.to_sql(alias))
        where = " WHERE " + " AND ".join(conds) if conds else ""
        return f"SELECT COUNT(*) FROM {from_clause}{where};"

    def signature(self) -> tuple:
        """Hashable identity (used as cache key by estimator runners)."""
        return (
            tuple(sorted((t.table, t.alias) for t in self.tables)),
            tuple(sorted((str(j.left), str(j.right)) for j in self.joins)),
            tuple(sorted((a, p.to_sql()) for a, p in self.filters.items())),
        )

    def join_template(self) -> tuple:
        """Identity of the join structure only (tables + join conditions)."""
        return (
            tuple(sorted((t.table, t.alias) for t in self.tables)),
            tuple(sorted((str(j.left), str(j.right)) for j in self.joins)),
        )

    def subplan_key(self) -> tuple:
        """Canonical (table-set, predicate, join-structure) fingerprint,
        invariant under alias renaming.

        Unlike :meth:`signature`, which embeds the literal alias names, this
        key renames aliases into canonical positions, so two queries that
        join the same tables with the same filters and the same join
        conditions — under *any* alias spelling — share one key.  That is
        what makes sub-plan estimates reusable across requests: the induced
        sub-query of one query and a standalone query over the same tables
        hash to the same entry.

        Aliases are ordered by (base table, filter SQL, incident-edge
        descriptors), with the original alias as the final tiebreak; join
        conditions are then rewritten positionally.  Equal keys imply
        isomorphic queries (the positions define an alias bijection under
        which tables, filters, and joins all coincide), so sharing an entry
        is always sound; a tie broken by the original alias can at worst
        miss a reuse opportunity between two isomorphic spellings, never
        conflate two different queries.
        """
        base = {a: (self.table_of(a),
                    self.filters[a].to_sql() if a in self.filters else "")
                for a in self.aliases}
        edges: dict[str, list[tuple]] = {a: [] for a in self.aliases}
        for j in self.joins:
            edges[j.left.alias].append(
                (j.left.column, base[j.right.alias], j.right.column))
            edges[j.right.alias].append(
                (j.right.column, base[j.left.alias], j.left.column))
        order = sorted(self.aliases,
                       key=lambda a: (base[a], sorted(edges[a]), a))
        pos = {a: i for i, a in enumerate(order)}
        joins = tuple(sorted(
            tuple(sorted(((pos[j.left.alias], j.left.column),
                          (pos[j.right.alias], j.right.column))))
            for j in self.joins))
        return ("subplan", tuple(base[a] for a in order), joins)

    def subplan_keys(self, min_tables: int = 1) -> dict[frozenset, tuple]:
        """Canonical :meth:`subplan_key` of every connected sub-plan.

        The key set mirrors :meth:`repro.core.estimator.FactorJoin.
        estimate_subplans`: all connected alias subsets of two or more
        tables, plus the singletons when ``min_tables <= 1``.
        """
        subsets: list[frozenset] = []
        if min_tables <= 1:
            subsets.extend(frozenset([a]) for a in self.aliases)
        subsets.extend(self.connected_subsets(min_tables=2))
        return {s: self.subquery(s).subplan_key() for s in subsets}

    def __repr__(self) -> str:
        return f"Query({self.to_sql()})"


def _is_connected_subset(aliases: set[str], adj: dict[str, set[str]]) -> bool:
    if not aliases:
        return False
    start = next(iter(aliases))
    seen = {start}
    stack = [start]
    while stack:
        for nbr in adj[stack.pop()] & aliases:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return len(seen) == len(aliases)
