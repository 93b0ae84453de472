"""Equivalent key group discovery (paper Section 3.3).

Two join keys are *semantically equivalent* if a join relation connects them
(transitively).  At the schema level groups are found from declared join
relations; at the query level from the query's join conditions over aliased
column references — the latter is what defines the variable nodes of the
factor graph (Lemma 1), and handles self joins because aliases are distinct.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.schema import DatabaseSchema
from repro.sql.query import ColumnRef, Query


class UnionFind:
    """Textbook union-find with path compression over hashable items."""

    def __init__(self):
        self._parent: dict = {}

    def add(self, item) -> None:
        if item not in self._parent:
            self._parent[item] = item

    def find(self, item):
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb

    def groups(self) -> list[list]:
        by_root: dict = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), []).append(item)
        return list(by_root.values())


@dataclass(frozen=True)
class KeyGroup:
    """A schema-level equivalent key group.

    ``members`` are (table, column) pairs; ``name`` is a stable identifier
    derived from the lexicographically smallest member.
    """

    name: str
    members: tuple[tuple[str, str], ...]

    def __contains__(self, member: tuple[str, str]) -> bool:
        return member in self.members


def schema_key_groups(schema: DatabaseSchema) -> list[KeyGroup]:
    """Partition all schema key columns into equivalent key groups.

    Key columns never mentioned by a join relation form singleton groups,
    so every key column belongs to exactly one group.
    """
    uf = UnionFind()
    for tab, col in schema.key_endpoints():
        uf.add((tab, col))
    for rel in schema.join_relations:
        left, right = rel.endpoints()
        uf.union(left, right)
    groups = []
    for members in uf.groups():
        members = tuple(sorted(members))
        name = f"{members[0][0]}.{members[0][1]}"
        groups.append(KeyGroup(name=name, members=members))
    groups.sort(key=lambda g: g.name)
    return groups


@dataclass
class QueryKeyGroups:
    """Query-level variable groups: the factor-graph variable nodes.

    ``var_of`` maps each joined ColumnRef to a variable id; ``members``
    lists refs per variable id.
    """

    var_of: dict[ColumnRef, int] = field(default_factory=dict)
    members: list[list[ColumnRef]] = field(default_factory=list)

    @property
    def num_vars(self) -> int:
        return len(self.members)

    def vars_of_alias(self, alias: str) -> list[int]:
        """Sorted variable ids that have at least one key in ``alias``."""
        out = {var for ref, var in self.var_of.items() if ref.alias == alias}
        return sorted(out)

    def refs_of(self, alias: str, var: int) -> list[ColumnRef]:
        """Column references of ``alias`` belonging to variable ``var``."""
        return [ref for ref in self.members[var] if ref.alias == alias]


def query_key_groups(query: Query) -> QueryKeyGroups:
    """Connected components of the query's join conditions.

    Each component is one equivalent key group *variable* (paper Figure 3):
    the factor graph has one variable node per component, and each table
    (alias) factor connects to the variables its join keys belong to.
    """
    uf = UnionFind()
    for join in query.joins:
        uf.union(join.left, join.right)
    groups = sorted(uf.groups(), key=lambda ms: str(min(ms)))
    result = QueryKeyGroups()
    for var_id, members in enumerate(groups):
        members = sorted(members)
        result.members.append(members)
        for ref in members:
            result.var_of[ref] = var_id
    return result
