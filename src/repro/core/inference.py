"""Bound-based inference over query factor graphs.

``ProgressiveSubplanEstimator`` implements Section 5.2: every connected
sub-plan's factor is cached, and each larger sub-plan is built by combining
one cached factor with one base factor, so estimating all sub-plan queries
of a target query does no redundant work.  Base factors are combined
pairwise along the join graph (which is exactly variable elimination with
the bound semiring — each combination eliminates the shared variables'
summations).

``fold_query`` runs the full estimation for one query as the progressive
estimator's factor for the whole alias set, so both paths share one greedy
combination order.  The bound semiring is order-sensitive, so this is what
makes the progressive estimate of a sub-plan bit-identical to estimating
that sub-plan from scratch — and what lets the serving layer reuse
sub-plan entries to answer plain estimates (see :mod:`repro.serve.cache`)
without changing any answer.  The key property: the greedy order never
picks an element earlier because a later-picked element exists, so the
greedy order of ``S`` minus its last element *is* the greedy order of
that smaller set, and building ``S`` as ``combine(factor(S - {last}),
base(last))`` reproduces the whole fold.
"""

from __future__ import annotations

from typing import Callable

from repro.core import bound as bound_mod
from repro.core.factors import JoinFactor, combine
from repro.sql.query import Query

FactorProvider = Callable[[Query, str], JoinFactor]


def fold_query(query: Query, provider: FactorProvider,
               mode: str = bound_mod.BOUND) -> float:
    """Estimate one query by folding base factors along the join graph
    in the greedy order (the progressive estimator's whole-query
    factor)."""
    if not query.aliases:
        return 0.0
    estimator = ProgressiveSubplanEstimator(query, provider, mode)
    return estimator.factor_for(frozenset(query.aliases)).total_estimate


class ProgressiveSubplanEstimator:
    """Bottom-up estimation of all connected sub-plans of one query."""

    def __init__(self, query: Query, provider: FactorProvider,
                 mode: str = bound_mod.BOUND):
        self._query = query
        self._provider = provider
        self._mode = mode
        self._cache: dict[frozenset, JoinFactor] = {}

    def base_factor(self, alias: str) -> JoinFactor:
        key = frozenset([alias])
        if key not in self._cache:
            self._cache[key] = self._provider(self._query, alias)
        return self._cache[key]

    def estimate_all(self, min_tables: int = 1) -> dict[frozenset, float]:
        """Cardinality estimate for every connected sub-plan.

        Mirrors how the optimizer's DP table is populated; the paper reports
        >10x speedup over estimating each sub-plan independently because each
        step is a single pairwise factor combination.
        """
        results: dict[frozenset, float] = {}
        if min_tables <= 1:
            for alias in self._query.aliases:
                results[frozenset([alias])] = self.base_factor(alias).total_estimate
        for subset in self._query.connected_subsets(min_tables=2):
            results[subset] = self.factor_for(subset).total_estimate
        return results

    def factor_for(self, subset: frozenset) -> JoinFactor:
        """The combined factor of ``subset``, bit-identical to folding its
        induced sub-query from scratch (see the module docstring)."""
        if subset in self._cache:
            return self._cache[subset]
        if len(subset) == 1:
            return self.base_factor(next(iter(subset)))
        last = self._fold_order(subset)[-1]
        factor = combine(self.factor_for(subset - {last}),
                         self.base_factor(last), mode=self._mode)
        self._cache[subset] = factor
        return factor

    def _fold_order(self, subset: frozenset) -> list[str]:
        """The greedy combination order on the induced sub-query: start
        from the smallest base estimate, grow along the join graph by
        smallest base estimate, cross-product fallback when nothing
        connects."""
        adj = self._query.adjacency()
        est = {a: self.base_factor(a).total_estimate for a in subset}
        remaining = set(subset)
        start = min(remaining, key=lambda a: (est[a], a))
        order = [start]
        remaining.discard(start)
        joined = {start}
        while remaining:
            connected = [a for a in remaining
                         if adj[a] & subset & joined]
            pool = connected or sorted(remaining)
            nxt = min(pool, key=lambda a: (est[a], a))
            order.append(nxt)
            joined.add(nxt)
            remaining.discard(nxt)
        return order


def estimate_subplans_independently(query: Query, provider: FactorProvider,
                                    mode: str = bound_mod.BOUND,
                                    min_tables: int = 1
                                    ) -> dict[frozenset, float]:
    """Ablation path: estimate each sub-plan from scratch (no cache)."""
    results: dict[frozenset, float] = {}
    if min_tables <= 1:
        for alias in query.aliases:
            results[frozenset([alias])] = provider(query, alias).total_estimate
    for subset in query.connected_subsets(min_tables=2):
        sub_query = query.subquery(set(subset))
        results[subset] = fold_query(sub_query, provider, mode=mode)
    return results
