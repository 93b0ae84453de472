"""Tree-structured Bayesian network over discrete codes.

This is the probabilistic engine behind the BayesCard single-table estimator
(paper Section 3.3 / [70]): structure = Chow-Liu tree, parameters = per-edge
joint count matrices, inference = exact message passing with per-node *soft
evidence* vectors (the probability each code of a node satisfies the filter
predicate).

``marginal(target, evidence)`` returns the unnormalized vector
``P(target = x, evidence)`` — multiplied by the table row count this is
exactly the quantity FactorJoin's factor nodes need
(``P(key bin | Q) * |Q|``, Equation 1).

Inference state derived from the counts is computed once and shared:
each edge conditional ``P(b | a)`` is normalized at most once per model
:attr:`~TreeBayesNet.version`, and a :class:`MessageSet` computes each
directed-edge message at most once per evidence set, so every target's
marginal under one evidence set reuses the same messages.  Neither is
pickled: both rebuild on demand from the counts.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InferenceError, NotFittedError
from repro.factorgraph.chow_liu import chow_liu_tree, joint_histogram
from repro.utils import restore_state


class TreeBayesNet:
    """Discrete tree BN learned from an integer code matrix."""

    def __init__(self, smoothing: float = 0.1):
        self._smoothing = smoothing
        self._fitted = False
        self._conditionals: dict[tuple[int, int], np.ndarray] = {}
        self._version = 0

    # -- training ----------------------------------------------------------------

    def fit(self, code_matrix: np.ndarray, cardinalities: list[int],
            root: int = 0) -> "TreeBayesNet":
        code_matrix = np.asarray(code_matrix, dtype=np.int64)
        self.n_nodes = code_matrix.shape[1]
        self.cardinalities = list(cardinalities)
        self.n_rows = code_matrix.shape[0]
        self.edges = chow_liu_tree(code_matrix, self.cardinalities, root=root)
        self._adjacency: dict[int, list[int]] = {
            i: [] for i in range(self.n_nodes)}
        self._joints: dict[tuple[int, int], np.ndarray] = {}
        for parent, child in self.edges:
            joint = joint_histogram(
                code_matrix[:, parent], code_matrix[:, child],
                self.cardinalities[parent], self.cardinalities[child])
            joint += self._smoothing / joint.size
            self._joints[(parent, child)] = joint
            self._adjacency[parent].append(child)
            self._adjacency[child].append(parent)
        self._marginals = []
        for j in range(self.n_nodes):
            counts = np.bincount(code_matrix[:, j],
                                 minlength=self.cardinalities[j])
            counts = counts.astype(np.float64) + self._smoothing / max(
                1, self.cardinalities[j])
            self._marginals.append(counts / counts.sum())
        self._fitted = True
        self._invalidate()
        return self

    def partial_fit(self, code_matrix: np.ndarray) -> None:
        """Incremental update: add new rows' counts (structure kept fixed).

        This mirrors the paper's Section 4.3: single-table models are updated
        in place from inserted tuples without retraining.
        """
        self._check_fitted()
        code_matrix = np.asarray(code_matrix, dtype=np.int64)
        n_new = code_matrix.shape[0]
        if n_new == 0:
            return
        for (parent, child), joint in self._joints.items():
            joint += joint_histogram(
                code_matrix[:, parent], code_matrix[:, child],
                self.cardinalities[parent], self.cardinalities[child])
        total_old = self.n_rows
        for j in range(self.n_nodes):
            counts = np.bincount(code_matrix[:, j],
                                 minlength=self.cardinalities[j]).astype(float)
            merged = self._marginals[j] * total_old + counts
            self._marginals[j] = merged / merged.sum()
        self.n_rows += n_new
        self._invalidate()

    @property
    def version(self) -> int:
        """Bumped by every (partial) fit: derived inference state of an
        older version is stale."""
        return self._version

    def _invalidate(self) -> None:
        """Drop derived state after the counts changed.

        The conditional cache is *swapped*, never cleared in place, and
        the version bumps after the swap: a lock-free reader that captured
        the old cache (see :class:`MessageSet`) can only store values
        computed from the old counts into the discarded object."""
        self._conditionals = {}
        self._version += 1

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_conditionals"], state["_version"]
        return state

    def __setstate__(self, state):
        restore_state(self, state)
        self._conditionals = {}
        self._version = 0

    # -- inference -----------------------------------------------------------------

    def messages(self, evidence: dict[int, np.ndarray] | None = None
                 ) -> "MessageSet":
        """The shared-message inference state of one evidence set.

        ``evidence[node]`` is a weight vector in [0, 1] per code of
        ``node`` (1.0 everywhere == no evidence)."""
        self._check_fitted()
        evidence = evidence or {}
        for node, vec in evidence.items():
            if len(vec) != self.cardinalities[node]:
                raise InferenceError(
                    f"evidence vector for node {node} has length {len(vec)}, "
                    f"expected {self.cardinalities[node]}")
        return MessageSet(self, evidence)

    def marginal(self, target: int, evidence: dict[int, np.ndarray] | None = None
                 ) -> np.ndarray:
        """Unnormalized ``P(target = x, evidence)`` for all codes ``x``
        (exact on trees; see :meth:`MessageSet.marginal`)."""
        return self.messages(evidence).marginal(target)

    def probability(self, evidence: dict[int, np.ndarray]) -> float:
        """Normalized probability of the (soft) evidence."""
        return self.messages(evidence).probability()

    def pairwise_conditional(self, parent: int, child: int) -> np.ndarray:
        """P(child | parent) matrix, composing conditionals along the tree
        path when the two nodes are not adjacent."""
        self._check_fitted()
        path = self._path(parent, child)
        if path is None:
            raise InferenceError(f"no path between nodes {parent} and {child}")
        matrix = np.eye(self.cardinalities[parent])
        conditionals = self._conditionals
        for a, b in zip(path[:-1], path[1:]):
            matrix = matrix @ self._conditional(a, b, conditionals)
        return matrix

    # -- internals ------------------------------------------------------------------

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("TreeBayesNet.fit was never called")

    def _conditional(self, a: int, b: int,
                     cache: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
        """P(b | a) for adjacent nodes, normalized from the stored joint
        counts once per ``cache`` (read-only: every caller shares it)."""
        cond = cache.get((a, b))
        if cond is not None:
            return cond
        if (a, b) in self._joints:
            joint = self._joints[(a, b)]
        elif (b, a) in self._joints:
            joint = self._joints[(b, a)].T
        else:
            raise InferenceError(f"nodes {a}, {b} not adjacent in tree")
        row_sums = joint.sum(axis=1, keepdims=True)
        cond = np.divide(joint, row_sums, out=np.zeros_like(joint),
                         where=row_sums > 0)
        cond.flags.writeable = False
        cache[(a, b)] = cond
        return cond

    def _path(self, a: int, b: int) -> list[int] | None:
        if a == b:
            return [a]
        stack = [(a, [a])]
        seen = {a}
        while stack:
            node, path = stack.pop()
            for nbr in self._adjacency[node]:
                if nbr in seen:
                    continue
                new_path = path + [nbr]
                if nbr == b:
                    return new_path
                seen.add(nbr)
                stack.append((nbr, new_path))
        return None


class MessageSet:
    """Sum-product messages of one :class:`TreeBayesNet` evidence set.

    ``msg(src -> dst) = P(src | dst) @ (evidence[src] * inflow(src, dst))``
    where ``inflow(node, dst)`` multiplies, in adjacency order, the
    messages into ``node`` from every neighbour but ``dst``.  A message
    depends on its directed edge and the evidence only, never on the
    target asked for, so each is computed at most once here and every
    target's :meth:`marginal` reuses it.  Each target sees the same
    products, in the same order, as one upward pass rooted at it (less
    the exact multiplication by an all-ones start vector), so answers are
    bit-identical to that pass.

    The set captures the network's conditional cache and :attr:`version`
    when it is made; it is stale once the network's version moves on.
    """

    def __init__(self, bn: TreeBayesNet, evidence: dict[int, np.ndarray]):
        self.evidence = evidence
        self.version = bn.version
        self._bn = bn
        self._conditionals = bn._conditionals
        self._memo: dict[tuple[int, int], np.ndarray] = {}

    def marginal(self, target: int) -> np.ndarray:
        """Unnormalized ``P(target = x, evidence)`` for all codes ``x``
        (a fresh array: callers may mutate it)."""
        result = self._bn._marginals[target] * self._inflow(target, None)
        if target in self.evidence:
            result = result * self.evidence[target]
        return result

    def probability(self) -> float:
        """Normalized probability of the evidence."""
        if not self.evidence:
            return 1.0
        anchor = next(iter(self.evidence))
        return float(self.marginal(anchor).sum())

    def _inflow(self, node: int, exclude: int | None) -> np.ndarray:
        """Product of the messages into ``node`` from all neighbours
        except ``exclude`` (recursion depth == tree diameter, fine here)."""
        message = None
        for nbr in self._bn._adjacency[node]:
            if nbr != exclude:
                msg = self._message(nbr, node)
                message = msg if message is None else message * msg
        return np.ones(self._bn.cardinalities[node]) if message is None \
            else message

    def _message(self, src: int, dst: int) -> np.ndarray:
        msg = self._memo.get((src, dst))
        if msg is None:
            inflow = self._inflow(src, dst)
            if src in self.evidence:
                inflow = inflow * self.evidence[src]
            msg = self._bn._conditional(dst, src, self._conditionals) @ inflow
            self._memo[(src, dst)] = msg
        return msg
