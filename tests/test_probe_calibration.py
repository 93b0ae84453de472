"""Calibrate-once inference: shared tree messages, normalize-once caches,
and derived state that never leaks into pickles or across updates.

The reference for the shared-message path is the recursive rerooted pass
it replaced (one upward pass per target, every conditional re-normalized
on the way): the two must agree bit for bit, and both must agree with a
brute-force enumeration of the tree distribution.
"""

import os
import pickle
import subprocess
import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import FactorJoin, FactorJoinConfig
from repro.engine.filter import evaluate_predicate
from repro.estimators import BayesCardEstimator
from repro.factorgraph import TreeBayesNet
from repro.sql import parse_query
from repro.sql.predicates import Comparison, TruePredicate
from repro.stats.discretize import Discretizer
from tests.conftest import build_toy_db
from tests.test_estimators import make_table


# -- references -----------------------------------------------------------------


def _conditional(bn, a, b):
    joint = (bn._joints[(a, b)] if (a, b) in bn._joints
             else bn._joints[(b, a)].T)
    row_sums = joint.sum(axis=1, keepdims=True)
    return np.divide(joint, row_sums, out=np.zeros_like(joint),
                     where=row_sums > 0)


def rerooted_marginal(bn, target, evidence):
    """One recursive upward pass rooted at ``target``."""
    def collect(node, parent):
        message = np.ones(bn.cardinalities[node])
        for nbr in bn._adjacency[node]:
            if nbr == parent:
                continue
            child_msg = collect(nbr, node)
            if nbr in evidence:
                child_msg = child_msg * evidence[nbr]
            message = message * (_conditional(bn, node, nbr) @ child_msg)
        return message

    result = bn._marginals[target] * collect(target, None)
    if target in evidence:
        result = result * evidence[target]
    return result


def brute_marginal(bn, target, evidence):
    """Sum of the tree distribution rooted at ``target`` (its marginal
    times every edge conditional, directed away from it) over all
    assignments, weighted by the evidence."""
    n, cards = bn.n_nodes, bn.cardinalities

    def along(matrix, axes):
        shape = [1] * n
        for axis, size in zip(axes, matrix.shape):
            shape[axis] = size
        order = np.argsort(axes)
        return matrix.transpose(order).reshape(shape)

    joint = np.broadcast_to(along(bn._marginals[target], [target]), cards)
    seen, frontier = {target}, [target]
    while frontier:
        node = frontier.pop()
        for nbr in bn._adjacency[node]:
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
                joint = joint * along(_conditional(bn, node, nbr),
                                      [node, nbr])
    for node, vec in evidence.items():
        joint = joint * along(vec, [node])
    other = tuple(axis for axis in range(n) if axis != target)
    return joint.sum(axis=other)


@st.composite
def networks(draw):
    """A fitted network over random codes (random tree shape through the
    data's dependencies and the root), soft evidence on a random subset
    of nodes, and a batch of new rows for ``partial_fit``."""
    n_nodes = draw(st.integers(1, 5))
    cards = draw(st.lists(st.integers(1, 4), min_size=n_nodes,
                          max_size=n_nodes))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    n_rows = draw(st.integers(1, 60))
    codes = np.stack([rng.integers(0, c, n_rows) for c in cards], axis=1)
    for j in range(1, n_nodes):  # couple some columns to earlier ones
        if rng.random() < 0.5:
            src = int(rng.integers(0, j))
            codes[:, j] = codes[:, src] % cards[j]
    bn = TreeBayesNet(smoothing=draw(st.sampled_from([0.1, 1.0]))).fit(
        codes, cards, root=int(rng.integers(0, n_nodes)))
    evidence = {}
    for node in range(n_nodes):
        if rng.random() < 0.5:
            vec = rng.random(cards[node])
            vec[rng.random(cards[node]) < 0.3] = 0.0
            evidence[node] = vec
    new_rows = np.stack([rng.integers(0, c, 7) for c in cards], axis=1)
    return bn, evidence, new_rows


class TestMessages:
    def check(self, bn, evidence):
        shared = bn.messages(evidence)
        for target in range(bn.n_nodes):
            got = shared.marginal(target)
            fresh = bn.marginal(target, evidence)
            assert got.tobytes() == fresh.tobytes()
            assert got.tobytes() == rerooted_marginal(
                bn, target, evidence).tobytes()
            np.testing.assert_allclose(
                got, brute_marginal(bn, target, evidence), rtol=1e-12)
        assert shared.probability() == bn.probability(evidence)
        if evidence:
            anchor = next(iter(evidence))
            assert bn.probability(evidence) == float(
                rerooted_marginal(bn, anchor, evidence).sum())

    @settings(max_examples=60, deadline=None)
    @given(networks())
    def test_shared_equals_fresh_and_brute_force(self, case):
        bn, evidence, new_rows = case
        self.check(bn, evidence)
        stale = bn.messages(evidence)
        bn.partial_fit(new_rows)
        assert stale.version != bn.version
        self.check(bn, evidence)

    def test_partial_fit_swaps_the_conditional_cache(self):
        codes = np.array([[0, 1], [1, 0], [1, 1]])
        bn = TreeBayesNet().fit(codes, [2, 2])
        bn.probability({1: np.array([1.0, 0.0])})
        before, version = bn._conditionals, bn.version
        bn.partial_fit(codes)
        assert bn._conditionals is not before
        assert bn.version == version + 1

    def test_cached_conditionals_are_read_only(self):
        codes = np.array([[0, 1], [1, 0], [1, 1]])
        bn = TreeBayesNet().fit(codes, [2, 2])
        bn.marginal(0, {1: np.array([1.0, 0.0])})
        assert bn._conditionals
        assert not any(c.flags.writeable for c in bn._conditionals.values())


# -- derived state on the served model ------------------------------------------


TOY_SQL = [
    "SELECT COUNT(*) FROM A a, B b WHERE a.id = b.aid AND a.x <= 2",
    "SELECT COUNT(*) FROM A a, B b, C c WHERE a.id = b.aid "
    "AND b.cid = c.id AND b.y = 1 AND c.z >= 1",
    "SELECT COUNT(*) FROM B b, C c WHERE b.cid = c.id AND b.y <= 2",
    "SELECT COUNT(*) FROM A a, B b, C c WHERE a.id = b.aid "
    "AND b.cid = c.id AND a.y = 3",
]


def toy_model(seed=0):
    db = build_toy_db(seed=seed, n_a=120, n_b=600, n_c=80)
    model = FactorJoin(FactorJoinConfig(n_bins=6,
                                        table_estimator="bayescard"))
    return db, model.fit(db)


def answers(model):
    return [model.estimate(parse_query(sql)) for sql in TOY_SQL]


def insert_batch(db, table, rows, seed):
    source = db.table(table)
    rng = np.random.default_rng(seed)
    return source.take(rng.integers(0, len(source), rows))


class TestDerivedStateNeverPickled:
    def test_serving_leaves_pickle_fingerprint_and_size(self):
        db, model = toy_model()
        blob = pickle.dumps(model)
        fingerprint, size = model.fingerprint(), model.model_size_bytes()
        answers(model)
        for name in db.table_names:  # a second pass hits every cache
            est = model.table_estimator(name)
            est.estimate_row_count(TruePredicate())
        answers(model)
        assert pickle.dumps(model) == blob
        assert model.fingerprint() == fingerprint
        assert model.model_size_bytes() == size
        _, fresh = toy_model()
        assert fresh.fingerprint() == fingerprint
        assert fresh.model_size_bytes() == size

    def test_loading_interns_attribute_names(self, tmp_path):
        # as pickle's default restore does; otherwise a process that only
        # unpickles (a cluster worker) holds private name strings, and
        # its model_size_bytes grows where names are shared across classes
        _, model = toy_model()
        answers(model)
        model.save(tmp_path / "m")
        script = (
            "import sys\n"
            "from repro.core.estimator import FactorJoin\n"
            "model = FactorJoin.load(sys.argv[1])\n"
            "for est in model._table_estimators.values():\n"
            "    for part in (est, est._bn, *est._discretizers.values()):\n"
            "        assert all(k is sys.intern(k) for k in vars(part))\n")
        subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "m")], check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})

    def test_reloaded_model_answers_identically(self):
        _, model = toy_model()
        served = answers(model)
        assert answers(pickle.loads(pickle.dumps(model))) == served

    def test_clone_for_update_shares_no_cache(self):
        db, model = toy_model()
        before = answers(model)
        clone = model.clone_for_update("B")
        assert clone._key_conditionals is not model._key_conditionals
        assert (clone.table_estimator("B")._bn._conditionals
                is not model.table_estimator("B")._bn._conditionals)
        clone.update("B", insert_batch(db, "B", 300, seed=1))
        assert answers(clone) != before
        assert answers(model) == before


class TestConcurrentUpdate:
    def test_no_stale_conditional_survives_the_swap(self):
        db, model = toy_model()
        answers(model)
        done = threading.Event()
        finals: dict[int, list[float]] = {}
        errors: list[BaseException] = []

        def reader(i):
            try:
                while not done.is_set():
                    answers(model)
                finals[i] = answers(model)
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for k in range(12):
                table = ("A", "B", "C")[k % 3]
                model.update(table, insert_batch(db, table, 40, seed=k))
            done.set()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        reference = answers(pickle.loads(pickle.dumps(model)))
        assert answers(model) == reference
        assert finals == {i: reference for i in range(4)}


class _CountingDict(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.stores = 0

    def __setitem__(self, key, value):
        self.stores += 1
        super().__setitem__(key, value)


class TestWorkCounts:
    def test_one_evidence_build_and_no_renormalization(self, monkeypatch):
        _, model = toy_model()
        # every alias's filter differs between the two queries, so each
        # base factor below misses its table's one-entry probe memo
        first, second = parse_query(TOY_SQL[1]), parse_query(TOY_SQL[3])
        probes = [(query, alias) for alias in ("b", "a", "c")
                  for query in (first, second)]
        for query, alias in probes:  # warm every cache
            model.base_factor(query, alias)
        builds = []
        original = BayesCardEstimator._evidence

        def counted(self, pred):
            builds.append(pred)
            return original(self, pred)

        monkeypatch.setattr(BayesCardEstimator, "_evidence", counted)
        nets = [model.table_estimator(t)._bn for t in ("A", "B", "C")]
        for bn in nets:
            bn._conditionals = _CountingDict(bn._conditionals)
        model._key_conditionals = _CountingDict(model._key_conditionals)
        # B's factor probes one row count plus two key distributions
        for query, alias in probes + probes:
            builds.clear()
            factor = model.base_factor(query, alias)
            assert len(builds) == 1
            if alias == "b":  # B's key-tree conditional is in play
                assert factor.conditionals
        assert [bn._conditionals.stores for bn in nets] == [0, 0, 0]
        assert model._key_conditionals.stores == 0


class TestReturnedArraysAreFresh:
    def test_mutating_a_key_distribution_changes_no_answer(self):
        table, schema, binnings = make_table(n=2000)
        est = BayesCardEstimator(seed=0).fit(table, schema, binnings)
        pred = Comparison("x", "<=", 2)
        first = est.key_distribution("k", pred)
        expected = first.copy()
        rows = est.estimate_row_count(pred)
        first[:] = -1.0
        assert est.key_distribution("k", pred).tobytes() == expected.tobytes()
        assert est.estimate_row_count(pred) == rows


class TestDiscretizerConstants:
    def test_evidence_weights_match_the_per_call_sums(self):
        rng = np.random.default_rng(3)
        table, _, _ = make_table(n=3000)
        column = table["y"]
        disc = Discretizer(column, max_codes=4)
        restored = pickle.loads(pickle.dumps(disc))
        for pred in (Comparison("y", "<=", int(v))
                     for v in rng.integers(0, 10, 6)):
            satisfied = evaluate_predicate(pred, disc._evidence_constants()[0])
            total = np.zeros(disc.n_value_codes)
            hit = np.zeros(disc.n_value_codes)
            np.add.at(total, disc._code_of_value, disc._counts)
            np.add.at(hit, disc._code_of_value, disc._counts * satisfied)
            with np.errstate(divide="ignore", invalid="ignore"):
                frac = np.where(total > 0, hit / total, 0.0)
            got = disc.evidence_weights(pred)
            assert got[: disc.n_value_codes].tobytes() == frac.tobytes()
            assert got.tobytes() == restored.evidence_weights(pred).tobytes()

    def test_pickle_holds_no_derived_field(self):
        table, _, _ = make_table(n=500)
        disc = Discretizer(table["x"])
        blob = pickle.dumps(disc)
        disc.evidence_weights(Comparison("x", "<=", 2))
        assert pickle.dumps(disc) == blob
