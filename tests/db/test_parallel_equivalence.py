"""Property suite: the sharded Yannakakis driver ≡ the naive join.

The naive join is the independent oracle; the one-shard run of the same
driver is the sequential reference.  For every database, query family
(path / star / cyclic), *execution backend* (inline / thread pool /
worker processes) and shard count in {1, 2, 7}:

* ``boolean_eval`` agrees with the naive join's truth value,
* ``full_reduce`` leaves each node exactly the projection of the naive
  full join onto that node's attributes,
* ``enumerate_answers`` agrees with the naive answers,
* every shard count agrees with the one-shard run,
* the engine's backend selection agrees with the sequential engine
  (which is how cyclic queries are covered: they evaluate through the
  Lemma 4.6 bag transform, not a direct join tree),
* and ``full_reduce`` is idempotent, sequential and sharded alike.

Backends are shared module-scoped (a process pool per hypothesis example
would dominate the suite's runtime); the process backend runs with 2
workers so owner routing and cross-worker gather are both exercised.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acyclicity import join_tree
from repro.core.atoms import Atom, Variable
from repro.core.query import ConjunctiveQuery
from repro.db import (
    ProcessBackend,
    SequentialBackend,
    ThreadBackend,
    bind_atom,
    boolean_eval,
    enumerate_answers,
    full_reduce,
    naive_join_eval,
)
from repro.engine import Engine
from repro.generators.families import cycle_query, path_query
from repro.generators.workloads import random_database

SHARD_COUNTS = (1, 2, 7)
BACKEND_KINDS = ("sequential", "thread", "process")


@pytest.fixture(scope="module")
def contexts():
    ctxs = {
        "sequential": SequentialBackend(),
        "thread": ThreadBackend(workers=4),
        "process": ProcessBackend(workers=2),
    }
    yield ctxs
    for ctx in ctxs.values():
        ctx.close()


def star_query(n: int) -> ConjunctiveQuery:
    """``e(C, X1), ..., e(C, Xn)`` — one hub, n rays (acyclic)."""
    body = tuple(
        Atom("e", (Variable("C"), Variable(f"X{i}"))) for i in range(1, n + 1)
    )
    return ConjunctiveQuery(body, (), f"star_{n}")


def _with_head(query: ConjunctiveQuery, k: int = 2) -> ConjunctiveQuery:
    head = tuple(sorted(query.variables, key=lambda v: v.name)[:k])
    return query.with_head(head)


def _tree_and_relations(query, db):
    tree = join_tree(query)
    return tree, {a: bind_atom(a, db) for a in query.atoms}


def _counts(tree, shards: int) -> dict:
    return {node: shards for node in tree.nodes}


def _oracle(query, db, tree, rels):
    """The naive join's answers, truth value, and per-node projections
    of the full join (what the full reducer must leave at each node)."""
    full = naive_join_eval(
        query.with_head(sorted(query.variables, key=lambda v: v.name)), db
    )
    reduced = {
        node: full.project(list(rels[node].attributes)).rows
        for node in tree.nodes
    }
    return naive_join_eval(query, db).rows, bool(full), reduced


class TestKernelEquivalence:
    """Direct join-tree level equivalence on acyclic families."""

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 4),
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 12),
        tuples=st.integers(1, 40),
    )
    def test_path_all_passes(self, n, seed, domain, tuples):
        query = _with_head(path_query(n))
        db = random_database(query, domain, tuples, seed=seed)
        tree, rels = _tree_and_relations(query, db)
        output = tuple(v.name for v in query.head_terms)

        answers, truth, naive_reduced = _oracle(query, db, tree, rels)
        seq_bool = boolean_eval(tree, dict(rels))
        seq_reduced = full_reduce(tree, dict(rels))
        seq_answers = enumerate_answers(tree, dict(rels), output)
        assert seq_bool == truth
        assert seq_answers.rows == answers
        for node in tree.nodes:
            assert seq_reduced[node].rows == naive_reduced[node]
        for shards in SHARD_COUNTS:
            counts = _counts(tree, shards)
            assert (
                boolean_eval(tree, dict(rels), shard_counts=counts)
                == seq_bool
            )
            par_reduced = full_reduce(tree, dict(rels), shard_counts=counts)
            for node in tree.nodes:
                assert par_reduced[node].rows == seq_reduced[node].rows
            assert (
                enumerate_answers(
                    tree, dict(rels), output, shard_counts=counts
                ).rows
                == seq_answers.rows
            )

    @settings(max_examples=20, deadline=None)
    @given(
        rays=st.integers(2, 5),
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 10),
        tuples=st.integers(1, 30),
    )
    def test_star_all_passes(self, rays, seed, domain, tuples):
        query = _with_head(star_query(rays))
        db = random_database(query, domain, tuples, seed=seed)
        tree, rels = _tree_and_relations(query, db)
        output = tuple(v.name for v in query.head_terms)

        answers, truth, _ = _oracle(query, db, tree, rels)
        seq_answers = enumerate_answers(tree, dict(rels), output)
        seq_bool = boolean_eval(tree, dict(rels))
        assert seq_bool == truth
        assert seq_answers.rows == answers
        for shards in SHARD_COUNTS:
            counts = _counts(tree, shards)
            assert (
                boolean_eval(tree, dict(rels), shard_counts=counts)
                == seq_bool
            )
            assert (
                enumerate_answers(
                    tree, dict(rels), output, shard_counts=counts
                ).rows
                == seq_answers.rows
            )

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(2, 4),
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 10),
        tuples=st.integers(1, 30),
        shards=st.sampled_from(SHARD_COUNTS),
    )
    def test_full_reduce_idempotent(self, n, seed, domain, tuples, shards):
        query = path_query(n)
        db = random_database(query, domain, tuples, seed=seed)
        tree, rels = _tree_and_relations(query, db)

        _, _, naive_reduced = _oracle(query, db, tree, rels)
        once = full_reduce(tree, dict(rels))
        twice = full_reduce(tree, dict(once))
        for node in tree.nodes:
            assert once[node].rows == naive_reduced[node]
            assert twice[node].rows == once[node].rows

        counts = _counts(tree, shards)
        par_once = full_reduce(tree, dict(rels), shard_counts=counts)
        par_twice = full_reduce(tree, dict(par_once), shard_counts=counts)
        for node in tree.nodes:
            assert par_once[node].rows == once[node].rows
            assert par_twice[node].rows == once[node].rows


@pytest.mark.parametrize("kind", BACKEND_KINDS)
class TestBackendEquivalence:
    """All three Yannakakis passes agree with the sequential oracle on
    every backend — the sequential/thread/process implementations of the
    shard-operator vocabulary must be indistinguishable."""

    @settings(max_examples=8, deadline=None)
    @given(
        n=st.integers(2, 4),
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 12),
        tuples=st.integers(1, 40),
    )
    def test_path_all_passes(self, contexts, kind, n, seed, domain, tuples):
        ctx = contexts[kind]
        query = _with_head(path_query(n))
        db = random_database(query, domain, tuples, seed=seed)
        tree, rels = _tree_and_relations(query, db)
        output = tuple(v.name for v in query.head_terms)

        answers, truth, naive_reduced = _oracle(query, db, tree, rels)
        for shards in (2, 5):
            counts = _counts(tree, shards)
            assert (
                boolean_eval(
                    tree, dict(rels), backend=ctx, shard_counts=counts
                )
                == truth
            )
            par_reduced = full_reduce(
                tree, dict(rels), backend=ctx, shard_counts=counts
            )
            for node in tree.nodes:
                assert par_reduced[node].rows == naive_reduced[node]
            assert (
                enumerate_answers(
                    tree, dict(rels), output, backend=ctx, shard_counts=counts
                ).rows
                == answers
            )

    @settings(max_examples=8, deadline=None)
    @given(
        rays=st.integers(2, 5),
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 10),
        tuples=st.integers(1, 30),
    )
    def test_star_all_passes(self, contexts, kind, rays, seed, domain, tuples):
        ctx = contexts[kind]
        query = _with_head(star_query(rays))
        db = random_database(query, domain, tuples, seed=seed)
        tree, rels = _tree_and_relations(query, db)
        output = tuple(v.name for v in query.head_terms)

        answers, truth, _ = _oracle(query, db, tree, rels)
        counts = _counts(tree, 3)
        assert (
            boolean_eval(tree, dict(rels), backend=ctx, shard_counts=counts)
            == truth
        )
        assert (
            enumerate_answers(
                tree, dict(rels), output, backend=ctx, shard_counts=counts
            ).rows
            == answers
        )

    def test_skewed_database_all_passes(self, contexts, kind):
        """Heavy-hitter spreading composes with every backend: 90% of
        edge tuples share one join-key value."""
        ctx = contexts[kind]
        query = _with_head(path_query(3))
        rows = [(1, j % 9) for j in range(450)]
        rows += [(2 + j % 37, j % 11) for j in range(50)]
        from repro.db import Database

        db = Database.from_relations({"e": rows})
        tree, rels = _tree_and_relations(query, db)
        output = tuple(v.name for v in query.head_terms)
        seq_answers = enumerate_answers(tree, dict(rels), output)
        assert seq_answers.rows == naive_join_eval(query, db).rows
        assert (
            enumerate_answers(
                tree, dict(rels), output, backend=ctx,
                shard_counts=_counts(tree, 4),
            ).rows
            == seq_answers.rows
        )

    def test_engine_equivalence_forced_sharding(self, contexts, kind):
        """Engine-level agreement with sharding forced on tiny data
        (shard_threshold=0), covering the cyclic bag-transform path."""
        del contexts  # engine owns its backends; fixture only orders teardown
        query = _with_head(cycle_query(4))
        db = random_database(query, 6, 40, seed=11, plant_answer=True)
        seq = Engine(mode="heuristic").execute(query, db)
        assert seq.answer.rows == naive_join_eval(query, db).rows
        with Engine(
            mode="heuristic", backend=kind, backend_workers=2,
            shard_threshold=0,
        ) as engine:
            result = engine.execute(query, db)
        assert result.answer.rows == seq.answer.rows
        assert result.answer.attributes == seq.answer.attributes


class TestEngineEquivalence:
    """End-to-end ``Engine.execute`` equivalence, covering the cyclic
    family (which evaluates through decomposition bags, not a direct
    join tree)."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 8),
        tuples=st.integers(1, 30),
    )
    def test_cycle_engine_parallel_equivalence(self, seed, domain, tuples):
        query = _with_head(cycle_query(4))
        db = random_database(query, domain, tuples, seed=seed)
        seq = Engine(mode="heuristic", backend="sequential").execute(query, db)
        assert seq.answer.rows == naive_join_eval(query, db).rows
        for shards in (2, 7):
            par = Engine(
                mode="heuristic",
                backend="thread",
                backend_workers=shards,
                shard_threshold=0,
            ).execute(query, db)
            assert par.answer.rows == seq.answer.rows
            assert par.answer.attributes == seq.answer.attributes

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 10),
        tuples=st.integers(1, 40),
    )
    def test_path_engine_parallel_equivalence(self, seed, domain, tuples):
        query = _with_head(path_query(3))
        db = random_database(query, domain, tuples, seed=seed)
        seq = Engine(mode="heuristic", backend="sequential").execute(query, db)
        assert seq.answer.rows == naive_join_eval(query, db).rows
        for shards in (2, 7):
            par = Engine(
                mode="heuristic",
                backend="thread",
                backend_workers=shards,
                shard_threshold=0,
            ).execute(query, db)
            assert par.answer.rows == seq.answer.rows

    def test_boolean_cycle_parallel(self):
        query = cycle_query(4)
        db = random_database(query, 6, 40, seed=5, plant_answer=True)
        for shards in (2, 7):
            result = Engine(
                mode="heuristic",
                backend="thread",
                backend_workers=shards,
                shard_threshold=0,
            ).execute(query, db)
            assert result.boolean is True
