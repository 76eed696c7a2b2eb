"""Cartesian-free Lemma 4.6 bags: compile-time repair of nodes whose λ
atoms, restricted to χ, join as a Cartesian product.

Covers the repair itself (widening χ from a tree neighbour, χ-covered
atoms joined as filters, connected nodes untouched), the work it saves
on cyclic queries, and a hypothesis suite checking set answers,
``Engine.count`` and live views against naive evaluation over random
queries and the cycle / grid / hyperwheel / book families.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import Atom, Variable
from repro.core.hypertree import HypertreeDecomposition, node
from repro.core.parser import parse_query
from repro.core.query import ConjunctiveQuery
from repro.csp import from_query, solve_via_decomposition
from repro.db.database import Database
from repro.db.evaluate import evaluate, evaluate_boolean
from repro.db.naive import naive_join_eval
from repro.db.stats import EvalStats
from repro.engine import Engine, compile_plan, execute_plan
from repro.engine.plan import repair_cartesian
from repro.generators.families import (
    book_query,
    cycle_query,
    grid_query,
    hyperwheel_query,
    random_query,
)
from repro.generators.workloads import random_database, update_workload
from repro.heuristics.portfolio import decompose
from repro.heuristics.validate import is_valid_ghtd
from repro.incremental import LiveEngine

CYCLE4 = "ans(X, W) :- e(X, Y), e(Y, Z), e(Z, W), e(W, X)."
CYCLE5 = "ans(A, C) :- e(A, B), e(B, C), e(C, D), e(D, E), e(E, A)."


def regular_graph(nodes: int, degree: int, seed: int) -> Database:
    """*degree* random permutations of *nodes* vertices: at most
    ``nodes * degree`` edges, in- and out-degree *degree*."""
    rng = random.Random(seed)
    db = Database()
    db.declare("e", 2)
    for _ in range(degree):
        targets = list(range(nodes))
        rng.shuffle(targets)
        for source, target in enumerate(targets):
            db.add_fact("e", source, target)
    return db


def _e(a: str, b: str) -> Atom:
    return Atom("e", (Variable(a), Variable(b)))


def _with_head(query: ConjunctiveQuery, k: int = 2) -> ConjunctiveQuery:
    head = tuple(sorted(query.variables, key=lambda v: v.name)[:k])
    return query.with_head(head)


def _full(query: ConjunctiveQuery) -> ConjunctiveQuery:
    return query.with_head(
        tuple(sorted(query.variables, key=lambda v: v.name))
    )


class TestCyclicBagsStaySmall:
    @pytest.mark.parametrize("text", [CYCLE4, CYCLE5])
    def test_max_intermediate_and_answers(self, text):
        """Without the repair the width-2 bag of a 4- or 5-cycle is a
        Cartesian product of two edges (~29.6k rows on this graph)."""
        db = regular_graph(100, 3, seed=12)
        assert len(db.rows("e")) <= 300
        query = parse_query(text)
        stats = EvalStats()
        with Engine() as engine:
            result = engine.execute(query, db, stats=stats)
        assert stats.max_intermediate <= 3_000
        assert result.answer.rows == naive_join_eval(query, db).rows

    def test_evaluate_and_csp_route_through_the_plan(self):
        """``evaluate``, ``evaluate_boolean`` and the CSP solver compile
        the ``hypertree_width`` decomposition through the engine, so the
        repair reaches them too (without it: 88,804 rows on this graph)."""
        db = regular_graph(100, 3, seed=12)
        query = parse_query(CYCLE5)
        naive = naive_join_eval(query, db)

        stats = EvalStats()
        answer = evaluate(query, db, method="decomposition", stats=stats)
        assert stats.max_intermediate <= 3_000
        assert answer.rows == naive.rows

        stats = EvalStats()
        truth = evaluate_boolean(
            query, db, method="decomposition", stats=stats
        )
        assert stats.max_intermediate <= 3_000
        assert truth == bool(naive)

        csp = from_query(query, db)
        stats = EvalStats()
        solution = solve_via_decomposition(csp, stats=stats)
        assert stats.max_intermediate <= 3_000
        assert solution is not None and csp.check(solution)


class TestRepair:
    def test_widens_chi_when_filters_cannot_connect(self):
        """χ(p) = {X1, X2, X3} with λ(p) = {e(X1,X2), e(X3,X4)} joins
        as a Cartesian product of {X1, X2} and {X3}, and no query atom
        inside χ(p) links them.  The child holds X4, whose addition
        χ-covers e(X3,X4) and e(X4,X1): χ(p) widens to all four
        variables and e(X4,X1) joins as a filter."""
        a, c, d = _e("X1", "X2"), _e("X3", "X4"), _e("X4", "X1")
        query = ConjunctiveQuery((a, c, d), (), "p3")
        child = node({"X1", "X3", "X4"}, {c, d})
        hd = HypertreeDecomposition(
            query, node({"X1", "X2", "X3"}, {a, c}, child)
        )
        assert is_valid_ghtd(hd) and hd.is_complete

        repaired, filters = repair_cartesian(hd)
        root, kid = repaired.nodes
        assert root.chi == query.variables
        assert filters == {0: (d,)}
        assert kid.chi == child.chi
        assert [n.lam for n in repaired.nodes] == [n.lam for n in hd.nodes]
        assert is_valid_ghtd(repaired)
        assert repaired.width == hd.width == 2

        db = regular_graph(30, 3, seed=1)
        plan = compile_plan(query.with_head((Variable("X1"),)), db, hd)
        assert plan.decomposition.nodes[0].chi == query.variables
        assert set(plan.node_plans[0].join_order) == {a, c, d}
        assert (
            execute_plan(plan, db).rows
            == naive_join_eval(plan.query, db).rows
        )

    def test_covered_atoms_alone_connect_without_widening(self):
        """The same node in a 4-cycle: e(X2,X3) lies inside χ(p) and
        links both groups, so χ(p) stays as it is — widening would make
        the bag the whole cycle, a costlier join than a 2-path."""
        a, b, c, d = (
            _e("X1", "X2"), _e("X2", "X3"), _e("X3", "X4"), _e("X4", "X1")
        )
        query = ConjunctiveQuery((a, b, c, d), (), "c4")
        child = node({"X1", "X3", "X4"}, {c, d})
        hd = HypertreeDecomposition(
            query, node({"X1", "X2", "X3"}, {a, c}, child)
        ).complete()
        repaired, filters = repair_cartesian(hd)
        assert [n.chi for n in repaired.nodes] == [n.chi for n in hd.nodes]
        assert filters == {0: (b,)}

        db = regular_graph(30, 3, seed=1)
        plan = compile_plan(query.with_head((Variable("X1"),)), db, hd)
        assert (
            execute_plan(plan, db).rows
            == naive_join_eval(plan.query, db).rows
        )

    @pytest.mark.parametrize(
        "text",
        [
            "ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).",
            "ans(X, W) :- e(X, Y), e(Y, Z), e(Z, W).",
            "ans(X) :- e(X, A), e(X, B), e(X, C).",
        ],
    )
    def test_connected_nodes_are_untouched(self, text):
        query = parse_query(text)
        hd = decompose(query).decomposition.complete()
        repaired, filters = repair_cartesian(hd)
        assert repaired is hd
        assert filters == {}

    def test_plan_depends_only_on_query_and_decomposition(self):
        """The repair reads no data: the same decomposition compiles to
        the same χ labels and join-order atoms against any database."""
        query = parse_query(CYCLE4)
        hd = decompose(query).decomposition
        dbs = [None, regular_graph(50, 3, seed=2), regular_graph(9, 2, seed=5)]
        plans = [compile_plan(query, db, hd) for db in dbs]
        shapes = {
            tuple(
                (np.chi_names, frozenset(np.join_order))
                for np in plan.node_plans
            )
            for plan in plans
        }
        assert len(shapes) == 1


FAMILIES = [
    cycle_query(4),
    cycle_query(5),
    cycle_query(6),
    grid_query(3),
    hyperwheel_query(4, 3),
    hyperwheel_query(5, 4),
    book_query(2),
    book_query(3),
]


def queries():
    """Random queries plus the cyclic families, each with a two-variable
    head."""
    randoms = st.builds(
        random_query,
        n_atoms=st.integers(min_value=2, max_value=6),
        n_variables=st.integers(min_value=3, max_value=6),
        max_arity=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    return st.one_of(randoms, st.sampled_from(FAMILIES)).map(_with_head)


def database_for(query: ConjunctiveQuery, seed: int) -> Database:
    return random_database(
        query, domain_size=3, tuples_per_relation=7, seed=seed,
        plant_answer=seed % 2 == 0,
    )


class TestAgainstNaive:
    @settings(max_examples=40, deadline=None)
    @given(query=queries(), seed=st.integers(0, 1_000))
    def test_answers_and_count(self, query, seed):
        db = database_for(query, seed)
        with Engine() as engine:
            answer = engine.execute(query, db).answer
            count = engine.count(query, db)
        assert answer.rows == naive_join_eval(query, db).rows
        # Distinct atoms: derivations are the satisfying substitutions.
        assert count == len(naive_join_eval(_full(query), db))

    @settings(max_examples=25, deadline=None)
    @given(query=queries(), seed=st.integers(0, 1_000))
    def test_live_view_after_random_deltas(self, query, seed):
        db = database_for(query, seed)
        stream = update_workload(
            db, n_batches=4, batch_size=6, delete_ratio=0.4, seed=seed + 1
        )
        with LiveEngine(db=db) as live:
            handle = live.register(query)
            for delta in [None, *stream]:
                if delta is not None:
                    live.apply(delta)
                assert (
                    handle.answers().rows
                    == naive_join_eval(query, live.db).rows
                ), delta

    @settings(max_examples=40, deadline=None)
    @given(query=queries())
    def test_repaired_decomposition_is_a_ghtd_of_equal_width(self, query):
        hd = decompose(query).decomposition
        plan = compile_plan(query, None, hd)
        assert is_valid_ghtd(plan.decomposition)
        assert plan.decomposition.width == hd.width == plan.width


@pytest.mark.parametrize("query", FAMILIES, ids=lambda q: q.name)
def test_families_repair_stays_valid(query):
    """Every family member's compiled decomposition is a GHTD of the
    same width, whether or not any node needed repair."""
    hd = decompose(query).decomposition
    repaired, _ = repair_cartesian(hd.complete())
    assert is_valid_ghtd(repaired)
    assert repaired.width == hd.width
