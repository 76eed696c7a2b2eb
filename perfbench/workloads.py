"""Seeded inputs of the four workloads: shapes, databases, delta streams.

Everything here is a function of ``(workload seed, size)`` only -- the
same seed gives the same databases, queries and deltas under any
``PYTHONHASHSEED`` (generation iterates in sorted order and draws from
``random.Random(seed)``).  The program under test receives only these
generated inputs.

``size="full"`` is what the benchmark measures; ``size="tiny"`` is the
smoke test's scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import parse_query
from repro.core.query import ConjunctiveQuery
from repro.db.database import Database
from repro.generators.families import (
    book_query,
    clique_query,
    cycle_query,
    grid_query,
    hyperwheel_query,
    random_query,
)
from repro.generators.paper_queries import q1, q2, q3, q4, q5, qn
from repro.generators.workloads import random_database, university_database
from repro.incremental.delta import Delta

#: Per-size parameters.  "full" is the measured scale, "tiny" the smoke
#: test's.
SIZES = {
    "full": {
        "small_nodes": 100, "degree": 3,
        "uni_persons": 150, "uni_courses": 30, "uni_enrolled": 300,
        "uni_teaching": 60,
        "large_nodes": 100,
        "zipf_edges": 170, "zipf_nodes": 250, "zipf_s": 1.0,
        "cold_domain": 3, "cold_tuples": 6, "cold_random": 8,
    },
    "tiny": {
        "small_nodes": 15, "degree": 3,
        "uni_persons": 20, "uni_courses": 6, "uni_enrolled": 30,
        "uni_teaching": 8,
        "large_nodes": 20,
        "zipf_edges": 60, "zipf_nodes": 40, "zipf_s": 1.0,
        "cold_domain": 2, "cold_tuples": 4, "cold_random": 2,
    },
}


@dataclass(frozen=True)
class Shape:
    """One query shape with the database it runs against."""

    query: ConjunctiveQuery
    db: Database


# -- databases -------------------------------------------------------------
# Both graph generators fix the degree sequence and randomise only which
# endpoints meet, so the work a query does varies little from seed to
# seed while the answers still differ.
def regular_graph(
    predicate: str, nodes: int, degree: int, rng: random.Random,
    db: Database | None = None,
) -> Database:
    """A uniform digraph: *degree* random permutations of the vertices,
    so (up to the odd duplicate) every vertex has in- and out-degree
    *degree*."""
    db = db if db is not None else Database()
    db.declare(predicate, 2)
    for _ in range(degree):
        targets = list(range(nodes))
        rng.shuffle(targets)
        for source, target in enumerate(targets):
            db.add_fact(predicate, source, target)
    return db


def zipf_graph(
    predicate: str, edges: int, nodes: int, s: float, rng: random.Random,
    db: Database | None = None,
) -> Database:
    """A skewed digraph: vertex v has in- and out-degree ∝ 1/(v+1)^s
    (at least 1), paired at random, so low-numbered vertices are hubs in
    both directions (``random_database`` is uniform only)."""
    db = db if db is not None else Database()
    db.declare(predicate, 2)
    weights = [1.0 / (v + 1) ** s for v in range(nodes)]
    scale = edges / sum(weights)
    sources = [
        v for v, w in enumerate(weights) for _ in range(max(1, round(scale * w)))
    ]
    targets = list(sources)
    rng.shuffle(targets)
    for source, target in zip(sources, targets):
        db.add_fact(predicate, source, target)
    return db


def copy_graph(db: Database, predicate: str) -> Database:
    """A database holding only *predicate*'s rows of *db*."""
    out = Database()
    out.declare(predicate, db.arity(predicate))
    for row in sorted(db.rows(predicate)):
        out.add_fact(predicate, *row)
    return out


# -- shapes ----------------------------------------------------------------
def _q(text: str, name: str) -> ConjunctiveQuery:
    return parse_query(text, name=name)


def small_shapes(seed: int, size: str) -> list[Shape]:
    """2-/3-path, 3-star and triangle over a few hundred edges, and the
    paper's Q1/Q2 over the Example 1.1 university schema -- one shared
    database holds both."""
    p = SIZES[size]
    rng = random.Random(seed)
    db = university_database(
        n_persons=p["uni_persons"], n_courses=p["uni_courses"],
        n_enrollments=p["uni_enrolled"], n_teaching=p["uni_teaching"],
        parent_teacher_pairs=3, seed=rng.randrange(2**31),
    )
    regular_graph("e", p["small_nodes"], p["degree"], rng, db)
    queries = [
        _q("ans(X, Z) :- e(X, Y), e(Y, Z).", "path2"),
        _q("ans(X, W) :- e(X, Y), e(Y, Z), e(Z, W).", "path3"),
        _q("ans(X) :- e(X, A), e(X, B), e(X, C).", "star3"),
        _q("ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).", "triangle"),
        q1(),
        q2(),
    ]
    return [Shape(q, db) for q in queries]


def large_shapes(seed: int, size: str) -> list[Shape]:
    """Cyclic shapes over a uniform graph (Lemma 4.6 bags dominate) and
    acyclic/cyclic shapes over a Zipf-skewed graph (enumeration
    dominates)."""
    p = SIZES[size]
    rng = random.Random(seed)
    db = regular_graph("e", p["large_nodes"], p["degree"], rng)
    zipf_graph("z", p["zipf_edges"], p["zipf_nodes"], p["zipf_s"], rng, db)
    queries = [
        _q("ans(X, W) :- e(X, Y), e(Y, Z), e(Z, W), e(W, X).", "cycle4"),
        _q("ans(A, C) :- e(A, B), e(B, C), e(C, D), e(D, E), e(E, A).",
           "cycle5"),
        _q("ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).", "triangle"),
        _q("ans(A, E) :- z(A, B), z(B, C), z(C, D), z(D, E).", "zipf_path4"),
        _q("ans(X, Y, Z) :- z(X, Y), z(Y, Z), z(Z, X).", "zipf_triangle"),
    ]
    return [Shape(q, db) for q in queries]


def cold_shapes(seed: int, size: str) -> list[Shape]:
    """The decomposition corpus: paper Q1-Q5 and Qn, cycles 4-8, K4/K5,
    the 3x3 grid, hyperwheels, books and seeded random queries, each
    over its own tiny planted database."""
    p = SIZES[size]
    rng = random.Random(seed)
    queries = [q1(), q2(), q3(), q4(), q5(), qn(3), qn(5)]
    queries += [cycle_query(n) for n in range(4, 9)]
    queries += [clique_query(4), clique_query(5), grid_query(3)]
    queries += [hyperwheel_query(5, 4), hyperwheel_query(6, 3)]
    queries += [book_query(3), book_query(4)]
    # The random shapes are the same for every seed (their search cost
    # varies widely, and a per-seed draw would move the mix); the seed
    # draws the databases.
    queries += [random_query(6, 6, seed=k) for k in range(p["cold_random"])]
    return [
        Shape(
            q,
            random_database(
                q, p["cold_domain"], p["cold_tuples"],
                seed=rng.randrange(2**31), plant_answer=True,
            ),
        )
        for q in queries
    ]


def shapes_for(workload: str, seed: int, size: str) -> list[Shape]:
    if workload in ("small-warm", "serve-rw"):
        return small_shapes(seed, size)
    if workload == "large-join":
        return large_shapes(seed, size)
    if workload == "plan-cold":
        return cold_shapes(seed, size)
    raise ValueError(f"unknown workload {workload!r}")


def write_db(workload: str, shapes: list[Shape], seed: int, size: str) -> Database:
    """The graph the workload's delta stream is drawn against: its own
    ``e`` relation, except plan-cold (whose databases are tiny), which
    writes to a small-warm-sized graph."""
    if workload == "plan-cold":
        return copy_graph(small_shapes(seed, size)[0].db, "e")
    return copy_graph(shapes[0].db, "e")


def delta_stream(db: Database, n_batches: int, seed: int) -> list[Delta]:
    """Signed 8-change batches against *db*'s one binary relation ``e``:
    each deletes four present edges and inserts four absent ones (drawn
    over the active domain), so the relation keeps its size exactly over
    the run.  (``update_workload`` draws each change's sign at random,
    so the size random-walks by tens of percent over a run and the cost
    of a write drifts with the seed.)"""
    rng = random.Random(seed)
    rows = sorted(db.rows("e"))
    present = set(rows)
    domain = sorted(db.universe)
    batches = []
    for _ in range(n_batches):
        ops = []
        for _ in range(4):
            i = rng.randrange(len(rows))
            row = rows[i]
            rows[i] = rows[-1]
            rows.pop()
            present.discard(row)
            ops.append(("e", row, -1))
        deleted = {row for _, row, _ in ops}
        inserted = 0
        while inserted < 4:
            row = (rng.choice(domain), rng.choice(domain))
            if row in present or row in deleted:
                continue
            rows.append(row)
            present.add(row)
            ops.append(("e", row, 1))
            inserted += 1
        batches.append(Delta.from_changes(ops))
    return batches
