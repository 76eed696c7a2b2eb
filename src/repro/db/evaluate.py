"""Decomposition-guided query evaluation (Lemma 4.6, Theorems 4.7/4.8).

Lemma 4.6 turns a query ``Q`` with a width-k hypertree decomposition into
an *acyclic* query ``Q′`` over a derived database ``DB′`` together with a
join tree ``JT``:

* complete the decomposition (Lemma 4.4);
* for each node ``p``: join, for every ``A ∈ λ(p)``, the relation of ``A``
  projected onto ``var(A) ∩ χ(p)``; project the result onto ``χ(p)``.
  This is the fresh relation of a fresh atom over ``χ(p)``;
* the tree of fresh atoms mirrors ``T`` and is a join tree of ``Q′``
  (χ-connectedness becomes the join-tree connectedness condition).

Each node relation is a join of ≤ k database relations, so
``‖⟨Q′, DB′, JT⟩‖ = O((‖Q‖ + ‖HD‖) · r^k)`` — measured empirically by
experiment E08.  Evaluation then runs Yannakakis on ``JT``: Boolean
(Theorem 4.7 / Corollary 5.19) or output-polynomial enumeration
(Theorem 4.8 / Corollary 5.20).

The decomposition method compiles through the engine: the
decomposition becomes a :func:`repro.engine.plan.compile_plan` plan
(Cartesian repair, per-bag join order, re-rooted join tree) run by
:func:`repro.engine.plan.execute_plan`, and :func:`lemma46_transform`
returns that plan's bags.  The naive and backtracking methods share no
code with it and serve as its oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from .._errors import EvaluationError
from ..core.acyclicity import join_tree as build_join_tree
from ..core.atoms import Atom, Variable
from ..core.detkdecomp import hypertree_width
from ..core.hypertree import HTNode, HypertreeDecomposition
from ..core.jointree import JoinTree
from ..core.query import ConjunctiveQuery
from .annotated import (
    AnnotatedRelation,
    bind_atom_annotated,
    naive_annotated_eval,
)
from .binding import BoundQuery
from .database import Database
from .naive import backtracking_eval, naive_boolean_eval, naive_join_eval
from .relation import Relation
from .semiring import Semiring
from .stats import EvalStats
from .yannakakis import boolean_eval, enumerate_answers

Method = Literal["decomposition", "yannakakis", "naive", "backtracking"]


@dataclass
class Lemma46Result:
    """The transformed triple ``⟨Q′, DB′, JT⟩`` plus size accounting."""

    qprime: ConjunctiveQuery
    jt: JoinTree
    relations: dict[Atom, Relation]
    node_of_atom: dict[Atom, HTNode]
    stats: EvalStats = field(default_factory=EvalStats)

    def size(self) -> int:
        """``‖⟨Q′, DB′, JT⟩‖``: value occurrences in DB′ plus atom sizes of
        Q′ and JT (the units of the Lemma 4.6 bound)."""
        db_size = sum(len(r) * max(1, r.arity) for r in self.relations.values())
        query_size = sum(1 + a.arity for a in self.qprime.atoms)
        tree_size = 2 * len(self.jt.nodes)
        return db_size + query_size + tree_size

    def database(self) -> Database:
        """DB′ as a standalone :class:`Database` (one relation per node)."""
        db = Database()
        for atom, rel in self.relations.items():
            for row in rel.rows:
                db.add_fact(atom.predicate, *row)
            if not rel.rows:
                # Preserve the (empty) relation's existence and arity.
                db._arities.setdefault(atom.predicate, rel.arity)
                db._relations.setdefault(atom.predicate, set())
        return db


def lemma46_transform(
    query: ConjunctiveQuery,
    db: Database,
    hd: HypertreeDecomposition,
    stats: EvalStats | None = None,
) -> Lemma46Result:
    """Construct ``⟨Q′, DB′, JT⟩`` from ``⟨Q, DB, HD⟩`` (Lemma 4.6).

    The engine's plan is the construction: :func:`compile_plan` completes
    and repairs *hd* and orders each node's joins, and
    :func:`materialise_bags` builds the node relations.  ``JT`` is the
    plan's join tree (mirroring the decomposition, rooted at the
    largest estimated bag)."""
    from ..engine.plan import compile_plan, materialise_bags

    stats = stats if stats is not None else EvalStats()
    plan = compile_plan(query, db, hd)
    relations = materialise_bags(plan, db, stats)
    bags = tuple(np.bag for np in plan.node_plans)
    qprime = ConjunctiveQuery(bags, query.head_terms, f"{query.name}'")
    node_of_atom = dict(zip(bags, plan.decomposition.nodes))
    return Lemma46Result(qprime, plan.join_tree, relations, node_of_atom, stats)


def _via_plan(
    query: ConjunctiveQuery,
    db: Database,
    hd: HypertreeDecomposition | None,
    stats: EvalStats,
    semiring: Semiring | None = None,
) -> Relation:
    """The decomposition method: compile *hd* (by default the
    :func:`~repro.core.detkdecomp.hypertree_width` decomposition) into
    an engine plan and execute it."""
    from ..engine.plan import compile_plan, execute_plan

    if hd is None:
        _, hd = hypertree_width(query.as_boolean())
    plan = compile_plan(query, db, hd)
    return execute_plan(plan, db, stats, semiring=semiring)


def evaluate_boolean(
    query: ConjunctiveQuery,
    db: Database,
    method: Method = "decomposition",
    hd: HypertreeDecomposition | None = None,
    stats: EvalStats | None = None,
) -> bool:
    """Evaluate a Boolean conjunctive query.

    Methods
    -------
    ``"decomposition"``
        The paper's pipeline: hypertree decomposition (computed with
        :func:`~repro.core.detkdecomp.hypertree_width` when *hd* is not
        supplied) → engine plan (Lemma 4.6 bags) → Boolean Yannakakis.
    ``"yannakakis"``
        Direct Yannakakis; requires the query to be acyclic.
    ``"naive"`` / ``"backtracking"``
        The baselines of :mod:`repro.db.naive`.
    """
    stats = stats if stats is not None else EvalStats()
    query = query.as_boolean()
    if not query.atoms:
        return True
    if method == "naive":
        return naive_boolean_eval(query, db, stats)
    if method == "backtracking":
        return backtracking_eval(query, db, stats)
    if method == "yannakakis":
        jt = build_join_tree(query)
        if jt is None:
            raise EvaluationError(
                "method 'yannakakis' requires an acyclic query; "
                f"{query.name} is cyclic"
            )
        bound = BoundQuery.bind(query, db)
        return boolean_eval(jt, bound.relations, stats)
    if method == "decomposition":
        return bool(_via_plan(query, db, hd, stats))
    raise ValueError(f"unknown evaluation method {method!r}")


def evaluate(
    query: ConjunctiveQuery,
    db: Database,
    method: Method = "decomposition",
    hd: HypertreeDecomposition | None = None,
    stats: EvalStats | None = None,
    semiring: Semiring | None = None,
) -> Relation:
    """Evaluate a (possibly non-Boolean) conjunctive query to its answer
    relation (Theorem 4.8 for the decomposition method).

    With a *semiring* the result is an
    :class:`~repro.db.annotated.AnnotatedRelation` whose rows carry
    provenance-semiring values (derivation counts, minimal costs,
    witness sets, probabilities — per the chosen algebra).  Set
    semantics (``semiring=None``) runs the untouched plain pipeline.
    """
    stats = stats if stats is not None else EvalStats()
    head = tuple(
        dict.fromkeys(
            t.name for t in query.head_terms if isinstance(t, Variable)
        )
    )
    if not query.atoms:
        if semiring is not None:
            rows = frozenset({()} if not head else ())
            return AnnotatedRelation.make(
                head, rows, "ans", semiring,
                dict.fromkeys(rows, semiring.one),
            )
        return Relation(head, frozenset({()} if not head else ()), "ans")
    if method == "naive":
        if semiring is not None:
            return naive_annotated_eval(query, db, semiring, stats)
        return naive_join_eval(query, db, stats)
    if method == "backtracking":
        if semiring is not None:
            # Backtracking enumerates rows, not derivations; annotated
            # semantics routes to the always-correct naive join.
            return naive_annotated_eval(query, db, semiring, stats)
        from .naive import backtracking_answers

        return backtracking_answers(query, db, stats)
    if method == "yannakakis":
        jt = build_join_tree(query)
        if jt is None:
            raise EvaluationError(
                "method 'yannakakis' requires an acyclic query; "
                f"{query.name} is cyclic"
            )
        if semiring is not None:
            relations: dict[Atom, Relation] = {
                a: bind_atom_annotated(a, db, semiring)
                for a in dict.fromkeys(query.atoms)
            }
            return enumerate_answers(jt, relations, head, stats)
        bound = BoundQuery.bind(query, db)
        return enumerate_answers(jt, bound.relations, head, stats)
    if method == "decomposition":
        return _via_plan(query, db, hd, stats, semiring)
    raise ValueError(f"unknown evaluation method {method!r}")
