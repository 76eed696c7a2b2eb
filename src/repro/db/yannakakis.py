"""Yannakakis' algorithm over join trees (paper §1.1, §2.1; [44]).

Given a join tree of an acyclic query with each tree atom bound to a
relation:

* ``boolean_eval`` — one bottom-up semijoin pass; the query is true iff
  the root relation stays non-empty.  Intermediate relations never grow
  (semijoins only filter), which is the paper's explanation of why acyclic
  BCQ is tractable.
* ``full_reduce`` — the bottom-up pass followed by a top-down pass yields
  the *full reducer*: every remaining tuple participates in at least one
  answer.
* ``enumerate_answers`` — after full reduction, a bottom-up join pass that
  projects each partial result onto the node's variables plus the output
  variables seen so far computes the answer relation in time polynomial in
  input + output (Theorem: Yannakakis [44]; used by Theorem 4.8 /
  Corollary 5.20 through the Lemma 4.6 transformation).

All three take an optional ``shard_counts`` (hash partitions per tree
node) and ``backend`` (the :class:`~repro.db.backend.ExecutionContext`
the shard tasks run on; inline when omitted).  A node with at most one
shard — the default — stays a plain relation and costs nothing extra.
A node with more is hash-partitioned into a :class:`ShardedRelation`
(:func:`shard_key_for` picks the key: a variable shared with the tree
parent, so parent-child semijoins run partition-wise whenever both sides
agree on it), and the same sweeps fan its semijoins, joins and
projections over the backend: inline, thread pool, or worker processes
with resident shards.  Plain and sharded operands mix freely, and the
answers are the same for every backend and shard assignment, which
``tests/db/test_parallel_equivalence.py`` checks against the naive join.
The ``parallel_*`` names are aliases kept for existing callers.
"""

from __future__ import annotations

from ..core.atoms import Atom
from ..core.jointree import JoinTree
from ..obs import current_tracer
from .annotated import join_dispatch
from .backend import SEQUENTIAL, ExecutionContext
from .relation import Relation
from .sharded import ShardedRelation
from .stats import EvalStats

def shard_key_for(
    tree: JoinTree, node: Atom, relation: Relation
) -> str | None:
    """The partition key for *node*'s relation: prefer an attribute shared
    with the parent (the bottom-up and top-down sweeps both run over the
    parent edge, so agreeing on it makes those semijoins pairwise), then
    one shared with a child, then any attribute; ``None`` for the 0-ary
    relation, which cannot be partitioned."""
    attrs = relation.attributes
    if not attrs:
        return None
    here = set(attrs)
    parent = tree.parent_of.get(node)
    neighbours = ([parent] if parent is not None else []) + list(
        tree.children(node)
    )
    for neighbour in neighbours:
        shared = sorted(
            here & {v.name for v in neighbour.variables}
        )
        if shared:
            return shared[0]
    return attrs[0]


def _partition(
    tree: JoinTree,
    relations: dict[Atom, Relation],
    backend: ExecutionContext | None,
    shard_counts: dict[Atom, int] | None,
) -> tuple[dict, ExecutionContext | None]:
    """The node relations, hash-partitioned per *shard_counts*, and the
    context the sharded operators run on (``None`` when nothing is
    sharded).  Nodes with at most one shard, and 0-ary relations, stay
    plain."""
    parts = dict(relations)
    if not shard_counts or all(n <= 1 for n in shard_counts.values()):
        return parts, None
    ctx = backend if backend is not None else SEQUENTIAL
    for node in tree.nodes:
        n = shard_counts.get(node, 1)
        key = shard_key_for(tree, node, relations[node]) if n > 1 else None
        if key is not None:
            parts[node] = ShardedRelation.shard(
                relations[node], key, n, backend=ctx
            )
    return parts, ctx


def _semijoin(
    left, right, ctx: ExecutionContext | None, stats: EvalStats,
    node: Atom, pass_: str,
):
    """One sweep step ``left ⋉ right`` on possibly-sharded operands."""
    with current_tracer().span(
        "sweep.semijoin", node=node.predicate, pass_=pass_
    ) as sp:
        if isinstance(left, ShardedRelation):
            out = left.semijoin(right, backend=ctx)
        elif isinstance(right, ShardedRelation):
            # A plain left side only needs the sharded partner's key-set
            # union, never its coalesced rows.
            shared = tuple(
                a for a in left.attributes if a in right.attributes
            )
            if not right:
                out = Relation.trusted(left.attributes, frozenset(), left.name)
            elif not shared or not left.rows:
                out = left
            else:
                # Method dispatch keeps annotated left sides annotated.
                out = left.semijoin_with_keys(shared, right.key_set(shared))
        else:
            out = left.semijoin(right)
        sp.set(rows=len(out))
    stats.semijoins += 1
    return stats.record(out)


def _reduced_bottom_up(
    tree: JoinTree, reduced: dict, ctx: ExecutionContext | None,
    stats: EvalStats,
) -> dict:
    """One bottom-up semijoin sweep (child filters parent), in place."""
    for node in tree.post_order():
        for child in tree.children(node):
            reduced[node] = _semijoin(
                reduced[node], reduced[child], ctx, stats, node, "bottom-up"
            )
    return reduced


def _reduced_full(
    tree: JoinTree, reduced: dict, ctx: ExecutionContext | None,
    stats: EvalStats,
) -> dict:
    """Bottom-up then top-down semijoin sweeps, in place."""
    _reduced_bottom_up(tree, reduced, ctx, stats)
    for node in tree.nodes:  # preorder: parents before children
        for child in tree.children(node):
            reduced[child] = _semijoin(
                reduced[child], reduced[node], ctx, stats, child, "top-down"
            )
    return reduced


def _as_relation(rel: ShardedRelation | Relation) -> Relation:
    return rel.to_relation() if isinstance(rel, ShardedRelation) else rel


def _project(rel, attributes: list[str], ctx, name: str | None = None):
    if isinstance(rel, ShardedRelation):
        return rel.project(attributes, name=name, backend=ctx)
    return rel.project(attributes, name=name)


def boolean_eval(
    tree: JoinTree,
    relations: dict[Atom, Relation],
    stats: EvalStats | None = None,
    backend: ExecutionContext | None = None,
    shard_counts: dict[Atom, int] | None = None,
) -> bool:
    """Boolean Yannakakis: true iff the root survives the bottom-up pass."""
    stats = stats if stats is not None else EvalStats()
    if any(not relations[node] for node in tree.nodes):
        return False
    parts, ctx = _partition(tree, relations, backend, shard_counts)
    reduced = _reduced_bottom_up(tree, parts, ctx, stats)
    return bool(reduced[tree.root])


def full_reduce(
    tree: JoinTree,
    relations: dict[Atom, Relation],
    stats: EvalStats | None = None,
    backend: ExecutionContext | None = None,
    shard_counts: dict[Atom, int] | None = None,
) -> dict[Atom, Relation]:
    """The full reducer: bottom-up then top-down semijoin sweeps.

    Afterwards each relation contains exactly the tuples that extend to a
    full answer of the (acyclic) query.  Sharded nodes are coalesced, so
    every returned relation is plain.
    """
    stats = stats if stats is not None else EvalStats()
    parts, ctx = _partition(tree, relations, backend, shard_counts)
    reduced = _reduced_full(tree, parts, ctx, stats)
    return {node: _as_relation(rel) for node, rel in reduced.items()}


def enumerate_answers(
    tree: JoinTree,
    relations: dict[Atom, Relation],
    output: tuple[str, ...],
    stats: EvalStats | None = None,
    backend: ExecutionContext | None = None,
    shard_counts: dict[Atom, int] | None = None,
) -> Relation:
    """Compute the projection of the join onto *output* attribute names.

    Implements the output-polynomial phase of Yannakakis' algorithm: after
    full reduction, join bottom-up but project every partial result onto
    the current node's attributes plus the output attributes contributed
    by its subtree.  Each intermediate is then at most
    ``|node relation| × |answers|`` — polynomial in input plus output.

    A sharded partial result stays partitioned for as long as its shard
    key survives the projection (it coalesces exactly when the key is
    projected away, after which shard-local duplicate elimination would
    no longer be global).  Under the process backend the partial joins
    grow and shrink inside the workers; only the answer crosses back.

    Output attributes must occur in the tree (standard for CQ heads, whose
    variables occur in the body); that is checked before any sweep runs.
    """
    stats = stats if stats is not None else EvalStats()
    tree_attrs: set[str] = set()
    for node in tree.nodes:
        tree_attrs.update(relations[node].attributes)
    missing = set(output) - tree_attrs
    if missing:
        raise ValueError(
            f"output attributes {sorted(missing)} do not occur in the join tree"
        )

    parts, ctx = _partition(tree, relations, backend, shard_counts)
    reduced = _reduced_full(tree, parts, ctx, stats)
    out_set = set(output)
    tracer = current_tracer()
    partial: dict[Atom, ShardedRelation | Relation] = {}
    subtree_attrs: dict[Atom, set[str]] = {}
    for node in tree.post_order():
        rel = reduced[node]
        attrs_below: set[str] = set(rel.attributes)
        for child in tree.children(node):
            attrs_below.update(subtree_attrs[child])
        keep = set(rel.attributes) | (attrs_below & out_set)
        for child in tree.children(node):
            with tracer.span("sweep.join", node=node.predicate) as sp:
                if isinstance(rel, ShardedRelation):
                    rel = rel.join(partial[child], backend=ctx)
                else:
                    rel = join_dispatch(rel, _as_relation(partial[child]))
                stats.joins += 1
                rel = stats.record(
                    _project(rel, [a for a in rel.attributes if a in keep], ctx)
                )
                stats.projections += 1
                sp.set(rows=len(rel))
        partial[node] = rel
        subtree_attrs[node] = attrs_below
    answer = _project(partial[tree.root], list(output), ctx, name="ans")
    stats.projections += 1
    return stats.record(_as_relation(answer))


parallel_boolean_eval = boolean_eval
parallel_full_reduce = full_reduce
parallel_enumerate_answers = enumerate_answers
