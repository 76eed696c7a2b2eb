"""Physical plans: a decomposition compiled against a concrete database.

A cached (or freshly computed) hypertree decomposition fixes only the
*structure* of evaluation.  This module adds the database-dependent
choices — cheap, polynomial-time, recomputed per request — on top of the
Lemma 4.6 pipeline:

* **Cartesian repair** — the one structural step (it reads the query and
  the completed decomposition, never the data, so a plan stays a
  function of both).  A node whose λ atoms, restricted to χ, split into
  variable-disjoint groups would build its bag π_χ(⋈λ) as a Cartesian
  product — the O(|r|^k) worst case of Lemma 4.6.  Such a node joins
  every query atom with ``var(A) ⊆ χ`` as a filter; while that still
  leaves the join disconnected, χ first widens by λ variables a tree
  neighbour already holds that χ-cover more query atoms
  (:func:`repair_cartesian`).  λ and the width are unchanged and
  the tree stays a GHD; connected nodes are left exactly as they are.
* **per-node join order** — each node's bag relation joins its λ atoms
  smallest-estimate first, preferring atoms sharing variables with the
  part already joined (System-R-style greedy, driven by
  :class:`repro.db.stats.CardinalityEstimator`);
* **root choice** — the join tree over the materialised bags is re-rooted
  at the bag with the largest estimated cardinality, so the full
  reducer's bottom-up sweep filters the biggest relation with every
  child before enumeration starts.  (Join trees, unlike hypertree
  decompositions, may be re-rooted freely: the connectedness condition
  is symmetric.)
* **per-node shard counts** — with a parallel backend selected, each
  node whose estimated bag cardinality reaches
  :data:`SHARD_MIN_ROWS` is assigned ``workers`` hash partitions;
  smaller bags stay unsharded (below ~1k rows the partitioning overhead
  dominates any shard-task win).  This replaces the PR-4 global
  ``parallelism`` knob: the shard decision is per relation, from the
  same cardinality estimates that order the joins.
* **per-node layout** — ``layout="columnar"`` materialises every bag as
  a :class:`~repro.db.columnar.ColumnarRelation` (contiguous buffers,
  vectorised semijoin/join kernels, shared-memory scatter under the
  process backend); ``"auto"`` flips only the nodes whose estimated
  cardinality reaches :data:`~repro.db.columnar.COLUMNAR_MIN_ROWS`,
  reusing the shard policy's estimates — small bags keep the row path,
  whose per-call overhead is lower.  Annotated (semiring) requests
  always stay row: the per-row annotation maps are the point.

Execution is one pipeline for every entry point — ``Engine``,
``evaluate``/``evaluate_boolean``, the CSP solver and
``lemma46_transform`` all compile here.  :func:`materialise_bags` builds
each bag with :func:`_materialise_bag`, the only Lemma 4.6 bag builder,
then the one Yannakakis driver (:mod:`repro.db.yannakakis`) runs its
passes with the plan's shard assignment: unsharded nodes as plain
relations, sharded ones over the selected execution backend
(:mod:`repro.db.backend`).  A deadline
is checked between operators so per-request budgets interrupt long plans
with :class:`repro._errors.BudgetExceeded` (under the process backend
the check sits between operators on the coordinating side; an individual
shard task is never interrupted mid-flight).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .._errors import BudgetExceeded
from ..core.atoms import Atom, Variable
from ..core.hypertree import HTNode, HypertreeDecomposition
from ..core.jointree import JoinTree, join_tree_from_edges
from ..core.query import ConjunctiveQuery
from ..db.annotated import (
    AnnotatedRelation,
    assign_annotated_atoms,
    bind_atom_annotated,
    naive_annotated_eval,
)
from ..db.backend import BACKEND_KINDS, ExecutionContext, make_backend
from ..db.binding import bind_atom
from ..db.columnar import (
    COLUMNAR_MIN_ROWS,
    LAYOUTS,
    ColumnarRelation,
    to_columnar,
)
from ..db.database import Database
from ..db.relation import Relation
from ..db.semiring import Semiring
from ..db.stats import CardinalityEstimator, EvalStats
from ..db.yannakakis import (  # noqa: F401 -- parallel_* are traced aliases
    boolean_eval,
    enumerate_answers,
    parallel_boolean_eval,
    parallel_enumerate_answers,
)
from ..obs import Tracer, current_tracer, get_registry

#: Estimated bag cardinality below which a node is never sharded: the
#: ROADMAP's "partition overhead dominates below ~1k rows" observation,
#: applied per relation by the cost-based policy.
SHARD_MIN_ROWS = 1000


def _check_deadline(deadline: float | None, phase: str) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded(f"engine budget exhausted during {phase}")


@dataclass(frozen=True)
class NodePlan:
    """Compiled evaluation of one decomposition node's bag relation."""

    bag: Atom
    chi_names: tuple[str, ...]
    join_order: tuple[Atom, ...]
    estimated_rows: float
    atom_estimates: tuple[float, ...]
    n_shards: int = 1
    layout: str = "row"

    def describe(self) -> str:
        steps = " ⋈ ".join(
            f"{a}[≈{int(est)}]"
            for a, est in zip(self.join_order, self.atom_estimates)
        )
        chi = ", ".join(self.chi_names)
        shards = f" ×{self.n_shards} shards" if self.n_shards > 1 else ""
        layout = " [columnar]" if self.layout == "columnar" else ""
        return (
            f"{self.bag.predicate}: π[{chi}]({steps or 'unit'}) "
            f"≈{int(self.estimated_rows)} rows{shards}{layout}"
        )


@dataclass(frozen=True)
class QueryPlan:
    """A fully compiled physical plan for one (query, database) pair."""

    query: ConjunctiveQuery
    decomposition: HypertreeDecomposition
    node_plans: tuple[NodePlan, ...]
    join_tree: JoinTree
    output: tuple[str, ...]
    width: int
    provenance: str = "exact"
    cache_hit: bool = field(default=False)
    backend: str = field(default="sequential")
    workers: int = field(default=1)
    layout: str = field(default="row")

    @property
    def shard_counts(self) -> dict[Atom, int]:
        """Per-node shard assignment for the Yannakakis passes."""
        return {np.bag: np.n_shards for np in self.node_plans}

    def digest(self) -> str:
        """A short stable hash of the plan's *structure* — provenance,
        width, backend, per-node pipelines, join tree.  Two requests
        with the same digest executed the same physical plan, which is
        how the flight recorder's slow-query log groups outliers."""
        import hashlib

        payload = "\n".join(
            [
                str(self.query),
                self.provenance,
                str(self.width),
                f"{self.backend}x{self.workers}",
                self.layout,
                ",".join(self.output),
                *(np.describe() for np in self.node_plans),
                self.join_tree.render(),
            ]
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def render(self) -> str:
        """The ``explain`` rendering: provenance, per-node pipelines, and
        the rooted join tree the Yannakakis passes will run over."""
        sharded = sum(1 for np in self.node_plans if np.n_shards > 1)
        backend_tag = (
            f", {self.backend} backend × {self.workers} "
            f"({sharded}/{len(self.node_plans)} nodes sharded)"
            if self.backend != "sequential"
            else ""
        )
        columnar = sum(1 for np in self.node_plans if np.layout == "columnar")
        layout_tag = (
            f", layout {self.layout} "
            f"({columnar}/{len(self.node_plans)} nodes columnar)"
            if self.layout != "row"
            else ""
        )
        lines = [
            f"plan for {self.query.name}: width {self.width} "
            f"[{self.provenance}{', cached' if self.cache_hit else ''}"
            + backend_tag
            + layout_tag
            + "]",
            f"output: ({', '.join(self.output)})" if self.output else "output: boolean",
            "bag materialisation (cardinality-ascending joins):",
        ]
        for np in self.node_plans:
            marker = " <- root" if np.bag == self.join_tree.root else ""
            lines.append(f"  {np.describe()}{marker}")
        lines.append("join tree (semijoin + enumeration passes):")
        lines.append(self.join_tree.render())
        return "\n".join(lines)

    def render_analyzed(
        self, tracer: Tracer, elapsed: float, answer_rows: int
    ) -> str:
        """The ``EXPLAIN ANALYZE`` rendering: the static plan annotated
        with what one traced execution actually did.

        Per node: estimated vs actual bag cardinality (exposing the
        misestimates the cost-based shard policy silently acts on),
        materialisation wall time, and the node's share of the sweep
        (semijoin/join operator time attributed by relation name).
        Worker-resident shard tasks — whose time is recorded *inside*
        the process-backend workers and shipped back at reply time —
        are totalled in the footer.
        """
        spans = tracer.spans()
        bag_spans: dict[object, list] = {}
        for span in spans:
            if span.name == "plan.bag" and "node" in span.attrs:
                bag_spans.setdefault(span.attrs["node"], []).append(span)
        sweep: dict[object, tuple[float, int]] = {}
        for span in spans:
            if span.name in ("sweep.semijoin", "sweep.join"):
                node = span.attrs.get("node")
                seconds, count = sweep.get(node, (0.0, 0))
                sweep[node] = (seconds + span.duration, count + 1)

        lines = [
            self.render(),
            f"analyze: executed in {elapsed * 1e3:.3f}ms, "
            f"{answer_rows} answer row(s)",
            "per-node actuals (estimated vs actual rows, wall time):",
        ]
        for np in self.node_plans:
            node = np.bag.predicate
            spans_here = bag_spans.get(node, [])
            actual = spans_here[-1].attrs.get("rows") if spans_here else None
            bag_ms = sum(s.duration for s in spans_here) * 1e3
            sweep_s, sweep_n = sweep.get(node, (0.0, 0))
            if actual is None:
                lines.append(f"  {node}: (no trace recorded)")
                continue
            if actual:
                factor = np.estimated_rows / actual
                misestimate = f"est/actual {factor:.2f}x"
            else:
                misestimate = f"est {int(np.estimated_rows)}, actual empty"
            lines.append(
                f"  {node}: ≈{int(np.estimated_rows)} est -> {actual} actual "
                f"rows ({misestimate}); bag {bag_ms:.3f}ms"
                + (
                    f", sweep {sweep_s * 1e3:.3f}ms over {sweep_n} op(s)"
                    if sweep_n
                    else ""
                )
            )
        shard_spans = [s for s in spans if s.name.startswith("shard:")]
        if shard_spans:
            workers = {(s.pid, s.tid) for s in shard_spans}
            busy = sum(s.duration for s in shard_spans)
            resident = sum(1 for s in shard_spans if s.pid != tracer.pid)
            lines.append(
                f"shard tasks: {len(shard_spans)} spans "
                f"({resident} worker-resident) across {len(workers)} "
                f"track(s), {busy * 1e3:.3f}ms busy"
            )
        return "\n".join(lines)


def _order_atoms(
    atoms: list[Atom], estimator: CardinalityEstimator
) -> tuple[list[Atom], list[float]]:
    """Greedy join order: start from the smallest estimated atom, then
    repeatedly take the atom sharing most variables with what is already
    joined (ties: smaller estimate, stable by rendering)."""
    remaining = sorted(atoms, key=lambda a: (estimator.atom_rows(a), str(a)))
    order: list[Atom] = []
    estimates: list[float] = []
    seen_vars: set[Variable] = set()
    while remaining:
        chosen = min(
            remaining,
            key=lambda a: (
                -len(a.variables & seen_vars),
                estimator.atom_rows(a),
                str(a),
            ),
        ) if order else remaining[0]
        remaining.remove(chosen)
        order.append(chosen)
        estimates.append(estimator.atom_rows(chosen))
        seen_vars.update(chosen.variables)
    return order, estimates


def _is_connected_join(atoms: list[Atom], chi: frozenset[Variable]) -> bool:
    """True iff the atoms' variables inside *chi* form one connected join
    (atoms with no variable in *chi* join as 0-ary filters)."""
    rest = [vs for vs in (a.variables & chi for a in atoms) if vs]
    reached = set(rest.pop()) if rest else set()
    while rest:
        linked = [vs for vs in rest if not reached.isdisjoint(vs)]
        if not linked:
            return False
        for vs in linked:
            reached |= vs
            rest.remove(vs)
    return True


def _contributing(
    lam: frozenset[Atom], chi: frozenset[Variable]
) -> list[Atom]:
    """The λ atoms that contribute to a bag over *chi*: those sharing a
    variable with it, and ground atoms (0-ary filters)."""
    return [a for a in lam if (a.variables & chi) or not a.variables]


def repair_cartesian(
    hd: HypertreeDecomposition,
) -> tuple[HypertreeDecomposition, dict[int, tuple[Atom, ...]]]:
    """Repair the nodes of a complete decomposition whose λ atoms,
    restricted to χ, join as a Cartesian product.

    A connected node is left exactly as it is.  A disconnected node *p*
    is repaired in two steps:

    (a) while λ(p) plus the query atoms inside χ(p) still join as a
        Cartesian product, χ(p) widens by the first (by name)
        ``v ∈ var(λ(p)) \\ χ(p)`` that a tree neighbour's χ already holds
        and whose addition χ-covers another query atom.  ``χ ⊆ var(λ)``,
        connectedness, coverage and λ — hence the width — are unchanged,
        so the result is still a (generalized) hypertree decomposition.
        Widening stops as soon as the join is connected: a wider χ
        makes the bag a longer join (on the 4-cycle, the whole cycle
        instead of a 2-path).
    (b) every query atom ``A ∉ λ(p)`` with ``var(A) ⊆ χ(p)`` joins the
        node's bag as a filter.  It removes only bag tuples the full join
        removes anyway.

    Returns the (possibly re-labelled) decomposition — node order and
    tree shape are preserved — and the filter atoms per node index.  The
    repair reads only the query and the decomposition, never the data.
    """
    nodes = hd.nodes
    broken = [
        i
        for i, p in enumerate(nodes)
        if not _is_connected_join(_contributing(p.lam, p.chi), p.chi)
    ]
    if not broken:
        return hd, {}
    index = {id(n): i for i, n in enumerate(nodes)}
    neighbours: list[list[int]] = [[] for _ in nodes]
    for i, p in enumerate(nodes):
        for c in p.children:
            neighbours[i].append(index[id(c)])
            neighbours[index[id(c)]].append(i)
    atoms = tuple(dict.fromkeys(hd.query.atoms))
    chis = [p.chi for p in nodes]
    filters: dict[int, tuple[Atom, ...]] = {}
    for i in broken:
        p = nodes[i]
        chi = p.chi
        candidates = sorted(p.lambda_variables - chi, key=lambda v: v.name)
        while True:
            covered = tuple(
                a for a in atoms if a.variables <= chi and a not in p.lam
            )
            joined = _contributing(p.lam, chi) + list(covered)
            if _is_connected_join(joined, chi):
                break
            widen = next(
                (
                    v
                    for v in candidates
                    if v not in chi
                    and any(v in chis[j] for j in neighbours[i])
                    and any(
                        v in a.variables and a.variables <= chi | {v}
                        for a in atoms
                    )
                ),
                None,
            )
            if widen is None:
                break
            chi = chi | {widen}
        chis[i] = chi
        if covered:
            filters[i] = covered
    if any(chi != p.chi for chi, p in zip(chis, nodes)):
        hd = hd.map_nodes(lambda n: (chis[index[id(n)]], n.lam))
    return hd, filters


def compile_plan(
    query: ConjunctiveQuery,
    db: Database | None,
    hd: HypertreeDecomposition,
    provenance: str = "exact",
    cache_hit: bool = False,
    backend: str | None = None,
    workers: int | None = None,
    shard_threshold: int = SHARD_MIN_ROWS,
    layout: str = "row",
) -> QueryPlan:
    """Compile *hd* into a physical plan against *db*.

    The decomposition is completed (Lemma 4.4) if necessary, each node's
    bag pipeline is ordered by the database's cardinality estimates, and
    the mirrored join tree is re-rooted at the largest estimated bag.
    With ``db=None`` (an ``explain`` without facts) all estimates are 1
    and the plan falls back to deterministic syntactic order.

    *backend* selects the execution backend kind (``"sequential"``,
    ``"thread"``, ``"process"``) and *workers* its width; with a parallel
    backend each node whose estimated cardinality reaches
    *shard_threshold* is assigned ``workers`` shards, smaller nodes
    none.

    *layout* is the storage policy for materialised bags:
    ``"row"`` (frozenset-of-tuples, the default), ``"columnar"``
    (every node), or ``"auto"`` (nodes whose estimated cardinality
    reaches :data:`~repro.db.columnar.COLUMNAR_MIN_ROWS`).
    """
    if backend is None:
        backend = "sequential"
    if backend not in BACKEND_KINDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKEND_KINDS}"
        )
    if layout not in LAYOUTS:
        raise ValueError(
            f"unknown layout {layout!r}; expected one of {LAYOUTS}"
        )
    if workers is None:
        workers = 4
    if backend == "sequential":
        workers = 1
    workers = max(1, workers)

    with current_tracer().span(
        "plan.compile", query=query.name, backend=backend, workers=workers,
        layout=layout,
    ) as compile_span:
        plan = _compile_plan_traced(
            query, db, hd, provenance, cache_hit, backend, workers,
            shard_threshold, layout,
        )
        compile_span.set(
            nodes=len(plan.node_plans),
            sharded=sum(1 for np in plan.node_plans if np.n_shards > 1),
            columnar=sum(
                1 for np in plan.node_plans if np.layout == "columnar"
            ),
            width=plan.width,
        )
    return plan


def _compile_plan_traced(
    query: ConjunctiveQuery,
    db: Database | None,
    hd: HypertreeDecomposition,
    provenance: str,
    cache_hit: bool,
    backend: str,
    workers: int,
    shard_threshold: int,
    layout: str,
) -> QueryPlan:
    complete, filters = repair_cartesian(
        hd if hd.is_complete else hd.complete()
    )
    estimator = CardinalityEstimator(db)
    domain = estimator.domain_size

    nodes = complete.nodes
    node_ids = {id(n): i for i, n in enumerate(nodes)}
    fresh: dict[int, Atom] = {}
    plans: list[NodePlan] = []
    for i, p in enumerate(nodes):
        chi_names = tuple(sorted(v.name for v in p.chi))
        contributing = _contributing(p.lam, p.chi) + list(filters.get(i, ()))
        order, estimates = _order_atoms(contributing, estimator)
        bag_rows = 1.0
        joined_vars: frozenset[Variable] = frozenset()
        for a, est in zip(order, estimates):
            bag_rows = estimator.join_rows(
                bag_rows, joined_vars, est, a.variables, domain
            )
            joined_vars = joined_vars | a.variables
        bag = Atom(f"n{i}", tuple(Variable(v) for v in chi_names))
        fresh[i] = bag
        n_shards = (
            workers
            if backend != "sequential"
            and workers > 1
            and bag_rows >= shard_threshold
            else 1
        )
        node_layout = (
            "columnar"
            if layout == "columnar"
            or (layout == "auto" and bag_rows >= COLUMNAR_MIN_ROWS)
            else "row"
        )
        plans.append(
            NodePlan(
                bag, chi_names, tuple(order), bag_rows, tuple(estimates),
                n_shards=n_shards, layout=node_layout,
            )
        )

    edges = [
        (fresh[i], fresh[node_ids[id(c)]])
        for i, p in enumerate(nodes)
        for c in p.children
    ]
    root = max(plans, key=lambda np: (np.estimated_rows, np.bag.predicate)).bag
    jt = join_tree_from_edges([fresh[i] for i in range(len(nodes))], edges, root)

    head = tuple(
        dict.fromkeys(
            t.name for t in query.head_terms if isinstance(t, Variable)
        )
    )
    return QueryPlan(
        query=query,
        decomposition=complete,
        node_plans=tuple(plans),
        join_tree=jt,
        output=head,
        width=hd.width,
        provenance=provenance,
        cache_hit=cache_hit,
        backend=backend,
        workers=workers,
        layout=layout,
    )


def _materialise_bag(
    np: NodePlan,
    p: HTNode,
    db: Database,
    stats: EvalStats,
    deadline: float | None,
    semiring: Semiring | None = None,
    carriers: frozenset[Atom] = frozenset(),
) -> Relation:
    """Materialise one decomposition node's bag relation.

    Under a *semiring*, the atoms in *carriers* (this node's share of
    the once-per-atom annotation assignment) bind annotated; the rest
    bind plain and act as filters.  Carriers always satisfy
    ``var(A) ⊆ χ(p)``, so they are never pre-projected.

    A node compiled with ``layout="columnar"`` converts the finished
    bag to :class:`~repro.db.columnar.ColumnarRelation` — the Yannakakis
    sweeps then dispatch into the vectorised kernels, and the process
    backend ships the bag over shared memory instead of the pickle
    codec.  Annotated bags are never converted (``to_columnar`` returns
    them unchanged); the ``plan.layout_columnar`` / ``plan.layout_row``
    counters record which path each bag actually took."""
    _check_deadline(deadline, f"bag materialisation of {np.bag.predicate}")
    with current_tracer().span(
        "plan.bag",
        node=np.bag.predicate,
        est=int(np.estimated_rows),
        shards=np.n_shards,
    ) as sp:
        if semiring is not None:
            rel: Relation = AnnotatedRelation.unit(semiring, np.bag.predicate)
        else:
            rel = Relation.trusted((), frozenset({()}), np.bag.predicate)
        for a in np.join_order:
            if a in carriers:
                part: Relation = bind_atom_annotated(a, db, semiring)
            else:
                part = bind_atom(a, db)
            if not a.variables <= p.chi:
                overlap = sorted(
                    (v.name for v in a.variables & p.chi)
                )
                part = part.project(overlap)
                stats.projections += 1
            rel = rel.join(part)
            stats.joins += 1
            stats.record(rel)
            _check_deadline(deadline, f"joins of {np.bag.predicate}")
        rel = stats.record(
            rel.project(list(np.chi_names), name=np.bag.predicate)
        )
        stats.projections += 1
        if np.layout == "columnar" and semiring is None:
            rel = to_columnar(rel)
        registry = get_registry()
        if isinstance(rel, ColumnarRelation):
            registry.counter("plan.layout_columnar").inc()
        else:
            registry.counter("plan.layout_row").inc()
        sp.set(rows=len(rel), layout=(
            "columnar" if isinstance(rel, ColumnarRelation) else "row"
        ))
    return rel


def execute_plan(
    plan: QueryPlan,
    db: Database,
    stats: EvalStats | None = None,
    deadline: float | None = None,
    backend: ExecutionContext | None = None,
    semiring: Semiring | None = None,
) -> Relation:
    """Run a compiled plan: materialise bags, then Yannakakis.

    Returns the answer relation; for a Boolean query the result has an
    empty schema and is non-empty iff the query is true.  Raises
    :class:`BudgetExceeded` when *deadline* (monotonic seconds) passes
    between operators.

    *backend* is a live :class:`~repro.db.backend.ExecutionContext` to
    run the plan's shard assignment on (typically engine-owned, so
    process workers persist across requests).  Without one, a plan
    compiled for a parallel backend creates a private context for the
    call and closes it afterwards.

    *semiring* switches the run to annotated semantics: the answer is an
    :class:`~repro.db.annotated.AnnotatedRelation` carrying one value
    per row (Boolean plans enumerate the 0-ary answer instead of
    short-circuiting, so the () row's annotation is the query total).
    """
    stats = stats if stats is not None else EvalStats()
    ctx = backend
    own = (
        ctx is None
        and plan.backend != "sequential"
        and any(n > 1 for n in plan.shard_counts.values())
    )
    if own:
        ctx = make_backend(plan.backend, plan.workers)
    try:
        with current_tracer().span(
            "plan.execute",
            query=plan.query.name,
            backend=plan.backend,
            nodes=len(plan.node_plans),
        ) as sp:
            answer = _execute_with_context(
                plan, db, stats, deadline, ctx, semiring
            )
            sp.set(rows=len(answer))
        return answer
    finally:
        if own:
            ctx.close()


def materialise_bags(
    plan: QueryPlan,
    db: Database,
    stats: EvalStats,
    deadline: float | None = None,
    ctx: ExecutionContext | None = None,
    semiring: Semiring | None = None,
    carriers_of: dict[int, frozenset[Atom]] | None = None,
) -> dict[Atom, Relation]:
    """The Lemma 4.6 bag relations of *plan*, keyed by bag atom.

    *carriers_of* maps a node index to the atoms whose annotations enter
    at that node (semiring runs only).  A thread backend with more than
    one worker builds the bags concurrently."""
    carriers_of = carriers_of or {}
    jobs = list(enumerate(zip(plan.node_plans, plan.decomposition.nodes)))
    # Only the thread backend fans bags out (bag pipelines close over the
    # database, which must not cross a process boundary).  Each task then
    # keeps private stats (EvalStats is not thread-safe), merged after.
    fan_out = (
        ctx is not None
        and ctx.kind == "thread"
        and ctx.workers > 1
        and len(jobs) > 1
    )

    def one(
        job: tuple[int, tuple[NodePlan, HTNode]],
    ) -> tuple[Relation, EvalStats]:
        i, (np, p) = job
        local = EvalStats() if fan_out else stats
        rel = _materialise_bag(
            np, p, db, local, deadline, semiring,
            carriers_of.get(i, frozenset()),
        )
        return rel, local

    produced = ctx.map_local(one, jobs) if fan_out else map(one, jobs)
    relations: dict[Atom, Relation] = {}
    for (_, (np, _)), (rel, local) in zip(jobs, produced):
        relations[np.bag] = rel
        if fan_out:
            stats.merge(local)
    return relations


def _execute_with_context(
    plan: QueryPlan,
    db: Database,
    stats: EvalStats,
    deadline: float | None,
    ctx: ExecutionContext | None,
    semiring: Semiring | None = None,
) -> Relation:
    carriers_of: dict[int, frozenset[Atom]] = {}
    if semiring is not None:
        assignment = assign_annotated_atoms(
            [
                (np.join_order, p.chi)
                for np, p in zip(plan.node_plans, plan.decomposition.nodes)
            ],
            plan.query.atoms,
        )
        if assignment is None:
            # No once-per-atom assignment over this plan's join orders;
            # annotated naive evaluation is always correct.
            return naive_annotated_eval(plan.query, db, semiring, stats)
        for atom, i in assignment.items():
            carriers_of[i] = carriers_of.get(i, frozenset()) | {atom}
    relations = materialise_bags(
        plan, db, stats, deadline, ctx, semiring, carriers_of
    )

    _check_deadline(deadline, "Yannakakis passes")
    if not plan.output and semiring is None:
        true = boolean_eval(
            plan.join_tree, relations, stats,
            backend=ctx, shard_counts=plan.shard_counts,
        )
        return Relation.trusted((), frozenset({()} if true else ()), "ans")
    # Annotated Boolean queries enumerate the 0-ary answer too: the ()
    # row's annotation is the semiring total, which boolean_eval's
    # short-circuit would drop.
    return enumerate_answers(
        plan.join_tree, relations, plan.output, stats,
        backend=ctx, shard_counts=plan.shard_counts,
    )
