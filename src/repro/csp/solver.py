"""CSP solvers: backtracking baseline vs the paper's decomposition route.

* :func:`solve_backtracking` — chronological backtracking with MRV and
  forward checking; the classical exponential-time baseline.
* :func:`solve_via_decomposition` — the paper's pipeline: translate to a
  Boolean CQ (§6 equivalence), compute a hypertree decomposition, compile
  it through the engine (:func:`repro.engine.plan.compile_plan`, whose
  bags are the Lemma 4.6 transformation), run the Yannakakis full
  reducer, then read a solution off the reduced join tree top-down
  (every reduced tuple extends to a solution, so no backtracking is
  needed).

For bounded-hypertree-width constraint classes the second route is
polynomial (Corollary 5.19 via the CSP equivalence) — experiment E17/E15
material.
"""

from __future__ import annotations

from ..core.detkdecomp import hypertree_width
from ..core.hypertree import HypertreeDecomposition
from ..db.stats import EvalStats
from ..db.yannakakis import full_reduce
from ..engine.plan import compile_plan, materialise_bags
from .problem import CSPInstance, Value


def solve_backtracking(
    csp: CSPInstance, stats: EvalStats | None = None
) -> dict[str, Value] | None:
    """One solution by MRV + forward-checking backtracking, or ``None``."""
    stats = stats if stats is not None else EvalStats()
    candidates: dict[str, set[Value]] = {
        v: set(csp.domain_of[v]) for v in csp.variables
    }

    def consistent(v: str, assignment: dict[str, Value]) -> bool:
        for c in csp.constraints_of_variable[v]:
            if all(u in assignment for u in c.scope):
                stats.total_tuples_produced += 1
                if not c.satisfied_by(assignment):
                    return False
        return True

    def prune(v: str, assignment: dict[str, Value]) -> list[tuple[str, Value]] | None:
        """Forward-check neighbours of v; return removals or None on wipeout."""
        removed: list[tuple[str, Value]] = []
        for c in csp.constraints_of_variable[v]:
            unbound = [u for u in c.scope if u not in assignment]
            if len(unbound) != 1:
                continue
            u = unbound[0]
            for value in list(candidates[u]):
                assignment[u] = value
                ok = c.satisfied_by(assignment)
                del assignment[u]
                if not ok:
                    candidates[u].discard(value)
                    removed.append((u, value))
            if not candidates[u]:
                for var, val in removed:
                    candidates[var].add(val)
                return None
        return removed

    def search(assignment: dict[str, Value]) -> dict[str, Value] | None:
        if len(assignment) == len(csp.variables):
            return dict(assignment)
        v = min(
            (u for u in csp.variables if u not in assignment),
            key=lambda u: (len(candidates[u]), u),
        )
        for value in sorted(candidates[v], key=repr):
            assignment[v] = value
            if consistent(v, assignment):
                removed = prune(v, assignment)
                if removed is not None:
                    result = search(assignment)
                    if result is not None:
                        return result
                    for var, val in removed:
                        candidates[var].add(val)
            del assignment[v]
        return None

    if any(not candidates[v] for v in csp.variables):
        return None
    return search({})


def solve_via_decomposition(
    csp: CSPInstance,
    hd: HypertreeDecomposition | None = None,
    stats: EvalStats | None = None,
) -> dict[str, Value] | None:
    """One solution via hypertree decomposition + Yannakakis full reducer.

    Unconstrained variables (outside every scope) are assigned their first
    domain value.  Returns ``None`` iff the CSP is unsatisfiable.
    """
    stats = stats if stats is not None else EvalStats()
    query = csp.to_query()
    if not query.atoms:
        return {
            v: csp.domain_of[v][0] if csp.domain_of[v] else None
            for v in csp.variables
        }
    db = csp.to_database()
    if hd is None:
        _, hd = hypertree_width(query)
    plan = compile_plan(query, db, hd)
    jt = plan.join_tree
    reduced = full_reduce(jt, materialise_bags(plan, db, stats), stats)
    if any(not reduced[node] for node in jt.nodes):
        return None

    # Top-down extraction: pick any root tuple, then a compatible tuple at
    # each child.  Full reduction guarantees a compatible tuple exists.
    assignment: dict[str, Value] = {}

    def descend(node) -> bool:
        rel = reduced[node]
        for row in sorted(rel.rows, key=repr):
            candidate = dict(zip(rel.attributes, row))
            if all(
                assignment.get(a, candidate[a]) == candidate[a]
                for a in rel.attributes
            ):
                assignment.update(candidate)
                break
        else:  # pragma: no cover - impossible after full reduction
            return False
        return all(descend(child) for child in jt.children(node))

    if not descend(jt.root):
        return None
    for v in csp.variables:
        if v not in assignment:
            domain = csp.domain_of[v]
            if not domain:
                return None
            assignment[v] = domain[0]
    if not csp.check(assignment):  # pragma: no cover - consistency guard
        raise AssertionError("decomposition solver produced a non-solution")
    return assignment


def count_solutions_backtracking(csp: CSPInstance, limit: int = 10**6) -> int:
    """Exhaustive solution count (tests/benchmarks on small instances)."""
    count = 0
    variables = list(csp.variables)

    def search(index: int, assignment: dict[str, Value]) -> None:
        nonlocal count
        if count >= limit:
            return
        if index == len(variables):
            count += 1
            return
        v = variables[index]
        for value in csp.domain_of[v]:
            assignment[v] = value
            if all(
                not all(u in assignment for u in c.scope)
                or c.satisfied_by(assignment)
                for c in csp.constraints_of_variable[v]
            ):
                search(index + 1, assignment)
            del assignment[v]

    search(0, {})
    return count
