"""Process distances that respect the information structure of the trees.

The exact nested distance runs a backward recursion over stages: at every
node pair it solves a small transportation problem whose costs are the
values of the child pairs one stage later, and whose marginals are the two
conditional branch distributions.  The regularized variant solves each
subproblem by a scaling iteration and propagates the full entropic
objective.  A stage is solved in groups of same-shape subproblems into one
:class:`StageTable` of dense arrays, which later stage walks read by the
trees' index arrays.  A flat linear program over leaf-pair variables with
cross-multiplied conditional-marginal constraints is an independent oracle
for both; the remaining functions verify flat feasibility of the composed
plan, objective equality, the Gibbs decomposition of the composed coupling,
the comparison bounds, and the martingale property of the dual process.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from ._simplex import solve_lp
from .scenario_tree import ScenarioTree, cost_matrix
from .sinkhorn import (CheckResult, _BatchResult, _marginal_errors, _sinkhorn_batch,
                       bounded_check, entropy)
from .transport import TransportPlan, solve_transport_lp

__all__ = [
    "DEFAULT_LAMBDA_GRID",
    "ConditionalSolution",
    "EquivalenceReport",
    "MartingaleReport",
    "NestedBoundReport",
    "NestedResult",
    "StageStats",
    "StageTable",
    "SweepRow",
    "conditional_marginal_residuals",
    "flat_nested_lp",
    "lambda_sweep",
    "martingale_check",
    "nested_bound_report",
    "nested_exact",
    "nested_sinkhorn",
]

# regularization grid used by the convergence experiments
DEFAULT_LAMBDA_GRID: tuple[float, ...] = (0.5,) + tuple(float(k) for k in range(1, 31))


@dataclass
class ConditionalSolution:
    """Solution of one conditional subproblem at a node pair.

    ``plan`` couples the children of the two nodes (rows follow
    ``row_children``, columns ``col_children``); ``value`` is the subproblem
    optimum in the order-r power domain -- the transport cost for the exact
    method, the full entropic objective for the regularized one.
    """

    row_children: tuple[int, ...]
    col_children: tuple[int, ...]
    row_probs: np.ndarray
    col_probs: np.ndarray
    plan: np.ndarray
    value: float
    dual_row: np.ndarray
    dual_col: np.ndarray
    entropy: float
    iterations: int
    converged: bool


@dataclass(eq=False)
class StageTable(Mapping):
    """The solved subproblems of one stage as dense read-only arrays (layout
    in :class:`NestedResult`); as a mapping, keyed by node-id pairs in stage
    order, it builds each pair's :class:`ConditionalSolution` on access."""

    tree_a: ScenarioTree
    tree_b: ScenarioTree
    stage: int
    value: np.ndarray
    entropy: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    plan: np.ndarray
    dual_row: np.ndarray
    dual_col: np.ndarray

    def __getitem__(self, pair: tuple[int, int]) -> ConditionalSolution:
        ia, jb = pair
        index_a, index_b = self.tree_a.stage_index, self.tree_b.stage_index
        t = self.stage
        i, j = index_a.position[t][ia], index_b.position[t][jb]
        kids_a, kids_b = self.tree_a.children(ia), self.tree_b.children(jb)
        rows = [index_a.position[t + 1][c] for c in kids_a]
        cols = [index_b.position[t + 1][c] for c in kids_b]
        return ConditionalSolution(
            row_children=kids_a, col_children=kids_b,
            row_probs=index_a.cond_prob[t + 1][rows], col_probs=index_b.cond_prob[t + 1][cols],
            plan=self.plan[np.ix_(rows, cols)], value=float(self.value[i, j]),
            dual_row=self.dual_row[rows, j], dual_col=self.dual_col[i, cols],
            entropy=float(self.entropy[i, j]), iterations=int(self.iterations[i, j]),
            converged=bool(self.converged[i, j]),
        )

    def __iter__(self):
        return itertools.product(self.tree_a.stage(self.stage), self.tree_b.stage(self.stage))

    def __len__(self) -> int:
        return self.value.size


@dataclass
class StageStats:
    """Where one stage of the backward recursion spent its work.

    ``shapes`` lists the distinct child-count shapes ``(m, n)`` of the
    stage's subproblems.  ``iterations`` is the stage's total of scaling
    sweeps and the ``iterations_*`` fields its spread over the subproblems
    (all 0 for exact LPs); ``stabilized`` counts the subproblems the
    log-domain iteration solved, ``max_marginal_error`` is the largest
    marginal violation of a stage plan and ``wall_s`` the stage's wall time.
    """

    stage: int
    subproblems: int
    shapes: list[tuple[int, int]]
    iterations: int
    iterations_min: int
    iterations_median: float
    iterations_max: int
    stabilized: int
    max_marginal_error: float
    wall_s: float


@dataclass
class NestedResult:
    """Outcome of a nested-distance computation.

    ``value`` and ``value_with_entropy`` are order-r distances (r-th roots);
    the ``*_pow`` fields hold the corresponding power-domain quantities that
    the recursion actually manipulates.  For the exact method the two
    coincide; for the regularized method ``value`` prices the composed plan
    against the leaf costs while ``value_with_entropy`` is the recursion's
    root value, which also subtracts ``total_entropy / lam``.  ``stats``
    holds one :class:`StageStats` record per stage, in stage order.

    ``stage_tables[t]`` is the :class:`StageTable` of stage ``t``, whose node
    pairs are the full product ``tree_a.stage(t) x tree_b.stage(t)``, so each
    stage-(t+1) pair has exactly one parent pair.  Its arrays are indexed by
    position within the stage; with ``Na``, ``Nb`` the stage-t sizes and
    ``Ma``, ``Mb`` the stage-(t+1) sizes, ``value``, ``entropy``,
    ``iterations`` and ``converged`` are ``[Na, Nb]``, ``plan`` is ``[Ma, Mb]``
    (each child pair's entry in its parent pair's conditional plan),
    ``dual_row`` is ``[Ma, Nb]`` and ``dual_col`` is ``[Na, Mb]``.
    ``stage_tables[t][(ia, jb)]`` builds one pair's
    :class:`ConditionalSolution` and ``len()`` is the pair count.
    """

    value: float
    value_with_entropy: float
    value_pow: float
    value_with_entropy_pow: float
    stage_tables: list[StageTable]
    composed_plan: TransportPlan
    method: str
    lam: Optional[float]
    total_entropy: float
    converged: bool
    total_iterations: int
    stats: list[StageStats] = field(default_factory=list)


def _check_height(tree: ScenarioTree) -> None:
    if tree.height < 1:
        raise ValueError("nested distances need trees of height at least 1")


def _signed_root(x: float, r: float) -> float:
    if r == 1.0:
        return x
    return math.copysign(abs(x) ** (1.0 / r), x)


def _leaf_pairs(tree_a: ScenarioTree, tree_b: ScenarioTree, s: int, u: int):
    """Index spreading a [stage s of A, stage u of B] array over the leaf pairs."""
    return np.ix_(tree_a.stage_index.ancestor[s], tree_b.stage_index.ancestor[u])


def _group_sum(x: np.ndarray, index: np.ndarray, axis: int) -> np.ndarray:
    """Sums of ``x`` along ``axis`` within the groups ``index`` labels 0, 1, ..."""
    x = np.moveaxis(x, axis, 0)
    out = np.zeros((int(index.max()) + 1,) + x.shape[1:])
    np.add.at(out, index, x)
    return np.moveaxis(out, 0, axis)


def _solve_stagewise(
    tree_a: ScenarioTree,
    tree_b: ScenarioTree,
    leaf_cost: np.ndarray,
    solve_group: Callable[[np.ndarray, np.ndarray, np.ndarray], _BatchResult],
) -> tuple[list[StageTable], list[StageStats]]:
    """Backward recursion over stages; returns the stage tables and the
    per-stage statistics, in stage order.  A stage's node pairs are grouped
    by child counts ``(m, n)``; ``solve_group`` gets each group in pair order
    as stacked row marginals ``[B, m]``, column marginals ``[B, n]`` and
    costs ``[B, m, n]`` gathered from the next stage's values (the leaf costs
    at the last stage, whose nodes are the leaves)."""
    index_a, index_b = tree_a.stage_index, tree_b.stage_index
    next_value = leaf_cost
    tables: list[StageTable] = []
    stats: list[StageStats] = []
    for t in range(tree_a.height - 1, -1, -1):
        start = time.perf_counter()
        (Na, Nb), (Ma, Mb) = (len(tree_a.stage(t)), len(tree_b.stage(t))), next_value.shape
        table = StageTable(
            tree_a, tree_b, t, value=np.empty((Na, Nb)), entropy=np.empty((Na, Nb)),
            iterations=np.empty((Na, Nb), dtype=int), converged=np.empty((Na, Nb), dtype=bool),
            plan=np.empty((Ma, Mb)), dual_row=np.empty((Ma, Nb)), dual_col=np.empty((Na, Mb)),
        )
        stabilized = 0
        worst = 0.0
        for nodes_a, kids_a in index_a.children[t].values():
            for nodes_b, kids_b in index_b.children[t].values():
                (I, m), (J, n) = kids_a.shape, kids_b.shape
                pairs = np.ix_(nodes_a, nodes_b)
                child_pairs = (kids_a[:, None, :, None], kids_b[None, :, None, :])
                batch = solve_group(np.repeat(index_a.cond_prob[t + 1][kids_a], J, axis=0),
                                    np.tile(index_b.cond_prob[t + 1][kids_b], (I, 1)),
                                    next_value[child_pairs].reshape(I * J, m, n))
                table.value[pairs] = batch.de_s.reshape(I, J)
                table.entropy[pairs] = batch.entropy.reshape(I, J)
                table.iterations[pairs] = batch.iterations.reshape(I, J)
                table.converged[pairs] = batch.converged.reshape(I, J)
                table.plan[child_pairs] = batch.plan.reshape(I, J, m, n)
                table.dual_row[kids_a[:, None, :], nodes_b[None, :, None]] = \
                    batch.dual_row.reshape(I, J, m)
                table.dual_col[nodes_a[:, None, None], kids_b[None, :, :]] = \
                    batch.dual_col.reshape(I, J, n)
                stabilized += int(batch.stabilized.sum())
                worst = max(worst, float(batch.marginal_error.max()))
        for array_field in fields(table)[3:]:  # the fields after tree_a, tree_b, stage
            getattr(table, array_field.name).flags.writeable = False
        tables.append(table)
        stats.append(StageStats(
            stage=t,
            subproblems=len(table),
            shapes=[(m, n) for m in index_a.children[t] for n in index_b.children[t]],
            iterations=int(table.iterations.sum()),
            iterations_min=int(table.iterations.min()),
            iterations_median=float(np.median(table.iterations)),
            iterations_max=int(table.iterations.max()),
            stabilized=stabilized,
            max_marginal_error=worst,
            wall_s=time.perf_counter() - start,
        ))
        next_value = table.value
    tables.reverse()
    stats.reverse()
    return tables, stats


def _compose(tree_a: ScenarioTree, tree_b: ScenarioTree, tables: list[StageTable]) -> np.ndarray:
    """Leaf-pair coupling: the product over stages of the stage-plan entries
    along the two leaves' ancestors."""
    out = np.ones((tree_a.n_leaves, tree_b.n_leaves))
    for t, table in enumerate(tables):
        out *= table.plan[_leaf_pairs(tree_a, tree_b, t + 1, t + 1)]
    return out


def _lp_group(P: np.ndarray, Q: np.ndarray, C: np.ndarray) -> _BatchResult:
    """One transportation LP per problem of a group, stacked in the layout of
    :func:`_sinkhorn_batch`; no sweeps, and the value is the LP optimum."""
    lps = [solve_transport_lp(p, q, c) for p, q, c in zip(P, Q, C)]
    plan = np.array([lp.plan.matrix for lp in lps])
    value = np.array([lp.value for lp in lps])
    sweeps = np.zeros(len(lps), dtype=int)
    return _BatchResult(
        plan=plan, d_s=value, entropy=np.array([entropy(x) for x in plan]), de_s=value,
        dual_row=np.array([lp.dual_row for lp in lps]),
        dual_col=np.array([lp.dual_col for lp in lps]),
        iterations=sweeps, marginal_error=_marginal_errors(plan, P, Q),
        converged=sweeps == 0, stabilized=sweeps > 0,
    )


def nested_exact(tree_a: ScenarioTree, tree_b: ScenarioTree, r: float = 1.0) -> NestedResult:
    """Exact nested distance of order ``r`` via the backward recursion.

    Every conditional subproblem is a transportation LP over the child pairs
    with the stage-(t+1) values as costs; the root value's r-th root is the
    distance.  The composed leaf-pair plan is optimal for the flat
    formulation with conditional-marginal constraints.
    """
    leaf_cost = cost_matrix(tree_a, tree_b, r)
    _check_height(tree_a)
    tables, stats = _solve_stagewise(tree_a, tree_b, leaf_cost, _lp_group)
    composed = _compose(tree_a, tree_b, tables)
    value_pow = max(float(tables[0].value[0, 0]), 0.0)
    value = value_pow ** (1.0 / r)
    return NestedResult(
        value=value,
        value_with_entropy=value,
        value_pow=value_pow,
        value_with_entropy_pow=value_pow,
        stage_tables=tables,
        composed_plan=TransportPlan(composed, tree_a.leaf_probabilities,
                                    tree_b.leaf_probabilities),
        method="exact",
        lam=None,
        total_entropy=entropy(composed),
        converged=True,
        total_iterations=0,
        stats=stats,
    )


def nested_sinkhorn(tree_a: ScenarioTree, tree_b: ScenarioTree, r: float = 1.0,
                    lam: float = 20.0, tol: float = 1e-9, max_iter: int = 100_000) -> NestedResult:
    """Entropy-regularized nested divergence via the same backward recursion.

    Each conditional subproblem is solved by the scaling iteration (plain or
    log-domain, chosen automatically as in ``sinkhorn_auto``) and
    contributes its full entropic objective as the cost seen one stage
    earlier.  A stage's subproblems are grouped by shape and each group is
    solved by one batched kernel; every subproblem keeps the iterations,
    plan and multipliers the per-pair solver would give it.  Subproblems
    run at tolerance ``tol / T`` so the stagewise marginal errors cannot
    push the composed plan's feasibility beyond ``tol``.  A subproblem hitting
    ``max_iter`` flags the whole result as unconverged instead of raising.
    """
    leaf_cost = cost_matrix(tree_a, tree_b, r)
    _check_height(tree_a)
    if lam <= 0.0:
        raise ValueError(f"regularization parameter must be positive, got {lam}")
    sub_tol = tol / tree_a.height
    solve_group = partial(_sinkhorn_batch, lam=lam, tol=sub_tol, max_iter=max_iter)
    tables, stats = _solve_stagewise(tree_a, tree_b, leaf_cost, solve_group)
    composed = _compose(tree_a, tree_b, tables)
    value_pow = float((composed * leaf_cost).sum())
    root_value = float(tables[0].value[0, 0])
    return NestedResult(
        value=_signed_root(value_pow, r),
        value_with_entropy=_signed_root(root_value, r),
        value_pow=value_pow,
        value_with_entropy_pow=root_value,
        stage_tables=tables,
        composed_plan=TransportPlan(composed, tree_a.leaf_probabilities,
                                    tree_b.leaf_probabilities),
        method="sinkhorn",
        lam=lam,
        total_entropy=entropy(composed),
        converged=all(bool(table.converged.all()) for table in tables),
        total_iterations=sum(stage.iterations for stage in stats),
        stats=stats,
    )


def flat_nested_lp(tree_a: ScenarioTree, tree_b: ScenarioTree, r: float = 1.0,
                   max_cells: int = 40_000) -> tuple[float, TransportPlan]:
    """Nested distance as one flat LP over leaf-pair variables.

    For every stage, node pair and immediate successor the conditional
    marginal constraint is written in cross-multiplied linear form
    ``mass(successor-block) = P(successor | node) * mass(pair-block)``; one
    redundant successor per group is dropped.  Solved by the generic dense
    simplex, so it is an oracle wholly independent of the recursion.  Only
    intended for desk-scale instances (``n_leaves_a * n_leaves_b`` capped by
    ``max_cells``).
    """
    na = tree_a.n_leaves
    nb = tree_b.n_leaves
    if na * nb > max_cells:
        raise ValueError(
            f"instance too large for the flat LP: {na} x {nb} leaf pairs exceeds {max_cells}"
        )
    cost = cost_matrix(tree_a, tree_b, r)
    _check_height(tree_a)
    index_a, index_b = tree_a.stage_index, tree_b.stage_index

    def block(s: int, i: int, u: int, j: int) -> np.ndarray:
        """Indicator of the leaf pairs below node i of stage s (A) and j of stage u (B)."""
        return np.outer(index_a.ancestor[s] == i, index_b.ancestor[u] == j).ravel().astype(float)

    rows = [np.ones(na * nb)]
    for t in range(tree_a.height):
        for i, j in itertools.product(range(len(tree_a.stage(t))), range(len(tree_b.stage(t)))):
            base = block(t, i, t, j)
            for k in np.flatnonzero(index_a.parent[t + 1] == i)[:-1]:
                rows.append(block(t + 1, k, t, j) - index_a.cond_prob[t + 1][k] * base)
            for l in np.flatnonzero(index_b.parent[t + 1] == j)[:-1]:
                rows.append(block(t, i, t + 1, l) - index_b.cond_prob[t + 1][l] * base)
    rhs = [1.0] + [0.0] * (len(rows) - 1)
    x, value = solve_lp(cost.ravel(), np.array(rows), np.array(rhs))
    plan = x.reshape(na, nb)
    return max(value, 0.0) ** (1.0 / r), TransportPlan(plan, tree_a.leaf_probabilities,
                                                       tree_b.leaf_probabilities)


def conditional_marginal_residuals(tree_a: ScenarioTree, tree_b: ScenarioTree,
                                   matrix: np.ndarray) -> float:
    """Largest violation of the flat conditional-marginal constraints by a
    leaf-pair coupling, summed into each stage's pair blocks by parent index."""
    index_a, index_b = tree_a.stage_index, tree_b.stage_index
    worst = 0.0
    below = np.asarray(matrix, dtype=float)  # mass of every stage-(t+1) pair
    for t in range(tree_a.height - 1, -1, -1):
        parent_a, parent_b = index_a.parent[t + 1], index_b.parent[t + 1]
        child_a = _group_sum(below, parent_b, 1)  # [stage t+1 of A, stage t of B]
        child_b = _group_sum(below, parent_a, 0)  # [stage t of A, stage t+1 of B]
        here = _group_sum(child_a, parent_a, 0)
        gap_a = child_a - index_a.cond_prob[t + 1][:, None] * here[parent_a, :]
        gap_b = child_b - index_b.cond_prob[t + 1][None, :] * here[:, parent_b]
        worst = max(worst, float(np.abs(gap_a).max()), float(np.abs(gap_b).max()))
        below = here
    return worst


@dataclass
class EquivalenceReport:
    """Verification that the recursion solved the flat entropic problem.

    Checks feasibility of the composed plan for the flat conditional
    constraints, equality of the flat entropic objective with the
    recursion's root value, and the stagewise Gibbs decomposition of the
    composed coupling reconstructed from the stored dual multipliers.
    """

    max_marginal_residual: float
    flat_objective: float
    recursive_objective: float
    objective_gap: float
    max_gibbs_residual: float
    feasibility_ok: bool
    objective_ok: bool
    gibbs_ok: bool
    passed: bool


def verify_entropic_equivalence(tree_a: ScenarioTree, tree_b: ScenarioTree, r: float,
                                lam: float, result: NestedResult, *,
                                marginal_tol: float = 1e-7, objective_tol: float = 1e-7,
                                gibbs_tol: float = 1e-6) -> EquivalenceReport:
    """Check a converged regularized result against the flat formulation."""
    if result.method != "sinkhorn":
        raise ValueError("equivalence verification needs a regularized nested result")
    if not result.converged:
        raise ValueError("equivalence verification needs a converged result")
    matrix = result.composed_plan.matrix
    max_residual = conditional_marginal_residuals(tree_a, tree_b, matrix)

    cost = cost_matrix(tree_a, tree_b, r)
    log_matrix = np.log(np.where(matrix > 0.0, matrix, 1.0))
    flat_objective = float((matrix * cost).sum() + (matrix * log_matrix).sum() / lam)
    objective_gap = abs(flat_objective - result.value_with_entropy_pow)

    # rebuild log(plan) from the stagewise Gibbs factors
    # exp(-lam * (next_value - beta - gamma) - 1), and compare against the
    # log of the composed coupling accumulated as a sum of stage-plan logs
    # (the entrywise product itself can underflow for large lam).  A stage
    # plan entry that underflowed to 0 is compared as exp of its exponent.
    tables = result.stage_tables
    recon = np.zeros(matrix.shape)
    log_composed = np.zeros(matrix.shape)
    vanished_ok = True
    for t, (table, nxt) in enumerate(zip(tables, [later.value for later in tables[1:]] + [cost])):
        below = _leaf_pairs(tree_a, tree_b, t + 1, t + 1)
        exponent = -lam * (nxt[below] - table.dual_row[_leaf_pairs(tree_a, tree_b, t + 1, t)]
                           - table.dual_col[_leaf_pairs(tree_a, tree_b, t, t + 1)]) - 1.0
        plan = table.plan[below]
        positive = plan > 0.0
        recon += np.where(positive, exponent, 0.0)
        log_composed += np.log(np.where(positive, plan, 1.0))
        with np.errstate(over="ignore"):
            vanished_ok = vanished_ok and not np.exp(exponent[~positive]).any()
    max_gibbs = float(np.abs(recon - log_composed).max()) if vanished_ok else math.inf

    # plain bools and floats, so the report serializes as JSON
    feas_ok = bool(max_residual <= marginal_tol)
    obj_ok = bool(objective_gap <= objective_tol)
    gibbs_ok = bool(max_gibbs <= gibbs_tol)
    return EquivalenceReport(
        max_marginal_residual=max_residual,
        flat_objective=flat_objective,
        recursive_objective=result.value_with_entropy_pow,
        objective_gap=objective_gap,
        max_gibbs_residual=max_gibbs,
        feasibility_ok=feas_ok,
        objective_ok=obj_ok,
        gibbs_ok=gibbs_ok,
        passed=feas_ok and obj_ok and gibbs_ok,
    )


@dataclass
class NestedBoundReport:
    """Sandwich and gap bounds for the regularized nested divergence."""

    nd_w_pow: float
    nd_s_pow: float
    nde_s_pow: float
    nd_w: float
    nd_s: float
    nde_s: float
    entropy_regularized: float
    entropy_exact: float
    stages: int
    max_branching_a: int
    max_branching_b: int
    gap_bound: float
    lam: float
    r: float
    converged: bool
    checks: list[CheckResult] = field(default_factory=list)
    all_passed: bool = True


def nested_bound_report(tree_a: ScenarioTree, tree_b: ScenarioTree, r: float = 1.0,
                        lam: float = 20.0, *, tol: float = 1e-12,
                        max_iter: int = 200_000) -> NestedBoundReport:
    """Compute exact and regularized nested values and check the bounds.

    All comparisons run on order-r power values: the sandwich
    ``nde_s <= nd_w <= nd_s``, the gap bounds against the composed-plan
    entropies, and the stage-count cap ``T * (log m_a + log m_b) / lam``
    with ``m_a``, ``m_b`` the largest immediate-successor counts anywhere in
    the trees.  Subproblems run at a tight tolerance by default so that the
    inequality slacks stay well inside :data:`BOUND_SLACK`.
    """
    exact = nested_exact(tree_a, tree_b, r)
    sink = nested_sinkhorn(tree_a, tree_b, r, lam, tol=tol, max_iter=max_iter)
    nd_w = exact.value_pow
    nd_s = sink.value_pow
    nde_s = sink.value_with_entropy_pow
    h_s = sink.total_entropy
    h_w = exact.total_entropy
    stages = tree_a.height
    m_a = max(max(groups) for groups in tree_a.stage_index.children)
    m_b = max(max(groups) for groups in tree_b.stage_index.children)
    gap_bound = stages * (math.log(m_a) + math.log(m_b)) / lam
    checks = [
        bounded_check("sandwich: entropic <= exact <= regularized", nd_w,
                      upper=nd_s, lower=nde_s),
        bounded_check("cost gap vs entropy difference", nd_s - nd_w,
                      upper=(h_s - h_w) / lam),
        bounded_check("objective gap vs plan entropy", nd_w - nde_s,
                      upper=h_s / lam),
        bounded_check("largest gap vs stagewise branching bound",
                      max(nd_s - nd_w, nd_w - nde_s), upper=gap_bound),
    ]
    return NestedBoundReport(
        nd_w_pow=nd_w,
        nd_s_pow=nd_s,
        nde_s_pow=nde_s,
        nd_w=exact.value,
        nd_s=sink.value,
        nde_s=sink.value_with_entropy,
        entropy_regularized=h_s,
        entropy_exact=h_w,
        stages=stages,
        max_branching_a=m_a,
        max_branching_b=m_b,
        gap_bound=gap_bound,
        lam=lam,
        r=r,
        converged=sink.converged,
        checks=checks,
        all_passed=sink.converged and all(c.passed for c in checks),
    )


@dataclass
class MartingaleReport:
    """Martingale diagnostic for the dual process built from the stored
    conditional multipliers."""

    m0: float
    max_martingale_residual: float
    max_projection_residual: float
    residual_tol: float
    projection_tol: float
    passed: bool


def martingale_check(result: NestedResult, *, residual_tol: float = 1e-6,
                     projection_tol: float = 1e-8) -> MartingaleReport:
    """Verify the dual process of a converged regularized result.

    At every node pair the row and column multipliers are translated to
    conditional mean zero under the two branch distributions; the process
    started at ``M_0 = -(E beta + E gamma)`` (root pair) and incremented by
    the translated multipliers must satisfy ``E[M_{t+1} | pair] = M_t``
    under the conditional plans, and the translations themselves must
    project to zero.
    """
    if result.method != "sinkhorn":
        raise ValueError("martingale check needs a regularized nested result with multipliers")
    if not result.converged:
        raise ValueError("martingale check needs a converged result")
    tables = result.stage_tables
    index_a, index_b = tables[0].tree_a.stage_index, tables[0].tree_b.stage_index
    max_resid = 0.0
    max_proj = 0.0
    for t, table in enumerate(tables):
        parent_a, parent_b = index_a.parent[t + 1], index_b.parent[t + 1]
        p = index_a.cond_prob[t + 1][:, None]
        q = index_b.cond_prob[t + 1][None, :]
        mean_row = _group_sum(p * table.dual_row, parent_a, 0)  # [stage t of A, stage t of B]
        mean_col = _group_sum(q * table.dual_col, parent_b, 1)
        if t == 0:
            here = -(mean_row + mean_col)  # M_0 at the root pair
            m0 = float(here[0, 0])
        beta_hat = table.dual_row - mean_row[parent_a, :]
        gamma_hat = table.dual_col - mean_col[:, parent_b]
        max_proj = max(
            max_proj,
            float(np.abs(_group_sum(p * beta_hat, parent_a, 0)).max()),
            float(np.abs(_group_sum(q * gamma_hat, parent_b, 1)).max()),
        )
        increments = (here[np.ix_(parent_a, parent_b)] + beta_hat[:, parent_b]
                      + gamma_hat[parent_a, :])
        weighted = _group_sum(_group_sum(table.plan * increments, parent_a, 0), parent_b, 1)
        mass = _group_sum(_group_sum(table.plan, parent_a, 0), parent_b, 1)
        max_resid = max(max_resid, float(np.abs(weighted / mass - here).max()))
        here = increments
    return MartingaleReport(
        m0=m0,
        max_martingale_residual=max_resid,
        max_projection_residual=max_proj,
        residual_tol=residual_tol,
        projection_tol=projection_tol,
        passed=bool(max_resid <= residual_tol and max_proj <= projection_tol),
    )


@dataclass
class SweepRow:
    """One regularization level of a sweep; values are order-r distances."""

    lam: float
    nd_s: float
    nde_s: float
    nd_w: float
    wall_time_exact_s: float
    wall_time_sinkhorn_s: float
    iterations: int
    converged: bool


def lambda_sweep(tree_a: ScenarioTree, tree_b: ScenarioTree, r: float = 1.0,
                 lambdas: Sequence[float] = DEFAULT_LAMBDA_GRID, tol: float = 1e-9,
                 max_iter: int = 100_000) -> list[SweepRow]:
    """Regularized nested values across a grid of regularization levels.

    The exact value is computed once and repeated per row; wall times are
    reported but carry no determinism guarantee.
    """
    lambdas = list(lambdas)
    if not lambdas or any(lam <= 0.0 for lam in lambdas):
        raise ValueError("lambda grid must be non-empty and strictly positive")
    start = time.perf_counter()
    exact = nested_exact(tree_a, tree_b, r)
    exact_time = time.perf_counter() - start
    rows = []
    for lam in lambdas:
        start = time.perf_counter()
        sink = nested_sinkhorn(tree_a, tree_b, r, lam, tol=tol, max_iter=max_iter)
        elapsed = time.perf_counter() - start
        rows.append(
            SweepRow(
                lam=lam,
                nd_s=sink.value,
                nde_s=sink.value_with_entropy,
                nd_w=exact.value,
                wall_time_exact_s=exact_time,
                wall_time_sinkhorn_s=elapsed,
                iterations=sink.total_iterations,
                converged=sink.converged,
            )
        )
    return rows
