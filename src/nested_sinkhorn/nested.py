"""Process distances that respect the information structure of the trees.

The exact nested distance runs a backward recursion over stages: at every
node pair it solves a small transportation problem whose costs are the
values of the child pairs one stage later, and whose marginals are the two
conditional branch distributions.  The regularized variant replaces each
subproblem with a scaling iteration, run for a whole stage at once, and
propagates the full entropic objective.  A single flat linear program over
leaf-pair variables with cross-multiplied conditional-marginal constraints
serves as an independent oracle for both, and the remaining functions
verify the identities the recursion is supposed to satisfy: flat
feasibility of the composed plan, objective equality, the Gibbs
decomposition of the composed coupling, the comparison bounds, and the
martingale property of the dual process.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from ._simplex import solve_lp
from .scenario_tree import ScenarioTree, cost_matrix, trajectories
from .sinkhorn import CheckResult, _marginal_errors, _sinkhorn_batch, bounded_check, entropy
from .transport import TransportPlan, solve_transport_lp

__all__ = [
    "DEFAULT_LAMBDA_GRID",
    "ConditionalSolution",
    "EquivalenceReport",
    "MartingaleReport",
    "NestedBoundReport",
    "NestedResult",
    "StageStats",
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
    """

    value: float
    value_with_entropy: float
    value_pow: float
    value_with_entropy_pow: float
    stage_tables: list[dict[tuple[int, int], ConditionalSolution]]
    composed_plan: TransportPlan
    method: str
    lam: Optional[float]
    total_entropy: float
    converged: bool
    total_iterations: int
    stats: list[StageStats] = field(default_factory=list)


class _Subproblem(NamedTuple):
    """Conditional transport problem at one node pair."""

    row_children: tuple[int, ...]
    col_children: tuple[int, ...]
    row_probs: np.ndarray
    col_probs: np.ndarray
    cost: np.ndarray


# solves one stage's subproblems; returns their solutions in order, the
# number solved in the log domain and the largest plan marginal violation
StageSolver = Callable[[list[_Subproblem]], tuple[list[ConditionalSolution], int, float]]


def _shape_groups(
    problems: list[_Subproblem],
) -> Iterator[tuple[list[int], np.ndarray, np.ndarray, np.ndarray]]:
    """The subproblems grouped by cost shape; yields each group's indices
    with its stacked row marginals, column marginals and costs."""
    groups: dict[tuple[int, int], list[int]] = {}
    for k, sp in enumerate(problems):
        groups.setdefault(sp.cost.shape, []).append(k)
    for members in groups.values():
        group = [problems[k] for k in members]
        yield (members, np.array([sp.row_probs for sp in group]),
               np.array([sp.col_probs for sp in group]), np.array([sp.cost for sp in group]))


def _check_pair(tree_a: ScenarioTree, tree_b: ScenarioTree) -> None:
    if tree_a.height != tree_b.height:
        raise ValueError(f"trees have different heights: {tree_a.height} vs {tree_b.height}")
    if tree_a.height < 1:
        raise ValueError("nested distances need trees of height at least 1")


def _signed_root(x: float, r: float) -> float:
    if r == 1.0:
        return x
    return math.copysign(abs(x) ** (1.0 / r), x)


def _child_positions(tree: ScenarioTree) -> dict[int, int]:
    pos = {}
    for node in tree.nodes:
        for k, cid in enumerate(tree.children(node.id)):
            pos[cid] = k
    return pos


def _leaf_positions(tree: ScenarioTree) -> dict[int, np.ndarray]:
    """Leaf indices (in leaf order) of the subtree below every node."""
    index = {leaf: k for k, leaf in enumerate(tree.leaf_ids)}
    out: dict[int, np.ndarray] = {}

    def collect(nid: int) -> list[int]:
        kids = tree.children(nid)
        if not kids:
            return [index[nid]]
        acc: list[int] = []
        for cid in kids:
            acc.extend(collect(cid))
        return acc

    for node in tree.nodes:
        out[node.id] = np.array(collect(node.id), dtype=int)
    return out


def _solve_stagewise(
    tree_a: ScenarioTree,
    tree_b: ScenarioTree,
    leaf_cost: np.ndarray,
    solve_stage: StageSolver,
) -> tuple[list[dict[tuple[int, int], ConditionalSolution]], list[StageStats], float]:
    """Backward recursion over stages; returns the stage tables, the
    per-stage statistics and the root value.  The node pairs of a stage are
    independent, so each stage goes to ``solve_stage`` as one list."""
    T = tree_a.height
    pos_a = {leaf: k for k, leaf in enumerate(tree_a.leaf_ids)}
    pos_b = {leaf: k for k, leaf in enumerate(tree_b.leaf_ids)}
    values: dict[tuple[int, int], float] = {
        (ia, jb): float(leaf_cost[pos_a[ia], pos_b[jb]])
        for ia in tree_a.leaf_ids
        for jb in tree_b.leaf_ids
    }
    tables: list[dict[tuple[int, int], ConditionalSolution]] = []
    stats: list[StageStats] = []
    for t in range(T - 1, -1, -1):
        start = time.perf_counter()
        probs_b = {jb: tree_b.branch_probabilities(jb) for jb in tree_b.stage(t)}
        pairs = []
        problems = []
        for ia in tree_a.stage(t):
            kids_a = tree_a.children(ia)
            pa = tree_a.branch_probabilities(ia)
            for jb in tree_b.stage(t):
                kids_b = tree_b.children(jb)
                cost = np.array([[values[(x, y)] for y in kids_b] for x in kids_a])
                pairs.append((ia, jb))
                problems.append(_Subproblem(kids_a, kids_b, pa, probs_b[jb], cost))
        solved, stabilized, worst = solve_stage(problems)
        tables.append(dict(zip(pairs, solved)))
        values = {pair: sol.value for pair, sol in zip(pairs, solved)}
        iterations = [sol.iterations for sol in solved]
        stats.append(StageStats(
            stage=t,
            subproblems=len(problems),
            shapes=sorted({sp.cost.shape for sp in problems}),
            iterations=sum(iterations),
            iterations_min=min(iterations),
            iterations_median=float(np.median(iterations)),
            iterations_max=max(iterations),
            stabilized=stabilized,
            max_marginal_error=worst,
            wall_s=time.perf_counter() - start,
        ))
    tables.reverse()
    stats.reverse()
    return tables, stats, values[(tree_a.root_id, tree_b.root_id)]


def _compose(
    tree_a: ScenarioTree,
    tree_b: ScenarioTree,
    tables: list[dict[tuple[int, int], ConditionalSolution]],
) -> np.ndarray:
    """Leaf-pair coupling as the stagewise entrywise product of conditional
    plans along the two predecessor paths."""
    paths_a = tree_a.leaf_paths()
    paths_b = tree_b.leaf_paths()
    cpos_a = _child_positions(tree_a)
    cpos_b = _child_positions(tree_b)
    T = len(tables)
    out = np.ones((len(paths_a), len(paths_b)))
    for ia, pa in enumerate(paths_a):
        for jb, pb in enumerate(paths_b):
            w = 1.0
            for t in range(T):
                sol = tables[t][(pa[t], pb[t])]
                w *= sol.plan[cpos_a[pa[t + 1]], cpos_b[pb[t + 1]]]
            out[ia, jb] = w
    return out


def nested_exact(tree_a: ScenarioTree, tree_b: ScenarioTree, r: float = 1.0) -> NestedResult:
    """Exact nested distance of order ``r`` via the backward recursion.

    Every conditional subproblem is a transportation LP over the child pairs
    with the stage-(t+1) values as costs; the root value's r-th root is the
    distance.  The composed leaf-pair plan is optimal for the flat
    formulation with conditional-marginal constraints.
    """
    _check_pair(tree_a, tree_b)
    leaf_cost = cost_matrix(tree_a, tree_b, r)

    def solve_stage(problems: list[_Subproblem]):
        solved = []
        for sp in problems:
            lp = solve_transport_lp(sp.row_probs, sp.col_probs, sp.cost)
            solved.append(ConditionalSolution(
                row_children=sp.row_children,
                col_children=sp.col_children,
                row_probs=sp.row_probs,
                col_probs=sp.col_probs,
                plan=lp.plan.matrix,
                value=lp.value,
                dual_row=lp.dual_row,
                dual_col=lp.dual_col,
                entropy=entropy(lp.plan.matrix),
                iterations=0,
                converged=True,
            ))
        worst = max(
            float(_marginal_errors(np.array([solved[k].plan for k in members]), P, Q).max())
            for members, P, Q, _ in _shape_groups(problems)
        )
        return solved, 0, worst

    tables, stats, root_value = _solve_stagewise(tree_a, tree_b, leaf_cost, solve_stage)
    composed = _compose(tree_a, tree_b, tables)
    p = np.array([t.prob for t in trajectories(tree_a)])
    q = np.array([t.prob for t in trajectories(tree_b)])
    value_pow = max(root_value, 0.0)
    value = value_pow ** (1.0 / r)
    return NestedResult(
        value=value,
        value_with_entropy=value,
        value_pow=value_pow,
        value_with_entropy_pow=value_pow,
        stage_tables=tables,
        composed_plan=TransportPlan(composed, p, q),
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
    _check_pair(tree_a, tree_b)
    if lam <= 0.0:
        raise ValueError(f"regularization parameter must be positive, got {lam}")
    leaf_cost = cost_matrix(tree_a, tree_b, r)
    sub_tol = tol / tree_a.height

    def solve_stage(problems: list[_Subproblem]):
        solved: list[Optional[ConditionalSolution]] = [None] * len(problems)
        stabilized = 0
        worst = 0.0
        for members, P, Q, C in _shape_groups(problems):
            batch = _sinkhorn_batch(P, Q, C, lam, sub_tol, max_iter)
            stabilized += int(batch.stabilized.sum())
            worst = max(worst, float(batch.marginal_error.max()))
            for row, k in enumerate(members):
                sp = problems[k]
                solved[k] = ConditionalSolution(
                    row_children=sp.row_children,
                    col_children=sp.col_children,
                    row_probs=sp.row_probs,
                    col_probs=sp.col_probs,
                    plan=batch.plan[row],
                    value=float(batch.de_s[row]),
                    dual_row=batch.dual_row[row],
                    dual_col=batch.dual_col[row],
                    entropy=float(batch.entropy[row]),
                    iterations=int(batch.iterations[row]),
                    converged=bool(batch.converged[row]),
                )
        return solved, stabilized, worst

    tables, stats, root_value = _solve_stagewise(tree_a, tree_b, leaf_cost, solve_stage)
    composed = _compose(tree_a, tree_b, tables)
    p = np.array([t.prob for t in trajectories(tree_a)])
    q = np.array([t.prob for t in trajectories(tree_b)])
    value_pow = float((composed * leaf_cost).sum())
    return NestedResult(
        value=_signed_root(value_pow, r),
        value_with_entropy=_signed_root(root_value, r),
        value_pow=value_pow,
        value_with_entropy_pow=root_value,
        stage_tables=tables,
        composed_plan=TransportPlan(composed, p, q),
        method="sinkhorn",
        lam=lam,
        total_entropy=entropy(composed),
        converged=all(sol.converged for table in tables for sol in table.values()),
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
    _check_pair(tree_a, tree_b)
    na = tree_a.n_leaves
    nb = tree_b.n_leaves
    if na * nb > max_cells:
        raise ValueError(
            f"instance too large for the flat LP: {na} x {nb} leaf pairs exceeds {max_cells}"
        )
    cost = cost_matrix(tree_a, tree_b, r)
    leaves_a = _leaf_positions(tree_a)
    leaves_b = _leaf_positions(tree_b)
    ncells = na * nb

    def block(ids_a: np.ndarray, ids_b: np.ndarray) -> np.ndarray:
        return (ids_a[:, None] * nb + ids_b[None, :]).ravel()

    rows = [np.ones(ncells)]
    rhs = [1.0]
    for t in range(tree_a.height):
        for ia in tree_a.stage(t):
            for jb in tree_b.stage(t):
                base = block(leaves_a[ia], leaves_b[jb])
                for child in tree_a.children(ia)[:-1]:
                    row = np.zeros(ncells)
                    row[block(leaves_a[child], leaves_b[jb])] += 1.0
                    row[base] -= tree_a.node(child).cond_prob
                    rows.append(row)
                    rhs.append(0.0)
                for child in tree_b.children(jb)[:-1]:
                    row = np.zeros(ncells)
                    row[block(leaves_a[ia], leaves_b[child])] += 1.0
                    row[base] -= tree_b.node(child).cond_prob
                    rows.append(row)
                    rhs.append(0.0)
    x, value = solve_lp(cost.ravel(), np.array(rows), np.array(rhs))
    plan = x.reshape(na, nb)
    p = np.array([t.prob for t in trajectories(tree_a)])
    q = np.array([t.prob for t in trajectories(tree_b)])
    return max(value, 0.0) ** (1.0 / r), TransportPlan(plan, p, q)


def conditional_marginal_residuals(tree_a: ScenarioTree, tree_b: ScenarioTree,
                                   matrix: np.ndarray) -> float:
    """Largest violation of the flat conditional-marginal constraints by a
    leaf-pair coupling."""
    leaves_a = _leaf_positions(tree_a)
    leaves_b = _leaf_positions(tree_b)
    worst = 0.0
    for t in range(tree_a.height):
        for ia in tree_a.stage(t):
            for jb in tree_b.stage(t):
                mass = float(matrix[np.ix_(leaves_a[ia], leaves_b[jb])].sum())
                for child in tree_a.children(ia):
                    lhs = float(matrix[np.ix_(leaves_a[child], leaves_b[jb])].sum())
                    worst = max(worst, abs(lhs - tree_a.node(child).cond_prob * mass))
                for child in tree_b.children(jb):
                    lhs = float(matrix[np.ix_(leaves_a[ia], leaves_b[child])].sum())
                    worst = max(worst, abs(lhs - tree_b.node(child).cond_prob * mass))
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
    positive = matrix > 0.0
    log_matrix = np.where(positive, np.log(np.where(positive, matrix, 1.0)), 0.0)
    flat_objective = float((matrix * cost).sum() + (matrix * log_matrix).sum() / lam)
    objective_gap = abs(flat_objective - result.value_with_entropy_pow)

    # rebuild log(plan) from the stagewise Gibbs factors
    # exp(-lam * (next_value - beta - gamma) - 1), and compare against the
    # log of the composed coupling accumulated as a sum of stage-plan logs
    # (the entrywise product itself can underflow for large lam)
    tables = result.stage_tables
    T = len(tables)
    paths_a = tree_a.leaf_paths()
    paths_b = tree_b.leaf_paths()
    cpos_a = _child_positions(tree_a)
    cpos_b = _child_positions(tree_b)
    pos_a = {leaf: k for k, leaf in enumerate(tree_a.leaf_ids)}
    pos_b = {leaf: k for k, leaf in enumerate(tree_b.leaf_ids)}
    max_gibbs = 0.0
    for ia, pa in enumerate(paths_a):
        for jb, pb in enumerate(paths_b):
            recon = 0.0
            log_composed = 0.0
            for t in range(T):
                sol = tables[t][(pa[t], pb[t])]
                k = cpos_a[pa[t + 1]]
                l = cpos_b[pb[t + 1]]
                if t + 1 == T:
                    nxt = cost[pos_a[pa[t + 1]], pos_b[pb[t + 1]]]
                else:
                    nxt = tables[t + 1][(pa[t + 1], pb[t + 1])].value
                recon += -lam * (nxt - sol.dual_row[k] - sol.dual_col[l]) - 1.0
                log_composed += math.log(sol.plan[k, l])
            max_gibbs = max(max_gibbs, abs(recon - log_composed))

    # plain bools and floats, so the report serializes as JSON
    feas_ok = bool(max_residual <= marginal_tol)
    obj_ok = bool(objective_gap <= objective_tol)
    gibbs_ok = bool(max_gibbs <= gibbs_tol)
    return EquivalenceReport(
        max_marginal_residual=max_residual,
        flat_objective=flat_objective,
        recursive_objective=result.value_with_entropy_pow,
        objective_gap=objective_gap,
        max_gibbs_residual=float(max_gibbs),
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


def _max_branching(tree: ScenarioTree) -> int:
    return max(len(tree.children(n.id)) for n in tree.nodes if tree.children(n.id))


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
    m_a = _max_branching(tree_a)
    m_b = _max_branching(tree_b)
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
    root_pair = next(iter(tables[0]))
    root = tables[0][root_pair]
    m0 = -float(root.row_probs @ root.dual_row + root.col_probs @ root.dual_col)
    m_values: dict[tuple[int, int], float] = {root_pair: m0}
    max_resid = 0.0
    max_proj = 0.0
    for table in tables:
        next_values: dict[tuple[int, int], float] = {}
        for pair, sol in table.items():
            beta_hat = sol.dual_row - float(sol.row_probs @ sol.dual_row)
            gamma_hat = sol.dual_col - float(sol.col_probs @ sol.dual_col)
            max_proj = max(
                max_proj,
                abs(float(sol.row_probs @ beta_hat)),
                abs(float(sol.col_probs @ gamma_hat)),
            )
            here = m_values[pair]
            increments = here + beta_hat[:, None] + gamma_hat[None, :]
            expected = float((sol.plan * increments).sum() / sol.plan.sum())
            max_resid = max(max_resid, abs(expected - here))
            for k, child_a in enumerate(sol.row_children):
                for l, child_b in enumerate(sol.col_children):
                    next_values[(child_a, child_b)] = float(increments[k, l])
        m_values = next_values
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
