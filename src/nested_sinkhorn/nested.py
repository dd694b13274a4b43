"""Process distances that respect the information structure of the trees.

The exact nested distance runs a backward recursion over stages: at every
node pair it solves a small transportation problem whose costs are the
values of the child pairs one stage later, and whose marginals are the two
conditional branch distributions.  The regularized variant solves each
subproblem by a scaling iteration and propagates the full entropic
objective.  A stage is solved in groups of same-shape subproblems into one
:class:`StageTable` of dense arrays, which later stage walks read by the
trees' index arrays: an exact group by the north-west corner of each
problem sorted by child state, or by cost difference where a side has two
children, kept where its duals certify it, a regularized group by the
batched scaling solver.
A flat linear program over leaf-pair variables with cross-multiplied
conditional-marginal constraints is an independent oracle for both; the
remaining functions verify flat feasibility of the composed plan,
objective equality, the Gibbs decomposition of the composed coupling, the
comparison bounds, and the martingale property of the dual process.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from ._simplex import _ENTER_TOL, _PIVOT_TOL, solve_lp
from .scenario_tree import ScenarioTree, cost_matrix
from .sinkhorn import (_EXP_FLOOR, CheckResult, _BatchResult, _check_settings, _marginal_errors,
                       _residual_check, _sinkhorn_batch, _stacked_entropy, bounded_check, entropy)
from .transport import TransportPlan, solve_transport_lp

__all__ = [
    "DEFAULT_LAMBDA_GRID",
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
    "verify_entropic_equivalence",
]

# regularization grid used by the convergence experiments
DEFAULT_LAMBDA_GRID: tuple[float, ...] = (0.5,) + tuple(float(k) for k in range(1, 31))

# thresholds of the verification reports on a converged regularized run
MARGINAL_TOL = 1e-7     # flat conditional-marginal residual of the composed plan
OBJECTIVE_TOL = 1e-7    # flat entropic objective against the recursion's root value
GIBBS_TOL = 1e-6        # composed plan against its stagewise Gibbs reconstruction (logs)
MARTINGALE_TOL = 1e-6   # conditional mean of the dual process against its current value
PROJECTION_TOL = 1e-8   # conditional means of the translated multipliers

# the bound report's regularized run, tight so its slacks stay inside BOUND_SLACK
BOUND_TOL = 1e-12         # marginal stopping tolerance per nested run
BOUND_MAX_ITER = 200_000  # sweep cap per subproblem

FLAT_LP_MAX_CELLS = 40_000  # leaf pairs beyond which flat_nested_lp refuses an instance

# how far below zero the exact stage solve lets a reduced cost fall, relative to 1 + max |cost|
_DUAL_TOL = 1e-12


@dataclass(eq=False)
class StageTable:
    """The solved subproblems of one stage as dense read-only arrays, laid
    out as described in :class:`NestedResult`; ``len()`` is the pair count."""

    value: np.ndarray
    entropy: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    plan: np.ndarray
    dual_row: np.ndarray
    dual_col: np.ndarray

    def __len__(self) -> int:
        return self.value.size


@dataclass
class StageStats:
    """Where one stage of the backward recursion spent its work.

    ``shapes`` lists the distinct child-count shapes ``(m, n)`` of the
    stage's subproblems.  ``iterations`` is the stage's total of scaling
    sweeps and root steps (a subproblem with two rows or two columns counts
    the steps of its scalar root, one with a single row or column none, one
    past the plain range its sweeps at every ``lam`` it was solved at) and
    the ``iterations_*`` fields its spread over the subproblems (all 0 for
    exact LPs); ``newton`` is the stage's total of Newton steps of the
    general finish, at every ``lam`` too, ``stabilized`` counts the
    subproblems whose first sweeps ran in the log domain or, with two rows
    or two columns, that lie past the plain form's exponent range, and
    ``stalled`` those stopped unconverged at round-off (any other
    unconverged one took ``max_iter`` sweeps or root steps).
    ``max_marginal_error`` is the largest marginal violation of a stage plan
    and ``wall_s`` the stage's wall time.
    """

    stage: int
    subproblems: int
    shapes: list[tuple[int, int]]
    iterations: int
    iterations_min: int
    iterations_median: float
    iterations_max: int
    newton: int
    stabilized: int
    stalled: int
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
    holds one :class:`StageStats` record per stage, in stage order, and
    ``leaf_cost`` the read-only leaf-pair cost matrix the recursion priced
    between ``tree_a`` and ``tree_b``.

    ``stage_tables[t]`` is the :class:`StageTable` of stage ``t``, whose node
    pairs are the full product ``tree_a.stage(t) x tree_b.stage(t)``, so each
    stage-(t+1) pair has exactly one parent pair.  Its arrays are indexed by
    position within the stage; with ``Na``, ``Nb`` the stage-t sizes and
    ``Ma``, ``Mb`` the stage-(t+1) sizes, ``value``, ``entropy``,
    ``iterations`` and ``converged`` are ``[Na, Nb]``, ``plan`` is ``[Ma, Mb]``
    (each child pair's entry in its parent pair's conditional plan),
    ``dual_row`` is ``[Ma, Nb]`` and ``dual_col`` is ``[Na, Mb]``.  The
    trees' ``stage_index`` maps node ids to these positions.
    """

    value: float
    value_with_entropy: float
    value_pow: float
    value_with_entropy_pow: float
    tree_a: ScenarioTree
    tree_b: ScenarioTree
    stage_tables: list[StageTable]
    leaf_cost: np.ndarray
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
    solve_group: Callable[..., _BatchResult],
) -> tuple[list[StageTable], list[StageStats]]:
    """Backward recursion over stages; returns the stage tables and the
    per-stage statistics, in stage order.  A stage's node pairs are grouped
    by child counts ``(m, n)``; ``solve_group`` gets each group in pair order
    as stacked row marginals ``[B, m]``, column marginals ``[B, n]``, costs
    ``[B, m, n]`` gathered from the next stage's values (the leaf costs at
    the last stage, whose nodes are the leaves), and the child states
    ``[B, m]`` and ``[B, n]``, stacked like the marginals."""
    index_a, index_b = tree_a.stage_index, tree_b.stage_index
    next_value = leaf_cost
    tables: list[StageTable] = []
    stats: list[StageStats] = []
    for t in range(tree_a.height - 1, -1, -1):
        start = time.perf_counter()
        (Na, Nb), (Ma, Mb) = (len(tree_a.stage(t)), len(tree_b.stage(t))), next_value.shape
        table = StageTable(
            value=np.empty((Na, Nb)), entropy=np.empty((Na, Nb)),
            iterations=np.empty((Na, Nb), dtype=int), converged=np.empty((Na, Nb), dtype=bool),
            plan=np.empty((Ma, Mb)), dual_row=np.empty((Ma, Nb)), dual_col=np.empty((Na, Mb)),
        )
        stabilized = newton = stalled = 0
        worst = 0.0
        for nodes_a, kids_a in index_a.children[t].values():
            for nodes_b, kids_b in index_b.children[t].values():
                (I, m), (J, n) = kids_a.shape, kids_b.shape
                pairs = np.ix_(nodes_a, nodes_b)
                child_pairs = (kids_a[:, None, :, None], kids_b[None, :, None, :])
                batch = solve_group(np.repeat(index_a.cond_prob[t + 1][kids_a], J, axis=0),
                                    np.tile(index_b.cond_prob[t + 1][kids_b], (I, 1)),
                                    next_value[child_pairs].reshape(I * J, m, n),
                                    np.repeat(index_a.state[t + 1][kids_a], J, axis=0),
                                    np.tile(index_b.state[t + 1][kids_b], (I, 1)))
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
                newton += int(batch.newton.sum())
                stalled += int(batch.stalled.sum())
                worst = max(worst, float(batch.marginal_error.max()))
        for array_field in fields(table):
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
            newton=newton,
            stabilized=stabilized,
            stalled=stalled,
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


def _lp_group(P: np.ndarray, Q: np.ndarray, C: np.ndarray, X: np.ndarray,
              Y: np.ndarray) -> _BatchResult:
    """The transportation LPs of a group, stacked in the layout of
    :func:`_sinkhorn_batch` with the child states ``X`` ``[B, m]`` and ``Y``
    ``[B, n]``; no sweeps, and the value is the LP optimum.  Each problem,
    sorted by child state on both sides, takes its north-west corner: the
    staircase whose steps are cut at the merged inner breakpoints of the two
    cumulative marginals, a row breakpoint before a column one on a tie.
    The staircase duals give its cells zero reduced cost, with row 0 pinned
    at zero as the simplex pins it.  Where the sorted costs are Monge, as
    the leaf costs (c + |x - y|)^r of scalar states are, the corner is
    optimal (Burkard, Klinz & Rudolf, Discrete Appl. Math. 70, 1996), and
    the duals certify it: every reduced cost is at least ``-_DUAL_TOL * (1 +
    max |cost|)``.  A problem with two columns sorts its rows by ``C_i0 -
    C_i1`` instead, and one with two rows (and more columns) its columns by
    ``C_0j - C_1j``: whatever the costs, that order is Monge.  A problem the
    duals do not certify goes to :func:`solve_transport_lp`."""
    B, m, n = C.shape
    if n == 2:
        X, Y = C[:, :, 0] - C[:, :, 1], np.zeros((B, 2))
    elif m == 2:
        X, Y = np.zeros((B, 2)), C[:, 0, :] - C[:, 1, :]
    stack = np.arange(B)[:, None]
    rows, cols = np.argsort(X, axis=1, kind="stable"), np.argsort(Y, axis=1, kind="stable")
    p_cum = np.cumsum(np.take_along_axis(P, rows, axis=1), axis=1)
    q_cum = np.cumsum(np.take_along_axis(Q, cols, axis=1), axis=1)
    inner = np.concatenate([p_cum[:, :-1], q_cum[:, :-1]], axis=1)
    order = np.argsort(inner, axis=1, kind="stable")
    down = order < m - 1  # step s + 1 of the staircase moves down a row
    sorted_row = np.concatenate([np.zeros((B, 1), dtype=int), np.cumsum(down, axis=1)], axis=1)
    row, col = rows[stack, sorted_row], cols[stack, np.arange(m + n - 1) - sorted_row]
    bounds = np.concatenate([np.zeros((B, 1)), np.take_along_axis(inner, order, axis=1),
                             p_cum[:, -1:]], axis=1)
    plan = np.zeros(C.shape)
    plan[stack, row, col] = np.maximum(np.diff(bounds, axis=1), 0.0)
    cost = C[stack, row, col]
    # row potentials change on down steps only, so a row's steps agree exactly;
    # each column takes its potential at its first step
    u = np.concatenate([np.zeros((B, 1)), np.cumsum(np.where(down, np.diff(cost, axis=1), 0.0),
                                                    axis=1)], axis=1)
    dual_row, dual_col = np.empty(P.shape), np.empty(Q.shape)
    dual_row[stack, row] = u
    problem, step = np.nonzero(np.concatenate([np.ones((B, 1), dtype=bool), ~down], axis=1))
    dual_col[problem, col[problem, step]] = (cost - u)[problem, step]
    pin = dual_row[:, :1].copy()
    dual_row -= pin
    dual_col += pin
    slack = -_DUAL_TOL * (1.0 + np.abs(C).max(axis=(1, 2)))
    reduced = C - dual_row[:, :, None] - dual_col[:, None, :]
    for b in np.flatnonzero((reduced < slack[:, None, None]).any(axis=(1, 2))):
        lp = solve_transport_lp(P[b], Q[b], C[b])
        plan[b], dual_row[b], dual_col[b] = lp.plan.matrix, lp.dual_row, lp.dual_col
    value = (plan * C).sum(axis=(1, 2))
    sweeps = np.zeros(B, dtype=int)
    return _BatchResult(
        plan=plan, d_s=value, entropy=_stacked_entropy(plan), de_s=value,
        dual_row=dual_row, dual_col=dual_col, iterations=sweeps,
        marginal_error=_marginal_errors(plan, P, Q), converged=sweeps == 0,
        stabilized=sweeps > 0, newton=sweeps, stalled=sweeps > 0,
    )


def _recursion(tree_a: ScenarioTree, tree_b: ScenarioTree, r: float,
               lam: Optional[float] = None, tol: float = 0.0, max_iter: int = 0,
               leaf_cost: Optional[np.ndarray] = None) -> NestedResult:
    """The exact recursion, or with ``lam`` the regularized one, on the
    read-only ``leaf_cost``, which is priced here unless given."""
    if leaf_cost is None:
        leaf_cost = cost_matrix(tree_a, tree_b, r)
        leaf_cost.flags.writeable = False
    _check_height(tree_a)
    # the solver reads tol / T once the driver has checked that T >= 1
    solve_group = _lp_group if lam is None else (
        lambda P, Q, C, X, Y: _sinkhorn_batch(P, Q, C, lam, tol / tree_a.height, max_iter))
    tables, stats = _solve_stagewise(tree_a, tree_b, leaf_cost, solve_group)
    composed = _compose(tree_a, tree_b, tables)
    root_pow = float(tables[0].value[0, 0])
    if lam is None:
        value_pow = root_pow = max(root_pow, 0.0)
    else:
        value_pow = float((composed * leaf_cost).sum())
    return NestedResult(
        value=_signed_root(value_pow, r),
        value_with_entropy=_signed_root(root_pow, r),
        value_pow=value_pow,
        value_with_entropy_pow=root_pow,
        tree_a=tree_a,
        tree_b=tree_b,
        stage_tables=tables,
        leaf_cost=leaf_cost,
        composed_plan=TransportPlan(composed, tree_a.leaf_probabilities,
                                    tree_b.leaf_probabilities),
        method="exact" if lam is None else "sinkhorn",
        lam=lam,
        total_entropy=entropy(composed),
        converged=all(bool(table.converged.all()) for table in tables),
        total_iterations=sum(stage.iterations for stage in stats),
        stats=stats,
    )


def nested_exact(tree_a: ScenarioTree, tree_b: ScenarioTree, r: float = 1.0) -> NestedResult:
    """Exact nested distance of order ``r`` via the backward recursion.

    Every conditional subproblem is a transportation LP over the child pairs
    with the stage-(t+1) values as costs; the root value's r-th root is the
    distance.  A stage's LPs of one shape are solved together by
    :func:`_lp_group`: each takes the north-west corner of its problem
    sorted by child state, or by cost difference where one side has two
    children, which is optimal wherever the sorted costs are Monge, as at
    the last stage and on every side of two, and one simplex where the
    corner's duals do not certify it.  A degenerate LP may end at any optimal vertex.  The
    composed leaf-pair plan is optimal for the flat formulation with
    conditional-marginal constraints.
    """
    return _recursion(tree_a, tree_b, r)


def nested_sinkhorn(tree_a: ScenarioTree, tree_b: ScenarioTree, r: float = 1.0,
                    lam: float = 20.0, tol: float = 1e-9, max_iter: int = 100_000) -> NestedResult:
    """Entropy-regularized nested divergence via the same backward recursion.

    Each conditional subproblem is solved by the scaling iteration and
    contributes its full entropic objective as the cost seen one stage
    earlier.  A stage's subproblems are grouped by shape, and each group is
    solved by :func:`_sinkhorn_batch`, which first counts its free
    potentials.  A group with a single row or column takes its one feasible
    plan, the product of the marginals, with no iteration; one with two
    rows or two columns finds its one free potential as a scalar root, one
    iteration per root step.  Every other group takes a short block of
    sweeps, in the plain loop for subproblems inside the safe exponent range
    and in one log-domain loop for the rest, started from their solutions at
    ``lam / 8``, and for those on which the plain one underflowed, then
    batched Newton steps for the subproblems still unconverged, alternating
    with doubling blocks of log-domain sweeps where Newton stalls.  Every
    subproblem keeps the iterations, Newton steps, plan and multipliers
    ``sinkhorn_auto`` would give it alone; ``stats`` counts both kinds of
    work per stage, at every ``lam``.  Subproblems run at tolerance ``tol /
    T`` so the stagewise marginal errors cannot push the composed plan's
    feasibility beyond ``tol``.  A subproblem that has taken
    ``max_iter`` sweeps or root steps unconverged flags the whole result as
    unconverged instead of raising.
    """
    _check_settings(lam, tol, max_iter)
    return _recursion(tree_a, tree_b, r, lam, tol, max_iter)


def flat_nested_lp(tree_a: ScenarioTree, tree_b: ScenarioTree,
                   r: float = 1.0) -> tuple[float, TransportPlan]:
    """Nested distance as one flat LP over leaf-pair variables.

    For every stage, node pair and immediate successor the conditional
    marginal constraint is written in cross-multiplied linear form
    ``mass(successor-block) = P(successor | node) * mass(pair-block)``; one
    redundant successor per group is dropped.  Solved by the generic dense
    simplex, so it is an oracle wholly independent of the recursion.  Only
    intended for desk-scale instances (``n_leaves_a * n_leaves_b`` capped by
    :data:`FLAT_LP_MAX_CELLS`).  Raises ``RuntimeError`` when the simplex
    fails or its plan misses the conditional marginals by more than 1e-3 of
    the smallest leaf probability, which happens on branch probabilities
    near 1e-9.
    """
    na = tree_a.n_leaves
    nb = tree_b.n_leaves
    if na * nb > FLAT_LP_MAX_CELLS:
        raise ValueError(f"instance too large for the flat LP: {na} x {nb} leaf pairs "
                         f"exceeds {FLAT_LP_MAX_CELLS}")
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
    p_min = min(tree_a.leaf_probabilities.min(), tree_b.leaf_probabilities.min())
    limits = (f"smallest leaf probability {p_min:.3e}, dense simplex absolute tolerances "
              f"{_ENTER_TOL:g} (entering) and {_PIVOT_TOL:g} (pivot)")
    try:
        x, value = solve_lp(cost.ravel(), np.array(rows), np.array(rhs))
    except RuntimeError as exc:
        raise RuntimeError(f"flat LP failed: {exc}; {limits}") from exc
    plan = x.reshape(na, nb)
    residual = conditional_marginal_residuals(tree_a, tree_b, plan)
    if residual > 1e-3 * p_min:
        raise RuntimeError(f"flat LP plan violates the conditional marginals by "
                           f"{residual:.3e}, beyond 1e-3 of the {limits}")
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
    """Verification that the recursion solved the flat entropic problem:
    ``checks`` holds the composed plan's flat conditional-marginal residual,
    its flat entropic objective ``flat_objective`` against the recursion's
    root value, and its log gap to the stagewise Gibbs decomposition rebuilt
    from the stored dual multipliers, each with its tolerance as ``upper``."""

    checks: list[CheckResult]
    flat_objective: float
    passed: bool


def _check_reportable(result: NestedResult, report: str) -> None:
    """Raise unless ``result`` is the converged regularized run ``report`` reads."""
    if result.method != "sinkhorn":
        raise ValueError(f"{report} needs a regularized nested result")
    if not result.converged:
        raise ValueError(f"{report} needs a converged result")


def verify_entropic_equivalence(result: NestedResult) -> EquivalenceReport:
    """Check a converged regularized result against the flat formulation on
    its own trees, leaf costs and ``lam``, to :data:`MARGINAL_TOL`,
    :data:`OBJECTIVE_TOL` and :data:`GIBBS_TOL`."""
    _check_reportable(result, "equivalence verification")
    tables, lam, cost = result.stage_tables, result.lam, result.leaf_cost
    tree_a, tree_b = result.tree_a, result.tree_b
    matrix = result.composed_plan.matrix
    max_residual = conditional_marginal_residuals(tree_a, tree_b, matrix)

    log_matrix = np.log(np.where(matrix > 0.0, matrix, 1.0))
    flat_objective = float((matrix * cost).sum() + (matrix * log_matrix).sum() / lam)
    objective_gap = abs(flat_objective - result.value_with_entropy_pow)

    # rebuild log(plan) from the stagewise Gibbs factors
    # exp(-lam * (next_value - beta - gamma) - 1), and compare against the
    # log of the composed coupling accumulated as a sum of stage-plan logs
    # (the entrywise product itself can underflow for large lam).  The
    # solver writes a stage plan entry as 0 below exp(_EXP_FLOOR), so a zero
    # entry passes where its exponent is at most _EXP_FLOOR, up to GIBBS_TOL.
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
        vanished_ok = vanished_ok and bool((exponent[~positive] <= _EXP_FLOOR + GIBBS_TOL).all())
    max_gibbs = float(np.abs(recon - log_composed).max()) if vanished_ok else math.inf

    checks = [
        _residual_check("conditional marginal feasibility", max_residual, MARGINAL_TOL),
        _residual_check("flat objective equality", objective_gap, OBJECTIVE_TOL),
        _residual_check("stagewise Gibbs decomposition", max_gibbs, GIBBS_TOL),
    ]
    return EquivalenceReport(checks, flat_objective, all(c.passed for c in checks))


@dataclass
class NestedBoundReport:
    """Sandwich and gap bounds for the regularized nested divergence, checked
    on the runs ``exact`` and ``regularized``; ``all_passed`` also needs the
    regularized run converged."""

    exact: NestedResult
    regularized: NestedResult
    checks: list[CheckResult]
    all_passed: bool


def nested_bound_report(tree_a: ScenarioTree, tree_b: ScenarioTree, r: float = 1.0,
                        lam: float = 20.0) -> NestedBoundReport:
    """Compute exact and regularized nested values and check the bounds.

    All comparisons run on order-r power values: the sandwich
    ``nde_s <= nd_w <= nd_s``, the gap bounds against the composed-plan
    entropies, and the stage-count cap ``T * (log m_a + log m_b) / lam``
    with ``m_a``, ``m_b`` the largest immediate-successor counts anywhere in
    the trees.  The regularized run takes :data:`BOUND_TOL`,
    :data:`BOUND_MAX_ITER` and the exact run's leaf costs; the cap is the
    ``upper`` of the last check.
    """
    _check_settings(lam, BOUND_TOL, BOUND_MAX_ITER)
    exact = nested_exact(tree_a, tree_b, r)
    sink = _recursion(tree_a, tree_b, r, lam, BOUND_TOL, BOUND_MAX_ITER, exact.leaf_cost)
    nd_w = exact.value_pow
    nd_s = sink.value_pow
    nde_s = sink.value_with_entropy_pow
    h_s = sink.total_entropy
    h_w = exact.total_entropy
    m_a = max(max(groups) for groups in tree_a.stage_index.children)
    m_b = max(max(groups) for groups in tree_b.stage_index.children)
    checks = [
        bounded_check("sandwich: entropic <= exact <= regularized", nd_w,
                      upper=nd_s, lower=nde_s),
        bounded_check("cost gap vs entropy difference", nd_s - nd_w,
                      upper=(h_s - h_w) / lam),
        bounded_check("objective gap vs plan entropy", nd_w - nde_s,
                      upper=h_s / lam),
        bounded_check("largest gap vs stagewise branching bound",
                      max(nd_s - nd_w, nd_w - nde_s),
                      upper=tree_a.height * (math.log(m_a) + math.log(m_b)) / lam),
    ]
    return NestedBoundReport(exact, sink, checks,
                             sink.converged and all(c.passed for c in checks))


@dataclass
class MartingaleReport:
    """Martingale diagnostic for the dual process built from the stored
    conditional multipliers, started at ``m0``: ``checks`` holds the
    martingale and projection residuals, each with its tolerance as
    ``upper``."""

    checks: list[CheckResult]
    m0: float
    passed: bool


def martingale_check(result: NestedResult) -> MartingaleReport:
    """Verify the dual process of a converged regularized result.

    At every node pair the row and column multipliers are translated to
    conditional mean zero under the two branch distributions; the process
    started at ``M_0 = -(E beta + E gamma)`` (root pair) and incremented by
    the translated multipliers must satisfy ``E[M_{t+1} | pair] = M_t``
    under the conditional plans, and the translations themselves must
    project to zero, up to :data:`MARTINGALE_TOL` and :data:`PROJECTION_TOL`.
    """
    _check_reportable(result, "martingale check")
    tables = result.stage_tables
    index_a, index_b = result.tree_a.stage_index, result.tree_b.stage_index
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
    checks = [_residual_check("martingale residual", max_resid, MARTINGALE_TOL),
              _residual_check("projection residual", max_proj, PROJECTION_TOL)]
    return MartingaleReport(checks, m0, all(c.passed for c in checks))


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

    The exact value and the leaf costs are computed once; wall times are
    reported but carry no determinism guarantee.
    """
    lambdas = list(lambdas)
    if not lambdas:
        raise ValueError("lambda grid must be non-empty")
    for lam in lambdas:
        _check_settings(lam, tol, max_iter)
    start = time.perf_counter()
    exact = nested_exact(tree_a, tree_b, r)
    exact_time = time.perf_counter() - start
    rows = []
    for lam in lambdas:
        start = time.perf_counter()
        sink = _recursion(tree_a, tree_b, r, lam, tol, max_iter, exact.leaf_cost)
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
