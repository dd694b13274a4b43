"""Exact discrete optimal transport.

A transportation simplex on the basis tree, whose nodes are the rows and
columns, whose arcs are the basic cells and whose root is row 0 (potential
pinned to zero); each node keeps the mass on the arc to its parent.
Least-cost (matrix-minimum) start; Dantzig pricing, with Bland's rule after
a streak of zero-step pivots so cycling cannot occur; leaving ties go to
the lowest cell index.  The returned duals certify the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario_tree import ScenarioTree, cost_matrix

__all__ = [
    "LpSolution",
    "TransportPlan",
    "solve_transport_lp",
    "wasserstein_distance",
]

_RC_TOL = 1e-11        # reduced-cost threshold for entering variables
_MAX_PIVOTS = 100_000  # cap on simplex pivots per solve
_DEGENERATE_SWITCH = 50  # zero-step pivots in a row before Bland's rule takes over


def _as_marginal(vec, name: str) -> np.ndarray:
    arr = np.asarray(vec, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty vector")
    # written so that NaN fails them
    if not arr.min() > 0.0:
        raise ValueError(f"{name} must be strictly positive")
    if not abs(arr.sum() - 1.0) <= 1e-12:
        raise ValueError(f"{name} must sum to 1, got {arr.sum()!r}")
    return arr


def _check_instance(p, q, cost) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``p``, ``q`` and ``cost`` as float arrays, checked to be strictly
    positive probability vectors and a finite matrix of shape
    ``(len(p), len(q))``: the input rules of both flat solvers."""
    p = _as_marginal(p, "p")
    q = _as_marginal(q, "q")
    C = np.asarray(cost, dtype=float)
    if C.shape != (p.size, q.size):
        raise ValueError(f"cost shape {C.shape} does not match marginals ({p.size}, {q.size})")
    if not np.all(np.isfinite(C)):
        raise ValueError("cost matrix must be finite")
    return p, q, C


@dataclass
class TransportPlan:
    """Coupling of two discrete distributions.

    ``matrix`` is nonnegative with row sums ``row_marginal`` and column sums
    ``col_marginal``; both marginals are probability vectors.
    """

    matrix: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray

    def validate(self, atol: float = 1e-10) -> None:
        """Raise if the coupling violates its marginal constraints beyond ``atol``."""
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape != (self.row_marginal.size, self.col_marginal.size):
            raise ValueError(f"plan shape {m.shape} does not match the marginals")
        # each check is written so that NaN fails it
        if not m.min() >= -atol:
            raise ValueError(f"plan has negative or NaN entry {m.min()!r}")
        row_err = np.abs(m.sum(axis=1) - self.row_marginal).max()
        col_err = np.abs(m.sum(axis=0) - self.col_marginal).max()
        if not row_err <= atol:
            raise ValueError(f"row sums deviate from the marginal by {row_err:.3e}")
        if not col_err <= atol:
            raise ValueError(f"column sums deviate from the marginal by {col_err:.3e}")
        if not abs(m.sum() - 1.0) <= atol:
            raise ValueError(f"total mass is {m.sum()!r}, expected 1")


@dataclass
class LpSolution:
    """Optimal transport plan with its value and dual potentials.

    The duals satisfy ``dual_row[i] + dual_col[j] <= cost[i, j]`` everywhere,
    with equality on the support of the plan, and their weighted sum equals
    ``value`` (zero duality gap) -- together an optimality certificate.
    """

    value: float
    plan: TransportPlan
    dual_row: np.ndarray
    dual_col: np.ndarray
    pivots: int  # simplex pivots the solve took


def _least_cost_start(p: np.ndarray, q: np.ndarray, C: np.ndarray):
    """Initial basic feasible solution with exactly n + m - 1 cells.

    Cells are taken in stable cost order (the matrix-minimum rule), each
    with min(a_i, b_j).  A cell closes its row when a_i <= b_j or its column
    is the last open one, unless the row is the last open one; otherwise it
    closes its column.  (Marginals whose sums differ by round-off can leave
    the last column short of a row while other rows are open.)  Degenerate
    (zero) cells are kept so the basis stays a spanning tree.
    """
    n, m = C.shape
    a, b = p.tolist(), q.tolist()
    row_open, col_open = [True] * n, [True] * m
    rows, cols = n, m
    cells: list[tuple[int, int, float]] = []
    for k in np.argsort(C, axis=None, kind="stable").tolist():
        i, j = divmod(k, m)
        if not (row_open[i] and col_open[j]):
            continue
        v = min(a[i], b[j])
        cells.append((i, j, v))
        if len(cells) == n + m - 1:
            break
        a[i] -= v
        b[j] -= v
        if rows > 1 and (a[i] <= b[j] or cols == 1):
            row_open[i] = False
            rows -= 1
        else:
            col_open[j] = False
            cols -= 1
    return cells


def solve_transport_lp(p, q, cost) -> LpSolution:
    """Solve the balanced transportation problem ``min <plan, cost>``.

    ``p`` and ``q`` must be strictly positive probability vectors and
    ``cost`` a finite matrix of shape ``(len(p), len(q))``.  Returns an
    optimal basic solution, reached from a least-cost start.  A pivot enters
    the cell of most negative reduced cost, or after ``_DEGENERATE_SWITCH``
    zero-step pivots in a row the lowest-index negative one, until a pivot
    moves mass again.  Past ``_MAX_PIVOTS`` pivots it raises
    ``RuntimeError`` naming the shape and limit.
    """
    p, q, C = _check_instance(p, q, cost)
    n, m = C.shape
    costs = C.tolist()
    adj: list[list[int]] = [[] for _ in range(n + m)]  # row i: node i, column j: node n + j
    priced = C.copy()  # the costs, +inf on the basic cells
    rc = np.empty_like(priced)  # reduced costs

    def cell(node: int) -> int:  # the arc from node to its parent
        up = parent[node]
        return node * m + up - n if node < n else up * m + node - n

    parent = [-1] * (n + m)
    depth = [0] * (n + m)
    pot = [0.0] * (n + m)  # duals: u_i + v_j = C_ij on basic cells
    up_flow = [0.0] * (n + m)  # mass on the arc from a node to its parent

    def hang(top: int) -> None:
        """Set parent, depth and potential below ``top``, given its own."""
        stack = [top]
        while stack:
            a = stack.pop()
            up = parent[a]
            for b in adj[a]:
                if b != up:
                    parent[b] = a
                    depth[b] = depth[a] + 1
                    pot[b] = (costs[a][b - n] if a < n else costs[b][a - n]) - pot[a]
                    stack.append(b)

    start = _least_cost_start(p, q, C)
    for i, j, _ in start:
        adj[i].append(n + j)
        adj[n + j].append(i)
        priced[i, j] = np.inf
    hang(0)
    for i, j, mass in start:
        up_flow[n + j if parent[n + j] == i else i] = mass

    degenerate = 0
    for pivots in range(_MAX_PIVOTS):
        duals = np.array(pot)
        np.subtract(priced, duals[:n, None], out=rc)
        rc -= duals[n:]
        if degenerate < _DEGENERATE_SWITCH:
            enter = int(rc.argmin())
        else:  # Bland's rule
            enter = int(np.argmax(rc < -_RC_TOL))
        ei, ej = divmod(enter, m)
        if rc[ei, ej] >= -_RC_TOL:
            break
        # the cycle closes at the common ancestor of row ei and column ej;
        # from either end, every other arc loses mass
        a, b = ei, n + ej
        side_a, side_b = [], []  # nodes below the cycle's arcs
        while a != b:
            if depth[a] >= depth[b]:
                side_a.append(a)
                a = parent[a]
            else:
                side_b.append(b)
                b = parent[b]
        losing = side_a[0::2] + side_b[0::2]
        theta = min(up_flow[x] for x in losing)
        ties = [x for x in losing if up_flow[x] <= theta]
        below = min(ties, key=cell) if len(ties) > 1 else ties[0]
        for x in side_a[1::2] + side_b[1::2]:
            up_flow[x] += theta
        for x in losing:
            up_flow[x] -= theta
        degenerate = degenerate + 1 if theta == 0.0 else 0
        leave = cell(below)
        priced.flat[leave] = C.flat[leave]
        priced[ei, ej] = np.inf
        adj[below].remove(parent[below])
        adj[parent[below]].remove(below)
        adj[ei].append(n + ej)
        adj[n + ej].append(ei)
        # the subtree cut off by the leaving arc hangs from the entering one;
        # the masses shift along the reversed path from its top to ``below``
        top, up = (ei, n + ej) if below in side_a else (n + ej, ei)
        x, mass = top, theta
        while x != below:
            up_flow[x], mass, x = mass, up_flow[x], parent[x]
        up_flow[below] = mass
        parent[top] = up
        depth[top] = depth[up] + 1
        pot[top] = costs[ei][ej] - pot[up]
        hang(top)
    else:
        raise RuntimeError(
            f"transportation simplex reached the pivot limit of {_MAX_PIVOTS} pivots "
            f"on a {n}x{m} problem before proving optimality"
        )

    cells = [cell(x) for x in range(1, n + m)]  # every node but the root, row 0
    plan = np.bincount(cells, weights=up_flow[1:], minlength=n * m).reshape(n, m)
    value = float((plan * C).sum())
    result = TransportPlan(plan, p, q)
    result.validate(atol=1e-10)
    return LpSolution(value=value, plan=result, dual_row=duals[:n], dual_col=duals[n:],
                      pivots=pivots)


def wasserstein_distance(tree_a: ScenarioTree, tree_b: ScenarioTree, r: float = 1.0) -> float:
    """Order-``r`` transport distance between two trees' leaf measures.

    This ignores the filtrations entirely: it couples the unconditional
    trajectory distributions against the pairwise trajectory costs and takes
    the r-th root of the optimal value.
    """
    cost = cost_matrix(tree_a, tree_b, r)
    sol = solve_transport_lp(tree_a.leaf_probabilities, tree_b.leaf_probabilities, cost)
    return max(sol.value, 0.0) ** (1.0 / r)
