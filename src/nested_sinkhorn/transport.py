"""Exact discrete optimal transport.

The solver is a dense transportation simplex: north-west-corner start,
Bland's entering rule (lowest index with a negative reduced cost) so cycling
cannot occur, leaving ties broken by lowest cell index, and dual potentials
read off the final basis with the first row potential pinned to zero.  It is
built for the small couplings that arise between scenario trees, where an
exact optimum certified by the returned duals matters more than raw speed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .scenario_tree import ScenarioTree, cost_matrix, trajectories

__all__ = [
    "LpSolution",
    "TransportPlan",
    "solve_transport_lp",
    "wasserstein_distance",
]

_RC_TOL = 1e-11        # reduced-cost threshold for entering variables
_MAX_PIVOTS = 100_000  # cap on simplex pivots per solve


def _as_marginal(vec, name: str) -> np.ndarray:
    arr = np.asarray(vec, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty vector")
    if arr.min() <= 0.0:
        raise ValueError(f"{name} must be strictly positive")
    if abs(arr.sum() - 1.0) > 1e-12:
        raise ValueError(f"{name} must sum to 1, got {arr.sum()!r}")
    return arr


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
        if m.min() < -atol:
            raise ValueError(f"plan has negative entry {m.min()!r}")
        row_err = np.abs(m.sum(axis=1) - self.row_marginal).max()
        col_err = np.abs(m.sum(axis=0) - self.col_marginal).max()
        if row_err > atol:
            raise ValueError(f"row sums deviate from the marginal by {row_err:.3e}")
        if col_err > atol:
            raise ValueError(f"column sums deviate from the marginal by {col_err:.3e}")
        if abs(m.sum() - 1.0) > atol:
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


def _northwest_corner(p: np.ndarray, q: np.ndarray):
    """Initial basic feasible solution with exactly n + m - 1 cells.

    Degenerate (zero) cells are kept so the basis stays a spanning tree.
    """
    n, m = p.size, q.size
    a = p.copy()
    b = q.copy()
    cells: list[tuple[int, int, float]] = []
    i = j = 0
    for k in range(n + m - 1):
        v = min(a[i], b[j])
        if v < 0.0:
            v = 0.0
        cells.append((i, j, v))
        a[i] -= v
        b[j] -= v
        if k == n + m - 2:
            break
        if i == n - 1:
            j += 1
        elif j == m - 1:
            i += 1
        elif a[i] <= b[j]:
            i += 1
        else:
            j += 1
    return cells


def _tree_path(ei: int, ej: int, row_adj, col_adj) -> list[tuple[int, int]]:
    """Cells along the unique basis-tree path from row ``ei`` to column ``ej``."""
    start = ("r", ei)
    target = ("c", ej)
    prev: dict[tuple[str, int], tuple[str, int] | None] = {start: None}
    queue = deque([start])
    while queue:
        kind, idx = node = queue.popleft()
        if node == target:
            break
        if kind == "r":
            neighbors = (("c", jj) for jj in row_adj[idx])
        else:
            neighbors = (("r", ii) for ii in col_adj[idx])
        for nxt in neighbors:
            if nxt not in prev:
                prev[nxt] = node
                queue.append(nxt)
    path_nodes = [target]
    while prev[path_nodes[-1]] is not None:
        path_nodes.append(prev[path_nodes[-1]])  # type: ignore[arg-type]
    path_nodes.reverse()
    cells = []
    for (k1, i1), (_, i2) in zip(path_nodes, path_nodes[1:]):
        cells.append((i1, i2) if k1 == "r" else (i2, i1))
    return cells


def solve_transport_lp(p, q, cost) -> LpSolution:
    """Solve the balanced transportation problem ``min <plan, cost>``.

    ``p`` and ``q`` must be strictly positive probability vectors and
    ``cost`` a finite matrix of shape ``(len(p), len(q))``.  Returns an
    optimal basic solution.  Bland's rule cannot cycle, but on large
    instances it can need more than ``_MAX_PIVOTS`` pivots; the solve then
    stops and raises ``RuntimeError`` naming the shape and the pivot count.
    """
    p = _as_marginal(p, "p")
    q = _as_marginal(q, "q")
    C = np.asarray(cost, dtype=float)
    if C.shape != (p.size, q.size):
        raise ValueError(f"cost shape {C.shape} does not match marginals ({p.size}, {q.size})")
    if not np.all(np.isfinite(C)):
        raise ValueError("cost matrix must be finite")
    n, m = C.shape

    x: dict[tuple[int, int], float] = {}
    row_adj: list[set[int]] = [set() for _ in range(n)]
    col_adj: list[set[int]] = [set() for _ in range(m)]
    basic = np.zeros((n, m), dtype=bool)

    def add(i: int, j: int, v: float) -> None:
        x[(i, j)] = v
        row_adj[i].add(j)
        col_adj[j].add(i)
        basic[i, j] = True

    def drop(i: int, j: int) -> None:
        del x[(i, j)]
        row_adj[i].discard(j)
        col_adj[j].discard(i)
        basic[i, j] = False

    for i, j, v in _northwest_corner(p, q):
        add(i, j, v)

    u = np.zeros(n)
    v = np.zeros(m)

    def potentials() -> None:
        u.fill(np.nan)
        v.fill(np.nan)
        u[0] = 0.0
        stack: list[tuple[int, bool]] = [(0, True)]
        while stack:
            idx, is_row = stack.pop()
            if is_row:
                for jj in row_adj[idx]:
                    if np.isnan(v[jj]):
                        v[jj] = C[idx, jj] - u[idx]
                        stack.append((jj, False))
            else:
                for ii in col_adj[idx]:
                    if np.isnan(u[ii]):
                        u[ii] = C[ii, idx] - v[idx]
                        stack.append((ii, True))

    for _ in range(_MAX_PIVOTS):
        potentials()
        rc = C - u[:, None] - v[None, :]
        rc[basic] = 0.0
        negative = np.flatnonzero(rc.ravel() < -_RC_TOL)
        if negative.size == 0:
            break
        ei, ej = divmod(int(negative[0]), m)  # Bland: lowest row-major index
        path = _tree_path(ei, ej, row_adj, col_adj)
        minus = path[0::2]
        plus = path[1::2]
        theta = min(x[c] for c in minus)
        leave = min(c for c in minus if x[c] <= theta)
        for c in plus:
            x[c] += theta
        for c in minus:
            x[c] = max(x[c] - theta, 0.0)
        drop(*leave)
        add(ei, ej, theta)
    else:
        raise RuntimeError(
            f"transportation simplex reached the pivot limit of {_MAX_PIVOTS} pivots "
            f"on a {n}x{m} problem before proving optimality"
        )

    plan = np.zeros((n, m))
    for (i, j), val in x.items():
        plan[i, j] = val
    value = float((plan * C).sum())
    result = TransportPlan(plan, p, q)
    result.validate(atol=1e-10)
    return LpSolution(value=value, plan=result, dual_row=u.copy(), dual_col=v.copy())


def wasserstein_distance(tree_a: ScenarioTree, tree_b: ScenarioTree, r: float = 1.0) -> float:
    """Order-``r`` transport distance between two trees' leaf measures.

    This ignores the filtrations entirely: it couples the unconditional
    trajectory distributions against the pairwise trajectory costs and takes
    the r-th root of the optimal value.
    """
    if tree_a.height != tree_b.height:
        raise ValueError(f"trees have different heights: {tree_a.height} vs {tree_b.height}")
    p = np.array([t.prob for t in trajectories(tree_a)])
    q = np.array([t.prob for t in trajectories(tree_b)])
    sol = solve_transport_lp(p, q, cost_matrix(tree_a, tree_b, r))
    return max(sol.value, 0.0) ** (1.0 / r)
