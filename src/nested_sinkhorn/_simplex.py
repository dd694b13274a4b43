"""Generic dense two-phase simplex for equality-form linear programs.

Solves ``min c @ x  s.t.  A @ x = b, x >= 0`` on a full tableau.  Redundant
rows (common in the flat tree-coupling formulation) are detected at the end
of phase 1 and dropped.  Entering variables follow Dantzig's rule with a
fallback to Bland's rule after a long degenerate streak; the leaving row
uses a Harris-style two-pass ratio test that prefers large pivot elements
among near-minimal ratios, which keeps the tableau well conditioned on
degenerate instances.
"""

from __future__ import annotations

import numpy as np

__all__ = ["solve_lp"]

_ENTER_TOL = 1e-10
_PIVOT_TOL = 1e-9          # smallest usable pivot element
_RATIO_WINDOW = 1e-9       # relative slack when collecting near-minimal ratios
_B_DUST = 1e-10            # negative rhs magnitudes treated as rounding dust
_DEGENERATE_SWITCH = 300   # consecutive zero-step pivots before Bland's rule kicks in
_MAX_PIVOTS = 200_000      # cap on pivots per phase


def _pivot(T: np.ndarray, obj: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    column = T[:, col].copy()
    column[row] = 0.0
    T -= np.outer(column, T[row])
    coef = obj[col]
    if coef != 0.0:
        obj -= coef * T[row]
    T[:, col] = 0.0
    T[row, col] = 1.0
    obj[col] = 0.0
    basis[row] = col


def _clean_rhs(T: np.ndarray) -> None:
    rhs = T[:, -1]
    worst = rhs.min()
    if worst < -1e-7:
        raise RuntimeError(f"simplex lost primal feasibility (rhs {worst:.3e})")
    np.copyto(rhs, 0.0, where=(rhs < 0.0) & (rhs > -_B_DUST))
    np.maximum(rhs, 0.0, out=rhs)


def _pivot_loop(T: np.ndarray, obj: np.ndarray, basis: np.ndarray, n_enterable: int) -> None:
    degenerate = 0
    for _ in range(_MAX_PIVOTS):
        reduced = obj[:n_enterable]
        bland = degenerate >= _DEGENERATE_SWITCH
        if bland:
            candidates = np.flatnonzero(reduced < -_ENTER_TOL)
            if candidates.size == 0:
                return
            col = int(candidates[0])
        else:
            col = int(np.argmin(reduced))
            if reduced[col] >= -_ENTER_TOL:
                return
        column = T[:, col]
        rows = np.flatnonzero(column > _PIVOT_TOL)
        if rows.size == 0:
            raise RuntimeError("LP is unbounded")
        ratios = T[rows, -1] / column[rows]
        best = ratios.min()
        near = rows[ratios <= best + _RATIO_WINDOW * max(1.0, abs(best))]
        if bland:
            row = int(near[np.argmin(basis[near])])
        else:
            row = int(near[np.argmax(column[near])])
        _pivot(T, obj, basis, row, col)
        _clean_rhs(T)
        degenerate = degenerate + 1 if best <= _B_DUST else 0
    raise RuntimeError("simplex exceeded the pivot limit")


def solve_lp(c, A, b) -> tuple[np.ndarray, float]:
    """Minimize ``c @ x`` subject to ``A @ x = b`` and ``x >= 0``.

    Returns ``(x, value)`` at an optimal vertex.  Raises ``ValueError`` if
    the constraints are infeasible and ``RuntimeError`` on an unbounded
    objective, a pivot-limit overrun, or a numerical failure.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if A.ndim != 2 or A.shape != (b.size, c.size):
        raise ValueError(f"inconsistent LP shapes: A {A.shape}, b {b.shape}, c {c.shape}")
    m, n = A.shape
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    T = np.zeros((m, n + m + 1))
    T[:, :n] = A
    T[:, n : n + m] = np.eye(m)
    T[:, -1] = b
    basis = np.arange(n, n + m)

    # phase 1: minimize the artificial mass
    obj = np.zeros(n + m + 1)
    obj[:n] = -A.sum(axis=0)
    obj[-1] = -b.sum()
    _pivot_loop(T, obj, basis, n + m)
    residual = float(sum(T[row, -1] for row in range(basis.size) if basis[row] >= n))
    if residual > 1e-8:
        raise ValueError(f"LP infeasible (artificial residual {residual:.3e})")

    # drive remaining artificials out of the basis; rows that cannot pivot
    # on any structural column are redundant and get dropped
    dead_rows = []
    for row in range(basis.size):
        if basis[row] < n:
            continue
        structural = np.flatnonzero(np.abs(T[row, :n]) > 1e-9)
        if structural.size:
            _pivot(T, obj, basis, row, int(structural[0]))
        else:
            dead_rows.append(row)
    if dead_rows:
        T = np.delete(T, dead_rows, axis=0)
        basis = np.delete(basis, dead_rows)

    # phase 2: reprice with the true objective
    obj = np.zeros(n + m + 1)
    obj[:n] = c
    for row, var in enumerate(basis):
        coef = obj[var]
        if coef != 0.0:
            obj -= coef * T[row]
    _pivot_loop(T, obj, basis, n)

    x = _basic_point(T, basis, n)
    return x, float(c @ x)


def _basic_point(T: np.ndarray, basis: np.ndarray, n: int) -> np.ndarray:
    x = np.zeros(n)
    for row, var in enumerate(basis):
        if var < n:
            x[var] = max(T[row, -1], 0.0)
    return x
