"""Entropy-regularized discrete transport.

The fixed-point scaling iteration has two numerically distinct forms, each
one batched loop over a stack of same-shape problems: the plain
multiplicative form on the kernel ``exp(-lam * cost)``, and a log-domain
form that survives arbitrarily large ``lam * cost``.  The latter sweeps
multiplicatively on a kernel with the log potentials absorbed and repairs
any sweep that leaves the safe scaling range by a log-sum-exp sweep
(Schmitzer, arXiv:1610.06519).  Both stop on the max-norm marginal
violation, normalize the scaling pair so the largest row scaling is one,
and report the plan, its cost, its entropy, and the entropic objective.
One dispatcher first counts a stack's free potentials, one fewer than its
smaller side.  With none, a single row or column, the plan is the product
of the marginals.  With one, two rows or two columns, the potential is a
scalar root of the semi-dual (Brauer, Clason, Lorenz & Wirth,
arXiv:1710.06635), found by safeguarded Newton steps in the log domain at
every ``lam``.  Otherwise it chooses the form per problem, sweeps a short
block, a problem past the plain range from its own solution at ``lam / 8``
(epsilon-scaling, Schmitzer, arXiv:1610.06519), and finishes the problems
still unconverged by damped Newton steps on the semi-dual, going back to
log-domain sweeps, in doubling blocks, wherever a Newton phase stops short
of the tolerance, until the error meets it or stalls at round-off.  It
solves the stagewise subproblems of the nested recursion; the one flat
solver, :func:`sinkhorn_auto`, is a stack of one.  Every result carries
the dual multipliers of its scalings.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .transport import LpSolution, TransportPlan, _check_instance

__all__ = [
    "BOUND_SLACK",
    "BoundReport",
    "CheckResult",
    "SinkhornResult",
    "bound_certificates",
    "bounded_check",
    "entropy",
    "sinkhorn_auto",
]

STABILIZE_THRESHOLD = 600.0  # |lam * cost| beyond which exp() risks under/overflow
BOUND_SLACK = 1e-8           # tolerance granted to every checked inequality
_ABSORB_RANGE = (1e-30, 1e30)  # the log-domain loop keeps its scalings strictly inside
_SWEEP_BLOCK = 50     # sweeps before a problem's first Newton phase; later blocks double
_LAMBDA_STEP = 8.0    # a problem past STABILIZE_THRESHOLD first solves at lam / _LAMBDA_STEP
_NEWTON_CAP = 8.0     # a Newton step's first trust radius: its largest change of a log potential
_ARMIJO = 1e-4        # sufficient increase of the semi-dual objective along a step
_LINE_SEARCH = 30     # step halvings before a Newton step is given up
_PHASE_STEPS = 200    # Newton steps in one phase at most
_RIDGE = 1e-12        # added to the unit diagonal of the scaled Newton system
_EXP_FLOOR = -700.0   # exponents below it give exact zeros, never subnormals
_PLATEAU = 16 * np.finfo(float).eps  # round-off of an error or objective per unit log potential


@dataclass
class SinkhornResult:
    """Converged (or truncated) state of the scaling iteration.

    ``d_s`` is the transport cost of the plan, ``entropy`` its Shannon
    entropy in nats and ``de_s = d_s - entropy / lam`` the full regularized
    objective, which may be negative for small ``lam``.  ``dual_row`` and
    ``dual_col`` are the dual multipliers ``(log scaling + 1/2) / lam``: the
    plan is ``exp(lam * (dual_row[:, None] + dual_col[None, :] - cost) - 1)``,
    the largest row multiplier is ``1 / (2 lam)``, the relaxed constraint
    ``dual_row[i] + dual_col[j] <= cost[i, j] + 1/lam`` holds, and at the
    fixed point ``p @ dual_row + q @ dual_col`` exceeds ``de_s`` by exactly
    ``1 / lam``.  ``iterations`` counts scaling sweeps, or the root steps of
    a problem with two rows or two columns, and ``newton`` the Newton steps
    of the general finish, both summed over every ``lam`` it was solved at;
    ``stabilized`` marks a solve whose first sweeps ran in the log domain,
    and a two-row or two-column problem past the plain form's range.
    """

    plan: TransportPlan
    dual_row: np.ndarray
    dual_col: np.ndarray
    d_s: float
    entropy: float
    de_s: float
    lam: float
    iterations: int
    marginal_error: float
    converged: bool
    stabilized: bool = False
    newton: int = 0


@dataclass
class CheckResult:
    """One verified inequality: ``lower <= value <= upper`` up to a slack."""

    name: str
    value: float
    lower: float
    upper: float
    slack: float
    passed: bool


def bounded_check(name: str, value: float, upper: float, lower: float = -math.inf) -> CheckResult:
    slack = min(value - lower, upper - value)
    return CheckResult(name, value, lower, upper, slack, slack >= -BOUND_SLACK)


def _residual_check(name: str, value: float, tol: float) -> CheckResult:
    """A residual ``value`` checked against ``tol`` itself, with no slack granted."""
    return CheckResult(name, value, -math.inf, tol, tol - value, bool(value <= tol))


@dataclass
class BoundReport:
    """The comparison checks of a regularized solution against the exact
    optimum of one instance."""

    checks: list[CheckResult]
    all_passed: bool


def _unit_range(x: np.ndarray) -> np.ndarray:
    """``x`` clipped to [0, 1]; raises if it strays beyond round-off."""
    if x.size and (x.min() < -1e-12 or x.max() > 1.0 + 1e-12):
        raise ValueError(
            f"plan entries must lie in [0, 1], found range [{x.min()!r}, {x.max()!r}]"
        )
    return np.clip(x, 0.0, 1.0)


def entropy(plan) -> float:
    """Shannon entropy ``-sum(x * log(x))`` of a plan, with 0 log 0 = 0."""
    x = _unit_range(np.asarray(plan, dtype=float))
    positive = x > 0.0
    return float(-(x[positive] * np.log(x[positive])).sum())


def _stacked_entropy(plan: np.ndarray, log_plan: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`entropy` of each plan in a stack ``[B, m, n]``, reading ``log_plan``
    where given, which stays exact where a log-domain plan entry underflows."""
    x = _unit_range(plan)
    if log_plan is None:
        log_plan = np.log(np.where(x > 0.0, x, 1.0))
    with np.errstate(invalid="ignore"):
        return -np.where(x > 0.0, x * log_plan, 0.0).sum(axis=(1, 2))


def _check_settings(lam: float, tol: float, max_iter: int) -> None:
    """The rules on the solver settings, each written so that NaN fails it."""
    if not 0.0 < lam < math.inf:
        raise ValueError(f"regularization parameter must be positive and finite, got {lam}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if not (isinstance(max_iter, numbers.Integral) and max_iter >= 1):
        raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter}")


@dataclass
class _BatchResult:
    """Outcomes of a stack of problems, one entry per problem along the
    leading axis.  The fields mirror :class:`SinkhornResult`; ``newton``
    counts each problem's Newton steps, and ``stalled`` marks the problems
    stopped unconverged at the round-off floor of their potentials."""

    plan: np.ndarray
    d_s: np.ndarray
    entropy: np.ndarray
    de_s: np.ndarray
    dual_row: np.ndarray
    dual_col: np.ndarray
    iterations: np.ndarray
    marginal_error: np.ndarray
    converged: np.ndarray
    stabilized: np.ndarray
    newton: np.ndarray
    stalled: np.ndarray


def _marginal_errors(plan: np.ndarray, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Max-norm marginal violation of each plan in a stack ``[B, m, n]``."""
    return np.maximum(np.abs(plan.sum(axis=2) - P).max(axis=1),
                      np.abs(plan.sum(axis=1) - Q).max(axis=1))


def _finalize(P, Q, C, lam, tol, plan, log_plan, log_u, log_v, iterations,
              stabilized, newton=None, stalled=None, marginal_error=None) -> _BatchResult:
    """Results of a stack of solved problems, in either form, from the plans,
    the logs of their entries and the log scalings, whose multipliers are
    ``(log scaling + 1/2) / lam``, and the plans' marginal errors where the
    solver has summed them already.  Raises where a log scaling is not
    finite."""
    h = _stacked_entropy(plan, log_plan)
    d_s = (plan * C).sum(axis=(1, 2))
    if marginal_error is None:
        marginal_error = _marginal_errors(plan, P, Q)
    if not (np.all(np.isfinite(log_u)) and np.all(np.isfinite(log_v))):
        raise ValueError("scalings must be positive and finite")
    return _BatchResult(
        plan=plan,
        d_s=d_s,
        entropy=h,
        de_s=d_s - h / lam,
        dual_row=(log_u + 0.5) / lam,
        dual_col=(log_v + 0.5) / lam,
        iterations=iterations,
        marginal_error=marginal_error,
        converged=marginal_error <= tol,
        stabilized=stabilized,
        newton=np.zeros(len(plan), dtype=int) if newton is None else newton,
        stalled=np.zeros(len(plan), dtype=bool) if stalled is None else stalled,
    )


def _single(batch: _BatchResult, p: np.ndarray, q: np.ndarray, lam: float) -> SinkhornResult:
    """The one problem of a stack of one as a :class:`SinkhornResult`."""
    scalars = ("d_s", "entropy", "de_s", "iterations", "marginal_error", "converged", "stabilized",
               "newton")
    return SinkhornResult(TransportPlan(batch.plan[0], p, q), batch.dual_row[0], batch.dual_col[0],
                          lam=lam, **{name: getattr(batch, name)[0].item() for name in scalars})


def _lockstep(km: np.ndarray, P: np.ndarray, Q: np.ndarray, tol: float, max_iter: int):
    """The plain iteration on the stacked kernels ``exp(km)``, ``[B, m, n]``.

    Alternates row and column scaling updates from all-ones column scalings.
    Every problem starts together and leaves the active set on the sweep
    where its max-norm marginal violation drops to ``tol`` or ``max_iter``
    sweeps have run.  Returns the plans, the logs of their entries, the log
    scalings (the largest row scaling normalized to one), the sweep counts,
    and the mask of failed problems: a marginal error that went non-finite,
    or a row scaling that underflowed in the normalization.
    """
    kernel = K = np.exp(km)
    B, m, n = K.shape
    u_out = np.ones((B, m))
    v_out = np.ones((B, n))
    iterations = np.zeros(B, dtype=int)
    failed = np.zeros(B, dtype=bool)
    active = np.arange(B)
    KT = K.transpose(0, 2, 1)
    # column vectors, so each kernel product is one stacked matmul
    P = P[:, :, None]
    Q = Q[:, :, None]
    u = np.ones((B, m, 1))
    v = np.ones((B, n, 1))
    it = 0
    # a vanished or overflowed kernel product surfaces as a non-finite error
    # one sweep later; the caller re-solves those problems in the log domain
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while B:
            t = K @ v
            if it > 0:
                err = np.maximum.reduce(np.abs(u * t - P), axis=1)[:, 0]
                if it >= max_iter or not np.minimum.reduce(err) > tol:
                    going = err > tol if it < max_iter else np.zeros(err.size, dtype=bool)
                    stop = ~going
                    done = active[stop]
                    u_out[done] = u[stop, :, 0]
                    v_out[done] = v[stop, :, 0]
                    iterations[done] = it
                    failed[done] = ~np.isfinite(err[stop])
                    if not going.any():
                        break
                    active = active[going]
                    K, KT, P, Q, t, u = K[going], KT[going], P[going], Q[going], t[going], u[going]
            u = P / t
            v = Q / (KT @ u)
            it += 1
        scale = u_out.max(axis=1, keepdims=True)
        u_out = u_out / scale
        v_out = v_out * scale
        failed |= ~(u_out.min(axis=1) > 0.0)
        plan = u_out[:, :, None] * kernel * v_out[:, None, :]
        return plan, np.log(np.minimum(plan, 1.0)), np.log(u_out), np.log(v_out), iterations, failed


def _exp(a: np.ndarray) -> np.ndarray:
    """``exp(a)`` with exact zeros for the subnormals, whose arithmetic is slow."""
    return np.exp(a, out=np.zeros(a.shape), where=a > _EXP_FLOOR)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    peak = a.max(axis=axis, keepdims=True)
    return peak.squeeze(axis) + np.log(_exp(a - peak).sum(axis=axis))


def _absorbed_lockstep(km: np.ndarray, P: np.ndarray, Q: np.ndarray, tol: float,
                       max_iter: int | np.ndarray, g: Optional[np.ndarray] = None):
    """The log-domain iteration on stacked exponents ``km = -lam * C``, from
    the log column potentials ``g`` (zero by default), for at most
    ``max_iter`` sweeps, one cap for the stack or one per problem.

    Absorption stabilization (Schmitzer, arXiv:1610.06519): plain scalings
    ``u, v`` sweep on the kernel ``exp(f + km + g)`` with the log potentials
    ``f, g`` absorbed.  A problem's first sweep, and any sweep that would
    take its ``u`` or ``v`` out of :data:`_ABSORB_RANGE`, is run by
    log-sum-exp instead, after absorbing ``v`` into ``g``; then its kernel is
    rebuilt.  So no magnitude of ``lam * cost`` can underflow the iteration,
    and the iterates are those of log-sum-exp sweeps up to round-off.  Each
    pass advances every active problem by one sweep of either kind, and
    problems leave the stack as in :func:`_lockstep`.  Returns what
    :func:`_lockstep` does, without the failure mask; the largest log row
    scaling is normalized to zero.
    """
    B, m, n = km.shape
    f_out = np.zeros((B, m))
    g_out = np.zeros((B, n))
    iterations = np.zeros(B, dtype=int)
    active = np.arange(B)
    limit = np.broadcast_to(max_iter, B)
    log_P, log_Q = np.log(P), np.log(Q)
    P = P[:, :, None]
    Q = Q[:, :, None]
    low, high = _ABSORB_RANGE
    f = np.zeros((B, m))
    g = np.zeros((B, n)) if g is None else g.copy()
    K = np.empty((B, m, n))
    KT = K.transpose(0, 2, 1)
    exponent = km  # compacted with the active set; km stays whole
    u = np.ones((B, m, 1))
    v = np.ones((B, n, 1))
    redo = active  # the problems sweeping by log-sum-exp in this pass
    none = active[:0]
    it = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while B:
            if redo.size:
                f[redo] = log_P[redo] - _logsumexp(exponent[redo] + g[redo, None, :], axis=2)
                g[redo] = log_Q[redo] - _logsumexp(exponent[redo] + f[redo, :, None], axis=1)
                K[redo] = _exp(f[redo, :, None] + exponent[redo] + g[redo, None, :])
                u[redo] = 1.0
                v[redo] = 1.0
            it += 1
            t = K @ v
            err = np.maximum.reduce(np.abs(u * t - P), axis=1)
            if it >= limit.min() or not np.minimum.reduce(err, axis=None) > tol:
                going = (err[:, 0] > tol) & (it < limit)
                stop = ~going
                done = active[stop]
                f_out[done] = f[stop] + np.log(u[stop, :, 0])
                g_out[done] = g[stop] + np.log(v[stop, :, 0])
                iterations[done] = it
                if not going.any():
                    break
                active = active[going]
                exponent, K, P, Q, log_P, log_Q, f, g, t, u, v, limit = (
                    a[going] for a in (exponent, K, P, Q, log_P, log_Q, f, g, t, u, v, limit))
                KT = K.transpose(0, 2, 1)
            u_next = P / t
            v_next = Q / (KT @ u_next)
            # a NaN fails every comparison, so non-finite scalings are redone
            # too; most passes keep every problem, which four reductions show
            if (u_next.min() > low and u_next.max() < high
                    and v_next.min() > low and v_next.max() < high):
                redo = none
            else:
                redo = np.flatnonzero(~((u_next.min(axis=1) > low) & (u_next.max(axis=1) < high)
                                        & (v_next.min(axis=1) > low)
                                        & (v_next.max(axis=1) < high))[:, 0])
                g[redo] += np.log(v[redo, :, 0])  # absorb the last accepted v
            u, v = u_next, v_next
    return (*_gibbs_plans(km, f_out, g_out), iterations)


def _gibbs_plans(km: np.ndarray, f: np.ndarray, g: np.ndarray):
    """The plans ``exp(f + km + g)`` of a stack, the logs of their entries
    and the log potentials, shifted so the largest row potential is zero."""
    shift = f.max(axis=1, keepdims=True)
    f = f - shift
    g = g + shift
    log_plan = f[:, :, None] + km + g[:, None, :]
    return _exp(log_plan), log_plan, f, g


def _semi_dual(km: np.ndarray, log_Q: np.ndarray, f: np.ndarray):
    """The column potentials that fit the column marginals exactly for the
    row potentials ``f``, and the logs of the resulting plan entries."""
    a = f[:, :, None] + km
    g = log_Q - _logsumexp(a, axis=1)
    return g, a + g[:, None, :]


def _newton(km: np.ndarray, P: np.ndarray, Q: np.ndarray, f: np.ndarray, g: np.ndarray,
            tol: float):
    """Damped Newton steps on the semi-dual of a stack (Brauer, Clason,
    Lorenz & Wirth, arXiv:1710.06635), from the log potentials ``f, g``.

    The larger side's potentials are eliminated by their exact log-sum-exp
    update, and Newton solves for the smaller side's, one batched solve per
    step.  A gradient entry of at most :data:`_PLATEAU` times its marginal
    is round-off and set to zero: on a nearly uncoupled potential it would
    give a huge step, and capping that at the trust radius would shrink the
    useful steps of the others to nothing.  The Hessian is the graph
    Laplacian of the weights ``w_ik = sum_j X_ij X_kj / q_j``, its diagonal
    summed from those weights (the form ``diag(r) - X diag(1/q) X^T``
    cancels weak couplings to zero).  The first potential is pinned, which removes the free shift;
    the rest of the Laplacian is scaled to a unit diagonal by its degrees
    (a degree of 0 as the smallest normal number, so an uncoupled potential
    steps as far as allowed) and gets :data:`_RIDGE` on it, so no system is
    singular.  A step is capped in every potential at a trust radius that
    starts at :data:`_NEWTON_CAP`, doubles after a capped step taken whole
    and falls back after any other.  It is halved until the semi-dual
    objective passes an Armijo test, or the max-norm marginal error drops
    while the objective stays within its round-off.  Every problem takes a
    step, since its plan misses the tolerance, and its phase ends on its
    tolerance, when its line search gives up, or after :data:`_PHASE_STEPS`
    steps.  Returns the last potentials and the step counts; the caller
    judges convergence on the plan it rebuilds, whose error differs from the
    one measured here by round-off.
    """
    if km.shape[1] > km.shape[2]:
        g, f, steps = _newton(np.ascontiguousarray(km.transpose(0, 2, 1)), Q, P, g, f, tol)
        return f, g, steps
    A, m, _ = km.shape
    log_Q = np.log(Q)
    g, log_x = _semi_dual(km, log_Q, f)
    X = _exp(log_x)
    err = _marginal_errors(X, P, Q)
    objective = (P * f).sum(axis=1) + (Q * g).sum(axis=1)
    f_out, g_out = f.copy(), g
    steps = np.zeros(A, dtype=int)
    radius = np.full(A, _NEWTON_CAP)
    active = np.arange(A)
    diagonal = np.arange(m)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while active.size:
            grad = P - X.sum(axis=2)
            grad[np.abs(grad) <= _PLATEAU * P] = 0.0
            weights = X @ (X / Q[:, None, :]).transpose(0, 2, 1)
            weights[:, diagonal, diagonal] = 0.0
            degree = weights.sum(axis=2)
            scale = 1.0 / np.sqrt(np.maximum(degree, np.finfo(float).tiny))
            scale[:, 0] = 0.0  # pins the first potential
            hessian = -weights * scale[:, :, None] * scale[:, None, :]
            hessian[:, diagonal, diagonal] = 1.0 + _RIDGE
            step = scale * np.linalg.solve(hessian, (scale * grad)[:, :, None])[:, :, 0]
            longest = np.abs(step).max(axis=1)
            step *= np.minimum(1.0, radius / longest)[:, None]
            slope = (grad * step).sum(axis=1)
            steps[active] += 1
            t = np.ones(len(active))
            accepted = np.zeros(len(active), dtype=bool)
            new_err = err.copy()
            trying = np.arange(len(active))
            for _ in range(_LINE_SEARCH):
                f_try = f[trying] + t[trying, None] * step[trying]
                g_try, log_x = _semi_dual(km[trying], log_Q[trying], f_try)
                X_try = _exp(log_x)
                err_try = _marginal_errors(X_try, P[trying], Q[trying])
                objective_try = (P[trying] * f_try).sum(axis=1) + (Q[trying] * g_try).sum(axis=1)
                noise = _PLATEAU * np.maximum(np.abs(f_try).max(axis=1), np.abs(g_try).max(axis=1))
                gain = objective_try - objective[trying]
                ok = (((err_try < err[trying]) & (gain >= -noise))
                      | (gain >= _ARMIJO * t[trying] * slope[trying]))
                took = trying[ok]
                f[took], X[took], new_err[took] = f_try[ok], X_try[ok], err_try[ok]
                objective[took] = objective_try[ok]
                f_out[active[took]], g_out[active[took]] = f_try[ok], g_try[ok]
                accepted[took] = True
                trying = trying[~ok]
                if not trying.size:
                    break
                t[trying] *= 0.5
            going = accepted & (new_err > tol) & (steps[active] < _PHASE_STEPS)
            radius = np.where((longest > radius) & (t == 1.0), 2.0 * radius, _NEWTON_CAP)[going]
            active = active[going]
            f, X, err, objective = f[going], X[going], new_err[going], objective[going]
            km, P, Q, log_Q = km[going], P[going], Q[going], log_Q[going]
    return f_out, g_out, steps


def _product_plans(P: np.ndarray, Q: np.ndarray, C: np.ndarray, lam: float,
                   tol: float) -> _BatchResult:
    """A stack with a single row or column: its one feasible plan,
    ``outer(p, q)``, with no sweeps.  Its log scalings solve
    ``log u_i + log v_j = log plan_ij + lam * cost_ij`` with the largest row
    scaling at one."""
    plan = P[:, :, None] * Q[:, None, :]
    log_plan = np.log(plan)
    gibbs = log_plan + lam * C
    log_v = gibbs.max(axis=1)
    none = np.zeros(len(C), dtype=int)
    return _finalize(P, Q, C, lam, tol, plan, log_plan, gibbs[:, :, 0] - log_v[:, :1], log_v,
                     none, none > 0)


def _root(km: np.ndarray, P: np.ndarray, Q: np.ndarray, tol: float, max_iter: int):
    """A stack with two rows or two columns, whose one free potential is a
    scalar root of the semi-dual (Brauer, Clason, Lorenz & Wirth,
    arXiv:1710.06635).

    Seen as ``m x 2`` (a two-row stack is transposed), with ``g_0 = 0`` and
    the row potentials eliminated exactly, ``f_i = log p_i - logsumexp_j(km_ij
    + g_j)``, the plan is ``x_i1 = p_i sigma(a_i + s)`` and ``x_i0 = p_i (1 -
    sigma(a_i + s))``, with ``a_i = km_i1 - km_i0`` and ``s = g_1``.  Its rows
    hold to round-off at every ``s``, and its columns where ``h(s) = sum_i
    p_i sigma(a_i + s) = q_1``.  ``h`` increases, so the bracket ``[logit q_1
    - max a, logit q_1 - min a]`` holds the root, and every evaluation moves
    one of its ends to ``s``.  The start is the exact problem's split: its
    rows, sorted by ``a``, fill the second column in turn, and the row that
    fills it last takes its share there.  Each step is Newton's on ``logit
    h(s) = logit q_1``, which is linear where one row is split, unless that
    leaves the bracket or fails to halve the step before last; then it
    bisects the bracket (the rule of Numerical Recipes' ``rtsafe``).  A step
    too short to change ``s`` moves it to the next double.  A problem stops
    when the plan it returns meets ``tol``, as ``stalled`` once no double
    lies inside its bracket, or after ``max_iter`` steps, and keeps its
    ``s`` while the rest of the stack steps on.  The loop holds the stack
    problem-minor, ``[2, m, B]``, so that its sums over a problem's rows run
    along the stack.  Returns the plans, the logs of their entries and the
    log potentials in the stack's own layout, the largest row potential
    zero, then the step counts, the marginal errors and the stall mask.
    """
    transposed = km.shape[2] != 2
    if transposed:
        km, P, Q = km.transpose(0, 2, 1), Q, P
    B, m, _ = km.shape
    first = np.ascontiguousarray(km[:, :, 0].T)
    a = km[:, :, 1].T - first
    p, q = np.ascontiguousarray(P.T), np.ascontiguousarray(Q.T)
    log_p = np.log(p)
    logit = np.log(q[1]) - np.log(q[0])
    lo, hi = logit - a.max(axis=0), logit - a.min(axis=0)
    order = np.argsort(-a, axis=0, kind="stable")
    mass = np.take_along_axis(p, order, axis=0)
    filled = np.cumsum(mass, axis=0)
    k = np.minimum((filled < q[1]).sum(axis=0), m - 1)[None]
    sides = np.array([-1.0, 1.0])[:, None, None]
    steps = np.zeros(B, dtype=int)
    going = np.ones(B, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        split = np.log(q[1] - (filled - mass)) - np.log(filled - q[1])
        s = np.take_along_axis(split - np.take_along_axis(a, order, axis=0), k, axis=0)[0]
        s = np.fmax(lo, np.fmin(s, hi))  # also a NaN start, from a share rounded out of (0, 1)
        before = last = hi - lo
        while True:
            x = a + s
            # log(1 - sigma(x)) and log sigma(x), neither a difference with one
            log_plan = (log_p - np.log1p(_exp(-np.abs(x)))) + np.minimum(sides * x, 0.0)
            plan = _exp(log_plan)
            h = plan.sum(axis=1)
            err = np.maximum(np.abs(plan[0] + plan[1] - p).max(axis=0), np.abs(h - q).max(axis=0))
            log_h = np.log(h)
            residual = log_h[1] - log_h[0] - logit
            lo = np.where(residual <= 0.0, s, lo)
            hi = np.where(residual >= 0.0, s, hi)
            middle = 0.5 * (lo + hi)
            unmet = err > tol
            stalled = unmet & ((middle <= lo) | (middle >= hi))
            going &= unmet & ~stalled & (steps < max_iter)
            if not going.any():
                break
            slope = (plan[0] * plan[1] / p).sum(axis=0) / (h[0] * h[1])
            newton = s - residual / slope
            newton = np.where(newton == s, np.nextafter(s, -np.copysign(np.inf, residual)),
                              newton)
            newton = np.where((newton > lo) & (newton < hi)
                              & (2.0 * np.abs(newton - s) <= before), newton, middle)
            before, last = last, np.where(going, np.abs(newton - s), last)
            s = np.where(going, newton, s)
            steps += going
    layout = (2, 0, 1) if transposed else (2, 1, 0)
    potentials = np.stack([np.zeros(B), s], axis=1), (log_plan[0] - first).T
    f, g = potentials if transposed else potentials[::-1]
    shift = f.max(axis=1, keepdims=True)
    return (np.ascontiguousarray(plan.transpose(layout)), log_plan.transpose(layout),
            f - shift, g + shift, steps, err, stalled)


def sinkhorn_auto(p, q, cost, lam: float, tol: float = 1e-9,
                  max_iter: int = 100_000) -> SinkhornResult:
    """:func:`_sinkhorn_batch` on a stack of one.

    A single row or column takes the product plan, with no iteration, and
    two rows or two columns the scalar root of its one free potential, one
    iteration per root step.  Otherwise the first sweeps use the plain form
    while ``max |lam * cost|`` stays inside the safe exponent range; beyond
    that the log-domain form takes over from the problem's solution at
    ``lam / 8``, or on a detected underflow from zero.  A problem still
    unconverged after ``min(_SWEEP_BLOCK, max_iter)`` sweeps is finished by
    Newton steps and, where they stop making progress, more log-domain
    sweeps.  ``max_iter`` caps the root steps, or the sweeps at all values
    of ``lam``, and an error stalled at round-off stops them sooner.
    """
    p, q, C = _check_instance(p, q, cost)
    _check_settings(lam, tol, max_iter)
    return _single(_sinkhorn_batch(p[None], q[None], C[None], lam, tol, max_iter), p, q, lam)


def _sinkhorn_batch(P: np.ndarray, Q: np.ndarray, C: np.ndarray, lam: float, tol: float = 1e-9,
                    max_iter: int = 100_000) -> _BatchResult:
    """:func:`sinkhorn_auto` on a stack of same-shape problems at once.

    ``P`` is ``[B, m]``, ``Q`` is ``[B, n]`` and ``C`` is ``[B, m, n]``,
    all float arrays, and nothing here checks them: the caller has made the
    rows of ``P`` and ``Q`` probability vectors with positive entries and
    ``C`` finite, and has passed ``lam``, ``tol`` and ``max_iter`` through
    :func:`_check_settings`.  The first decision is the count of free
    potentials, one fewer than the smaller side.  With none, every problem
    takes the product plan (:func:`_product_plans`).  With one, every
    problem solves for it by :func:`_root`, which counts its root steps as
    iterations and marks as ``stabilized`` the problems past
    :data:`STABILIZE_THRESHOLD`.  Otherwise, if ``max_iter > 1``, those
    problems first solve at ``lam / _LAMBDA_STEP`` by a recursive call with
    one sweep fewer, whose sweeps and Newton steps count as theirs.  Then
    the solve runs in rounds.  First every problem sweeps for
    ``min(_SWEEP_BLOCK, max_iter)`` sweeps, fewer where its coarse sweeps
    leave less: problems with ``max |lam * cost|`` up to
    :data:`STABILIZE_THRESHOLD` by the plain iteration of :func:`_lockstep`,
    the rest, together with the plain problems whose kernel products or row
    scalings underflowed there, by the log-domain iteration of
    :func:`_absorbed_lockstep` in one call, from the coarse column
    multipliers where there are any.  The problems still unconverged with
    sweeps left take a phase of :func:`_newton` steps; those it does not
    finish sweep again in the log domain from its potentials (from zero
    after a coarse start), for twice the previous block, and so on, until
    each plan meets ``tol`` or has swept ``max_iter`` times.  A problem is
    ``stalled``, and stops, when a round of Newton steps and sweeps did not
    lower its error, which is within :data:`_PLATEAU` of its largest log
    potential.  Every decision is taken per problem, so each keeps the
    sweep, root-step and Newton counts, plan and multipliers it would have
    alone.
    """
    B, m, n = C.shape
    free = min(m, n) - 1  # potentials left free once the gauge pins one
    if free == 0:
        return _product_plans(P, Q, C, lam, tol)
    km = -lam * C
    stabilized = np.abs(km).reshape(B, -1).max(axis=1) > STABILIZE_THRESHOLD
    if free == 1:
        *solved, steps, err, stalled = _root(km, P, Q, tol, max_iter)
        return _finalize(P, Q, C, lam, tol, *solved, steps, stabilized, stalled=stalled,
                         marginal_error=err)
    block = min(_SWEEP_BLOCK, max_iter)
    solved = (np.empty(C.shape), np.empty(C.shape), np.empty(P.shape), np.empty(Q.shape),
              np.empty(B, dtype=int))
    plan, _, log_u, log_v, iterations = solved
    warm = stabilized & (max_iter > 1)  # starts from its solution at lam / 8
    spent, newton = np.zeros((2, B), dtype=int)
    start = np.zeros(Q.shape)
    if warm.any():
        coarse = _sinkhorn_batch(P[warm], Q[warm], C[warm], lam / _LAMBDA_STEP, tol, max_iter - 1)
        spent[warm], newton[warm] = coarse.iterations, coarse.newton
        start[warm] = lam * coarse.dual_col - 0.5
    plain = np.flatnonzero(~stabilized)
    *results, failed = _lockstep(km[plain], P[plain], Q[plain], tol, block)
    for out, result in zip(solved, results):
        out[plain] = result
    stabilized[plain[failed]] = True
    logs = np.flatnonzero(stabilized)
    swept = _absorbed_lockstep(km[logs], P[logs], Q[logs], tol,
                               np.minimum(block, max_iter - spent[logs]), start[logs])
    for out, result in zip(solved, swept):
        out[logs] = result
    iterations += spent
    stalled = np.zeros(B, dtype=bool)
    err = _marginal_errors(plan, P, Q)
    active = np.flatnonzero((err > tol) & (iterations < max_iter))
    while active.size:
        f, g, steps = _newton(km[active], P[active], Q[active], log_u[active], log_v[active], tol)
        newton[active] += steps
        for out, result in zip(solved, _gibbs_plans(km[active], f, g)):
            out[active] = result
        going = _marginal_errors(plan[active], P[active], Q[active]) > tol
        active, g = active[going], g[going]
        if not active.size:
            break
        # a warm start that its first Newton phase leaves unconverged is dropped
        g[warm[active]] = 0.0
        warm[:] = False
        block *= 2
        resumed = _absorbed_lockstep(km[active], P[active], Q[active], tol,
                                     np.minimum(block, max_iter - iterations[active]), g)
        for out, result in zip(solved[:4], resumed):
            out[active] = result
        iterations[active] += resumed[4]
        last = err[active]
        err[active] = _marginal_errors(plan[active], P[active], Q[active])
        floor = _PLATEAU * np.maximum(np.abs(log_u[active]).max(axis=1),
                                      np.abs(log_v[active]).max(axis=1))
        stalled[active] = (err[active] >= last) & (err[active] <= floor)
        active = active[(err[active] > tol) & (iterations[active] < max_iter) & ~stalled[active]]
    return _finalize(P, Q, C, lam, tol, *solved, stabilized=stabilized, newton=newton,
                     stalled=stalled)


def bound_certificates(cost, sink: SinkhornResult, lp: LpSolution) -> BoundReport:
    """Check the comparison inequalities between the regularized and exact
    solutions of one instance, whose marginals and ``lam`` ``sink`` carries.

    Verifies, each up to :data:`BOUND_SLACK`:
    the cost gap ``0 <= d_s - d_w <= (H_s - H_w) / lam``, the objective gap
    ``0 <= d_w - de_s <= H_s / lam``, and the entropy caps
    ``H_s <= H(p q^T)`` and ``H_s <= log(n) + log(m)``.  Raises
    ``ValueError`` where the cost and the solutions differ in shape, or the
    solutions in marginals.
    """
    p, q, lam = sink.plan.row_marginal, sink.plan.col_marginal, sink.lam
    if not (np.shape(cost) == sink.plan.matrix.shape == lp.plan.matrix.shape
            and np.array_equal(p, lp.plan.row_marginal)
            and np.array_equal(q, lp.plan.col_marginal)):
        raise ValueError("the regularized and exact solutions are not of one instance")
    h_s = sink.entropy
    h_w = entropy(lp.plan.matrix)
    d_w = lp.value
    checks = [
        bounded_check("cost gap vs entropy difference", sink.d_s - d_w,
                      upper=(h_s - h_w) / lam, lower=0.0),
        bounded_check("objective gap vs plan entropy", d_w - sink.de_s,
                      upper=h_s / lam, lower=0.0),
        bounded_check("plan entropy vs product coupling", h_s,
                      upper=entropy(np.outer(p, q)), lower=0.0),
        bounded_check("plan entropy vs support size", h_s,
                      upper=math.log(p.size) + math.log(q.size), lower=0.0),
    ]
    return BoundReport(checks, all(c.passed for c in checks))
