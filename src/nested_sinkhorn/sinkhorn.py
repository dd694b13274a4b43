"""Entropy-regularized discrete transport.

The fixed-point scaling iteration is provided in two numerically distinct
flavours: the plain multiplicative form on the kernel ``exp(-lam * cost)``
and a log-domain form that survives arbitrarily large ``lam * cost``.  The
latter sweeps multiplicatively on a kernel with the log potentials absorbed
and repairs any sweep that leaves the safe scaling range by a log-sum-exp
sweep (Schmitzer, arXiv:1610.06519).  Both stop on the max-norm marginal
violation, normalize the scaling pair so the largest row scaling is one,
and report the plan, its cost, its entropy, and the entropic objective.  A
batched form runs the automatic choice between them on a stack of
same-shape problems at once, for the stagewise subproblems of the nested
recursion.  Dual multipliers recovered from the scalings certify the
result against the exact linear program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .transport import LpSolution, TransportPlan, _as_marginal

__all__ = [
    "BOUND_SLACK",
    "BoundReport",
    "CheckResult",
    "DualCertificate",
    "KernelUnderflowError",
    "SinkhornResult",
    "bound_certificates",
    "bounded_check",
    "dual_from_scalings",
    "entropy",
    "gibbs_kernel",
    "sinkhorn",
    "sinkhorn_auto",
    "sinkhorn_stabilized",
]

STABILIZE_THRESHOLD = 600.0  # |lam * cost| beyond which exp() risks under/overflow
BOUND_SLACK = 1e-8           # tolerance granted to every checked inequality
_ABSORB_RANGE = (1e-30, 1e30)  # sinkhorn_stabilized keeps its scalings strictly inside


class KernelUnderflowError(FloatingPointError):
    """The multiplicative iteration hit a zero kernel row or column sum;
    switch to the log-domain variant (``sinkhorn_stabilized``)."""


@dataclass
class SinkhornResult:
    """Converged (or truncated) state of the scaling iteration.

    ``d_s`` is the transport cost of the plan, ``entropy`` its Shannon
    entropy in nats and ``de_s = d_s - entropy / lam`` the full regularized
    objective, which may be negative for small ``lam``.  The plan factors as
    ``diag(scaling_row) @ exp(-lam * cost) @ diag(scaling_col)``; the log
    scalings are kept alongside because the plain scalings can overflow in
    extreme regimes.
    """

    plan: TransportPlan
    scaling_row: np.ndarray
    scaling_col: np.ndarray
    log_scaling_row: np.ndarray
    log_scaling_col: np.ndarray
    d_s: float
    entropy: float
    de_s: float
    lam: float
    iterations: int
    marginal_error: float
    converged: bool
    stabilized: bool = False


@dataclass
class DualCertificate:
    """Dual multipliers recovered from the scalings.

    Feasible for the relaxed dual constraint ``beta_i + gamma_j <=
    cost[i, j] + 1/lam`` and normalized so the Gibbs reconstruction of the
    plan has unit mass.
    """

    beta: np.ndarray
    gamma: np.ndarray
    dual_value: float


@dataclass
class CheckResult:
    """One verified inequality: ``lower <= value <= upper`` up to a slack."""

    name: str
    value: float
    lower: float
    upper: float
    slack: float
    passed: bool


def bounded_check(name: str, value: float, upper: float, lower: float = -math.inf,
                  slack_tol: float = BOUND_SLACK) -> CheckResult:
    slack = min(value - lower, upper - value)
    return CheckResult(name, value, lower, upper, slack, slack >= -slack_tol)


@dataclass
class BoundReport:
    """Comparison of a regularized solution against the exact optimum."""

    d_w: float
    d_s: float
    de_s: float
    entropy_regularized: float
    entropy_exact: float
    lam: float
    checks: list[CheckResult] = field(default_factory=list)
    all_passed: bool = True


def gibbs_kernel(cost, lam: float) -> np.ndarray:
    """Elementwise kernel ``exp(-lam * cost)``.

    Doubling ``lam`` squares the kernel entrywise, so a kernel for one
    regularization level can be reused for its multiples.
    """
    if lam <= 0.0:
        raise ValueError(f"regularization parameter must be positive, got {lam}")
    return np.exp(-lam * np.asarray(cost, dtype=float))


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


def _validate_inputs(p, q, cost, lam, tol, max_iter):
    p = _as_marginal(p, "p")
    q = _as_marginal(q, "q")
    C = np.asarray(cost, dtype=float)
    if C.shape != (p.size, q.size):
        raise ValueError(f"cost shape {C.shape} does not match marginals ({p.size}, {q.size})")
    _validate_settings(C, lam, tol, max_iter)
    return p, q, C


def _validate_settings(C, lam, tol, max_iter):
    if not np.all(np.isfinite(C)):
        raise ValueError("cost matrix must be finite")
    if lam <= 0.0:
        raise ValueError(f"regularization parameter must be positive, got {lam}")
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def _finalize(p, q, C, lam, plan, log_u, log_v, iterations, tol, stabilized,
              log_plan=None) -> SinkhornResult:
    row_err = float(np.abs(plan.sum(axis=1) - p).max())
    col_err = float(np.abs(plan.sum(axis=0) - q).max())
    marginal_error = max(row_err, col_err)
    if log_plan is None:
        h = entropy(plan)
    else:
        positive = plan > 0.0
        h = float(-(plan[positive] * log_plan[positive]).sum())
    d_s = float((plan * C).sum())
    # the plain scalings may overflow to inf in extreme regimes; the log
    # fields below are the reliable carriers there
    with np.errstate(over="ignore"):
        scaling_row = np.exp(log_u)
        scaling_col = np.exp(log_v)
    return SinkhornResult(
        plan=TransportPlan(plan, p, q),
        scaling_row=scaling_row,
        scaling_col=scaling_col,
        log_scaling_row=log_u,
        log_scaling_col=log_v,
        d_s=d_s,
        entropy=h,
        de_s=d_s - h / lam,
        lam=lam,
        iterations=iterations,
        marginal_error=marginal_error,
        converged=marginal_error <= tol,
        stabilized=stabilized,
    )


def sinkhorn(p, q, cost, lam: float, tol: float = 1e-9, max_iter: int = 100_000) -> SinkhornResult:
    """Multiplicative scaling iteration on the kernel ``exp(-lam * cost)``.

    Alternates row and column scaling updates from an all-ones column
    scaling until the max-norm marginal violation drops to ``tol`` or
    ``max_iter`` update pairs have run (then ``converged`` is False).
    Raises :class:`KernelUnderflowError` when the kernel numerically loses a
    whole row or column, or a row scaling underflows to zero once the
    largest is normalized to one; use :func:`sinkhorn_stabilized` there.
    """
    p, q, C = _validate_inputs(p, q, cost, lam, tol, max_iter)
    K = gibbs_kernel(C, lam)
    if not (np.all(K.sum(axis=1) > 0.0) and np.all(K.sum(axis=0) > 0.0)):
        raise KernelUnderflowError(
            "kernel has an all-zero row or column; switch to sinkhorn_stabilized"
        )
    u = np.ones(p.size)
    v = np.ones(q.size)
    it = 0
    while True:
        t = K @ v
        if it > 0:
            err = float(np.abs(u * t - p).max())
            if err <= tol or it >= max_iter:
                break
        if not np.all(t > 0.0) or not np.all(np.isfinite(t)):
            raise KernelUnderflowError(
                "row sums of the scaled kernel underflowed; switch to sinkhorn_stabilized"
            )
        u = p / t
        s = K.T @ u
        if not np.all(s > 0.0) or not np.all(np.isfinite(s)):
            raise KernelUnderflowError(
                "column sums of the scaled kernel underflowed; switch to sinkhorn_stabilized"
            )
        v = q / s
        it += 1
    scale = u.max()
    u = u / scale
    v = v * scale
    if not u.min() > 0.0:
        raise KernelUnderflowError("a row scaling underflowed; switch to sinkhorn_stabilized")
    plan = u[:, None] * K * v[None, :]
    return _finalize(p, q, C, lam, plan, np.log(u), np.log(v), it, tol, stabilized=False)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    peak = a.max(axis=axis, keepdims=True)
    return peak.squeeze(axis) + np.log(np.exp(a - peak).sum(axis=axis))


def sinkhorn_stabilized(p, q, cost, lam: float, tol: float = 1e-9,
                        max_iter: int = 100_000) -> SinkhornResult:
    """Log-domain scaling iteration; same contract as :func:`sinkhorn`.

    Absorption stabilization (Schmitzer, arXiv:1610.06519): plain scalings
    ``u, v`` sweep on the kernel ``exp(f - lam * cost + g)`` with the log
    potentials ``f, g`` absorbed.  The first sweep, and any sweep that would
    take ``u`` or ``v`` out of :data:`_ABSORB_RANGE`, is run by log-sum-exp
    instead, after absorbing ``v`` into ``g``; then the kernel is rebuilt.
    So no magnitude of ``lam * cost`` can underflow the iteration, and the
    iterates are those of log-sum-exp sweeps up to round-off.
    """
    p, q, C = _validate_inputs(p, q, cost, lam, tol, max_iter)
    km = -lam * C
    log_p = np.log(p)
    log_q = np.log(q)
    low, high = _ABSORB_RANGE
    g = np.zeros(q.size)
    K = None
    it = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while True:
            if K is None:
                f = log_p - _logsumexp(km + g[None, :], axis=1)
                g = log_q - _logsumexp(km + f[:, None], axis=0)
                it += 1
                K = np.exp(f[:, None] + km + g[None, :])
                u = np.ones(p.size)
                v = np.ones(q.size)
            t = K @ v
            if np.abs(u * t - p).max() <= tol or it >= max_iter:
                break
            u_next = p / t
            v_next = q / (K.T @ u_next)
            # a NaN fails every comparison, so non-finite scalings are discarded too
            if (u_next.min() > low and u_next.max() < high
                    and v_next.min() > low and v_next.max() < high):
                u, v = u_next, v_next
                it += 1
            else:
                g = g + np.log(v)
                K = None
    f = f + np.log(u)
    shift = f.max()
    f = f - shift
    g = g + np.log(v) + shift
    log_plan = f[:, None] + km + g[None, :]
    plan = np.exp(log_plan)
    return _finalize(p, q, C, lam, plan, f, g, it, tol, stabilized=True, log_plan=log_plan)


def sinkhorn_auto(p, q, cost, lam: float, tol: float = 1e-9,
                  max_iter: int = 100_000) -> SinkhornResult:
    """Dispatch to the plain or log-domain iteration by kernel magnitude.

    The plain form is used while ``max |lam * cost|`` stays inside the safe
    exponent range; beyond that (or on a detected underflow) the log-domain
    form takes over.
    """
    C = np.asarray(cost, dtype=float)
    if C.size and np.all(np.isfinite(C)) and float(np.abs(lam * C).max()) > STABILIZE_THRESHOLD:
        return sinkhorn_stabilized(p, q, C, lam, tol, max_iter)
    try:
        return sinkhorn(p, q, C, lam, tol, max_iter)
    except KernelUnderflowError:
        return sinkhorn_stabilized(p, q, C, lam, tol, max_iter)


@dataclass
class _BatchResult:
    """Outcomes of :func:`_sinkhorn_batch`, one entry per problem along the
    leading axis.  The fields mirror :class:`SinkhornResult`; ``dual_row``
    and ``dual_col`` are the multipliers of :func:`dual_from_scalings`."""

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


def _marginal_errors(plan: np.ndarray, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Max-norm marginal violation of each plan in a stack ``[B, m, n]``."""
    return np.maximum(np.abs(plan.sum(axis=2) - P).max(axis=1),
                      np.abs(plan.sum(axis=1) - Q).max(axis=1))


def _lockstep(K: np.ndarray, P: np.ndarray, Q: np.ndarray, tol: float, max_iter: int):
    """The iteration of :func:`sinkhorn` on stacked kernels ``[B, m, n]``.

    Every problem starts together and leaves the active set on the sweep
    where :func:`sinkhorn` would stop it.  Returns the scalings, the sweep
    counts and the mask of problems whose marginal error went non-finite.
    """
    B, m, n = K.shape
    u_out = np.ones((B, m))
    v_out = np.ones((B, n))
    iterations = np.zeros(B, dtype=int)
    failed = np.zeros(B, dtype=bool)
    if B == 0:
        return u_out, v_out, iterations, failed
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
        while True:
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
    return u_out, v_out, iterations, failed


def _sinkhorn_batch(P, Q, C, lam: float, tol: float = 1e-9,
                    max_iter: int = 100_000) -> _BatchResult:
    """:func:`sinkhorn_auto` followed by :func:`dual_from_scalings` on a stack
    of same-shape problems at once.

    ``P`` is ``[B, m]``, ``Q`` is ``[B, n]`` and ``C`` is ``[B, m, n]``; the
    rows of ``P`` and ``Q`` must already be probability vectors with
    positive entries.  Problems with ``max |lam * cost|`` beyond
    :data:`STABILIZE_THRESHOLD` go to :func:`sinkhorn_stabilized` one by
    one.  The rest run the multiplicative iteration in lockstep with the
    stopping rule of :func:`sinkhorn` checked on every sweep, so each keeps
    the iteration count it would have alone.  A problem whose marginal
    error turns non-finite or whose normalized row scaling underflows
    (where :func:`sinkhorn` raises :class:`KernelUnderflowError`) is solved
    again from scratch by :func:`sinkhorn_stabilized`.
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    C = np.asarray(C, dtype=float)
    _validate_settings(C, lam, tol, max_iter)
    B, m, n = C.shape
    plan = np.empty((B, m, n))
    log_u = np.empty((B, m))
    log_v = np.empty((B, n))
    d_s = np.empty(B)
    h = np.empty(B)
    marginal_error = np.empty(B)

    stabilized = np.abs(lam * C).reshape(B, -1).max(axis=1) > STABILIZE_THRESHOLD
    plain = np.flatnonzero(~stabilized)
    K = np.exp(-lam * C[plain])
    u, v, iterations_plain, failed = _lockstep(K, P[plain], Q[plain], tol, max_iter)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = u.max(axis=1, keepdims=True)
        u = u / scale
        v = v * scale
        failed |= ~(u.min(axis=1) > 0.0)  # a row scaling underflowed, as in sinkhorn
    stabilized[plain[failed]] = True
    ok = ~failed
    rows = plain[ok]
    u, v = u[ok], v[ok]
    x = u[:, :, None] * K[ok] * v[:, None, :]
    plan[rows] = x
    log_u[rows] = np.log(u)
    log_v[rows] = np.log(v)
    marginal_error[rows] = _marginal_errors(x, P[rows], Q[rows])
    d_s[rows] = (x * C[rows]).sum(axis=(1, 2))
    x = _unit_range(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        h[rows] = -np.where(x > 0.0, x * np.log(x), 0.0).sum(axis=(1, 2))
    iterations = np.zeros(B, dtype=int)
    iterations[rows] = iterations_plain[ok]

    for k in np.flatnonzero(stabilized):
        res = sinkhorn_stabilized(P[k], Q[k], C[k], lam, tol, max_iter)
        plan[k] = res.plan.matrix
        log_u[k] = res.log_scaling_row
        log_v[k] = res.log_scaling_col
        d_s[k] = res.d_s
        h[k] = res.entropy
        marginal_error[k] = res.marginal_error
        iterations[k] = res.iterations

    dual_row, dual_col = _scaling_duals(log_u, log_v, lam)
    return _BatchResult(
        plan=plan,
        d_s=d_s,
        entropy=h,
        de_s=d_s - h / lam,
        dual_row=dual_row,
        dual_col=dual_col,
        iterations=iterations,
        marginal_error=marginal_error,
        converged=marginal_error <= tol,
        stabilized=stabilized,
    )


def _scaling_duals(log_u: np.ndarray, log_v: np.ndarray, lam: float):
    if not (np.all(np.isfinite(log_u)) and np.all(np.isfinite(log_v))):
        raise ValueError("scalings must be positive and finite")
    return (log_u + 0.5) / lam, (log_v + 0.5) / lam


def dual_from_scalings(result: SinkhornResult) -> DualCertificate:
    """Recover dual multipliers from the scaling vectors.

    Uses ``beta = (log(scaling_row) + 1/2) / lam`` and symmetrically for
    ``gamma``; the reported ``dual_value`` is the marginal-weighted sum of
    the multipliers, which exceeds the entropic objective by exactly
    ``1 / lam`` at the fixed point.
    """
    beta, gamma = _scaling_duals(result.log_scaling_row, result.log_scaling_col, result.lam)
    p = result.plan.row_marginal
    q = result.plan.col_marginal
    return DualCertificate(beta=beta, gamma=gamma, dual_value=float(p @ beta + q @ gamma))


def bound_certificates(p, q, cost, lam: float, sink: SinkhornResult,
                       lp: LpSolution) -> BoundReport:
    """Check the comparison inequalities between the regularized and exact
    solutions of one instance.

    Verifies, each up to :data:`BOUND_SLACK`:
    the cost gap ``0 <= d_s - d_w <= (H_s - H_w) / lam``, the objective gap
    ``0 <= d_w - de_s <= H_s / lam``, and the entropy caps
    ``H_s <= H(p q^T)`` and ``H_s <= log(n) + log(m)``.
    """
    p = _as_marginal(p, "p")
    q = _as_marginal(q, "q")
    C = np.asarray(cost, dtype=float)
    if C.shape != (p.size, q.size) or sink.plan.matrix.shape != C.shape \
            or lp.plan.matrix.shape != C.shape:
        raise ValueError("instance dimensions do not match between the two solutions")
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
    return BoundReport(
        d_w=d_w,
        d_s=sink.d_s,
        de_s=sink.de_s,
        entropy_regularized=h_s,
        entropy_exact=h_w,
        lam=lam,
        checks=checks,
        all_passed=all(c.passed for c in checks),
    )
