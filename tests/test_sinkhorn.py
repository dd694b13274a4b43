"""Scaling iteration, entropy accounting, duals, and comparison bounds."""

import functools
import inspect
import math

import numpy as np
import pytest

import nested_sinkhorn as package
import nested_sinkhorn.sinkhorn as sinkhorn_module
from conftest import split_timing_pair
from nested_sinkhorn import (
    bound_certificates,
    cost_matrix,
    entropy,
    generate_random_tree,
    lambda_sweep,
    nested_sinkhorn,
    sinkhorn_auto,
    solve_transport_lp,
)
from nested_sinkhorn.sinkhorn import (_LAMBDA_STEP, _PLATEAU, _SWEEP_BLOCK, STABILIZE_THRESHOLD,
                                     _absorbed_lockstep, _finalize, _lockstep, _marginal_errors,
                                     _single, _sinkhorn_batch)
from nested_sinkhorn.transport import _check_instance

HALF = np.array([0.5, 0.5])
FLIP_COST = np.array([[0.0, 1.0], [1.0, 0.0]])
OFF_DIAGONAL = 1.0 - np.eye(3)


def sweep_loop(loop, p, q, cost, lam, tol=1e-9, max_iter=100_000):
    """One sweep loop alone on a stack of one, its result finalized as
    ``sinkhorn_auto`` finalizes its own: ``_lockstep``, which must not fail,
    or ``_absorbed_lockstep``."""
    p, q, C = _check_instance(p, q, cost)
    P, Q, C = p[None], q[None], C[None]
    solved = loop(-lam * C, P, Q, tol, max_iter)
    stabilized = loop is _absorbed_lockstep
    if not stabilized:
        *solved, failed = solved
        assert not failed[0]
    return _single(_finalize(P, Q, C, lam, tol, *solved, stabilized=np.array([stabilized])),
                   p, q, lam)


plain_loop = functools.partial(sweep_loop, _lockstep)
log_loop = functools.partial(sweep_loop, _absorbed_lockstep)


def plain_loop_fails(p, q, cost, lam, tol=1e-9, max_iter=100_000):
    """Whether ``_lockstep`` sets its failure mask on the problem."""
    return bool(_lockstep(-lam * np.asarray(cost)[None], np.asarray(p)[None],
                          np.asarray(q)[None], tol, max_iter)[-1][0])


def test_package_exports_the_module_of_the_solver():
    assert inspect.ismodule(package.sinkhorn)
    assert package.sinkhorn is sinkhorn_module
    assert package.sinkhorn_auto is sinkhorn_module.sinkhorn_auto


def gibbs_plan(res, cost):
    """The plan rebuilt from a result's multipliers."""
    lam = res.lam
    return np.exp(lam * (res.dual_row[:, None] + res.dual_col[None, :] - cost) - 1.0)


def symmetric_plan(lam):
    """Closed form for the symmetric 2x2 instance: by symmetry the plan is
    [[a, b], [b, a]] with a + b = 1/2 and b = a * exp(-lam)."""
    a = 1.0 / (2.0 * (1.0 + math.exp(-lam)))
    b = a * math.exp(-lam)
    return np.array([[a, b], [b, a]])


# each public entry that takes the solver settings, at valid defaults
ENTRIES = {
    "sinkhorn_auto": lambda lam=1.0, tol=1e-9, max_iter=100: sinkhorn_auto(
        HALF, HALF, FLIP_COST, lam, tol, max_iter),
    "nested_sinkhorn": lambda lam=1.0, tol=1e-9, max_iter=100: nested_sinkhorn(
        *split_timing_pair(), 1.0, lam, tol, max_iter),
    "lambda_sweep": lambda lam=1.0, tol=1e-9, max_iter=100: lambda_sweep(
        *split_timing_pair(), 1.0, [lam], tol, max_iter),
}


class TestSinkhornPlain:
    def test_symmetric_2x2_closed_form(self):
        res = sinkhorn_auto(HALF, HALF, FLIP_COST, lam=1.0, tol=1e-12)
        expected = symmetric_plan(1.0)
        assert res.converged
        assert res.plan.matrix == pytest.approx(expected, abs=1e-10)
        assert res.d_s == pytest.approx(2.0 * expected[0, 1], abs=1e-10)

    def test_1x1_instance(self):
        res = sinkhorn_auto(np.array([1.0]), np.array([1.0]), np.array([[0.7]]), lam=3.0)
        assert res.plan.matrix == pytest.approx(np.array([[1.0]]), abs=1e-12)
        assert res.d_s == pytest.approx(0.7, abs=1e-12)
        assert res.entropy == pytest.approx(0.0, abs=1e-12)
        assert res.de_s == pytest.approx(0.7, abs=1e-12)

    def test_large_lambda_closed_form(self):
        res = sinkhorn_auto(HALF, HALF, FLIP_COST, lam=50.0, tol=1e-12)
        expected_ds = math.exp(-50.0) / (1.0 + math.exp(-50.0))
        assert res.d_s == pytest.approx(expected_ds, abs=1e-21)
        assert res.d_s < 1e-21
        assert res.plan.matrix == pytest.approx(0.5 * np.eye(2), abs=1e-12)

    def test_gibbs_factorization_invariant(self):
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(5))
        cost = rng.uniform(0.0, 3.0, size=(4, 5))
        res = sinkhorn_auto(p, q, cost, lam=2.0, tol=1e-11)
        assert np.abs(gibbs_plan(res, cost) / res.plan.matrix - 1.0).max() < 1e-10
        assert res.dual_row.max() == pytest.approx(0.5 / 2.0, abs=1e-15 / 2.0)

    def test_strictly_positive_plan(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(4))
        cost = rng.uniform(0.0, 4.0, size=(3, 4))
        # sinkhorn_auto finishes this one by Newton steps after its first sweep block
        for solve in (plain_loop, sinkhorn_auto):
            assert solve(p, q, cost, lam=10.0).plan.matrix.min() > 0.0

    def test_marginal_feasibility(self):
        rng = np.random.default_rng(6)
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(3))
        cost = rng.uniform(0.0, 2.0, size=(6, 3))
        res = sinkhorn_auto(p, q, cost, lam=4.0, tol=1e-10)
        assert np.abs(res.plan.matrix.sum(axis=1) - p).max() <= 1e-10
        assert np.abs(res.plan.matrix.sum(axis=0) - q).max() <= 1e-10

    def test_fixed_point_stability(self):
        # one more update pair moves the scalings only at tolerance scale;
        # a row-sum error of tol shifts the row scaling by at most
        # tol / (p_i - tol) relative, and the column update follows suit.
        # On the plan rebuilt from the multipliers, the row update scales
        # row i by p_i / (row sum i) and the column update column j by
        # q_j / (column sum j of the row-updated plan)
        rng = np.random.default_rng(7)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        cost = rng.uniform(0.0, 3.0, size=(4, 4))
        tol = 1e-11
        res = sinkhorn_auto(p, q, cost, lam=3.0, tol=tol)
        plan = gibbs_plan(res, cost)
        row_ratio = p / plan.sum(axis=1)
        col_ratio = q / (plan.T @ row_ratio)
        row_bound = tol / (p.min() - tol) * 1.01
        col_bound = tol / (q.min() - tol) * 2.0
        assert np.abs(row_ratio - 1.0).max() <= row_bound
        assert np.abs(col_ratio - 1.0).max() <= col_bound

    def test_max_iter_flagging(self):
        # asymmetric, weakly regularized: far from converged after 3 sweeps
        p = np.array([0.2, 0.3, 0.5])
        q = np.array([0.5, 0.3, 0.2])
        res = sinkhorn_auto(p, q, OFF_DIAGONAL, lam=30.0, tol=1e-12, max_iter=3)
        assert not res.converged
        assert res.iterations == 3
        assert res.marginal_error > 1e-12

    def test_kernel_underflow_raises(self):
        # the plain loop raises its failure flag, and the solver takes the
        # log-domain loop instead
        cost = np.array([[0.0, 2000.0], [2000.0, 4000.0]])
        assert plain_loop_fails(HALF, HALF, cost, lam=1.0)
        res = sinkhorn_auto(HALF, HALF, cost, lam=1.0)
        assert res.stabilized and res.converged

    def test_invalid_lambda(self):
        with pytest.raises(ValueError, match="positive"):
            sinkhorn_auto(HALF, HALF, FLIP_COST, lam=0.0)
        with pytest.raises(ValueError, match="positive"):
            sinkhorn_auto(HALF, HALF, FLIP_COST, lam=-2.0)

    @pytest.mark.parametrize("entry", list(ENTRIES))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_settings(self, entry, bad):
        with pytest.raises(ValueError, match="regularization parameter must be positive"):
            ENTRIES[entry](lam=bad)
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            ENTRIES[entry](tol=bad)

    @pytest.mark.parametrize("entry", list(ENTRIES))
    @pytest.mark.parametrize("bad", [math.nan, 2.5, 3.0, 0, -1, np.int64(0), "3"])
    def test_max_iter_must_be_a_positive_integer(self, entry, bad):
        with pytest.raises(ValueError, match="max_iter must be an integer of at least 1"):
            ENTRIES[entry](max_iter=bad)

    @pytest.mark.parametrize("max_iter", [1, np.int64(3), np.int32(3)])
    def test_integer_max_iter_of_any_kind(self, max_iter):
        p, q = np.array([0.2, 0.3, 0.5]), np.array([0.5, 0.3, 0.2])
        res = sinkhorn_auto(p, q, OFF_DIAGONAL, lam=30.0, tol=1e-12, max_iter=max_iter)
        assert res.iterations == max_iter


class TestSinkhornStabilized:
    def test_agreement_with_plain(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(m))
            cost = rng.uniform(0.0, 3.0, size=(n, m))
            lam = float(rng.uniform(0.2, 10.0))  # max lam*cost stays below 30
            plain = plain_loop(p, q, cost, lam, tol=1e-12)
            log = log_loop(p, q, cost, lam, tol=1e-12)
            assert abs(plain.d_s - log.d_s) <= 1e-8
            assert abs(plain.de_s - log.de_s) <= 1e-8
            assert np.abs(plain.plan.matrix - log.plan.matrix).max() <= 1e-8

    def test_extreme_lambda(self):
        res = log_loop(HALF, HALF, FLIP_COST, lam=2000.0, tol=1e-12)
        assert res.converged
        assert res.d_s < 1e-15
        assert res.plan.matrix == pytest.approx(0.5 * np.eye(2), abs=1e-12)

    def test_1x1_matches_plain(self):
        p = np.array([1.0])
        cost = np.array([[1.3]])
        plain = plain_loop(p, p, cost, lam=1.0)
        log = log_loop(p, p, cost, lam=1.0)
        assert abs(plain.d_s - log.d_s) <= 1e-12
        assert abs(plain.de_s - log.de_s) <= 1e-12

    def test_auto_dispatch(self):
        mild = sinkhorn_auto(HALF, HALF, FLIP_COST, lam=1.0)
        assert not mild.stabilized
        extreme = sinkhorn_auto(HALF, HALF, FLIP_COST, lam=2000.0)
        assert extreme.stabilized
        assert extreme.converged


def _lse(a, axis):
    peak = a.max(axis=axis, keepdims=True)
    return peak.squeeze(axis) + np.log(np.exp(a - peak).sum(axis=axis))


def log_domain_reference(p, q, cost, lam, tol=1e-9, max_iter=100_000):
    """The pure log-sum-exp iteration: both kernel products of every sweep
    by log-sum-exp.  The log-domain loop must reproduce its iterates up to
    round-off."""
    p, q, C = _check_instance(p, q, cost)
    km = -lam * C
    log_p = np.log(p)
    log_q = np.log(q)
    f = np.zeros(p.size)
    g = np.zeros(q.size)
    it = 0
    while True:
        t = _lse(km + g[None, :], axis=1)
        if it > 0:
            err = float(np.abs(np.exp(f + t) - p).max())
            if err <= tol or it >= max_iter:
                break
        f = log_p - t
        g = log_q - _lse(km + f[:, None], axis=0)
        it += 1
    shift = f.max()
    f = f - shift
    g = g + shift
    log_plan = f[:, None] + km + g[None, :]
    batch = _finalize(p[None], q[None], C[None], lam, tol, np.exp(log_plan)[None],
                      log_plan[None], f[None], g[None], np.array([it]), np.array([True]))
    return _single(batch, p, q, lam)


REFERENCE_TOL = 1e-13


def assert_newton_contract(p, q, cost, lam, tol, plan, de_s, dual_row, dual_col,
                           marginal_error):
    """The contract of a problem still unconverged after the first sweep
    block, which Newton steps (and maybe more sweeps) finish: its marginal
    error is at most ``tol``, and its value, plan and duals lie within twice
    the first-order perturbation bounds of the fixed point that
    ``log_domain_reference`` reaches at :data:`REFERENCE_TOL`.

    A Gibbs-form plan with marginal residuals ``e`` has log potentials
    ``H^+ e`` away from the fixed point, where ``H`` is the dual Hessian, so
    at most ``|e|_2 / gap`` away with ``gap`` its smallest nonzero
    eigenvalue.  Its entropic objective is the optimum for its own
    marginals, which is convex in them with the multipliers as gradient, so
    it is off by at most ``|e|_1`` times half the spread of the multipliers.
    The reference's tolerance grows with max |lam * cost| beyond 1e3, where
    the round-off of the log-sum-exp sweeps keeps it from reaching 1e-13.
    """
    assert marginal_error <= tol
    ref_tol = REFERENCE_TOL * max(1.0, float(np.abs(lam * cost).max()) / 1e3)
    ref = log_domain_reference(p, q, cost, lam, ref_tol, 200_000)
    assert ref.converged
    x = ref.plan.matrix
    m, n = x.shape
    hessian = np.block([[np.diag(x.sum(axis=1)), x], [x.T, np.diag(x.sum(axis=0))]])
    gap = np.linalg.eigvalsh(hessian)[1]
    shift = 2.0 * math.sqrt(m + n) * (tol + ref_tol) / gap
    spread = max(np.ptp(ref.dual_row), np.ptp(ref.dual_col))
    assert abs(de_s - ref.de_s) <= (m + n) * (tol + ref_tol) * spread
    # an entry moves with one row and one column potential
    assert np.abs(plan - x).max() <= math.expm1(2.0 * shift) * x.max()
    # the gauge (largest row potential zero) moves the duals by up to the shift again
    assert np.abs(dual_row - ref.dual_row).max() <= 2.0 * shift / lam
    assert np.abs(dual_col - ref.dual_col).max() <= 2.0 * shift / lam


def assert_same_as_alone(batch, k, alone, atol):
    """Problem ``k`` of a stack got the result ``alone``, its solve at B=1."""
    assert batch.iterations[k] == alone.iterations
    assert batch.newton[k] == alone.newton
    assert batch.converged[k] == alone.converged
    assert batch.stabilized[k] == alone.stabilized
    assert batch.plan[k] == pytest.approx(alone.plan.matrix, rel=0, abs=atol)
    assert batch.de_s[k] == pytest.approx(alone.de_s, rel=0, abs=atol)
    assert batch.dual_row[k] == pytest.approx(alone.dual_row, rel=0, abs=atol)
    assert batch.dual_col[k] == pytest.approx(alone.dual_col, rel=0, abs=atol)


def lam_levels(lam, cost):
    """How many values of lam a general problem is solved at: its own, and
    one more for each coarser level its max |lam * cost| needs to get inside
    ``STABILIZE_THRESHOLD``, each ``_LAMBDA_STEP`` times smaller."""
    levels, peak = 1, lam * float(np.abs(cost).max())
    while peak > STABILIZE_THRESHOLD:
        levels, peak = levels + 1, peak / _LAMBDA_STEP
    return levels


def plain_reference(p, q, cost, lam, tol=1e-9, max_iter=100_000):
    """The multiplicative iteration as a flat loop, without underflow
    guards.  The batched plain loop must reproduce its iterates."""
    p, q, C = _check_instance(p, q, cost)
    K = np.exp(-lam * C)
    u = np.ones(p.size)
    v = np.ones(q.size)
    it = 0
    while True:
        t = K @ v
        if it > 0:
            err = float(np.abs(u * t - p).max())
            if err <= tol or it >= max_iter:
                break
        u = p / t
        v = q / (K.T @ u)
        it += 1
    scale = u.max()
    u = u / scale
    v = v * scale
    plan = u[:, None] * K * v[None, :]
    batch = _finalize(p[None], q[None], C[None], lam, tol, plan[None], np.log(plan)[None],
                      np.log(u)[None], np.log(v)[None], np.array([it]), np.array([False]))
    return _single(batch, p, q, lam)


class TestPlainIteration:
    """The plain loop, and ``sinkhorn_auto`` and the batch below the
    log-domain threshold, must follow ``plain_reference`` sweep for sweep."""

    @staticmethod
    def assert_same(ref, plan, dual_row, dual_col, iterations, converged):
        # 1e-12 on the log scalings is 1e-12 / lam on the multipliers
        assert iterations == ref.iterations
        assert converged == ref.converged
        assert plan == pytest.approx(ref.plan.matrix, rel=0, abs=1e-12)
        assert dual_row == pytest.approx(ref.dual_row, rel=0, abs=1e-12 / ref.lam)
        assert dual_col == pytest.approx(ref.dual_col, rel=0, abs=1e-12 / ref.lam)

    @pytest.mark.parametrize("max_iter", [1, 3, 100_000])
    def test_flat_and_batched_paths(self, max_iter):
        # the plain loop always follows the reference; sinkhorn_auto and the batch
        # follow it on the problems that converge within the first sweep
        # block, and the Newton contract holds for the others
        rng = np.random.default_rng(10)
        lam, tol = 8.0, 1e-10  # max |lam * cost| stays below 24
        problems = [(rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(5)),
                     rng.uniform(0.0, 3.0, size=(4, 5))) for _ in range(5)]
        refs = [plain_reference(p, q, cost, lam, tol, max_iter) for p, q, cost in problems]
        batch = _sinkhorn_batch(*(np.stack(x) for x in zip(*problems)), lam, tol, max_iter)
        assert not batch.stabilized.any()
        for k, ((p, q, cost), ref) in enumerate(zip(problems, refs)):
            flat = plain_loop(p, q, cost, lam, tol, max_iter)
            self.assert_same(ref, flat.plan.matrix, flat.dual_row, flat.dual_col,
                             flat.iterations, flat.converged)
            auto = sinkhorn_auto(p, q, cost, lam, tol, max_iter)
            assert not flat.stabilized and not auto.stabilized
            assert_same_as_alone(batch, k, auto, 1e-12)
            if ref.iterations <= _SWEEP_BLOCK:
                assert auto.newton == 0
                self.assert_same(ref, auto.plan.matrix, auto.dual_row, auto.dual_col,
                                 auto.iterations, auto.converged)
            else:
                assert_newton_contract(p, q, cost, lam, tol, auto.plan.matrix, auto.de_s,
                                       auto.dual_row, auto.dual_col, auto.marginal_error)
        if max_iter > 3:
            # every problem leaves the stack on its own sweep, and both
            # kinds of problem are in it
            assert len({ref.iterations for ref in refs}) == len(refs)
            assert all(ref.converged for ref in refs)
            assert 0 < sum(ref.iterations > _SWEEP_BLOCK for ref in refs) < len(refs)


def signed_instance(rng, m, n, magnitude):
    """Random marginals and a mixed-sign cost with max |cost| = 1, solved at
    ``lam = magnitude`` so that max |lam * cost| = magnitude."""
    cost = rng.uniform(-1.0, 1.0, size=(m, n))
    return (rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n)),
            cost / np.abs(cost).max(), float(magnitude))


class TestAbsorbedIteration:
    """The log-domain loop sweeps multiplicatively on an absorbed kernel
    and must follow the pure log-sum-exp iteration sweep for sweep.  The log
    potentials carry an absolute round-off proportional to max |lam * cost|,
    so values are compared to 1e-12 of that scale."""

    @staticmethod
    def assert_same(p, q, cost, lam, tol=1e-9, max_iter=2000):
        res = log_loop(p, q, cost, lam, tol, max_iter)
        ref = log_domain_reference(p, q, cost, lam, tol, max_iter)
        assert res.iterations == ref.iterations
        assert res.converged == ref.converged
        assert res.stabilized
        atol = 1e-12 * max(1.0, float(np.abs(lam * cost).max()))
        assert res.plan.matrix == pytest.approx(ref.plan.matrix, rel=0, abs=atol)
        assert res.dual_row == pytest.approx(ref.dual_row, rel=0, abs=atol / lam)
        assert res.dual_col == pytest.approx(ref.dual_col, rel=0, abs=atol / lam)
        assert res.de_s == pytest.approx(ref.de_s, rel=0, abs=atol)
        assert res.dual_row.max() == 0.5 / lam
        return res

    @pytest.mark.parametrize("magnitude", [10.0, 1e2, 1e3, 1e4, 1e5])
    def test_random_signed_costs(self, magnitude):
        rng = np.random.default_rng(int(magnitude))
        for _ in range(6):
            m, n = (int(k) for k in rng.integers(1, 9, size=2))
            self.assert_same(*signed_instance(rng, m, n, magnitude))

    @pytest.mark.parametrize("shape", [(1, 7), (7, 1), (1, 1)])
    @pytest.mark.parametrize("magnitude", [10.0, 1e3, 1e5])
    def test_single_row_or_column(self, shape, magnitude):
        rng = np.random.default_rng(5)
        res = self.assert_same(*signed_instance(rng, *shape, magnitude))
        assert res.converged

    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_truncation(self, max_iter):
        rng = np.random.default_rng(9)
        for magnitude in (10.0, 1e3, 1e5):
            res = self.assert_same(*signed_instance(rng, 6, 5, magnitude), max_iter=max_iter)
            assert res.iterations == max_iter

    def test_absorb_and_redo(self, monkeypatch):
        # at lam = 1000 the scalings leave the safe range every few hundred
        # sweeps, so the log-domain loop must discard sweeps and redo them
        # by log-sum-exp; its first sweep accounts for two calls
        calls = []
        log_sum_exp = sinkhorn_module._logsumexp

        def counted(a, axis):
            calls.append(axis)
            return log_sum_exp(a, axis)

        monkeypatch.setattr(sinkhorn_module, "_logsumexp", counted)
        rng = np.random.default_rng(3)
        res = self.assert_same(*signed_instance(rng, 4, 4, 1000.0))
        assert res.converged
        assert len(calls) > 2


    def test_stacked_problems(self, monkeypatch):
        # one stack at max |lam * cost| = 1e3, 1e4 and 1e5: the problems
        # repair different numbers of sweeps, and Newton steps finish each at
        # every level of lam in its first phase, the third across couplings
        # that underflow.  The stack does each problem's log-sum-exp work
        # exactly as the problem alone does it
        rng = np.random.default_rng(27)
        problems = []
        for magnitude in (1e3, 1e4, 1e5):
            p, q, cost, _ = signed_instance(rng, 4, 5, magnitude)
            problems.append((p, q, magnitude * cost))
        lam, tol, max_iter = 1.0, 1e-9, 2000
        sweeps = []
        log_sum_exp = sinkhorn_module._logsumexp

        def counted(a, axis):
            sweeps.append(len(a))  # problems in this log-sum-exp half-sweep
            return log_sum_exp(a, axis)

        monkeypatch.setattr(sinkhorn_module, "_logsumexp", counted)
        repairs = []
        for p, q, cost in problems:
            sweeps.clear()
            log_loop(p, q, cost, lam, tol, max_iter)
            repairs.append(sum(sweeps) // 2 - 1)
        assert len(set(repairs)) == len(problems)
        work = 0
        singles = []
        for p, q, cost in problems:
            sweeps.clear()
            singles.append(sinkhorn_auto(p, q, cost, lam, tol, max_iter))
            work += sum(sweeps)
        sweeps.clear()
        batch = _sinkhorn_batch(*(np.stack(x) for x in zip(*problems)), lam, tol, max_iter)
        assert sum(sweeps) == work
        assert batch.stabilized.all()
        for k, ((p, q, cost), alone) in enumerate(zip(problems, singles)):
            atol = 1e-12 * max(1.0, float(np.abs(lam * cost).max()))
            assert_same_as_alone(batch, k, alone, atol)
            assert batch.dual_row[k].max() == 0.5 / lam
            assert alone.iterations == _SWEEP_BLOCK * lam_levels(lam, cost) and alone.newton > 0
        assert batch.converged.all() and not batch.stalled.any()
        for k in range(2):
            assert_newton_contract(*problems[k], lam, tol, batch.plan[k], batch.de_s[k],
                                   batch.dual_row[k], batch.dual_col[k], batch.marginal_error[k])


# stays under the log-domain threshold, but a scaling of the plain
# iteration's first sweep leaves the double range, so the plain iteration
# gives up and the log-domain one solves it again
PLAIN_FAILURE = (np.array([0.6659, 0.1416, 0.1925]), np.array([0.525, 0.2053, 0.2697]),
                 np.array([[278.95, 550.16, 278.85], [-299.18, 278.39, -299.53],
                           [-550.18, 0.68, -550.16]]))


class TestSinkhornBatch:
    def test_underflow_retry_matches_auto(self):
        # the failure above, stacked with a mild problem
        P = np.stack([PLAIN_FAILURE[0], np.array([0.3, 0.3, 0.4])])
        Q = np.stack([PLAIN_FAILURE[1], np.array([0.6, 0.2, 0.2])])
        C = np.stack([PLAIN_FAILURE[2], OFF_DIAGONAL])
        assert plain_loop_fails(P[0], Q[0], C[0], lam=1.0)
        assert not plain_loop_fails(P[1], Q[1], C[1], lam=1.0)
        batch = _sinkhorn_batch(P, Q, C, lam=1.0, tol=1e-12)
        assert batch.stabilized.tolist() == [True, False]
        for k in range(2):
            ref = sinkhorn_auto(P[k], Q[k], C[k], lam=1.0, tol=1e-12)
            assert ref.stabilized == batch.stabilized[k]
            assert batch.iterations[k] == ref.iterations
            assert batch.converged[k] == ref.converged
            assert batch.plan[k] == pytest.approx(ref.plan.matrix, rel=0, abs=1e-12)
            assert batch.de_s[k] == pytest.approx(ref.de_s, rel=0, abs=1e-12)
            assert batch.dual_row[k] == pytest.approx(ref.dual_row, rel=0, abs=1e-12)
            assert batch.dual_col[k] == pytest.approx(ref.dual_col, rel=0, abs=1e-12)

    def test_normalization_underflow_matches_stabilized(self):
        # max|lam * C| = 514 keeps the plain iteration, which converges, but
        # the row scalings span more than the double range, so dividing by
        # the largest one underflows the smallest to zero
        p = np.array([0.1768, 0.2697, 0.5535])
        q = np.array([0.4013, 0.3035, 0.2952])
        C = np.array([[264.0, 222.0, 511.0], [-514.0, 219.0, 488.0], [-31.0, -190.0, 116.0]])
        assert plain_loop_fails(p, q, C, lam=1.0)
        ref = log_loop(p, q, C, lam=1.0)
        assert ref.converged and ref.iterations > _SWEEP_BLOCK
        auto = sinkhorn_auto(p, q, C, lam=1.0)
        assert auto.stabilized and auto.converged and auto.newton > 0
        # the log-domain sweeps need more than one sweep block, so Newton
        # steps finish the problem
        assert_newton_contract(p, q, C, 1.0, 1e-9, auto.plan.matrix, auto.de_s, auto.dual_row,
                               auto.dual_col, auto.marginal_error)
        # a mild second problem keeps the plain lockstep path in the batch
        batch = _sinkhorn_batch(np.stack([p, q]), np.stack([q, p]),
                                np.stack([C, 1.0 - np.eye(3)]), lam=1.0)
        assert batch.stabilized.tolist() == [True, False]
        assert batch.converged.all()
        assert_same_as_alone(batch, 0, auto, 1e-12)


    def test_one_log_domain_call_per_stack(self, monkeypatch):
        # a plain problem, the plain failure of the test above and a problem
        # past the log-domain threshold: the failure and the large problem
        # share one call of the log-domain loop.  The large problem first
        # solves at lam / 8, inside the plain range, whose level makes its
        # own call with no problem in it
        calls = []
        absorbed = sinkhorn_module._absorbed_lockstep

        def counted(km, *args):
            calls.append(len(km))
            return absorbed(km, *args)

        P = np.stack([np.array([0.3, 0.3, 0.4]), PLAIN_FAILURE[0], np.array([0.3, 0.3, 0.4])])
        Q = np.stack([np.array([0.6, 0.2, 0.2]), PLAIN_FAILURE[1], np.array([0.6, 0.2, 0.2])])
        C = np.stack([OFF_DIAGONAL, PLAIN_FAILURE[2],
                      np.array([[-700.0, 900.0, 0.0], [0.0, 1.0, 2.0], [3.0, 0.0, 1.0]])])
        refs = [sinkhorn_auto(P[k], Q[k], C[k], lam=1.0, tol=1e-12) for k in range(3)]
        monkeypatch.setattr(sinkhorn_module, "_absorbed_lockstep", counted)
        batch = _sinkhorn_batch(P, Q, C, lam=1.0, tol=1e-12)
        assert calls == [0, 2]
        assert batch.stabilized.tolist() == [False, True, True]
        for k, ref in enumerate(refs):
            assert ref.stabilized == batch.stabilized[k]
            assert batch.iterations[k] == ref.iterations
            assert batch.converged[k] == ref.converged
            assert batch.plan[k] == pytest.approx(ref.plan.matrix, rel=0, abs=1e-12)

    def test_coarse_levels_keep_each_result_and_share_max_iter(self):
        # max |lam * cost| = 300, 2000 and 20000: a plain problem, one that
        # first solves at lam / 8 and one that first solves at lam / 64 and
        # lam / 8.  Each level sweeps one block before Newton steps finish
        # it, and every sweep at every level counts against max_iter
        rng = np.random.default_rng(1)
        problems = []
        for magnitude in (300.0, 2000.0, 20000.0):
            p, q, cost, _ = signed_instance(rng, 4, 5, magnitude)
            problems.append((p, q, magnitude * cost))
        stack = [np.stack(x) for x in zip(*problems)]
        levels = [lam_levels(1.0, cost) for _, _, cost in problems]
        assert levels == [1, 2, 3]
        for max_iter in (100_000, 60):
            batch = _sinkhorn_batch(*stack, 1.0, 1e-9, max_iter)
            for k, (p, q, cost) in enumerate(problems):
                alone = sinkhorn_auto(p, q, cost, 1.0, 1e-9, max_iter)
                assert_same_as_alone(batch, k, alone, 1e-12 * np.abs(cost).max())
            assert batch.stabilized.tolist() == [False, True, True]
            if max_iter == 60:
                assert batch.iterations.tolist() == [_SWEEP_BLOCK, 60, 60]
                assert batch.converged.tolist() == [True, False, False]
            else:
                assert batch.iterations.tolist() == [_SWEEP_BLOCK * n for n in levels]
                assert batch.converged.all()


class TestNewtonFinish:
    def test_stalled_3x3(self):
        # the root subproblem of a height-2 pair: the kernel's cross ratio
        # of about exp(30) stalls the sweeps at a marginal error near 3e-7
        p = q = np.full(3, 1.0 / 3.0)
        cost = np.array([[0.780, 0.861, 4.0], [0.642, 0.723, 3.861], [3.780, 3.861, 1.0]])
        assert not log_loop(p, q, cost, 5.0, max_iter=5000).converged
        res = sinkhorn_auto(p, q, cost, 5.0)
        assert res.converged and res.newton > 0
        report = bound_certificates(cost, res, solve_transport_lp(p, q, cost))
        assert report.all_passed, [c for c in report.checks if not c.passed]

    # three stage-1 subproblems of the [1,3,3,3] seed-0 tree against the
    # [1,3,3,3] seed-10 tree (generate_random_tree), the node pairs (0, 1),
    # (1, 0) and (2, 1), at lam 2000, priced by the stage-2 values and
    # written out in full precision
    STAGE1 = (
        ([0.32576894116781485, 0.3683557362616117, 0.3058753225705734],
         [0.28735393365312734, 0.3431803089241139, 0.3694657574227587],
         [[1.1212367034387785, 2.8248962263401105, 3.341294524323336],
          [1.9990489581685031, 1.392191626312168, 5.311331373593593],
          [3.466393105898524, 1.4940690405382357, 6.737040403146384]]),
        ([0.4312524540461217, 0.18921330141130174, 0.37953424454257656],
         [0.3409100547552763, 0.39715630476508523, 0.26193364047963846],
         [[2.9259201141360696, 2.486782269976363, 2.1606843359909416],
          [3.46104137869113, 1.6728821862130339, 2.0287647646636233],
          [3.374859404964669, 1.6957828906649925, 1.9449644812954432]]),
        ([0.34564115812916163, 0.3908705583289858, 0.26348828354185255],
         [0.28735393365312734, 0.3431803089241139, 0.3694657574227587],
         [[6.194146313231622, 4.045257981952314, 9.506527860775547],
          [2.2953156840755344, 1.4329330464610752, 5.306487019316193],
          [4.922680734796801, 2.7965824937393493, 8.234977272862537]]),
    )

    def test_mixed_stack(self):
        # near-block-diagonal 3x3 problems at lam 20: some converge within
        # the first sweep block and some in the first Newton phase; then the
        # stage-1 subproblems above at their nested tolerance 1e-12 / 3, where
        # two sweep again after their Newton phases stop short and the third
        # stalls at round-off.  Each gets its result alone
        rng = np.random.default_rng(0)
        lam, tol = 20.0, 1e-9
        problems = [(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3)),
                     OFF_DIAGONAL + rng.uniform(0.0, 0.3, size=(3, 3))) for _ in range(16)]
        batch = _sinkhorn_batch(*(np.stack(x) for x in zip(*problems)), lam, tol)
        kinds = set()
        for k, (p, q, cost) in enumerate(problems):
            alone = sinkhorn_auto(p, q, cost, lam, tol)
            assert_same_as_alone(batch, k, alone, 1e-12)
            assert alone.converged and not alone.stabilized
            if alone.iterations < _SWEEP_BLOCK:
                kinds.add("swept")
                ref = plain_reference(p, q, cost, lam, tol)
                TestPlainIteration.assert_same(ref, alone.plan.matrix, alone.dual_row,
                                               alone.dual_col, alone.iterations, alone.converged)
            else:
                kinds.add("newton" if alone.iterations == _SWEEP_BLOCK else "resumed")
                assert_newton_contract(p, q, cost, lam, tol, batch.plan[k], batch.de_s[k],
                                       batch.dual_row[k], batch.dual_col[k],
                                       batch.marginal_error[k])
        lam, tol, max_iter = 2000.0, 1e-12 / 3, 200_000
        problems = [tuple(np.array(x) for x in problem) for problem in self.STAGE1]
        batch = _sinkhorn_batch(*(np.stack(x) for x in zip(*problems)), lam, tol, max_iter)
        for k, (p, q, cost) in enumerate(problems):
            alone = sinkhorn_auto(p, q, cost, lam, tol, max_iter)
            assert_same_as_alone(batch, k, alone, 1e-12 * lam * cost.max())
            # the log-sum-exp reference cannot reach the Newton contract's
            # tolerance at this lam; the plan meets tol or stalled
            assert alone.converged != batch.stalled[k] and alone.iterations < max_iter
            if alone.converged and alone.iterations > _SWEEP_BLOCK:
                kinds.add("resumed")
        assert batch.stalled.tolist() == [False, False, True]
        assert kinds == {"swept", "newton", "resumed"}

    def test_exp_flushes_subnormals(self):
        a = np.array([[0.0, -1.0, -699.9, -700.0, -700.1, -745.0, -np.inf, 3.0]])
        out = sinkhorn_module._exp(a)
        above = a > -700.0
        assert np.array_equal(out[above], np.exp(a[above]))
        assert not out[~above].any()

    def test_flat_plan_has_no_subnormal_entry(self):
        # the flat-hi benchmark pair at lam 1000, where most plan entries
        # fall far below the smallest normal number
        a = generate_random_tree((1, 2, 3, 2, 3, 4), 86)
        b = generate_random_tree((1, 2, 2, 1, 3, 2), 87)
        res = sinkhorn_auto(a.leaf_probabilities, b.leaf_probabilities, cost_matrix(a, b, 1.0),
                            lam=1000.0)
        assert res.converged
        x = res.plan.matrix
        assert (x == 0.0).any() and not ((x > 0.0) & (x < np.finfo(float).tiny)).any()

    @pytest.mark.parametrize("lam, newton_cap", [(100.0, 20), (1000.0, 40)])
    def test_flat_pair_starts_from_coarser_lam(self, lam, newton_cap):
        # the flat-hi benchmark pair, 144x24 at max |lam * cost| of about
        # 2450 and 24500: started from its own solution at lam / 8 (and
        # lam / 64), the Newton finish takes a few steps, where the same
        # solve from zero potentials took 46 and 239
        a = generate_random_tree((1, 2, 3, 2, 3, 4), 86)
        b = generate_random_tree((1, 2, 2, 1, 3, 2), 87)
        p, q, cost = a.leaf_probabilities, b.leaf_probabilities, cost_matrix(a, b, 1.0)
        res = sinkhorn_auto(p, q, cost, lam)
        assert res.converged and res.stabilized and 0 < res.newton <= newton_cap
        exact = solve_transport_lp(p, q, cost).value
        assert res.de_s <= exact <= res.d_s
        assert res.d_s - res.de_s <= (math.log(p.size) + math.log(q.size)) / lam

    def test_singular_newton_system(self):
        # the kernel's off-diagonal entries underflow, so the Newton weights
        # vanish; the pinned, scaled system stays solvable, and a mild stack
        # mate gets the result it gets alone
        p, q = np.array([0.2, 0.3, 0.5]), np.array([0.4, 0.4, 0.2])
        cost = 1000.0 * OFF_DIAGONAL
        res = sinkhorn_auto(p, q, cost, lam=1.0)
        assert res.newton > 0 and res.converged
        mild = (np.array([0.3, 0.3, 0.4]), np.array([0.6, 0.2, 0.2]), OFF_DIAGONAL)
        batch = _sinkhorn_batch(np.stack([p, mild[0]]), np.stack([q, mild[1]]),
                                np.stack([cost, mild[2]]), lam=1.0)
        assert batch.converged.all()
        assert_same_as_alone(batch, 0, res, 1e-12)
        assert_same_as_alone(batch, 1, sinkhorn_auto(*mild, lam=1.0), 1e-12)

    # two subproblems of the 27x27-leaf pair [1,3,3,3] seed 0 against
    # [1,3,3,3] seed 10 (generate_random_tree) at lam 100, written out in
    # full precision: the stage-2 pair (7, 4), priced by the leaf costs, and
    # the stage-1 pair (0, 1), priced by the stage-2 values.  Their optimal
    # plans move mass across nearly disconnected couplings (Newton weights
    # down to 5e-56 and 8e-59), where the sweeps crawl and capped Newton
    # steps get through
    @pytest.mark.parametrize("p, q, cost", [
        ([0.23356399238600997, 0.490808368501552, 0.27562763911243804],
         [0.44153313970952973, 0.26271567939751594, 0.2957511808929544],
         [[3.3956482036783027, 2.206332057474968, 4.050618727912546],
          [1.1401093487717655, 1.9910065832133448, 1.7950798730060096],
          [1.4333476535266585, 2.622663799729993, 1.1634226564893615]]),
        ([0.32576894116781485, 0.3683557362616117, 0.3058753225705734],
         [0.28735393365312734, 0.3431803089241139, 0.3694657574227587],
         [[1.1055141645834548, 2.8064344658602485, 3.320860228327361],
          [1.9803752368354153, 1.3780129405732138, 5.290828078455033],
          [3.4501702376148855, 1.4775599724204103, 6.716468173329995]]),
    ], ids=["stage2-3x3", "stage1-3x3"])
    def test_nearly_disconnected_kernel(self, p, q, cost):
        p, q, cost, lam, tol = np.array(p), np.array(q), np.array(cost), 100.0, 1e-9
        res = sinkhorn_auto(p, q, cost, lam, tol)
        assert res.converged and res.newton > 0
        # Newton steps finish it at each level of lam without another sweep
        # block; the stage-1 problem, at max |lam * cost| = 671.6, has two
        assert res.iterations == _SWEEP_BLOCK * lam_levels(lam, cost)
        assert_newton_contract(p, q, cost, lam, tol, res.plan.matrix, res.de_s, res.dual_row,
                               res.dual_col, res.marginal_error)

    @pytest.mark.parametrize("lam", [50.0, 100.0, 200.0])
    def test_round_off_gradient_on_an_uncoupled_potential(self, lam):
        # the stage-1 diagonal pair of generate_random_tree([1,3,3], 15)
        # against itself: the third potential is nearly uncoupled (Newton
        # degree about 4e-47 at lam 100), and its gradient entry is round-off
        # that must not steer the step.  The plain log-sum-exp sweeps of
        # assert_newton_contract's reference crawl here, and its bound needs
        # the dual Hessian's gap, which is as small; the reference is the
        # symmetric averaged update f <- (f + T(f)) / 2 of p = q and a
        # symmetric cost (Feydy et al., arXiv:1810.08278), whose potential
        # serves both sides
        p = np.array([0.32717659107881275, 0.48154854067252306, 0.19127486824866421])
        x = np.cumsum([0.0, 0.11454019074153565, 1.0637423837717823])
        cost = np.abs(x[:, None] - x[None, :])
        tol = 1e-9
        res = sinkhorn_auto(p, p, cost, lam, tol)
        assert res.converged and res.iterations <= _SWEEP_BLOCK
        km, f = -lam * cost, np.zeros(3)
        for _ in range(100):
            f = 0.5 * (f + np.log(p) - _lse(km + f[None, :], axis=1))
        ref = np.exp(f[:, None] + km + f[None, :])
        assert np.abs(ref.sum(axis=1) - p).max() <= 1e-15
        assert np.abs(res.plan.matrix - ref).max() <= tol
        assert res.de_s == pytest.approx((ref * cost).sum() - entropy(ref) / lam, rel=0, abs=tol)


def two_by_two_plan(p, q, cost, lam):
    """Closed form of a 2x2 problem: its plan is [[x, p0 - x], [q0 - x, p1 - q0
    + x]] with cross ratio x (p1 - q0 + x) / ((p0 - x) (q0 - x)) = kappa =
    exp(-lam * (c00 + c11 - c01 - c10)), a quadratic in x.  With the columns
    swapped where needed, kappa <= 1 and x is its root in [0, min(p0, q0)],
    taken in the form without cancellation."""
    d = lam * (cost[0, 0] + cost[1, 1] - cost[0, 1] - cost[1, 0])
    if d < 0.0:
        return two_by_two_plan(p, q[::-1], cost[:, ::-1], lam)[:, ::-1]
    kappa = math.exp(-d)
    a, b, c = -math.expm1(-d), p[1] - q[0] + kappa * (p[0] + q[0]), kappa * p[0] * q[0]
    root = math.sqrt(b * b + 4.0 * a * c)
    x = 2.0 * c / (b + root) if b > 0.0 else (root - b) / (2.0 * a)
    return np.array([[x, p[0] - x], [q[0] - x, p[1] - q[0] + x]])


def two_sided_stack(seed, shape, B=12):
    """``B`` seeded problems of one shape with a side of 2 and costs in [0, 3]."""
    rng = np.random.default_rng([seed, *shape])
    return (rng.dirichlet(np.ones(shape[0]), size=B), rng.dirichlet(np.ones(shape[1]), size=B),
            rng.uniform(0.0, 3.0, size=(B, *shape)))


# every shape with a smaller side of 2 and the other side at most 8
TWO_SIDED = [(m, 2) for m in range(2, 9)] + [(2, n) for n in range(3, 9)]


class TestScalarRoot:
    """A problem with two rows or two columns has one free potential, a
    scalar root, and takes no sweeps and no Newton phase."""

    @pytest.mark.parametrize("lam", [0.5, 2.0, 20.0, 100.0, 500.0, 1000.0, 2500.0])
    def test_2x2_closed_form(self, lam):
        P, Q, C = two_sided_stack(0, (2, 2), B=20)
        # the symmetric problem, whose plateau of s holds its root in the middle
        P, Q, C = np.vstack([P, HALF]), np.vstack([Q, HALF]), np.vstack([C, FLIP_COST[None]])
        batch = _sinkhorn_batch(P, Q, C, lam, tol=1e-13)
        assert batch.converged.all() and not batch.newton.any()
        for k in range(len(C)):
            expected = two_by_two_plan(P[k], Q[k], C[k], lam)
            assert batch.plan[k] == pytest.approx(expected, rel=0, abs=1e-12)

    @pytest.mark.parametrize("shape", TWO_SIDED)
    def test_stacks_converge_or_stall_at_round_off(self, shape):
        P, Q, C = two_sided_stack(1, shape)
        for lam in (1.0, 20.0, 100.0, 1000.0, 2500.0):
            for tol in (1e-12, 1e-17):
                batch = _sinkhorn_batch(P, Q, C, lam, tol, max_iter=200)
                assert (batch.converged | batch.stalled).all()
                assert not (batch.converged & batch.stalled).any()
                assert (batch.iterations < 200).all() and not batch.newton.any()
                # a stalled plan misses its marginals only by the round-off
                # of its largest log potential
                floor = _PLATEAU * lam * np.maximum(np.abs(batch.dual_row).max(axis=1),
                                                    np.abs(batch.dual_col).max(axis=1))
                assert (batch.marginal_error[batch.stalled] <= floor[batch.stalled]).all()
                if tol == 1e-12:
                    assert batch.converged.all()
                errors = _marginal_errors(batch.plan, P, Q)
                assert np.array_equal(batch.converged, errors <= tol)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 5), (8, 2)])
    @pytest.mark.parametrize("lam", [1.0, 5.0, 20.0])
    def test_matches_the_log_domain_reference(self, shape, lam):
        P, Q, C = two_sided_stack(2, shape, B=4)
        tol = 1e-10
        batch = _sinkhorn_batch(P, Q, C, lam, tol)
        for k in range(len(C)):
            assert_newton_contract(P[k], Q[k], C[k], lam, tol, batch.plan[k], batch.de_s[k],
                                   batch.dual_row[k], batch.dual_col[k],
                                   batch.marginal_error[k])
            assert batch.dual_row[k].max() == 0.5 / lam

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3)])
    def test_max_iter_caps_the_root_steps(self, shape):
        P, Q, C = two_sided_stack(3, shape, B=1)
        full = sinkhorn_auto(P[0], Q[0], C[0], lam=2.0, tol=1e-12)
        assert full.converged and full.iterations > 1 and full.newton == 0
        cut = sinkhorn_auto(P[0], Q[0], C[0], lam=2.0, tol=1e-12, max_iter=1)
        assert not cut.converged and cut.iterations == 1
        assert cut.marginal_error > 1e-12

    @pytest.mark.parametrize("shape", [(4, 2), (2, 4)])
    def test_stack_order_and_splits_keep_each_result(self, shape):
        P, Q, C = two_sided_stack(4, shape, B=16)
        lam, tol = 50.0, 1e-12
        whole = _sinkhorn_batch(P, Q, C, lam, tol)
        order = np.random.default_rng(4).permutation(len(C))
        parts = [(order, _sinkhorn_batch(P[order], Q[order], C[order], lam, tol))]
        parts += [(half, _sinkhorn_batch(P[half], Q[half], C[half], lam, tol))
                  for half in (np.arange(5), np.arange(5, 16))]
        assert len(set(whole.iterations.tolist())) > 1
        for index, part in parts:
            for name in ("plan", "dual_row", "dual_col", "de_s", "entropy", "iterations",
                         "marginal_error", "converged", "stalled"):
                assert np.array_equal(getattr(part, name), getattr(whole, name)[index]), name


class TestEntropy:
    def test_uniform_plan(self):
        assert entropy(np.full((2, 2), 0.25)) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_degenerate_plan(self):
        plan = np.zeros((3, 3))
        plan[1, 2] = 1.0
        assert entropy(plan) == 0.0

    def test_direct_summation(self):
        plan = np.array([[0.5, 0.25], [0.25, 0.0]])
        expected = -(0.5 * math.log(0.5) + 2 * 0.25 * math.log(0.25))
        assert expected == pytest.approx(1.0397207708399179, abs=1e-12)
        assert entropy(plan) == pytest.approx(expected, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            entropy(np.array([[1.2, 0.0], [0.0, -0.2]]))


class TestDualCertificate:
    """The multipliers ``dual_row``, ``dual_col`` of a result certify it."""

    def test_symmetric_instance(self):
        res = sinkhorn_auto(HALF, HALF, FLIP_COST, lam=1.0, tol=1e-13)
        # multipliers are symmetric within each side; across sides they agree
        # only up to the reporting gauge (max row scaling = 1), which shifts
        # the two sides by opposite constants and leaves dual_row[i] +
        # dual_col[j], and hence the dual value, unchanged
        assert res.dual_row[0] == pytest.approx(res.dual_row[1], abs=1e-10)
        assert res.dual_col[0] == pytest.approx(res.dual_col[1], abs=1e-10)
        # the marginal-weighted multiplier sum sits exactly 1/lam above the
        # entropic objective at the fixed point
        assert HALF @ res.dual_row + HALF @ res.dual_col - 1.0 == pytest.approx(res.de_s,
                                                                                abs=1e-8)

    def test_1x1_gap_is_inverse_lambda(self):
        p = np.array([1.0])
        for lam in (0.5, 2.0, 7.0):
            res = sinkhorn_auto(p, p, np.array([[0.7]]), lam=lam)
            assert res.dual_row[0] + res.dual_col[0] == pytest.approx(0.7 + 1.0 / lam, abs=1e-12)
            dual_value = p @ res.dual_row + p @ res.dual_col
            assert dual_value - res.de_s == pytest.approx(1.0 / lam, abs=1e-12)

    def test_rejects_degenerate_scalings(self):
        # _finalize turns the log scalings into multipliers only where finite
        plan = symmetric_plan(1.0)[None]
        with pytest.raises(ValueError, match="positive"):
            _finalize(HALF[None], HALF[None], FLIP_COST[None], 1.0, 1e-9, plan, np.log(plan),
                      np.array([[np.nan, 0.0]]), np.zeros((1, 2)), np.array([1]),
                      np.array([False]))

    def test_feasibility_and_normalization(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(m))
            cost = rng.uniform(0.0, 4.0, size=(n, m))
            lam = float(rng.uniform(0.5, 20.0))
            res = sinkhorn_auto(p, q, cost, lam, tol=1e-12)
            lhs = res.dual_row[:, None] + res.dual_col[None, :]
            assert np.all(lhs <= cost + 1.0 / lam + 1e-8)
            assert gibbs_plan(res, cost).sum() == pytest.approx(1.0, abs=1e-8)
            assert res.dual_row.max() == 0.5 / lam


class TestBoundCertificates:
    def run_instance(self, p, q, cost, lam):
        sink = sinkhorn_auto(p, q, cost, lam, tol=1e-12)
        lp = solve_transport_lp(p, q, cost)
        return bound_certificates(cost, sink, lp)

    def test_symmetric_instance(self):
        sink = sinkhorn_auto(HALF, HALF, FLIP_COST, 1.0, tol=1e-12)
        lp = solve_transport_lp(HALF, HALF, FLIP_COST)
        report = bound_certificates(FLIP_COST, sink, lp)
        assert report.all_passed
        assert lp.value == pytest.approx(0.0, abs=1e-15)
        expected = symmetric_plan(1.0)
        h = entropy(expected)
        assert sink.entropy == pytest.approx(h, abs=1e-10)
        assert sink.d_s == pytest.approx(2 * expected[0, 1], abs=1e-10)
        assert sink.de_s == pytest.approx(sink.d_s - h, abs=1e-10)
        # here the objective gap equals the entropy up to the cost term
        assert lp.value - sink.de_s <= h + 1e-10
        # the checks read the two solutions
        cost_gap, objective_gap = report.checks[:2]
        assert cost_gap.value == sink.d_s - lp.value
        assert cost_gap.upper == (sink.entropy - entropy(lp.plan.matrix)) / sink.lam
        assert objective_gap.value == lp.value - sink.de_s
        assert objective_gap.upper == sink.entropy / sink.lam

    def test_1x1_instance(self):
        one = np.array([1.0])
        report = self.run_instance(one, one, np.array([[2.0]]), 4.0)
        assert report.all_passed
        for check in report.checks:
            assert check.slack >= -1e-12

    @pytest.mark.parametrize("lam", [1.0, 10.0, 100.0])
    def test_random_5x7(self, lam):
        rng = np.random.default_rng(int(lam))
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(7))
        cost = rng.uniform(0.0, 3.0, size=(5, 7))
        report = self.run_instance(p, q, cost, lam)
        assert report.all_passed, [c for c in report.checks if not c.passed]

    def test_rejects_solutions_of_different_instances(self):
        rng = np.random.default_rng(5)
        p, q, other = (rng.dirichlet(np.ones(k)) for k in (3, 4, 3))
        cost = rng.uniform(0.0, 2.0, size=(3, 4))
        sink = sinkhorn_auto(p, q, cost, 5.0, tol=1e-12)
        lp = solve_transport_lp(p, q, cost)
        mismatches = [
            (cost, solve_transport_lp(other, q, cost)),          # row marginals
            (cost, solve_transport_lp(p, other, cost[:, :3])),   # plan shapes
            (cost[:, :3], lp),                                   # cost shape
        ]
        for instance_cost, exact in mismatches:
            with pytest.raises(ValueError, match="one instance"):
                bound_certificates(instance_cost, sink, exact)
        assert bound_certificates(cost, sink, lp).all_passed

    def test_ordering_property(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(m))
            cost = rng.uniform(0.0, 5.0, size=(n, m))
            lam = float(rng.uniform(0.5, 30.0))
            sink = sinkhorn_auto(p, q, cost, lam, tol=1e-12)
            d_w = solve_transport_lp(p, q, cost).value
            assert sink.de_s <= d_w + 1e-8
            assert d_w <= sink.d_s + 1e-8

    def test_gap_shrinks_along_grid(self):
        rng = np.random.default_rng(31)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(5))
        cost = rng.uniform(0.0, 2.0, size=(4, 5))
        d_w = solve_transport_lp(p, q, cost).value
        grid = [0.5] + list(range(1, 31))
        gaps = []
        for lam in grid:
            res = sinkhorn_auto(p, q, cost, float(lam), tol=1e-12)
            gaps.append(abs(res.d_s - d_w))
        for earlier, later in zip(gaps, gaps[1:]):
            assert later <= earlier + 1e-8
