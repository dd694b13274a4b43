"""Scaling iteration, entropy accounting, duals, and comparison bounds."""

import math

import numpy as np
import pytest

from nested_sinkhorn import (
    KernelUnderflowError,
    bound_certificates,
    dual_from_scalings,
    entropy,
    gibbs_kernel,
    sinkhorn,
    sinkhorn_auto,
    sinkhorn_stabilized,
    solve_transport_lp,
)
from nested_sinkhorn.sinkhorn import _sinkhorn_batch

HALF = np.array([0.5, 0.5])
FLIP_COST = np.array([[0.0, 1.0], [1.0, 0.0]])


def symmetric_plan(lam):
    """Closed form for the symmetric 2x2 instance: by symmetry the plan is
    [[a, b], [b, a]] with a + b = 1/2 and b = a * exp(-lam)."""
    a = 1.0 / (2.0 * (1.0 + math.exp(-lam)))
    b = a * math.exp(-lam)
    return np.array([[a, b], [b, a]])


class TestSinkhornPlain:
    def test_symmetric_2x2_closed_form(self):
        res = sinkhorn(HALF, HALF, FLIP_COST, lam=1.0, tol=1e-12)
        expected = symmetric_plan(1.0)
        assert res.converged
        assert res.plan.matrix == pytest.approx(expected, abs=1e-10)
        assert res.d_s == pytest.approx(2.0 * expected[0, 1], abs=1e-10)

    def test_1x1_instance(self):
        res = sinkhorn(np.array([1.0]), np.array([1.0]), np.array([[0.7]]), lam=3.0)
        assert res.plan.matrix == pytest.approx(np.array([[1.0]]), abs=1e-12)
        assert res.d_s == pytest.approx(0.7, abs=1e-12)
        assert res.entropy == pytest.approx(0.0, abs=1e-12)
        assert res.de_s == pytest.approx(0.7, abs=1e-12)

    def test_large_lambda_closed_form(self):
        res = sinkhorn(HALF, HALF, FLIP_COST, lam=50.0, tol=1e-12)
        expected_ds = math.exp(-50.0) / (1.0 + math.exp(-50.0))
        assert res.d_s == pytest.approx(expected_ds, abs=1e-21)
        assert res.d_s < 1e-21
        assert res.plan.matrix == pytest.approx(0.5 * np.eye(2), abs=1e-12)

    def test_gibbs_factorization_invariant(self):
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(5))
        cost = rng.uniform(0.0, 3.0, size=(4, 5))
        res = sinkhorn(p, q, cost, lam=2.0, tol=1e-11)
        rebuilt = res.scaling_row[:, None] * gibbs_kernel(cost, 2.0) * res.scaling_col[None, :]
        assert np.abs(rebuilt / res.plan.matrix - 1.0).max() < 1e-10
        assert res.scaling_row.max() == pytest.approx(1.0, abs=1e-15)

    def test_strictly_positive_plan(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(4))
        cost = rng.uniform(0.0, 4.0, size=(3, 4))
        res = sinkhorn(p, q, cost, lam=10.0)
        assert res.plan.matrix.min() > 0.0

    def test_marginal_feasibility(self):
        rng = np.random.default_rng(6)
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(3))
        cost = rng.uniform(0.0, 2.0, size=(6, 3))
        res = sinkhorn(p, q, cost, lam=4.0, tol=1e-10)
        assert np.abs(res.plan.matrix.sum(axis=1) - p).max() <= 1e-10
        assert np.abs(res.plan.matrix.sum(axis=0) - q).max() <= 1e-10

    def test_fixed_point_stability(self):
        # one more update pair moves the scalings only at tolerance scale;
        # a row-sum error of tol shifts the row scaling by at most
        # tol / (p_i - tol) relative, and the column update follows suit
        rng = np.random.default_rng(7)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        cost = rng.uniform(0.0, 3.0, size=(4, 4))
        tol = 1e-11
        res = sinkhorn(p, q, cost, lam=3.0, tol=tol)
        K = gibbs_kernel(cost, 3.0)
        u = p / (K @ res.scaling_col)
        v = q / (K.T @ u)
        row_bound = tol / (p.min() - tol) * 1.01
        col_bound = tol / (q.min() - tol) * 2.0
        assert np.abs(u / res.scaling_row - 1.0).max() <= row_bound
        assert np.abs(v / res.scaling_col - 1.0).max() <= col_bound

    def test_max_iter_flagging(self):
        # asymmetric, weakly regularized: far from converged after 3 sweeps
        p = np.array([0.3, 0.7])
        q = np.array([0.7, 0.3])
        res = sinkhorn(p, q, FLIP_COST, lam=30.0, tol=1e-12, max_iter=3)
        assert not res.converged
        assert res.iterations == 3
        assert res.marginal_error > 1e-12

    def test_kernel_underflow_raises(self):
        with pytest.raises(KernelUnderflowError):
            sinkhorn(HALF, HALF, np.array([[0.0, 2000.0], [2000.0, 4000.0]]), lam=1.0)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError, match="positive"):
            sinkhorn(HALF, HALF, FLIP_COST, lam=0.0)
        with pytest.raises(ValueError, match="positive"):
            sinkhorn(HALF, HALF, FLIP_COST, lam=-2.0)


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
            plain = sinkhorn(p, q, cost, lam, tol=1e-12)
            log = sinkhorn_stabilized(p, q, cost, lam, tol=1e-12)
            assert abs(plain.d_s - log.d_s) <= 1e-8
            assert abs(plain.de_s - log.de_s) <= 1e-8
            assert np.abs(plain.plan.matrix - log.plan.matrix).max() <= 1e-8

    def test_extreme_lambda(self):
        res = sinkhorn_stabilized(HALF, HALF, FLIP_COST, lam=2000.0, tol=1e-12)
        assert res.converged
        assert res.d_s < 1e-15
        assert res.plan.matrix == pytest.approx(0.5 * np.eye(2), abs=1e-12)

    def test_1x1_matches_plain(self):
        p = np.array([1.0])
        cost = np.array([[1.3]])
        plain = sinkhorn(p, p, cost, lam=1.0)
        log = sinkhorn_stabilized(p, p, cost, lam=1.0)
        assert abs(plain.d_s - log.d_s) <= 1e-12
        assert abs(plain.de_s - log.de_s) <= 1e-12

    def test_auto_dispatch(self):
        mild = sinkhorn_auto(HALF, HALF, FLIP_COST, lam=1.0)
        assert not mild.stabilized
        extreme = sinkhorn_auto(HALF, HALF, FLIP_COST, lam=2000.0)
        assert extreme.stabilized
        assert extreme.converged


class TestSinkhornBatch:
    def test_underflow_retry_matches_auto(self):
        # the first problem stays under the log-domain threshold, but its
        # column scaling underflows on the first sweep, so the plain
        # iteration gives up and the log-domain one solves it again
        P = np.array([[1.0], [1.0]])
        Q = np.array([[0.15488989, 0.84511011], [0.3, 0.7]])
        C = np.array([[[-551.38714657, 278.40743479]], [[0.0, 1.0]]])
        with pytest.raises(KernelUnderflowError):
            sinkhorn(P[0], Q[0], C[0], lam=1.0)
        batch = _sinkhorn_batch(P, Q, C, lam=1.0, tol=1e-12)
        assert batch.stabilized.tolist() == [True, False]
        for k in range(2):
            ref = sinkhorn_auto(P[k], Q[k], C[k], lam=1.0, tol=1e-12)
            duals = dual_from_scalings(ref)
            assert ref.stabilized == batch.stabilized[k]
            assert batch.iterations[k] == ref.iterations
            assert batch.converged[k] == ref.converged
            assert batch.plan[k] == pytest.approx(ref.plan.matrix, rel=0, abs=1e-12)
            assert batch.de_s[k] == pytest.approx(ref.de_s, rel=0, abs=1e-12)
            assert batch.dual_row[k] == pytest.approx(duals.beta, rel=0, abs=1e-12)
            assert batch.dual_col[k] == pytest.approx(duals.gamma, rel=0, abs=1e-12)


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

    def test_kernel_power_identity(self):
        rng = np.random.default_rng(1)
        cost = rng.uniform(0.0, 5.0, size=(4, 4))
        assert np.abs(gibbs_kernel(cost, 2.0) - gibbs_kernel(cost, 1.0) ** 2).max() < 1e-12


class TestDualCertificate:
    def test_symmetric_instance(self):
        res = sinkhorn(HALF, HALF, FLIP_COST, lam=1.0, tol=1e-13)
        cert = dual_from_scalings(res)
        # multipliers are symmetric within each side; across sides they agree
        # only up to the reporting gauge (max row scaling = 1), which shifts
        # beta and gamma by opposite constants and leaves beta_i + gamma_j,
        # and hence the dual value, unchanged
        assert cert.beta[0] == pytest.approx(cert.beta[1], abs=1e-10)
        assert cert.gamma[0] == pytest.approx(cert.gamma[1], abs=1e-10)
        # the marginal-weighted multiplier sum sits exactly 1/lam above the
        # entropic objective at the fixed point
        assert cert.dual_value - 1.0 == pytest.approx(res.de_s, abs=1e-8)

    def test_1x1_gap_is_inverse_lambda(self):
        p = np.array([1.0])
        for lam in (0.5, 2.0, 7.0):
            res = sinkhorn(p, p, np.array([[0.7]]), lam=lam)
            cert = dual_from_scalings(res)
            assert cert.beta[0] + cert.gamma[0] == pytest.approx(0.7 + 1.0 / lam, abs=1e-12)
            assert cert.dual_value - res.de_s == pytest.approx(1.0 / lam, abs=1e-12)

    def test_rejects_degenerate_scalings(self):
        res = sinkhorn(HALF, HALF, FLIP_COST, lam=1.0)
        res.log_scaling_row = np.array([np.nan, 0.0])
        with pytest.raises(ValueError, match="positive"):
            dual_from_scalings(res)

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
            cert = dual_from_scalings(res)
            lhs = cert.beta[:, None] + cert.gamma[None, :]
            assert np.all(lhs <= cost + 1.0 / lam + 1e-8)
            gibbs_mass = np.exp(-lam * (cost - lhs) - 1.0).sum()
            assert gibbs_mass == pytest.approx(1.0, abs=1e-8)


class TestBoundCertificates:
    def run_instance(self, p, q, cost, lam):
        sink = sinkhorn_auto(p, q, cost, lam, tol=1e-12)
        lp = solve_transport_lp(p, q, cost)
        return bound_certificates(p, q, cost, lam, sink, lp)

    def test_symmetric_instance(self):
        report = self.run_instance(HALF, HALF, FLIP_COST, 1.0)
        assert report.all_passed
        assert report.d_w == pytest.approx(0.0, abs=1e-15)
        expected = symmetric_plan(1.0)
        h = entropy(expected)
        assert report.entropy_regularized == pytest.approx(h, abs=1e-10)
        assert report.d_s == pytest.approx(2 * expected[0, 1], abs=1e-10)
        assert report.de_s == pytest.approx(report.d_s - h, abs=1e-10)
        # here the objective gap equals the entropy up to the cost term
        assert report.d_w - report.de_s <= h + 1e-10

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
