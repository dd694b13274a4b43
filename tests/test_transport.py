"""Exact transport LP: optimal values, plans, and duality certificates."""

import itertools

import numpy as np
import pytest

from conftest import height3_pair, random_tree_pair, split_timing_pair
from nested_sinkhorn import (
    cost_matrix,
    solve_transport_lp,
    trajectories,
    wasserstein_distance,
)
from nested_sinkhorn import transport
from nested_sinkhorn._simplex import solve_lp


def vertex_enumeration_min(p, q, cost):
    """Brute-force oracle: smallest cost over all basic feasible solutions
    of the transportation polytope (every basis of n + m - 1 cells)."""
    n, m = len(p), len(q)
    cells = list(itertools.product(range(n), range(m)))
    best = np.inf
    for basis in itertools.combinations(cells, n + m - 1):
        rows = []
        rhs = []
        for i in range(n):
            row = [1.0 if c[0] == i else 0.0 for c in basis]
            rows.append(row)
            rhs.append(p[i])
        for j in range(m - 1):  # drop one redundant constraint
            row = [1.0 if c[1] == j else 0.0 for c in basis]
            rows.append(row)
            rhs.append(q[j])
        A = np.array(rows)
        try:
            x = np.linalg.solve(A, np.array(rhs))
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-9):
            continue
        value = sum(cost[c[0]][c[1]] * xv for c, xv in zip(basis, x))
        best = min(best, value)
    return best


def assert_certificate(sol, p, q, cost):
    """Dual feasibility + complementary slackness + zero gap."""
    C = np.asarray(cost, dtype=float)
    lam, mu = sol.dual_row, sol.dual_col
    assert lam[0] == 0.0
    assert np.all(lam[:, None] + mu[None, :] <= C + 1e-9)
    support = sol.plan.matrix > 1e-12
    assert np.all(np.abs((lam[:, None] + mu[None, :] - C))[support] <= 1e-8)
    dual_value = float(p @ lam + q @ mu)
    assert dual_value == pytest.approx(sol.value, abs=1e-8)
    sol.plan.validate(atol=1e-10)


class TestSolveTransportLp:
    def test_split_timing_instance(self):
        p = np.array([0.5, 0.5])
        cost = [[0.1, 2.1], [2.0, 0.0]]
        sol = solve_transport_lp(p, p, cost)
        assert sol.value == pytest.approx(0.05, abs=1e-12)
        assert sol.plan.matrix == pytest.approx(np.array([[0.5, 0.0], [0.0, 0.5]]), abs=1e-15)
        assert_certificate(sol, p, p, cost)

    def test_zero_diagonal_identical_supports(self):
        p = np.array([0.2, 0.5, 0.3])
        cost = np.array([[0.0, 1.0, 2.0], [1.5, 0.0, 1.0], [2.0, 1.0, 0.0]])
        sol = solve_transport_lp(p, p, cost)
        assert sol.value == pytest.approx(0.0, abs=1e-15)
        assert sol.plan.matrix == pytest.approx(np.diag(p), abs=1e-15)

    def test_asymmetric_2x2(self):
        p = np.array([0.3, 0.7])
        q = np.array([0.4, 0.6])
        cost = [[0.0, 1.0], [1.0, 0.0]]
        expected = vertex_enumeration_min(p, q, cost)
        sol = solve_transport_lp(p, q, cost)
        assert expected == pytest.approx(0.1, abs=1e-12)
        assert sol.value == pytest.approx(expected, abs=1e-12)
        assert sol.plan.matrix == pytest.approx(np.array([[0.3, 0.0], [0.1, 0.6]]), abs=1e-12)
        assert_certificate(sol, p, q, cost)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2)])
    def test_matches_vertex_enumeration(self, shape):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n, m = shape
            p = rng.dirichlet(np.ones(n) * 2.0)
            q = rng.dirichlet(np.ones(m) * 2.0)
            cost = rng.uniform(0.0, 5.0, size=shape)
            sol = solve_transport_lp(p, q, cost)
            assert sol.value == pytest.approx(vertex_enumeration_min(p, q, cost), abs=1e-12)
            assert_certificate(sol, p, q, cost)

    def test_certificates_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(m))
            cost = rng.uniform(0.0, 10.0, size=(n, m))
            sol = solve_transport_lp(p, q, cost)
            assert_certificate(sol, p, q, cost)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(4))
        cost = rng.uniform(0.0, 3.0, size=(5, 4))
        base = solve_transport_lp(p, q, cost).value
        perm = rng.permutation(5)
        permuted = solve_transport_lp(p[perm], q, cost[perm, :]).value
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_cost_scaling(self):
        rng = np.random.default_rng(21)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(6))
        cost = rng.uniform(0.0, 2.0, size=(4, 6))
        base = solve_transport_lp(p, q, cost).value
        scaled = solve_transport_lp(p, q, 7.5 * cost).value
        assert scaled == pytest.approx(7.5 * base, rel=1e-12)

    def test_input_validation(self):
        good = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="strictly positive"):
            solve_transport_lp(np.array([1.0, 0.0]), good, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="sum to 1"):
            solve_transport_lp(np.array([0.5, 0.6]), good, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="finite"):
            solve_transport_lp(good, good, np.array([[np.inf, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="shape"):
            solve_transport_lp(good, good, np.zeros((3, 2)))

    def test_pivot_limit_message(self, monkeypatch):
        # the north-west corner start is the costly diagonal, so one pivot
        # cannot prove optimality
        monkeypatch.setattr(transport, "_MAX_PIVOTS", 1)
        with pytest.raises(RuntimeError, match=r"pivot limit of 1 pivots on a 2x2 problem"):
            solve_transport_lp([0.5, 0.5], [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])


class TestWassersteinDistance:
    def test_split_timing_pair(self):
        early, late = split_timing_pair(0.1)
        assert wasserstein_distance(early, late, 1.0) == pytest.approx(0.05, abs=1e-12)

    def test_identical_trees(self):
        tree, _ = height3_pair()
        assert wasserstein_distance(tree, tree, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_against_generic_lp_formulation(self):
        # independent oracle: same flat instance solved as a generic
        # equality-form LP over vectorized plan entries
        tree_a, tree_b = height3_pair()
        cost = cost_matrix(tree_a, tree_b, 1.0)
        p = np.array([t.prob for t in trajectories(tree_a)])
        q = np.array([t.prob for t in trajectories(tree_b)])
        n, m = cost.shape
        rows = []
        rhs = []
        for i in range(n):
            row = np.zeros(n * m)
            row[i * m : (i + 1) * m] = 1.0
            rows.append(row)
            rhs.append(p[i])
        for j in range(m - 1):
            row = np.zeros(n * m)
            row[j::m] = 1.0
            rows.append(row)
            rhs.append(q[j])
        _, oracle_value = solve_lp(cost.ravel(), np.array(rows), np.array(rhs))
        assert wasserstein_distance(tree_a, tree_b, 1.0) == pytest.approx(
            oracle_value, abs=1e-10
        )

    def test_random_pairs_against_generic_lp(self):
        for seed in range(6):
            tree_a, tree_b = random_tree_pair(seed)
            cost = cost_matrix(tree_a, tree_b, 1.0)
            p = np.array([t.prob for t in trajectories(tree_a)])
            q = np.array([t.prob for t in trajectories(tree_b)])
            n, m = cost.shape
            rows = []
            rhs = []
            for i in range(n):
                row = np.zeros(n * m)
                row[i * m : (i + 1) * m] = 1.0
                rows.append(row)
                rhs.append(p[i])
            for j in range(m - 1):
                row = np.zeros(n * m)
                row[j::m] = 1.0
                rows.append(row)
                rhs.append(q[j])
            _, oracle_value = solve_lp(cost.ravel(), np.array(rows), np.array(rhs))
            got = wasserstein_distance(tree_a, tree_b, 1.0)
            assert got == pytest.approx(oracle_value, abs=1e-9)

    def test_rth_root(self):
        tree_a, tree_b = height3_pair()
        p = np.array([t.prob for t in trajectories(tree_a)])
        q = np.array([t.prob for t in trajectories(tree_b)])
        raw = solve_transport_lp(p, q, cost_matrix(tree_a, tree_b, 2.0)).value
        assert wasserstein_distance(tree_a, tree_b, 2.0) == pytest.approx(
            raw**0.5, rel=1e-12
        )

    def test_height_mismatch(self):
        tree_a, _ = height3_pair()
        early, _ = split_timing_pair()
        with pytest.raises(ValueError, match="height"):
            wasserstein_distance(tree_a, early, 1.0)
