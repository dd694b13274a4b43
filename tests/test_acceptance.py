"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expensive shared material (the seeded random tree-pair suite) is
computed once and cached at module scope.
"""

import csv
import math
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest

from conftest import height3_pair, random_tree_pair, split_timing_pair
from nested_sinkhorn import (
    cost_matrix,
    dual_from_scalings,
    flat_nested_lp,
    lambda_sweep,
    martingale_check,
    nested_bound_report,
    nested_exact,
    nested_sinkhorn,
    sinkhorn,
    sinkhorn_auto,
    sinkhorn_stabilized,
    solve_transport_lp,
    trajectories,
    verify_entropic_equivalence,
    wasserstein_distance,
)
from nested_sinkhorn.cli import RunConfig, run

N_RANDOM_PAIRS = 50
SLACK = 1e-8


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} [{label}]: FAIL")
        raise
    print(f"criterion {number:02d} [{label}]: PASS")


@lru_cache(maxsize=1)
def random_suite():
    """Fifty seeded equal-height pairs with heights <= 3 and branching <= 3."""
    return tuple(random_tree_pair(seed) for seed in range(N_RANDOM_PAIRS))


@lru_cache(maxsize=1)
def random_suite_exact():
    """Exact recursion and flat-LP values for the random suite, with the
    total wall time spent producing them."""
    start = time.perf_counter()
    results = []
    for tree_a, tree_b in random_suite():
        exact = nested_exact(tree_a, tree_b, 1.0)
        flat_value, _ = flat_nested_lp(tree_a, tree_b, 1.0)
        results.append((exact, flat_value))
    elapsed = time.perf_counter() - start
    return tuple(results), elapsed


@lru_cache(maxsize=1)
def random_suite_reports():
    """Bound reports for the random suite across the acceptance grid."""
    out = {}
    for lam in (0.5, 2.0, 20.0):
        rows = []
        for tree_a, tree_b in random_suite():
            rows.append(nested_bound_report(tree_a, tree_b, 1.0, lam))
        out[lam] = tuple(rows)
    return out


def test_criterion_01_flat_transport_on_split_timing_pair():
    with criterion(1, "flat transport value, plan, and runtime"):
        early, late = split_timing_pair(0.1)
        p = np.array([t.prob for t in trajectories(early)])
        q = np.array([t.prob for t in trajectories(late)])
        cost = cost_matrix(early, late, 1.0)
        sol = solve_transport_lp(p, q, cost)
        assert sol.value == pytest.approx(0.05, abs=1e-12)
        assert sol.plan.matrix == pytest.approx(0.5 * np.eye(2), abs=1e-12)
        assert wasserstein_distance(early, late, 1.0) == pytest.approx(0.05, abs=1e-12)
        best = math.inf
        for _ in range(10):
            start = time.perf_counter()
            wasserstein_distance(early, late, 1.0)
            best = min(best, time.perf_counter() - start)
        assert best < 1e-3, f"fastest run took {best * 1e3:.3f} ms"


def test_criterion_02_nested_distance_on_split_timing_pair():
    with criterion(2, "nested value 1.05 and the filtration gap"):
        early, late = split_timing_pair(0.1)
        res = nested_exact(early, late, 1.0)
        assert res.value == pytest.approx(1.05, abs=1e-10)
        flat_value, _ = flat_nested_lp(early, late, 1.0)
        assert abs(res.value - flat_value) <= 1e-8
        flat_distance = wasserstein_distance(early, late, 1.0)
        assert flat_distance == pytest.approx(0.05, abs=1e-12)
        assert res.value - flat_distance == pytest.approx(1.0, abs=1e-9)


def test_criterion_03_tower_property_oracle_equivalence():
    with criterion(3, "recursion equals flat LP on 50 random pairs"):
        results, elapsed = random_suite_exact()
        for (exact, flat_value), (tree_a, tree_b) in zip(results, random_suite()):
            assert abs(exact.value - flat_value) <= 1e-8, (
                f"trees with {tree_a.n_leaves}x{tree_b.n_leaves} leaves: "
                f"{exact.value} vs {flat_value}"
            )
        assert elapsed < 30.0, f"suite took {elapsed:.1f} s"


def test_criterion_04_sandwich_inequalities():
    with criterion(4, "entropic <= exact <= regularized on the sweep"):
        for lam, reports in random_suite_reports().items():
            for report in reports:
                assert report.converged
                assert report.nde_s_pow <= report.nd_w_pow + SLACK, f"lam={lam}"
                assert report.nd_w_pow <= report.nd_s_pow + SLACK, f"lam={lam}"


def test_criterion_05_quantitative_bounds():
    with criterion(5, "entropy gap bounds and support caps on the sweep"):
        for lam, reports in random_suite_reports().items():
            for report, (tree_a, tree_b) in zip(reports, random_suite()):
                h_s = report.entropy_regularized
                h_w = report.entropy_exact
                assert report.nd_s_pow - report.nd_w_pow <= (h_s - h_w) / lam + SLACK
                assert report.nd_w_pow - report.nde_s_pow <= h_s / lam + SLACK
                assert h_s <= math.log(tree_a.n_leaves) + math.log(tree_b.n_leaves) + SLACK
                gap = max(report.nd_s_pow - report.nd_w_pow,
                          report.nd_w_pow - report.nde_s_pow)
                assert gap <= report.gap_bound + SLACK


def test_criterion_06_convergence_shape_on_height3_pair():
    with criterion(6, "regularization sweep converges toward the exact value"):
        tree_a, tree_b = height3_pair()
        grid = [0.5] + [float(k) for k in range(1, 31)]
        rows = lambda_sweep(tree_a, tree_b, 1.0, grid, tol=1e-11, max_iter=200_000)
        assert all(row.converged for row in rows)
        flat_value, _ = flat_nested_lp(tree_a, tree_b, 1.0)
        assert rows[0].nd_w == pytest.approx(flat_value, abs=1e-8)
        gap_first = rows[0].nd_s - rows[0].nd_w
        gap_last = rows[-1].nd_s - rows[-1].nd_w
        assert gap_last <= gap_first + SLACK
        assert gap_last <= 3.0 * math.log(6.0) / 30.0 + SLACK
        entropic = [row.nde_s for row in rows]
        for earlier, later in zip(entropic, entropic[1:]):
            assert later >= earlier - SLACK
        assert all(row.nde_s <= row.nd_w + SLACK for row in rows)


def test_criterion_07_recursion_flat_equivalence():
    with criterion(7, "composed plan solves the flat entropic problem"):
        pairs = [split_timing_pair(0.1), height3_pair()]
        pairs += [random_tree_pair(500 + seed) for seed in range(20)]
        for lam in (1.0, 5.0, 20.0):
            for tree_a, tree_b in pairs:
                res = nested_sinkhorn(tree_a, tree_b, 1.0, lam, tol=1e-12,
                                      max_iter=200_000)
                assert res.converged
                report = verify_entropic_equivalence(tree_a, tree_b, 1.0, lam, res)
                assert report.max_marginal_residual <= 1e-7
                assert report.objective_gap <= 1e-7
                assert report.max_gibbs_residual <= 1e-6


def test_criterion_08_scaling_iteration_closed_form():
    with criterion(8, "symmetric 2x2 plan matches the closed form"):
        half = np.array([0.5, 0.5])
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        for lam in (0.5, 1.0, 5.0):
            res = sinkhorn(half, half, cost, lam, tol=1e-13)
            expected = 1.0 / (2.0 * (1.0 + math.exp(-lam)))
            assert res.plan.matrix[0, 0] == pytest.approx(expected, abs=1e-9)
        res = sinkhorn_stabilized(half, half, cost, 50.0, tol=1e-13)
        expected = 1.0 / (2.0 * (1.0 + math.exp(-50.0)))
        assert res.plan.matrix[0, 0] == pytest.approx(expected, abs=1e-9)


def test_criterion_09_duality_certificates():
    with criterion(9, "dual feasibility, normalization, and the 1x1 gap"):
        rng = np.random.default_rng(99)
        instances = []
        for pair in (split_timing_pair(0.1), height3_pair()):
            tree_a, tree_b = pair
            p = np.array([t.prob for t in trajectories(tree_a)])
            q = np.array([t.prob for t in trajectories(tree_b)])
            instances.append((p, q, cost_matrix(tree_a, tree_b, 1.0)))
        for _ in range(10):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, 7))
            instances.append((
                rng.dirichlet(np.ones(n)),
                rng.dirichlet(np.ones(m)),
                rng.uniform(0.0, 5.0, size=(n, m)),
            ))
        for p, q, cost in instances:
            for lam in (0.5, 2.0, 20.0):
                res = sinkhorn_auto(p, q, cost, lam, tol=1e-12)
                assert res.converged
                cert = dual_from_scalings(res)
                lhs = cert.beta[:, None] + cert.gamma[None, :]
                assert np.all(lhs <= cost + 1.0 / lam + 1e-8)
                mass = float(np.exp(-lam * (cost - lhs) - 1.0).sum())
                assert mass == pytest.approx(1.0, abs=1e-8)
        one = np.array([1.0])
        for lam in (0.5, 3.0, 25.0):
            res = sinkhorn_auto(one, one, np.array([[1.7]]), lam, tol=1e-12)
            cert = dual_from_scalings(res)
            assert cert.dual_value - res.de_s == pytest.approx(1.0 / lam, abs=1e-12)


def test_criterion_10_martingale_diagnostic():
    with criterion(10, "dual process is a martingale under the composed plan"):
        for lam in (2.0, 10.0):
            for pair in (split_timing_pair(0.1), height3_pair()):
                tree_a, tree_b = pair
                res = nested_sinkhorn(tree_a, tree_b, 1.0, lam, tol=1e-12)
                report = martingale_check(res)
                assert report.max_martingale_residual <= 1e-6
                assert report.max_projection_residual <= 1e-8
                assert report.passed


def test_criterion_11_benchmark_trend(tmp_path):
    with criterion(11, "benchmark completes; exact-minus-entropic grows with depth"):
        target = tmp_path / "bench.csv"
        status = run(RunConfig(command="bench", seed=0, lam=20.0, r=1.0,
                               max_stages=5, out=str(target)))
        assert status == 0
        with open(target, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["stages"] for row in rows] == ["1", "2", "3", "4", "5"]
        assert int(rows[4]["leaves_a"]) == 144
        assert int(rows[4]["leaves_b"]) == 24
        differences = [float(row["difference"]) for row in rows]
        assert all(d > 0.0 for d in differences)
        for earlier, later in zip(differences, differences[1:]):
            assert later > earlier
        # timing ratios are reported, never asserted
        assert all(float(row["acceleration"]) > 0.0 for row in rows)
