"""Nested recursions, the flat-LP oracle, and the verification reports."""

import math

import numpy as np
import pytest

from conftest import (
    height3_pair,
    path_tree,
    random_tree_pair,
    split_timing_pair,
    underflow_tree,
    uneven_tree,
)
from nested_sinkhorn import (
    conditional_marginal_residuals,
    cost_matrix,
    dual_from_scalings,
    flat_nested_lp,
    generate_random_tree,
    lambda_sweep,
    martingale_check,
    nested_bound_report,
    nested_exact,
    nested_sinkhorn,
    sinkhorn_auto,
    trajectories,
    verify_entropic_equivalence,
    wasserstein_distance,
)


class TestNestedExact:
    def test_split_timing_pair_hand_recursion(self):
        # conditional values at stage 1 are 1.1 and 1.0; the root couples
        # them with weights one half each
        early, late = split_timing_pair(0.1)
        res = nested_exact(early, late, 1.0)
        assert res.value == pytest.approx(1.05, abs=1e-10)
        stage1 = res.stage_tables[1]
        values = sorted(sol.value for sol in stage1.values())
        assert values == pytest.approx([1.0, 1.1], abs=1e-12)

    def test_identical_trees_diagonal_coupling(self):
        tree, _ = height3_pair()
        res = nested_exact(tree, tree, 1.0)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        p = np.array([t.prob for t in trajectories(tree)])
        assert res.composed_plan.matrix == pytest.approx(np.diag(p), abs=1e-12)

    def test_height3_pair_matches_flat_lp(self):
        tree_a, tree_b = height3_pair()
        res = nested_exact(tree_a, tree_b, 1.0)
        flat_value, flat_plan = flat_nested_lp(tree_a, tree_b, 1.0)
        assert res.value == pytest.approx(flat_value, abs=1e-8)

    def test_composed_plan_properties(self):
        tree_a, tree_b = height3_pair()
        res = nested_exact(tree_a, tree_b, 1.0)
        plan = res.composed_plan
        plan.validate(atol=1e-8)
        # pricing the composed plan against the leaf costs reproduces the
        # recursion's root value
        cost = cost_matrix(tree_a, tree_b, 1.0)
        assert float((plan.matrix * cost).sum()) == pytest.approx(res.value_pow, abs=1e-10)
        # the composed plan is feasible for the flat conditional constraints
        assert conditional_marginal_residuals(tree_a, tree_b, plan.matrix) <= 1e-7

    def test_composed_plan_is_product_of_conditionals(self):
        tree_a, tree_b = height3_pair()
        res = nested_exact(tree_a, tree_b, 1.0)
        paths_a = tree_a.leaf_paths()
        paths_b = tree_b.leaf_paths()
        child_index_a = {c: k for n in tree_a.nodes for k, c in enumerate(tree_a.children(n.id))}
        child_index_b = {c: k for n in tree_b.nodes for k, c in enumerate(tree_b.children(n.id))}
        for ia, pa in enumerate(paths_a):
            for jb, pb in enumerate(paths_b):
                w = 1.0
                for t in range(tree_a.height):
                    sol = res.stage_tables[t][(pa[t], pb[t])]
                    w *= sol.plan[child_index_a[pa[t + 1]], child_index_b[pb[t + 1]]]
                assert res.composed_plan.matrix[ia, jb] == pytest.approx(w, abs=1e-10)

    def test_one_stage_degeneration(self):
        tree_a, tree_b = random_tree_pair(100, max_height=1)
        assert tree_a.height == 1
        nd = nested_exact(tree_a, tree_b, 1.0).value
        assert nd == pytest.approx(wasserstein_distance(tree_a, tree_b, 1.0), abs=1e-10)

    def test_filtration_sensitivity(self):
        early, late = split_timing_pair(0.1)
        flat = wasserstein_distance(early, late, 1.0)
        nested = nested_exact(early, late, 1.0).value
        assert flat == pytest.approx(0.05, abs=1e-12)
        assert nested == pytest.approx(1.05, abs=1e-10)
        assert nested - flat == pytest.approx(1.0, abs=1e-9)

    def test_order_two(self):
        tree_a, tree_b = height3_pair()
        res = nested_exact(tree_a, tree_b, 2.0)
        flat_value, _ = flat_nested_lp(tree_a, tree_b, 2.0)
        assert res.value == pytest.approx(flat_value, abs=1e-8)
        assert res.value == pytest.approx(res.value_pow**0.5, rel=1e-12)

    def test_height_mismatch(self):
        early, _ = split_timing_pair()
        tree_a, _ = height3_pair()
        with pytest.raises(ValueError, match="height"):
            nested_exact(early, tree_a, 1.0)

    def test_height_zero_rejected(self):
        single = path_tree([1.0])
        with pytest.raises(ValueError, match="height"):
            nested_exact(single, single, 1.0)


class TestFlatNestedLp:
    def test_split_timing_pair(self):
        early, late = split_timing_pair(0.1)
        value, plan = flat_nested_lp(early, late, 1.0)
        assert value == pytest.approx(1.05, abs=1e-10)
        plan.validate(atol=1e-9)

    def test_identical_trees(self):
        tree, _ = height3_pair()
        value, _ = flat_nested_lp(tree, tree, 1.0)
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_tower_property_on_random_pairs(self):
        for seed in range(15):
            tree_a, tree_b = random_tree_pair(seed)
            recursive = nested_exact(tree_a, tree_b, 1.0).value
            flat_value, flat_plan = flat_nested_lp(tree_a, tree_b, 1.0)
            assert recursive == pytest.approx(flat_value, abs=1e-8), f"seed {seed}"
            assert conditional_marginal_residuals(
                tree_a, tree_b, flat_plan.matrix
            ) <= 1e-8

    def test_size_cap(self):
        tree_a, tree_b = height3_pair()
        with pytest.raises(ValueError, match="too large"):
            flat_nested_lp(tree_a, tree_b, 1.0, max_cells=10)


class TestNestedSinkhorn:
    def test_path_trees_forced_plans(self):
        a = path_tree([0.0, 1.0, 3.0])
        b = path_tree([0.0, 2.0, 2.5])
        expected = abs(0.0 - 0.0) + abs(1.0 - 2.0) + abs(3.0 - 2.5)
        for lam in (0.5, 5.0, 50.0):
            res = nested_sinkhorn(a, b, 1.0, lam, tol=1e-12)
            assert res.converged
            assert res.value == pytest.approx(expected, abs=1e-12)
            assert res.value_with_entropy == pytest.approx(expected, abs=1e-12)
            assert res.total_entropy == pytest.approx(0.0, abs=1e-12)
            assert res.composed_plan.matrix == pytest.approx(np.array([[1.0]]), abs=1e-12)

    def test_height3_pair_gap_within_branching_bound(self):
        tree_a, tree_b = height3_pair()
        exact_value, _ = flat_nested_lp(tree_a, tree_b, 1.0)
        res = nested_sinkhorn(tree_a, tree_b, 1.0, lam=30.0, tol=1e-12, max_iter=200_000)
        gap = res.value - exact_value
        assert -1e-8 <= gap <= 3.0 * (math.log(2) + math.log(3)) / 30.0

    def test_split_timing_pair_large_lambda(self):
        early, late = split_timing_pair(0.1)
        res = nested_sinkhorn(early, late, 1.0, lam=200.0, tol=1e-12)
        assert res.converged
        assert abs(res.value - 1.05) <= 1e-3

    def test_entropic_value_below_cost_value(self):
        tree_a, tree_b = height3_pair()
        for lam in (0.5, 2.0, 20.0):
            res = nested_sinkhorn(tree_a, tree_b, 1.0, lam, tol=1e-12)
            assert res.value_with_entropy <= res.value + 1e-10
            # root entropic value decomposes into composed cost minus the
            # composed entropy over lambda
            assert res.value_with_entropy_pow == pytest.approx(
                res.value_pow - res.total_entropy / lam, abs=1e-7
            )

    def test_composed_marginals(self):
        tree_a, tree_b = height3_pair()
        res = nested_sinkhorn(tree_a, tree_b, 1.0, lam=5.0, tol=1e-9)
        res.composed_plan.validate(atol=1e-8)

    def test_one_stage_degeneration(self):
        tree_a, tree_b = random_tree_pair(200, max_height=1)
        p = np.array([t.prob for t in trajectories(tree_a)])
        q = np.array([t.prob for t in trajectories(tree_b)])
        flat = sinkhorn_auto(p, q, cost_matrix(tree_a, tree_b, 1.0), 3.0, tol=1e-9)
        res = nested_sinkhorn(tree_a, tree_b, 1.0, 3.0, tol=1e-9)
        assert res.value == pytest.approx(flat.d_s, abs=1e-10)
        assert res.value_with_entropy == pytest.approx(flat.de_s, abs=1e-10)

    def test_signed_root_for_negative_entropic_value(self):
        # identical trees at order 2 with weak regularization: the cost term
        # vanishes and the entropy drives the objective negative, so the
        # reported root keeps the sign
        tree, _ = height3_pair()
        res = nested_sinkhorn(tree, tree, 2.0, lam=1.0, tol=1e-11)
        assert res.value_with_entropy_pow < 0.0
        assert res.value_with_entropy == pytest.approx(
            -((-res.value_with_entropy_pow) ** 0.5), rel=1e-12
        )
        assert res.value_with_entropy < 0.0 <= res.value

    def test_unconverged_flagged(self):
        tree_a, tree_b = height3_pair()
        res = nested_sinkhorn(tree_a, tree_b, 1.0, lam=30.0, tol=1e-12, max_iter=2)
        assert not res.converged

    def test_invalid_lambda(self):
        tree_a, tree_b = height3_pair()
        with pytest.raises(ValueError, match="positive"):
            nested_sinkhorn(tree_a, tree_b, 1.0, lam=0.0)


def per_pair_reference(tree_a, tree_b, res, lam, tol, max_iter):
    """Check every stage-table entry of a regularized result against
    ``sinkhorn_auto`` plus ``dual_from_scalings`` on the same subproblem;
    returns the reference results."""
    T = len(res.stage_tables)
    leaf_cost = cost_matrix(tree_a, tree_b, 1.0)
    pos_a = {leaf: k for k, leaf in enumerate(tree_a.leaf_ids)}
    pos_b = {leaf: k for k, leaf in enumerate(tree_b.leaf_ids)}
    refs = []
    for t, table in enumerate(res.stage_tables):
        for sol in table.values():
            if t + 1 == T:
                cost = leaf_cost[np.ix_([pos_a[x] for x in sol.row_children],
                                        [pos_b[y] for y in sol.col_children])]
            else:
                cost = np.array([[res.stage_tables[t + 1][(x, y)].value
                                  for y in sol.col_children] for x in sol.row_children])
            ref = sinkhorn_auto(sol.row_probs, sol.col_probs, cost, lam, tol / T, max_iter)
            duals = dual_from_scalings(ref)
            assert sol.iterations == ref.iterations
            assert sol.converged == ref.converged
            assert sol.plan == pytest.approx(ref.plan.matrix, rel=0, abs=1e-12)
            assert sol.value == pytest.approx(ref.de_s, rel=0, abs=1e-12)
            assert sol.entropy == pytest.approx(ref.entropy, rel=0, abs=1e-12)
            assert sol.dual_row == pytest.approx(duals.beta, rel=0, abs=1e-12)
            assert sol.dual_col == pytest.approx(duals.gamma, rel=0, abs=1e-12)
            refs.append(ref)
    return refs


class TestStageKernel:
    """The batched stage solve agrees with the flat per-pair solver."""

    def test_uneven_branching(self):
        for seed in range(3):
            tree_a, tree_b = uneven_tree(2 * seed), uneven_tree(2 * seed + 1)
            res = nested_sinkhorn(tree_a, tree_b, 1.0, lam=10.0)
            assert any(len(stage.shapes) >= 2 for stage in res.stats)
            assert any(1 in shape for stage in res.stats for shape in stage.shapes)
            refs = per_pair_reference(tree_a, tree_b, res, 10.0, 1e-9, 100_000)
            assert res.converged and all(ref.converged for ref in refs)

    def test_single_child_subproblems(self):
        a = path_tree([0.0, 1.0, 3.0])
        b, _ = split_timing_pair(0.1)
        res = nested_sinkhorn(a, b, 1.0, lam=5.0)
        assert [stage.shapes for stage in res.stats] == [[(1, 2)], [(1, 1)]]
        per_pair_reference(a, b, res, 5.0, 1e-9, 100_000)

    def test_large_lambda_stabilized_fallback(self):
        tree_a, tree_b = height3_pair()
        # at lambda 60 only the subproblems with large costs pass the
        # log-domain threshold, so one stage mixes both iterations
        res = nested_sinkhorn(tree_a, tree_b, 1.0, lam=60.0, tol=1e-12)
        refs = per_pair_reference(tree_a, tree_b, res, 60.0, 1e-12, 100_000)
        stabilized = sum(ref.stabilized for ref in refs)
        assert 0 < stabilized < len(refs)
        assert sum(stage.stabilized for stage in res.stats) == stabilized

    def test_max_iter_truncation(self):
        tree_a, tree_b = uneven_tree(4), uneven_tree(5)
        res = nested_sinkhorn(tree_a, tree_b, 1.0, lam=30.0, tol=1e-12, max_iter=3)
        refs = per_pair_reference(tree_a, tree_b, res, 30.0, 1e-12, 3)
        flags = [ref.converged for ref in refs]
        assert any(flags) and not all(flags)
        assert not res.converged
        assert max(stage.iterations_max for stage in res.stats) == 3

    def test_stats_account_for_every_subproblem(self):
        tree_a, tree_b = uneven_tree(6), uneven_tree(7)
        res = nested_sinkhorn(tree_a, tree_b, 1.0, lam=10.0)
        assert [stage.stage for stage in res.stats] == list(range(tree_a.height))
        assert [stage.subproblems for stage in res.stats] == [len(t) for t in res.stage_tables]
        assert sum(stage.iterations for stage in res.stats) == res.total_iterations
        for stage, table in zip(res.stats, res.stage_tables):
            iterations = sorted(sol.iterations for sol in table.values())
            assert (stage.iterations_min, stage.iterations_max) == (iterations[0], iterations[-1])
            assert stage.iterations_median == pytest.approx(float(np.median(iterations)))
            assert stage.max_marginal_error <= 1e-9
        exact = nested_exact(tree_a, tree_b, 1.0)
        assert all(stage.iterations == stage.iterations_max == stage.stabilized == 0
                   for stage in exact.stats)
        assert [stage.subproblems for stage in exact.stats] == [len(t) for t in exact.stage_tables]
        assert max(stage.max_marginal_error for stage in exact.stats) <= 1e-10


class TestEntropicEquivalence:
    def test_height3_pair(self):
        tree_a, tree_b = height3_pair()
        res = nested_sinkhorn(tree_a, tree_b, 1.0, lam=5.0, tol=1e-12)
        report = verify_entropic_equivalence(tree_a, tree_b, 1.0, 5.0, res)
        assert report.passed
        assert report.max_marginal_residual <= 1e-7
        assert report.objective_gap <= 1e-7
        assert report.max_gibbs_residual <= 1e-6

    def test_path_trees_trivial(self):
        a = path_tree([0.0, 1.0])
        b = path_tree([0.5, 0.5])
        res = nested_sinkhorn(a, b, 1.0, lam=2.0, tol=1e-12)
        report = verify_entropic_equivalence(a, b, 1.0, 2.0, res)
        assert report.passed

    def test_split_timing_pair_small_lambda(self):
        # entropy dominates: the flat entropic objective may go negative
        early, late = split_timing_pair(0.1)
        res = nested_sinkhorn(early, late, 1.0, lam=1.0, tol=1e-12)
        report = verify_entropic_equivalence(early, late, 1.0, 1.0, res)
        assert report.passed

    def test_underflowed_stage_plan_entries(self):
        # the stage-1 plans have exact zeros where exp(-lam * 10 - ...)
        # underflows; the Gibbs factors of those entries underflow too
        tree = underflow_tree()
        res = nested_sinkhorn(tree, tree, 1.0, lam=100.0)
        assert res.converged
        assert (res.stage_tables[1].plan == 0.0).sum() == 8
        report = verify_entropic_equivalence(tree, tree, 1.0, 100.0, res)
        assert report.passed
        assert report.max_gibbs_residual <= 1e-12

    def test_rejects_exact_result(self):
        tree_a, tree_b = height3_pair()
        res = nested_exact(tree_a, tree_b, 1.0)
        with pytest.raises(ValueError, match="regularized"):
            verify_entropic_equivalence(tree_a, tree_b, 1.0, 5.0, res)

    def test_rejects_unconverged(self):
        tree_a, tree_b = height3_pair()
        res = nested_sinkhorn(tree_a, tree_b, 1.0, lam=30.0, tol=1e-12, max_iter=2)
        with pytest.raises(ValueError, match="converged"):
            verify_entropic_equivalence(tree_a, tree_b, 1.0, 30.0, res)


class TestBoundReport:
    def test_height3_pair_at_lambda_20(self):
        tree_a, tree_b = height3_pair()
        report = nested_bound_report(tree_a, tree_b, 1.0, 20.0)
        assert report.all_passed, [c for c in report.checks if not c.passed]
        assert report.max_branching_a == 2
        assert report.max_branching_b == 3
        assert report.gap_bound == pytest.approx(3.0 * math.log(6.0) / 20.0, rel=1e-12)
        assert report.gap_bound == pytest.approx(0.2687639204, abs=1e-9)
        assert report.nd_s_pow - report.nd_w_pow <= report.gap_bound + 1e-8
        assert report.nd_w_pow - report.nde_s_pow <= report.gap_bound + 1e-8

    def test_identical_path_trees(self):
        tree = path_tree([0.0, 1.0, 2.0])
        report = nested_bound_report(tree, tree, 1.0, 4.0)
        assert report.all_passed
        assert report.nd_s_pow == pytest.approx(0.0, abs=1e-12)
        assert report.nde_s_pow == pytest.approx(0.0, abs=1e-12)
        assert report.nd_w_pow == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("lam", [1.0, 10.0])
    def test_random_binary_pairs(self, lam):
        for seed in (301, 302, 303):
            tree_a = generate_random_tree([1, 2, 2], 2 * seed + 1)
            tree_b = generate_random_tree([1, 2, 2], 2 * seed + 2)
            # flat oracle confirms the exact value used inside the report
            flat_value, _ = flat_nested_lp(tree_a, tree_b, 1.0)
            report = nested_bound_report(tree_a, tree_b, 1.0, lam)
            assert report.nd_w == pytest.approx(flat_value, abs=1e-8)
            assert report.all_passed, [c for c in report.checks if not c.passed]


class TestMartingaleCheck:
    def test_path_trees_constant_process(self):
        a = path_tree([0.0, 1.0, 2.0])
        b = path_tree([0.0, 0.5, 1.5])
        res = nested_sinkhorn(a, b, 1.0, lam=3.0, tol=1e-12)
        report = martingale_check(res)
        assert report.passed
        assert report.max_martingale_residual <= 1e-12

    @pytest.mark.parametrize("lam", [2.0, 10.0])
    def test_canonical_pairs(self, lam):
        for pair in (split_timing_pair(0.1), height3_pair()):
            tree_a, tree_b = pair
            res = nested_sinkhorn(tree_a, tree_b, 1.0, lam, tol=1e-12)
            report = martingale_check(res)
            assert report.passed
            assert report.max_martingale_residual <= 1e-6
            assert report.max_projection_residual <= 1e-8

    def test_rejects_exact_result(self):
        tree_a, tree_b = height3_pair()
        with pytest.raises(ValueError, match="regularized"):
            martingale_check(nested_exact(tree_a, tree_b, 1.0))

    def test_rejects_unconverged(self):
        tree_a, tree_b = height3_pair()
        res = nested_sinkhorn(tree_a, tree_b, 1.0, lam=30.0, tol=1e-12, max_iter=2)
        with pytest.raises(ValueError, match="converged"):
            martingale_check(res)


class TestLambdaSweep:
    def test_height3_pair_grid_shape(self):
        tree_a, tree_b = height3_pair()
        grid = [0.5] + [float(k) for k in range(1, 31)]
        rows = lambda_sweep(tree_a, tree_b, 1.0, grid, tol=1e-11)
        assert len(rows) == 31
        assert all(row.converged for row in rows)
        nd_w = rows[0].nd_w
        assert all(row.nd_w == nd_w for row in rows)
        gaps_s = [abs(row.nd_s - nd_w) for row in rows]
        gaps_e = [abs(nd_w - row.nde_s) for row in rows]
        for earlier, later in zip(gaps_s, gaps_s[1:]):
            assert later <= earlier + 1e-8
        for earlier, later in zip(gaps_e, gaps_e[1:]):
            assert later <= earlier + 1e-8

    def test_single_lambda(self):
        early, late = split_timing_pair(0.1)
        rows = lambda_sweep(early, late, 1.0, [3.0], tol=1e-10)
        assert len(rows) == 1
        assert rows[0].lam == 3.0

    def test_invalid_grid(self):
        early, late = split_timing_pair(0.1)
        with pytest.raises(ValueError, match="positive"):
            lambda_sweep(early, late, 1.0, [1.0, -2.0])
        with pytest.raises(ValueError, match="non-empty"):
            lambda_sweep(early, late, 1.0, [])
