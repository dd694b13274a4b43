"""Nested recursions, the flat-LP oracle, and the verification reports."""

import ast
import importlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    child_ids,
    height3_pair,
    leaf_walk,
    path_tree,
    random_tree_pair,
    split_timing_pair,
    square_pair,
    tree_from_nodes,
    underflow_tree,
    uneven_tree,
)
from nested_sinkhorn import (
    conditional_marginal_residuals,
    cost_matrix,
    entropy,
    flat_nested_lp,
    generate_random_tree,
    lambda_sweep,
    martingale_check,
    nested_bound_report,
    nested_exact,
    nested_sinkhorn,
    sinkhorn_auto,
    solve_transport_lp,
    verify_entropic_equivalence,
    wasserstein_distance,
)
from nested_sinkhorn import nested as nested_module
from nested_sinkhorn.nested import FLAT_LP_MAX_CELLS, _lp_group

# the package exports the function ``nested_sinkhorn``, which hides the package itself
package = importlib.import_module("nested_sinkhorn")


def stage_pairs(tree_a, tree_b, t):
    """Every node pair ``(i, j)`` of stage ``t`` by position, with the
    stage-(t+1) positions of the two nodes' children in child order."""
    parent_a, parent_b = tree_a.stage_index.parent[t + 1], tree_b.stage_index.parent[t + 1]
    for i, j in itertools.product(range(len(tree_a.stage(t))), range(len(tree_b.stage(t)))):
        yield i, j, np.flatnonzero(parent_a == i), np.flatnonzero(parent_b == j)


class TestNestedExact:
    def test_split_timing_pair_hand_recursion(self):
        # conditional values at stage 1 are 1.1 and 1.0; the root couples
        # them with weights one half each
        early, late = split_timing_pair(0.1)
        res = nested_exact(early, late, 1.0)
        assert res.value == pytest.approx(1.05, abs=1e-10)
        stage1 = res.stage_tables[1]
        values = sorted(stage1.value.ravel())
        assert values == pytest.approx([1.0, 1.1], abs=1e-12)

    def test_identical_trees_diagonal_coupling(self):
        tree, _ = height3_pair()
        res = nested_exact(tree, tree, 1.0)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        p = tree.leaf_probabilities
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
        paths_a = leaf_walk(tree_a)[0]
        paths_b = leaf_walk(tree_b)[0]
        child_index_a = {c: k for n in tree_a.nodes for k, c in enumerate(child_ids(tree_a, n.id))}
        child_index_b = {c: k for n in tree_b.nodes for k, c in enumerate(child_ids(tree_b, n.id))}
        position_a, position_b = tree_a.stage_index.position, tree_b.stage_index.position
        for ia, pa in enumerate(paths_a):
            for jb, pb in enumerate(paths_b):
                w = 1.0
                for t in range(tree_a.height):
                    # the conditional plan of the pair (pa[t], pb[t]), children in child order
                    rows = [position_a[t + 1][c] for c in child_ids(tree_a, pa[t])]
                    cols = [position_b[t + 1][c] for c in child_ids(tree_b, pb[t])]
                    plan = res.stage_tables[t].plan[np.ix_(rows, cols)]
                    w *= plan[child_index_a[pa[t + 1]], child_index_b[pb[t + 1]]]
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

    @pytest.mark.parametrize("shape", [(1, 5), (4, 1), (1, 1)])
    def test_single_child_groups_match_the_simplex(self, shape):
        # a group with one row or one column has one feasible plan, which the
        # corner takes whatever the costs and the states' order
        rng = np.random.default_rng(sum(shape))
        B, (m, n) = 6, shape
        P = rng.dirichlet(np.ones(m), size=B)
        Q = rng.dirichlet(np.ones(n), size=B)
        C = rng.normal(0.0, 3.0, size=(B, m, n))
        batch = _lp_group(P, Q, C, rng.normal(size=(B, m)), rng.normal(size=(B, n)))
        for k in range(B):
            lp = solve_transport_lp(P[k], Q[k], C[k])
            assert batch.plan[k] == pytest.approx(lp.plan.matrix, rel=0, abs=1e-15)
            assert batch.de_s[k] == pytest.approx(lp.value, rel=1e-14, abs=1e-14)
            assert batch.dual_row[k] == pytest.approx(lp.dual_row, rel=0, abs=1e-14)
            assert batch.dual_col[k] == pytest.approx(lp.dual_col, rel=0, abs=1e-14)
        assert batch.converged.all() and not batch.iterations.any() and not batch.newton.any()

    def test_stage_entropies_match_each_plan(self):
        # the LP groups take their entropies in one stacked expression
        tree_a, tree_b = height3_pair()
        for t, table in enumerate(nested_exact(tree_a, tree_b, 1.0).stage_tables):
            for i, j, rows, cols in stage_pairs(tree_a, tree_b, t):
                assert table.entropy[i, j] == pytest.approx(entropy(table.plan[np.ix_(rows, cols)]),
                                                            rel=1e-15, abs=0)

    def test_result_carries_its_leaf_cost(self):
        tree_a, tree_b = height3_pair()
        for res in (nested_exact(tree_a, tree_b, 2.0), nested_sinkhorn(tree_a, tree_b, 2.0, 5.0)):
            assert np.array_equal(res.leaf_cost, cost_matrix(tree_a, tree_b, 2.0))
            assert not res.leaf_cost.flags.writeable


# every transportation shape from 1x1 to 12x12
SHAPES = [(m, n) for m in range(1, 13) for n in range(1, 13)]
# leaf costs (c + |x - y|)^r, which the corner always solves, and general costs
LEAF_KINDS = ["r1", "r2", "tied", "tiny-leaf"]
LP_KINDS = ["random", "uniform", "duplicated", "tiny"]
# the shapes the stage solve once enumerated every spanning-tree basis of;
# ``TestBasisEnumeration`` keeps their general-cost cases under their own names
BASIS_SHAPES = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2),
                (3, 3), (3, 4), (4, 2), (4, 3), (5, 2), (6, 2)]


def leaf_stack(shape, kind, B=4):
    """``B`` seeded leaf-stage problems of one shape: costs (c + |x - y|)^r
    with c shared by the problem, at r = 2 for ``r2`` and 1 otherwise;
    ``tied`` draws the states from three values, and ``tiny-leaf`` puts a
    mass of 1e-9 on either side."""
    m, n = shape
    rng = np.random.default_rng([m, n, len(kind)])
    P = rng.dirichlet(np.ones(m), size=B)
    Q = rng.dirichlet(np.ones(n), size=B)
    X, Y = rng.normal(size=(B, m)), rng.normal(size=(B, n))
    if kind == "tied":
        X, Y = rng.integers(0, 3, size=(B, m)) * 0.5, rng.integers(0, 3, size=(B, n)) * 0.5
    elif kind == "tiny-leaf":
        P[:, 0], Q[:, -1] = 1e-9, 1e-9
        P /= P.sum(axis=1, keepdims=True)
        Q /= Q.sum(axis=1, keepdims=True)
    c = rng.uniform(0.0, 3.0, size=(B, 1, 1))
    C = (c + np.abs(X[:, :, None] - Y[:, None, :])) ** (2.0 if kind == "r2" else 1.0)
    return P, Q, C, X, Y


def lp_stack(shape, kind, B=20):
    """``B`` seeded transportation problems of one shape with random child
    states: random costs, or one of the degenerate kinds."""
    m, n = shape
    rng = np.random.default_rng([m, n, len(kind)])
    P = rng.dirichlet(np.ones(m), size=B)
    Q = rng.dirichlet(np.ones(n), size=B)
    C = rng.normal(0.0, 3.0, size=(B, m, n))
    if kind == "uniform":  # ties everywhere: many optimal vertices and duals
        P, Q = np.full((B, m), 1.0 / m), np.full((B, n), 1.0 / n)
        C = rng.integers(0, 3, size=(B, m, n)).astype(float)
    elif kind == "duplicated" and m > 1:  # two equal rows
        C[:, -1] = C[:, 0]
        P[:, -1] = P[:, 0]
        P /= P.sum(axis=1, keepdims=True)
    elif kind == "tiny":  # a mass of 1e-9 on either side
        P[:, 0], Q[:, -1] = 1e-9, 1e-9
        P /= P.sum(axis=1, keepdims=True)
        Q /= Q.sum(axis=1, keepdims=True)
    return P, Q, C, rng.normal(size=(B, m)), rng.normal(size=(B, n))


def count_calls(monkeypatch, name) -> list:
    """Record every call the recursion's stage solve makes to ``name``."""
    calls, original = [], getattr(nested_module, name)
    monkeypatch.setattr(nested_module, name, lambda *args: calls.append(args) or original(*args))
    return calls


def stage_simplex_calls(monkeypatch, tree_a, tree_b, r) -> list[int]:
    """The simplex calls of each stage of ``nested_exact``, in stage order."""
    simplex, per_group = count_calls(monkeypatch, "solve_transport_lp"), []
    lp_group = nested_module._lp_group

    def counted(*args):
        before = len(simplex)
        batch = lp_group(*args)
        per_group.append(len(simplex) - before)
        return batch

    monkeypatch.setattr(nested_module, "_lp_group", counted)
    nested_exact(tree_a, tree_b, r)
    calls = []
    for t in range(tree_a.height - 1, -1, -1):  # the recursion runs backwards
        groups = len(tree_a.stage_index.children[t]) * len(tree_b.stage_index.children[t])
        calls.insert(0, sum(per_group[:groups]))
        del per_group[:groups]
    return calls


def assert_certified(batch, P, Q, C):
    """The plans meet their marginals and the duals, row 0 pinned at zero,
    certify them."""
    eps = 1e-12 * (1.0 + np.abs(C).max(axis=(1, 2)))
    assert batch.plan.min() >= 0.0
    assert (batch.marginal_error <= 1e-12).all()
    assert not batch.dual_row[:, 0].any()
    reduced = C - batch.dual_row[:, :, None] - batch.dual_col[:, None, :]
    assert (reduced.min(axis=(1, 2)) >= -eps).all()  # dual feasibility
    assert (np.where(batch.plan > 0.0, np.abs(reduced), 0.0).max(axis=(1, 2)) <= eps).all()
    dual_value = (P * batch.dual_row).sum(axis=1) + (Q * batch.dual_col).sum(axis=1)
    assert (np.abs(dual_value - batch.de_s) <= eps).all()  # zero duality gap


def assert_matches_the_simplex(P, Q, C, X, Y):
    """The stage solve reaches the simplex's values and certifies its plans."""
    batch = _lp_group(P, Q, C, X, Y)
    for k in range(len(C)):
        lp = solve_transport_lp(P[k], Q[k], C[k])
        assert batch.de_s[k] == pytest.approx(lp.value, rel=1e-12, abs=1e-15)
    assert_certified(batch, P, Q, C)


class TestMonotoneGroups:
    """The exact stage solve takes each problem's north-west corner in state
    order, and the simplex where its duals do not certify it."""

    @pytest.mark.parametrize("kind", LEAF_KINDS + LP_KINDS)
    def test_matches_the_simplex(self, kind, monkeypatch):
        simplex = count_calls(monkeypatch, "solve_transport_lp")
        for shape in SHAPES:
            if kind in LEAF_KINDS:
                assert_matches_the_simplex(*leaf_stack(shape, kind))
                assert not simplex, shape  # leaf costs are Monge in state order
            elif shape not in BASIS_SHAPES:
                assert_matches_the_simplex(*lp_stack(shape, kind))

    @pytest.mark.parametrize("kind", LP_KINDS)
    def test_a_side_of_two_is_sorted_by_cost_difference(self, kind, monkeypatch):
        # two columns in rows sorted by c_i0 - c_i1 (or two rows in columns
        # sorted by c_0j - c_1j) are Monge whatever the costs, so the corner
        # is kept without the simplex
        simplex = count_calls(monkeypatch, "solve_transport_lp")
        for shape in SHAPES:
            if 2 in shape:
                assert_matches_the_simplex(*lp_stack(shape, kind))
                assert not simplex, shape

    def test_non_monge_costs_go_to_the_simplex(self, monkeypatch):
        simplex = count_calls(monkeypatch, "solve_transport_lp")
        P, Q, C, X, Y = lp_stack((4, 5), "random")
        batch = _lp_group(P, Q, C, X, Y)
        assert len(simplex) == len(C)
        for k in range(len(C)):
            lp = solve_transport_lp(P[k], Q[k], C[k])
            assert np.array_equal(batch.plan[k], lp.plan.matrix)
            assert np.array_equal(batch.dual_row[k], lp.dual_row)
            assert np.array_equal(batch.dual_col[k], lp.dual_col)
            assert batch.de_s[k] == pytest.approx(lp.value, rel=1e-15, abs=1e-15)
        assert_certified(batch, P, Q, C)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_reversed_child_order_permutes_the_solution(self, r):
        P, Q, C, X, Y = leaf_stack((5, 6), "r2" if r == 2.0 else "r1", B=10)
        batch = _lp_group(P, Q, C, X, Y)
        # columns: the pinned row 0 stays, so plan and duals permute exactly
        cols = _lp_group(P, Q[:, ::-1], C[:, :, ::-1], X, Y[:, ::-1])
        assert np.array_equal(cols.plan, batch.plan[:, :, ::-1])
        assert np.array_equal(cols.dual_row, batch.dual_row)
        assert np.array_equal(cols.dual_col, batch.dual_col[:, ::-1])
        assert cols.de_s == pytest.approx(batch.de_s, rel=1e-15, abs=0)  # summed in another order
        # rows: the plan permutes exactly; the duals move by the shift that
        # pins the new row 0, up to its rounding
        rows = _lp_group(P[:, ::-1], Q, C[:, ::-1], X[:, ::-1], Y)
        assert np.array_equal(rows.plan, batch.plan[:, ::-1])
        shift = batch.dual_row[:, -1:]
        assert rows.dual_row[:, ::-1] == pytest.approx(batch.dual_row - shift, rel=0, abs=1e-13)
        assert rows.dual_col == pytest.approx(batch.dual_col + shift, rel=0, abs=1e-13)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_leaf_stage_is_never_refused(self, r, monkeypatch):
        simplex = count_calls(monkeypatch, "solve_transport_lp")
        for m, n in itertools.product(range(1, 41), repeat=2):
            tree_a, tree_b = generate_random_tree((1, m), m), generate_random_tree((1, n), 100 + n)
            assert nested_exact(tree_a, tree_b, r).value > 0.0 and not simplex, (m, n)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_wide_single_child_group_is_never_refused(self, r, monkeypatch):
        # one root child against 2000: the corner is the product plan
        simplex = count_calls(monkeypatch, "solve_transport_lp")
        tree_a, tree_b = generate_random_tree((1, 1), 1), generate_random_tree((1, 2000), 2)
        res = nested_exact(tree_a, tree_b, r)
        assert not simplex
        expected = (cost_matrix(tree_a, tree_b, r) * tree_b.leaf_probabilities).sum()
        assert res.value_pow == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    @pytest.mark.parametrize("branching", [((1, 4, 1, 3, 2, 1, 3), (1, 2, 3, 1, 2, 3, 2)),
                                           ((1, 6, 6, 6), (1, 6, 6, 6))])
    def test_last_stage_is_never_refused(self, branching, r, monkeypatch):
        tree_a = generate_random_tree(branching[0], 0)
        tree_b = generate_random_tree(branching[1], 1)
        calls = stage_simplex_calls(monkeypatch, tree_a, tree_b, r)
        assert len(calls) == tree_a.height and calls[-1] == 0
        if branching[0] == (1, 6, 6, 6):
            # the interior problems that are not Monge still reach the simplex
            assert sum(calls) > 0
        else:
            # every problem of the uneven pair has a side of at most 2, which
            # sorted by cost difference is Monge
            assert sum(calls) == 0


class TestBasisEnumeration:
    """Cases kept from the spanning-tree basis enumeration the corner
    replaced: its shapes under general costs, and its stacks cut in chunks."""

    @pytest.mark.parametrize("kind", LP_KINDS)
    @pytest.mark.parametrize("shape", BASIS_SHAPES)
    def test_matches_the_simplex(self, shape, kind):
        assert_matches_the_simplex(*lp_stack(shape, kind))

    def test_chunks_match_single_solves(self, monkeypatch):
        # corners and simplex solves mixed in one stack
        simplex = count_calls(monkeypatch, "solve_transport_lp")
        stacks = [leaf_stack((3, 4), "r1", B=25), lp_stack((3, 4), "random", B=25)]
        P, Q, C, X, Y = (np.concatenate(arrays) for arrays in zip(*stacks))
        batch = _lp_group(P, Q, C, X, Y)
        assert 0 < len(simplex) < len(C)
        order = np.random.default_rng(0).permutation(len(C))
        shuffled = _lp_group(P[order], Q[order], C[order], X[order], Y[order])
        halves = [_lp_group(P[part], Q[part], C[part], X[part], Y[part])
                  for part in (slice(0, 17), slice(17, None))]
        for name in ("plan", "de_s", "entropy", "dual_row", "dual_col"):
            whole = getattr(batch, name)
            assert np.array_equal(getattr(shuffled, name), whole[order])
            assert np.array_equal(np.concatenate([getattr(half, name) for half in halves]), whole)
            for k in range(len(C)):
                alone = _lp_group(P[k:k + 1], Q[k:k + 1], C[k:k + 1], X[k:k + 1], Y[k:k + 1])
                assert np.array_equal(getattr(alone, name)[0], whole[k])


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

    @pytest.mark.parametrize("tiny_branch_pair, failure", [
        (lambda: (
            tree_from_nodes([
                {"id": 0, "parent": None, "state": -1.0, "prob": 1.0},
                {"id": 1, "parent": 0, "state": -1.0, "prob": 0.5},
                {"id": 2, "parent": 0, "state": -1.0, "prob": 0.5},
                {"id": 3, "parent": 1, "state": -1.0, "prob": 0.5},
                {"id": 4, "parent": 1, "state": -1.0, "prob": 0.5},
                {"id": 5, "parent": 2, "state": -1.0, "prob": 1.0},
            ]),
            tree_from_nodes([
                {"id": 0, "parent": None, "state": -1.0, "prob": 1.0},
                {"id": 1, "parent": 0, "state": -1.0, "prob": 3.9999999680000004e-09},
                {"id": 2, "parent": 0, "state": -1.0, "prob": 3.9999999680000004e-09},
                {"id": 3, "parent": 0, "state": -1.0, "prob": 0.9999999920000001},
                {"id": 4, "parent": 1, "state": -1.0, "prob": 0.999999999},
                {"id": 5, "parent": 1, "state": -1.0, "prob": 9.999999990000001e-10},
                {"id": 6, "parent": 2, "state": 0.0, "prob": 1.0},
                {"id": 7, "parent": 3, "state": -1.0, "prob": 1.0},
            ]),
        ), "lost primal feasibility"),
        (lambda: (
            path_tree([-1.0, -1.0, -1.0]),
            tree_from_nodes([
                {"id": 0, "parent": None, "state": -1.0, "prob": 1.0},
                {"id": 1, "parent": 0, "state": -1.0, "prob": 0.999999999},
                {"id": 2, "parent": 0, "state": -1.0, "prob": 9.999999990000001e-10},
                {"id": 3, "parent": 1, "state": -1.0, "prob": 1.0},
                {"id": 4, "parent": 2, "state": 0.0, "prob": 1.0},
            ]),
        ), "violates the conditional marginals"),
    ])
    def test_tiny_branches_raise_accurate_error(self, tiny_branch_pair, failure):
        # branch probabilities near 1e-9 are the size of the dense simplex's
        # absolute tolerances: it loses feasibility on the first pair and
        # misplaces the 1e-9 mass of the second, where the answer is 1e-9
        tree_a, tree_b = tiny_branch_pair()
        assert nested_exact(tree_a, tree_b, 1.0).value_pow > 0.0
        with pytest.raises(RuntimeError, match=failure) as raised:
            flat_nested_lp(tree_a, tree_b, 1.0)
        assert "smallest leaf probability" in str(raised.value)

    def test_size_cap(self, monkeypatch):
        # 201 x 201 leaves: the cap is checked before any cost is built
        monkeypatch.setattr(importlib.import_module("nested_sinkhorn.nested"), "cost_matrix", None)
        tree_a, tree_b = generate_random_tree([1, 201], 1), generate_random_tree([1, 201], 2)
        with pytest.raises(ValueError, match=f"201 x 201 leaf pairs exceeds {FLAT_LP_MAX_CELLS}"):
            flat_nested_lp(tree_a, tree_b, 1.0)


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
        p = tree_a.leaf_probabilities
        q = tree_b.leaf_probabilities
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
        tree_a, tree_b = square_pair()
        res = nested_sinkhorn(tree_a, tree_b, 1.0, lam=30.0, tol=1e-12, max_iter=2)
        assert not res.converged

    # the bench seed-0 stage-3 pair at the bound report's tolerance and sweep
    # cap, where 3x2 stage-1 subproblems meet round-off at large lam
    @pytest.mark.parametrize("lam", [1000.0, 2000.0, 2500.0])
    def test_round_off_floor(self, lam):
        pair = (generate_random_tree((1, 2, 3, 2), 52), generate_random_tree((1, 2, 2, 1), 53))
        max_iter = 200_000
        res = nested_sinkhorn(*pair, 1.0, lam, tol=1e-12, max_iter=max_iter)
        assert res.converged or lam > 1000.0
        for table, stage in zip(res.stage_tables, res.stats):
            # every unconverged subproblem stopped at the floor, none at the cap
            assert stage.stalled == int((~table.converged).sum())
            assert not (table.iterations >= max_iter).any()
        assert res.total_iterations < 20_000

    # a tree against itself puts nearly uncoupled potentials into its
    # diagonal subproblems
    @pytest.mark.parametrize("branching", [(1, 6, 6, 6), (1, 20, 20)])
    def test_tree_against_itself(self, branching):
        tree = generate_random_tree(branching, 1)
        res = nested_sinkhorn(tree, tree, 1.0, lam=50.0)
        assert res.converged
        assert res.value >= 0.0 >= res.value_with_entropy

    def test_invalid_lambda(self):
        tree_a, tree_b = height3_pair()
        with pytest.raises(ValueError, match="positive"):
            nested_sinkhorn(tree_a, tree_b, 1.0, lam=0.0)


def per_pair_reference(tree_a, tree_b, res, lam, tol, max_iter):
    """Check every stage-table entry of a regularized result against
    ``sinkhorn_auto`` on the same subproblem; returns the reference results."""
    T = len(res.stage_tables)
    # the last stage's nodes are the leaves, in leaf order
    later = [table.value for table in res.stage_tables[1:]] + [cost_matrix(tree_a, tree_b, 1.0)]
    prob_a, prob_b = tree_a.stage_index.cond_prob, tree_b.stage_index.cond_prob
    refs = []
    for t, (table, nxt) in enumerate(zip(res.stage_tables, later)):
        for i, j, rows, cols in stage_pairs(tree_a, tree_b, t):
            block = np.ix_(rows, cols)
            ref = sinkhorn_auto(prob_a[t + 1][rows], prob_b[t + 1][cols], nxt[block], lam,
                                tol / T, max_iter)
            assert table.iterations[i, j] == ref.iterations
            assert table.converged[i, j] == ref.converged
            assert table.plan[block] == pytest.approx(ref.plan.matrix, rel=0, abs=1e-12)
            assert table.value[i, j] == pytest.approx(ref.de_s, rel=0, abs=1e-12)
            assert table.entropy[i, j] == pytest.approx(ref.entropy, rel=0, abs=1e-12)
            assert table.dual_row[rows, j] == pytest.approx(ref.dual_row, rel=0, abs=1e-12)
            assert table.dual_col[i, cols] == pytest.approx(ref.dual_col, rel=0, abs=1e-12)
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

    def test_single_child_groups_take_the_product_plan(self):
        # the bench seed-0 stage-3 pair at lambda 1000: one sweep of a 2x1
        # stage-2 subproblem leaves a plan up to 6e-13 off its marginals,
        # against the per-stage tolerance 1e-12 / 3
        tree_a = generate_random_tree((1, 2, 3, 2), 52)
        tree_b = generate_random_tree((1, 2, 2, 1), 53)
        lam = 1000.0
        res = nested_sinkhorn(tree_a, tree_b, 1.0, lam, tol=1e-12, max_iter=200_000)
        singles = 0
        for t, table in enumerate(res.stage_tables):
            for i, j, rows, cols in stage_pairs(tree_a, tree_b, t):
                if len(rows) > 1 and len(cols) > 1:
                    continue
                singles += 1
                p = tree_a.stage_index.cond_prob[t + 1][rows]
                q = tree_b.stage_index.cond_prob[t + 1][cols]
                assert table.converged[i, j] and table.iterations[i, j] == 0
                assert np.array_equal(table.plan[np.ix_(rows, cols)], np.outer(p, q))
                assert table.dual_row[rows, j].max() == 0.5 / lam
        assert singles == 24

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
            iterations = sorted(table.iterations.ravel())
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
        report = verify_entropic_equivalence(res)
        assert report.passed
        assert report.checks[0].value <= 1e-7
        assert report.checks[1].value <= 1e-7
        assert report.checks[2].value <= 1e-6

    def test_path_trees_trivial(self):
        a = path_tree([0.0, 1.0])
        b = path_tree([0.5, 0.5])
        res = nested_sinkhorn(a, b, 1.0, lam=2.0, tol=1e-12)
        report = verify_entropic_equivalence(res)
        assert report.passed

    def test_split_timing_pair_small_lambda(self):
        # entropy dominates: the flat entropic objective may go negative
        early, late = split_timing_pair(0.1)
        res = nested_sinkhorn(early, late, 1.0, lam=1.0, tol=1e-12)
        report = verify_entropic_equivalence(res)
        assert report.passed

    def test_underflowed_stage_plan_entries(self):
        # the stage-1 plans have exact zeros where exp(-lam * 10 - ...)
        # underflows; the Gibbs factors of those entries underflow too
        tree = underflow_tree()
        res = nested_sinkhorn(tree, tree, 1.0, lam=100.0)
        assert res.converged
        assert (res.stage_tables[1].plan == 0.0).sum() == 8
        report = verify_entropic_equivalence(res)
        assert report.passed
        assert report.checks[2].value <= 1e-12

    def test_entries_written_as_zero_above_the_underflow(self):
        # the certify-uneven pair at lambda 100: the solver writes stage-0
        # plan entries as 0 whose Gibbs exponents lie between -745 and -700,
        # where exp is still positive
        tree_a = generate_random_tree((1, 4, 1, 3, 2, 1, 3), 0)
        tree_b = generate_random_tree((1, 2, 3, 1, 2, 3, 2), 1)
        res = nested_sinkhorn(tree_a, tree_b, 1.0, lam=100.0)
        assert res.converged
        root = res.stage_tables[0]  # one 4x2 subproblem, priced by the stage-1 values
        exponent = -100.0 * (res.stage_tables[1].value - root.dual_row - root.dual_col) - 1.0
        vanished = root.plan == 0.0
        assert (np.exp(exponent[vanished]) > 0.0).any()
        assert verify_entropic_equivalence(res).passed

    def test_rejects_exact_result(self):
        tree_a, tree_b = height3_pair()
        res = nested_exact(tree_a, tree_b, 1.0)
        with pytest.raises(ValueError, match="regularized"):
            verify_entropic_equivalence(res)

    def test_rejects_unconverged(self):
        tree_a, tree_b = square_pair()
        res = nested_sinkhorn(tree_a, tree_b, 1.0, lam=30.0, tol=1e-12, max_iter=2)
        with pytest.raises(ValueError, match="converged"):
            verify_entropic_equivalence(res)


class TestBoundReport:
    def test_height3_pair_at_lambda_20(self):
        tree_a, tree_b = height3_pair()
        report = nested_bound_report(tree_a, tree_b, 1.0, 20.0)
        assert report.all_passed, [c for c in report.checks if not c.passed]
        # the largest branching is 2 in A and 3 in B
        cap = report.checks[-1].upper
        assert cap == pytest.approx(3.0 * math.log(2.0 * 3.0) / 20.0, rel=1e-12)
        assert cap == pytest.approx(0.2687639204, abs=1e-9)
        exact, sink = report.exact, report.regularized
        assert sink.value_pow - exact.value_pow <= cap + 1e-8
        assert exact.value_pow - sink.value_with_entropy_pow <= cap + 1e-8

    def test_identical_path_trees(self):
        tree = path_tree([0.0, 1.0, 2.0])
        report = nested_bound_report(tree, tree, 1.0, 4.0)
        assert report.all_passed
        assert report.regularized.value_pow == pytest.approx(0.0, abs=1e-12)
        assert report.regularized.value_with_entropy_pow == pytest.approx(0.0, abs=1e-12)
        assert report.exact.value_pow == pytest.approx(0.0, abs=1e-12)

    def test_checks_read_the_two_runs(self):
        tree_a, tree_b = height3_pair()  # largest branching 2 in A, 3 in B
        lam = 5.0
        report = nested_bound_report(tree_a, tree_b, 1.0, lam)
        exact, sink = report.exact, report.regularized
        assert (exact.method, sink.method, sink.lam) == ("exact", "sinkhorn", lam)
        assert exact.tree_a is sink.tree_a is tree_a and exact.tree_b is sink.tree_b is tree_b
        nd_w, nd_s, nde_s = exact.value_pow, sink.value_pow, sink.value_with_entropy_pow
        h_s, h_w = sink.total_entropy, exact.total_entropy
        expected = [
            (nde_s, nd_w, nd_s),
            (-math.inf, nd_s - nd_w, (h_s - h_w) / lam),
            (-math.inf, nd_w - nde_s, h_s / lam),
            (-math.inf, max(nd_s - nd_w, nd_w - nde_s),
             tree_a.height * (math.log(2.0) + math.log(3.0)) / lam),
        ]
        assert [(c.lower, c.value, c.upper) for c in report.checks] == expected
        assert report.all_passed == (sink.converged and all(c.passed for c in report.checks))

    @pytest.mark.parametrize("lam", [1.0, 10.0])
    def test_random_binary_pairs(self, lam):
        for seed in (301, 302, 303):
            tree_a = generate_random_tree([1, 2, 2], 2 * seed + 1)
            tree_b = generate_random_tree([1, 2, 2], 2 * seed + 2)
            # flat oracle confirms the exact value used inside the report
            flat_value, _ = flat_nested_lp(tree_a, tree_b, 1.0)
            report = nested_bound_report(tree_a, tree_b, 1.0, lam)
            assert report.exact.value == pytest.approx(flat_value, abs=1e-8)
            assert report.all_passed, [c for c in report.checks if not c.passed]


class TestMartingaleCheck:
    def test_path_trees_constant_process(self):
        a = path_tree([0.0, 1.0, 2.0])
        b = path_tree([0.0, 0.5, 1.5])
        res = nested_sinkhorn(a, b, 1.0, lam=3.0, tol=1e-12)
        report = martingale_check(res)
        assert report.passed
        assert report.checks[0].value <= 1e-12

    @pytest.mark.parametrize("lam", [2.0, 10.0])
    def test_canonical_pairs(self, lam):
        for pair in (split_timing_pair(0.1), height3_pair()):
            tree_a, tree_b = pair
            res = nested_sinkhorn(tree_a, tree_b, 1.0, lam, tol=1e-12)
            report = martingale_check(res)
            assert report.passed
            assert report.checks[0].value <= 1e-6
            assert report.checks[1].value <= 1e-8

    def test_rejects_exact_result(self):
        tree_a, tree_b = height3_pair()
        with pytest.raises(ValueError, match="regularized"):
            martingale_check(nested_exact(tree_a, tree_b, 1.0))

    def test_rejects_unconverged(self):
        tree_a, tree_b = square_pair()
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
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                lambda_sweep(early, late, 1.0, [1.0, bad])
            with pytest.raises(ValueError, match="positive and finite"):
                nested_bound_report(early, late, 1.0, bad)


def test_module_exports_match_package():
    # each submodule's ``__all__`` lists exactly the names the package
    # imports from it, and the package exports those names and no others
    source = Path(package.__file__).read_text(encoding="utf-8")
    exported = set()
    for name in ("nested", "scenario_tree", "sinkhorn", "transport"):
        imported = {alias.name for node in ast.parse(source).body
                    if isinstance(node, ast.ImportFrom) and node.module == name
                    for alias in node.names}
        assert imported == set(importlib.import_module(f"nested_sinkhorn.{name}").__all__), name
        exported |= imported
    assert set(package.__all__) == exported
