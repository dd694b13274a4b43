"""Tree parsing, validation, leaf arrays, costs, and random generation."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    child_ids,
    height3_pair,
    interleaved,
    late_split_tree,
    leaf_walk,
    node_map,
    overflow_pair,
    path_tree,
    split_timing_pair,
    tree_from_nodes,
)
from nested_sinkhorn import (
    Node,
    ScenarioTree,
    TreeFormatError,
    cost_matrix,
    generate_random_tree,
    parse_tree,
    serialize_tree,
)


def direct_l1_cost(a, b, r):
    """Independent oracle: plain summation of coordinate gaps."""
    total = 0.0
    for x, y in zip(a, b):
        total += abs(x - y)
    return total**r


class TestParsing:
    def test_height3_tree_parses(self):
        tree_a, _ = height3_pair()
        assert len(tree_a.nodes) == 8
        assert tree_a.height == 3
        assert tree_a.n_leaves == 4

    def test_single_node_tree(self):
        tree = tree_from_nodes([{"id": 0, "parent": None, "state": 1.5, "prob": 1.0}])
        assert tree.height == 0
        assert tree.n_leaves == 1
        assert tree.leaf_states.tolist() == [[1.5]]
        assert tree.leaf_probabilities.tolist() == [1.0]
        index = tree.stage_index
        assert index.state[0].tolist() == [1.5]
        assert index.ancestor[0].tolist() == [0]

    def test_children_probabilities_must_sum_to_one(self):
        with pytest.raises(TreeFormatError, match="children probabilities sum to 1.1"):
            tree_from_nodes([
                {"id": 0, "parent": None, "state": 0.0, "prob": 1.0},
                {"id": 1, "parent": 0, "state": 1.0, "prob": 0.5},
                {"id": 2, "parent": 0, "state": 2.0, "prob": 0.6},
            ])

    def test_renormalizes_small_rounding(self):
        tree = tree_from_nodes([
            {"id": 0, "parent": None, "state": 0.0, "prob": 1.0},
            {"id": 1, "parent": 0, "state": 1.0, "prob": 0.3333333333},
            {"id": 2, "parent": 0, "state": 2.0, "prob": 0.6666666667 - 4e-10},
        ])
        nodes = node_map(tree)
        total = math.fsum(nodes[c].cond_prob for c in child_ids(tree, 0))
        assert abs(total - 1.0) < 1e-15

    def test_malformed_json(self):
        with pytest.raises(TreeFormatError, match="malformed"):
            parse_tree("{not json")

    def test_duplicate_id(self):
        with pytest.raises(TreeFormatError, match="duplicate node id 1"):
            tree_from_nodes([
                {"id": 0, "parent": None, "state": 0.0, "prob": 1.0},
                {"id": 1, "parent": 0, "state": 1.0, "prob": 0.5},
                {"id": 1, "parent": 0, "state": 2.0, "prob": 0.5},
            ])

    def test_dangling_parent(self):
        with pytest.raises(TreeFormatError, match="unknown parent 9"):
            tree_from_nodes([
                {"id": 0, "parent": None, "state": 0.0, "prob": 1.0},
                {"id": 1, "parent": 9, "state": 1.0, "prob": 1.0},
            ])

    @pytest.mark.parametrize("prob", [0.5, 1.0])
    def test_orphan_is_blamed_on_its_parent(self, prob):
        # a sibling group under an unknown parent is not renormalized
        with pytest.raises(TreeFormatError, match="node 3 references unknown parent 9"):
            tree_from_nodes([
                {"id": 0, "parent": None, "state": 0.0, "prob": 1.0},
                {"id": 1, "parent": 0, "state": 1.0, "prob": 0.5},
                {"id": 2, "parent": 0, "state": 2.0, "prob": 0.5},
                {"id": 3, "parent": 9, "state": 3.0, "prob": prob},
            ])

    def test_nonpositive_probability(self):
        with pytest.raises(TreeFormatError, match="nonpositive probability"):
            tree_from_nodes([
                {"id": 0, "parent": None, "state": 0.0, "prob": 1.0},
                {"id": 1, "parent": 0, "state": 1.0, "prob": 0.0},
                {"id": 2, "parent": 0, "state": 2.0, "prob": 1.0},
            ])

    @pytest.mark.parametrize("k, key, value", [
        (1, "prob", math.nan),   # branch probability
        (0, "prob", math.nan),   # root probability
        (1, "state", math.inf),
        (1, "state", math.nan),
    ])
    def test_non_finite_values_rejected(self, k, key, value):
        # Python's json writes and reads NaN and Infinity
        nodes = [{"id": 0, "parent": None, "state": 0.0, "prob": 1.0},
                 {"id": 1, "parent": 0, "state": 1.0, "prob": 0.5},
                 {"id": 2, "parent": 0, "state": 2.0, "prob": 0.5}]
        nodes[k][key] = value
        with pytest.raises(TreeFormatError, match=f"node {k}"):
            tree_from_nodes(nodes)
        with pytest.raises(TreeFormatError, match="nan|inf"):
            ScenarioTree(tuple(Node(n["id"], n["parent"], n["state"], n["prob"]) for n in nodes))

    def test_unequal_leaf_depths(self):
        with pytest.raises(TreeFormatError, match="depth"):
            tree_from_nodes([
                {"id": 0, "parent": None, "state": 0.0, "prob": 1.0},
                {"id": 1, "parent": 0, "state": 1.0, "prob": 0.5},
                {"id": 2, "parent": 0, "state": 2.0, "prob": 0.5},
                {"id": 3, "parent": 1, "state": 3.0, "prob": 1.0},
            ])

    def test_two_roots_rejected(self):
        with pytest.raises(TreeFormatError, match="exactly one root"):
            tree_from_nodes([
                {"id": 0, "parent": None, "state": 0.0, "prob": 1.0},
                {"id": 1, "parent": None, "state": 1.0, "prob": 1.0},
            ])

    def test_cycle_rejected(self):
        with pytest.raises(TreeFormatError, match="cycle"):
            tree_from_nodes([
                {"id": 0, "parent": None, "state": 0.0, "prob": 1.0},
                {"id": 1, "parent": 2, "state": 1.0, "prob": 1.0},
                {"id": 2, "parent": 1, "state": 2.0, "prob": 1.0},
            ])

    def test_round_trip(self):
        tree, _ = height3_pair()
        again = parse_tree(serialize_tree(tree))
        assert again == tree
        third = parse_tree(serialize_tree(again))
        assert third == again


class TestTrajectories:
    def test_height3_tree_paths(self):
        tree_a, _ = height3_pair()
        probs = tree_a.leaf_probabilities.tolist()
        assert tree_a.leaf_states.tolist() == [
            [10.0, 10.0, 8.0, 6.0],
            [10.0, 10.0, 8.0, 9.0],
            [10.0, 10.0, 12.0, 10.0],
            [10.0, 10.0, 12.0, 13.0],
        ]
        assert probs == pytest.approx([0.5016, 0.1584, 0.1564, 0.1836], abs=1e-12)
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_late_split_tree_paths(self):
        tree = late_split_tree()
        assert tree.leaf_states.tolist() == [[2.0, 2.0, 3.0], [2.0, 2.0, 1.0]]
        assert tree.leaf_probabilities.tolist() == [0.5, 0.5]

    def test_probabilities_sum_to_one_on_random_trees(self):
        for seed in range(12):
            tree = generate_random_tree([1, 3, 2, 2], seed)
            total = math.fsum(tree.leaf_probabilities)
            assert abs(total - 1.0) < 1e-12

    def test_leaf_probabilities_cached_and_read_only(self):
        tree = generate_random_tree([1, 3, 2, 2], 4)
        _, walk_states, walk_probs = leaf_walk(tree)
        probs = tree.leaf_probabilities
        assert probs.tolist() == walk_probs.tolist()
        assert tree.leaf_probabilities is probs
        with pytest.raises(ValueError):
            probs[0] = 0.5
        states = tree.leaf_states
        assert states.tolist() == walk_states.tolist()
        assert tree.leaf_states is states
        with pytest.raises(ValueError):
            states[0, 0] = 0.5

    def test_stage_index_follows_the_paths(self):
        tree = interleaved(height3_pair()[0])
        assert tree.stage(3) == (6, 4, 7, 5)
        index, nodes = tree.stage_index, node_map(tree)
        assert tree.stage_index is index
        for leaf, path in enumerate(leaf_walk(tree)[0]):
            for t, nid in enumerate(path):
                assert tree.stage(t)[index.ancestor[t][leaf]] == nid
                assert index.position[t][nid] == index.ancestor[t][leaf]
                if t:
                    assert index.parent[t][index.position[t][nid]] == index.position[t - 1][path[t - 1]]
                assert index.cond_prob[t][index.position[t][nid]] == nodes[nid].cond_prob
                assert index.state[t][index.position[t][nid]] == nodes[nid].state
        for t in range(tree.height):
            for m, (nodes, kids) in index.children[t].items():
                assert kids.shape == (len(nodes), m)
                for k, row in zip(nodes, kids):
                    kids = child_ids(tree, tree.stage(t)[k])
                    assert [tree.stage(t + 1)[c] for c in row] == list(kids)
        with pytest.raises(ValueError):
            index.ancestor[0][0] = 1
        with pytest.raises(ValueError):
            index.state[0][0] = 1.0


class TestGroundCost:
    """The leaf-pair ground costs, read off ``cost_matrix`` entries."""

    def test_epsilon_shift(self):
        early, late = split_timing_pair(0.1)
        # late leaf 1 is (2, 2, 1), early leaf 0 is (2, 2.1, 3)
        assert cost_matrix(late, early, 1.0)[1, 0] == pytest.approx(2.1, abs=1e-12)

    def test_identity(self):
        tree, _ = height3_pair()
        for r in (1.0, 2.0):
            assert np.all(np.diag(cost_matrix(tree, tree, r)) == 0.0)

    def test_squared_order_against_direct_sum(self):
        tree_a, tree_b = height3_pair()
        a = leaf_walk(tree_a)[1][0]  # (10, 10, 8, 6)
        b = leaf_walk(tree_b)[1][0]  # (10, 7, 5, 4)
        expected = direct_l1_cost(a, b, 2.0)
        assert expected == 64.0
        assert cost_matrix(tree_a, tree_b, 2.0)[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_order_below_one_rejected(self):
        tree = path_tree([0.0, 1.0])
        with pytest.raises(ValueError, match="order r"):
            cost_matrix(tree, tree, 0.5)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_order_rejected(self, r):
        tree = path_tree([0.0, 1.0])
        with pytest.raises(ValueError, match="order r must be >= 1 and finite"):
            cost_matrix(tree, tree, r)

    def test_triangle_inequality_for_order_one(self):
        rng = np.random.default_rng(42)
        trees = [generate_random_tree([1, 2, 2], seed) for seed in range(6)]
        costs = [[cost_matrix(x, y, 1.0) for y in trees] for x in trees]
        for _ in range(60):
            i, j, k = rng.integers(0, len(trees), size=3)
            a, b, c = (int(rng.integers(0, trees[n].n_leaves)) for n in (i, j, k))
            assert costs[i][j][a, b] <= costs[i][k][a, c] + costs[k][j][c, b] + 1e-12


class TestCostMatrix:
    def test_split_timing_pair_matrix(self):
        early, late = split_timing_pair(0.1)
        C = cost_matrix(early, late, 1.0)
        assert C == pytest.approx(np.array([[0.1, 2.1], [2.0, 0.0]]), abs=1e-12)

    def test_identical_trees_zero_diagonal(self):
        tree, _ = height3_pair()
        C = cost_matrix(tree, tree, 1.0)
        assert np.all(np.diag(C) == 0.0)
        assert np.all(C[~np.eye(C.shape[0], dtype=bool)] > 0.0)

    def test_height3_pair_dimensions_and_entry(self):
        tree_a, tree_b = height3_pair()
        C = cost_matrix(tree_a, tree_b, 1.0)
        assert C.shape == (tree_a.n_leaves, tree_b.n_leaves) == (4, 9)
        assert C[0, 0] == pytest.approx(8.0, abs=1e-12)

    def test_entries_match_ground_cost(self):
        tree_a, tree_b = height3_pair()
        C = cost_matrix(tree_a, tree_b, 1.5)
        sa, sb = leaf_walk(tree_a)[1], leaf_walk(tree_b)[1]
        for i in range(len(sa)):
            for j in range(len(sb)):
                assert C[i, j] == pytest.approx(direct_l1_cost(sa[i], sb[j], 1.5), rel=1e-14)

    def test_transpose_symmetry(self):
        tree_a, tree_b = height3_pair()
        assert np.array_equal(cost_matrix(tree_a, tree_b, 1.0),
                              cost_matrix(tree_b, tree_a, 1.0).T)

    def test_height_mismatch(self):
        with pytest.raises(ValueError, match="height"):
            cost_matrix(path_tree([0.0, 1.0]), path_tree([0.0, 1.0, 2.0]), 1.0)

    @pytest.mark.parametrize("magnitude, r", [(1e200, 2.0), (1e300, 1.5)])
    def test_overflowing_costs_rejected(self, magnitude, r):
        # the suite turns a RuntimeWarning into an error, so none may leak
        tree_a, tree_b = overflow_pair(magnitude)
        with pytest.raises(ValueError, match=rf"overflow the float range at order r={r}"):
            cost_matrix(tree_a, tree_b, r)
        assert cost_matrix(tree_a, tree_b, 1.0) == pytest.approx(np.full((2, 1), magnitude))
        # the difference of two states overflows too
        wide, _ = overflow_pair(1e308)
        with pytest.raises(ValueError, match="overflow the float range at order r=1.0"):
            cost_matrix(wide, wide, 1.0)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_stagewise_sum_matches_the_broadcast_sum(self, r):
        # a height-6 pair of uneven trees, [1,4,1,3,2,1,3] seed 0 against
        # [1,2,3,1,2,3,2] seed 1, summed over all stages at once for reference
        tree_a = generate_random_tree((1, 4, 1, 3, 2, 1, 3), 0)
        tree_b = generate_random_tree((1, 2, 3, 1, 2, 3, 2), 1)
        sa, sb = tree_a.leaf_states, tree_b.leaf_states
        broadcast = np.abs(sa[:, None, :] - sb[None, :, :]).sum(axis=2) ** r
        assert np.array_equal(cost_matrix(tree_a, tree_b, r), broadcast)

    def test_peak_memory_is_a_few_results(self):
        # 1600 x 1600 leaf pairs over three stages
        tree_a, tree_b = generate_random_tree((1, 40, 40), 1), generate_random_tree((1, 40, 40), 2)
        tree_a.leaf_states, tree_b.leaf_states  # built before the measurement
        tracemalloc.start()
        try:
            cost = cost_matrix(tree_a, tree_b, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * cost.nbytes


class TestGenerateRandomTree:
    def test_leaf_counts(self):
        assert generate_random_tree([1, 2, 3, 2, 3, 4], 0).n_leaves == 144
        assert generate_random_tree([1, 2, 2, 1, 3, 2], 0).n_leaves == 24

    def test_deterministic(self):
        a = generate_random_tree([1, 3, 2], 123)
        b = generate_random_tree([1, 3, 2], 123)
        assert a == b
        c = generate_random_tree([1, 3, 2], 124)
        assert a != c

    def test_root_state_zero_and_unit_root_prob(self):
        tree = generate_random_tree([1, 2], 9)
        (root,) = [node for node in tree.nodes if node.parent is None]
        assert root.state == 0.0
        assert root.cond_prob == 1.0

    def test_sibling_sums_exact(self):
        tree = generate_random_tree([1, 3, 3], 77)
        nodes = node_map(tree)
        for node in tree.nodes:
            kids = child_ids(tree, node.id)
            if kids:
                assert math.fsum(nodes[c].cond_prob for c in kids) == pytest.approx(
                    1.0, abs=1e-15
                )

    def test_round_trip(self):
        tree = generate_random_tree([1, 2, 3], 5)
        assert parse_tree(serialize_tree(tree)) == tree

    def test_empty_branching_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            generate_random_tree([], 0)

    def test_root_level_must_be_one(self):
        with pytest.raises(ValueError, match=r"branching\[0\]"):
            generate_random_tree([2, 2], 0)

    @pytest.mark.parametrize("branching", [[1, 0], [1, 2.5], [1, True], [True, 2],
                                           [1, True, 2], [1, np.True_], [np.True_, 2]])
    def test_branching_factors_must_be_positive_integers(self, branching):
        with pytest.raises(ValueError, match="positive integers"):
            generate_random_tree(branching, 0)
