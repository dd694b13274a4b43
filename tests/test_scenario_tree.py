"""Tree parsing, validation, trajectories, costs, and random generation."""

import math

import numpy as np
import pytest

from conftest import (
    height3_pair,
    interleaved,
    late_split_tree,
    path_tree,
    split_timing_pair,
    tree_from_nodes,
)
from nested_sinkhorn import (
    TreeFormatError,
    cost_matrix,
    generate_random_tree,
    ground_cost,
    parse_tree,
    serialize_tree,
    trajectories,
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
        paths = trajectories(tree)
        assert len(paths) == 1
        assert paths[0].states == (1.5,)
        assert paths[0].prob == 1.0

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
        total = math.fsum(tree.node(c).cond_prob for c in tree.children(0))
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

    def test_nonpositive_probability(self):
        with pytest.raises(TreeFormatError, match="nonpositive probability"):
            tree_from_nodes([
                {"id": 0, "parent": None, "state": 0.0, "prob": 1.0},
                {"id": 1, "parent": 0, "state": 1.0, "prob": 0.0},
                {"id": 2, "parent": 0, "state": 2.0, "prob": 1.0},
            ])

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
        paths = trajectories(tree_a)
        states = [t.states for t in paths]
        probs = [t.prob for t in paths]
        assert states == [
            (10.0, 10.0, 8.0, 6.0),
            (10.0, 10.0, 8.0, 9.0),
            (10.0, 10.0, 12.0, 10.0),
            (10.0, 10.0, 12.0, 13.0),
        ]
        assert probs == pytest.approx([0.5016, 0.1584, 0.1564, 0.1836], abs=1e-12)
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_late_split_tree_paths(self):
        paths = trajectories(late_split_tree())
        assert [t.states for t in paths] == [(2.0, 2.0, 3.0), (2.0, 2.0, 1.0)]
        assert [t.prob for t in paths] == [0.5, 0.5]

    def test_probabilities_sum_to_one_on_random_trees(self):
        for seed in range(12):
            tree = generate_random_tree([1, 3, 2, 2], seed)
            total = math.fsum(t.prob for t in trajectories(tree))
            assert abs(total - 1.0) < 1e-12

    def test_leaf_probabilities_cached_and_read_only(self):
        tree = generate_random_tree([1, 3, 2, 2], 4)
        probs = tree.leaf_probabilities
        assert probs.tolist() == [t.prob for t in trajectories(tree)]
        assert tree.leaf_probabilities is probs
        with pytest.raises(ValueError):
            probs[0] = 0.5
        states = tree.leaf_states
        assert [tuple(row) for row in states.tolist()] == [t.states for t in trajectories(tree)]
        assert tree.leaf_states is states
        with pytest.raises(ValueError):
            states[0, 0] = 0.5


    def test_stage_index_follows_the_paths(self):
        tree = interleaved(height3_pair()[0])
        assert tree.stage(3) == (6, 4, 7, 5)
        index = tree.stage_index
        assert tree.stage_index is index
        for leaf, path in enumerate(tree.leaf_paths()):
            for t, nid in enumerate(path):
                assert tree.stage(t)[index.ancestor[t][leaf]] == nid
                assert index.position[t][nid] == index.ancestor[t][leaf]
                if t:
                    assert index.parent[t][index.position[t][nid]] == index.position[t - 1][path[t - 1]]
                assert index.cond_prob[t][index.position[t][nid]] == tree.node(nid).cond_prob
        for t in range(tree.height):
            for m, (nodes, kids) in index.children[t].items():
                assert kids.shape == (len(nodes), m)
                for k, row in zip(nodes, kids):
                    assert [tree.stage(t + 1)[c] for c in row] == list(tree.children(tree.stage(t)[k]))
        with pytest.raises(ValueError):
            index.ancestor[0][0] = 1


class TestGroundCost:
    def test_epsilon_shift(self):
        early, late = split_timing_pair(0.1)
        a = trajectories(late)[1]   # (2, 2, 1)
        b = trajectories(early)[0]  # (2, 2.1, 3)
        assert ground_cost(a, b, 1.0) == pytest.approx(2.1, abs=1e-12)

    def test_identity(self):
        tree, _ = height3_pair()
        for t in trajectories(tree):
            assert ground_cost(t, t, 1.0) == 0.0
            assert ground_cost(t, t, 2.0) == 0.0

    def test_squared_order_against_direct_sum(self):
        tree_a, tree_b = height3_pair()
        a = trajectories(tree_a)[0]  # (10, 10, 8, 6)
        b = trajectories(tree_b)[0]  # (10, 7, 5, 4)
        expected = direct_l1_cost(a.states, b.states, 2.0)
        assert expected == 64.0
        assert ground_cost(a, b, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        short = trajectories(path_tree([0.0, 1.0]))[0]
        long = trajectories(path_tree([0.0, 1.0, 2.0]))[0]
        with pytest.raises(ValueError, match="length"):
            ground_cost(short, long, 1.0)

    def test_order_below_one_rejected(self):
        t = trajectories(path_tree([0.0, 1.0]))[0]
        with pytest.raises(ValueError, match="order r"):
            ground_cost(t, t, 0.5)

    def test_triangle_inequality_for_order_one(self):
        rng = np.random.default_rng(42)
        trees = [generate_random_tree([1, 2, 2], seed) for seed in range(6)]
        paths = [trajectories(t) for t in trees]
        for _ in range(60):
            i, j, k = rng.integers(0, len(trees), size=3)
            a = paths[i][int(rng.integers(0, len(paths[i])))]
            b = paths[j][int(rng.integers(0, len(paths[j])))]
            c = paths[k][int(rng.integers(0, len(paths[k])))]
            assert ground_cost(a, b, 1.0) <= (
                ground_cost(a, c, 1.0) + ground_cost(c, b, 1.0) + 1e-12
            )


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
        ta, tb = trajectories(tree_a), trajectories(tree_b)
        for i in range(len(ta)):
            for j in range(len(tb)):
                assert C[i, j] == pytest.approx(ground_cost(ta[i], tb[j], 1.5), rel=1e-14)

    def test_transpose_symmetry(self):
        tree_a, tree_b = height3_pair()
        assert np.array_equal(cost_matrix(tree_a, tree_b, 1.0),
                              cost_matrix(tree_b, tree_a, 1.0).T)

    def test_height_mismatch(self):
        with pytest.raises(ValueError, match="height"):
            cost_matrix(path_tree([0.0, 1.0]), path_tree([0.0, 1.0, 2.0]), 1.0)


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
        root = tree.node(tree.root_id)
        assert root.state == 0.0
        assert root.cond_prob == 1.0

    def test_sibling_sums_exact(self):
        tree = generate_random_tree([1, 3, 3], 77)
        for node in tree.nodes:
            kids = tree.children(node.id)
            if kids:
                assert math.fsum(tree.node(c).cond_prob for c in kids) == pytest.approx(
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
