"""Shared builders for the canonical tree pairs used across the tests."""

from __future__ import annotations

import json

import numpy as np

from nested_sinkhorn import ScenarioTree, generate_random_tree, parse_tree


def tree_from_nodes(nodes: list[dict]) -> ScenarioTree:
    """Build a tree through the parser so tests exercise the file format."""
    return parse_tree(json.dumps({"nodes": nodes}))


def early_split_tree(eps: float = 0.1) -> ScenarioTree:
    """Height-2 tree that branches at stage 1 and is deterministic afterwards."""
    return tree_from_nodes([
        {"id": 0, "parent": None, "state": 2.0, "prob": 1.0},
        {"id": 1, "parent": 0, "state": 2.0 + eps, "prob": 0.5},
        {"id": 2, "parent": 0, "state": 2.0, "prob": 0.5},
        {"id": 3, "parent": 1, "state": 3.0, "prob": 1.0},
        {"id": 4, "parent": 2, "state": 1.0, "prob": 1.0},
    ])


def late_split_tree() -> ScenarioTree:
    """Height-2 tree with the same leaf law as ``early_split_tree`` but all
    randomness revealed at the last stage."""
    return tree_from_nodes([
        {"id": 0, "parent": None, "state": 2.0, "prob": 1.0},
        {"id": 1, "parent": 0, "state": 2.0, "prob": 1.0},
        {"id": 2, "parent": 1, "state": 3.0, "prob": 0.5},
        {"id": 3, "parent": 1, "state": 1.0, "prob": 0.5},
    ])


def split_timing_pair(eps: float = 0.1) -> tuple[ScenarioTree, ScenarioTree]:
    """Two processes with identical trajectory laws but different information
    flow; the flat distance is tiny while the nested one is not."""
    return early_split_tree(eps), late_split_tree()


def height3_pair() -> tuple[ScenarioTree, ScenarioTree]:
    """A hand-picked height-3 pair: a 4-leaf binary tree against a 9-leaf
    tree whose widest node has three children."""
    tree_a = tree_from_nodes([
        {"id": 0, "parent": None, "state": 10.0, "prob": 1.0},
        {"id": 1, "parent": 0, "state": 10.0, "prob": 1.0},
        {"id": 2, "parent": 1, "state": 8.0, "prob": 0.66},
        {"id": 3, "parent": 1, "state": 12.0, "prob": 0.34},
        {"id": 4, "parent": 2, "state": 6.0, "prob": 0.76},
        {"id": 5, "parent": 2, "state": 9.0, "prob": 0.24},
        {"id": 6, "parent": 3, "state": 10.0, "prob": 0.46},
        {"id": 7, "parent": 3, "state": 13.0, "prob": 0.54},
    ])
    tree_b = tree_from_nodes([
        {"id": 0, "parent": None, "state": 10.0, "prob": 1.0},
        {"id": 1, "parent": 0, "state": 7.0, "prob": 0.7},
        {"id": 2, "parent": 0, "state": 13.0, "prob": 0.3},
        {"id": 3, "parent": 1, "state": 5.0, "prob": 0.9},
        {"id": 4, "parent": 1, "state": 8.0, "prob": 0.1},
        {"id": 5, "parent": 2, "state": 11.0, "prob": 0.8},
        {"id": 6, "parent": 2, "state": 14.0, "prob": 0.2},
        {"id": 7, "parent": 3, "state": 4.0, "prob": 0.7},
        {"id": 8, "parent": 3, "state": 6.0, "prob": 0.3},
        {"id": 9, "parent": 4, "state": 7.0, "prob": 0.6},
        {"id": 10, "parent": 4, "state": 9.0, "prob": 0.4},
        {"id": 11, "parent": 5, "state": 10.0, "prob": 0.4},
        {"id": 12, "parent": 5, "state": 12.0, "prob": 0.6},
        {"id": 13, "parent": 6, "state": 13.0, "prob": 0.4},
        {"id": 14, "parent": 6, "state": 14.0, "prob": 0.1},
        {"id": 15, "parent": 6, "state": 15.0, "prob": 0.5},
    ])
    return tree_a, tree_b


def underflow_tree() -> ScenarioTree:
    """Height-2 tree whose two stage-1 nodes both branch to states 0 and 10
    with probability one half.  Against itself at lambda 100 the stage-1
    plans put mass of about exp(-1000) off the diagonal, which underflows
    to exactly 0."""
    nodes = [{"id": 0, "parent": None, "state": 0.0, "prob": 1.0}]
    for mid in (1, 2):
        nodes.append({"id": mid, "parent": 0, "state": 0.0, "prob": 0.5})
    for leaf, (mid, state) in enumerate([(1, 0.0), (1, 10.0), (2, 0.0), (2, 10.0)], start=3):
        nodes.append({"id": leaf, "parent": mid, "state": state, "prob": 0.5})
    return tree_from_nodes(nodes)


def interleaved(tree: ScenarioTree) -> ScenarioTree:
    """The same tree with its nodes listed by rank among their siblings, and
    within a rank in reverse order: first children of every parent, then
    second children, and so on, so that no sibling group and no stage is
    contiguous."""
    rank = {c: k for node in tree.nodes for k, c in enumerate(tree.children(node.id))}
    order = sorted(range(len(tree.nodes)), key=lambda k: (rank.get(tree.nodes[k].id, 0), -k))
    return ScenarioTree(tuple(tree.nodes[k] for k in order))


def path_tree(states: list[float]) -> ScenarioTree:
    """Single-branch tree (one trajectory of probability one)."""
    nodes = [{"id": 0, "parent": None, "state": states[0], "prob": 1.0}]
    for k, state in enumerate(states[1:], start=1):
        nodes.append({"id": k, "parent": k - 1, "state": state, "prob": 1.0})
    return tree_from_nodes(nodes)


def random_tree_pair(seed: int, max_height: int = 3,
                     max_branch: int = 3) -> tuple[ScenarioTree, ScenarioTree]:
    """Seeded pair of equal-height random trees with mixed branching."""
    rng = np.random.default_rng(seed)
    height = int(rng.integers(1, max_height + 1))
    branching_a = [1] + [int(rng.integers(1, max_branch + 1)) for _ in range(height)]
    branching_b = [1] + [int(rng.integers(1, max_branch + 1)) for _ in range(height)]
    return (
        generate_random_tree(branching_a, 2 * seed + 1),
        generate_random_tree(branching_b, 2 * seed + 2),
    )


def uneven_tree(seed: int, height: int = 3) -> ScenarioTree:
    """Seeded random tree in which every node has one to three children, so
    one stage mixes subproblem shapes and single-child nodes."""
    rng = np.random.default_rng(seed)
    nodes = [{"id": 0, "parent": None, "state": 0.0, "prob": 1.0}]
    level = [0]
    for _ in range(height):
        below = []
        for parent in level:
            for prob in rng.dirichlet(np.ones(int(rng.integers(1, 4)))):
                below.append(len(nodes))
                nodes.append({"id": len(nodes), "parent": parent,
                              "state": float(rng.normal(0.0, 2.0)), "prob": float(prob)})
        level = below
    return tree_from_nodes(nodes)
