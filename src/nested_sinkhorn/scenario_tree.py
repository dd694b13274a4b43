"""Scenario trees for finite-horizon stochastic processes.

A tree node carries a real-valued process state and the conditional
probability of reaching it from its parent; the depth of a node is its time
stage.  All leaves sit at the same stage T, so every root-to-leaf path is a
complete realization of the process and the tree structure itself encodes
the filtration.  Trees are immutable after construction and every function
in this module is pure, so concurrent reads are safe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "Node",
    "ScenarioTree",
    "StageIndex",
    "Trajectory",
    "TreeFormatError",
    "cost_matrix",
    "generate_random_tree",
    "ground_cost",
    "parse_tree",
    "serialize_tree",
    "trajectories",
]

_CHILD_SUM_ATOL = 1e-12  # construction-time tolerance on sibling probability sums
_PARSE_SUM_ATOL = 1e-9   # parse-time tolerance before renormalization


class TreeFormatError(ValueError):
    """Malformed or inconsistent scenario-tree input."""


@dataclass(frozen=True)
class Node:
    """One tree node; ``parent`` is None exactly for the root."""

    id: int
    parent: Optional[int]
    state: float
    cond_prob: float


@dataclass(frozen=True)
class Trajectory:
    """A root-to-leaf path: the visited states, the leaf id and the
    unconditional probability of the path (product of branch probabilities)."""

    states: tuple[float, ...]
    leaf_id: int
    prob: float


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class StageIndex:
    """Read-only index arrays over the stages of a tree, with node ``k`` of
    stage ``t`` being ``tree.stage(t)[k]``: ``position[t]`` maps a stage-t
    node id to its index ``k``; ``parent[t][k]`` is the node's parent's index
    in stage t-1 (empty for the root stage); ``ancestor[t][l]`` is the index
    of leaf ``l``'s stage-t ancestor; ``cond_prob[t][k]`` is the node's branch
    probability; ``children[t]`` maps a child count ``m`` to the indices of
    the stage-t nodes with ``m`` children and their ``[count, m]`` stack of
    child indices, in child order.
    """

    position: tuple[Mapping[int, int], ...]
    parent: tuple[np.ndarray, ...]
    ancestor: tuple[np.ndarray, ...]
    cond_prob: tuple[np.ndarray, ...]
    children: tuple[Mapping[int, tuple[np.ndarray, np.ndarray]], ...]


@dataclass(frozen=True)
class ScenarioTree:
    """Rooted tree with per-node states and conditional branch probabilities.

    Construction validates every structural invariant: a single root carrying
    probability one, strictly positive branch probabilities summing to one
    over each sibling group, unique ids, acyclic parent links and a common
    depth for all leaves.  Node order in ``nodes`` is preserved; children and
    leaves are always enumerated in that order.
    """

    nodes: tuple[Node, ...]

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if not nodes:
            raise TreeFormatError("tree has no nodes")
        by_id: dict[int, Node] = {}
        for node in nodes:
            if node.id in by_id:
                raise TreeFormatError(f"duplicate node id {node.id}")
            by_id[node.id] = node
        roots = [n for n in nodes if n.parent is None]
        if len(roots) != 1:
            raise TreeFormatError(f"tree must have exactly one root, found {len(roots)}")
        root = roots[0]
        if abs(root.cond_prob - 1.0) > _CHILD_SUM_ATOL:
            raise TreeFormatError(f"root probability must be 1, got {root.cond_prob!r}")
        children: dict[int, list[int]] = {n.id: [] for n in nodes}
        for node in nodes:
            if node.parent is None:
                continue
            if node.parent not in by_id:
                raise TreeFormatError(f"node {node.id} references unknown parent {node.parent}")
            if node.cond_prob <= 0.0:
                raise TreeFormatError(f"node {node.id} has nonpositive probability {node.cond_prob!r}")
            children[node.parent].append(node.id)
        depth: dict[int, int] = {root.id: 0}
        frontier = [root.id]
        while frontier:
            nxt: list[int] = []
            for nid in frontier:
                for cid in children[nid]:
                    depth[cid] = depth[nid] + 1
                    nxt.append(cid)
            frontier = nxt
        if len(depth) != len(nodes):
            raise TreeFormatError("parent links contain a cycle")
        for nid, kids in children.items():
            if not kids:
                continue
            total = math.fsum(by_id[c].cond_prob for c in kids)
            if abs(total - 1.0) > _CHILD_SUM_ATOL:
                raise TreeFormatError(
                    f"children probabilities sum to {total:.10g} under node {nid}"
                )
        leaf_ids = tuple(n.id for n in nodes if not children[n.id])
        depths = {depth[leaf] for leaf in leaf_ids}
        if len(depths) != 1:
            raise TreeFormatError(f"leaves must share one depth, found depths {sorted(depths)}")
        height = depths.pop()
        stages: list[list[int]] = [[] for _ in range(height + 1)]
        for node in nodes:
            stages[depth[node.id]].append(node.id)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_children", {k: tuple(v) for k, v in children.items()})
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "_stages", tuple(tuple(s) for s in stages))
        object.__setattr__(self, "root_id", root.id)
        object.__setattr__(self, "leaf_ids", leaf_ids)

    # -- lookups -----------------------------------------------------------

    def node(self, node_id: int) -> Node:
        return self._by_id[node_id]

    def children(self, node_id: int) -> tuple[int, ...]:
        return self._children[node_id]

    def stage(self, t: int) -> tuple[int, ...]:
        """Ids of all nodes at stage ``t``, in node order."""
        return self._stages[t]

    def leaf_paths(self) -> list[tuple[int, ...]]:
        """Node-id paths from the root to every leaf, one per leaf in leaf order."""
        out = []
        for leaf in self.leaf_ids:
            path = []
            nid: Optional[int] = leaf
            while nid is not None:
                path.append(nid)
                nid = self._by_id[nid].parent
            out.append(tuple(reversed(path)))
        return out

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_ids)

    @cached_property
    def leaf_probabilities(self) -> np.ndarray:
        """Trajectory probabilities in leaf order; computed once, read-only."""
        return _read_only(np.array([t.prob for t in trajectories(self)]))

    @cached_property
    def leaf_states(self) -> np.ndarray:
        """Trajectory states in leaf order, one row per leaf; computed once, read-only."""
        return _read_only(np.array([t.states for t in trajectories(self)]))

    @cached_property
    def stage_index(self) -> StageIndex:
        """The tree's :class:`StageIndex`, computed once.  The leaves are
        exactly the last stage's nodes, in the same order."""
        position = [{nid: k for k, nid in enumerate(stage)} for stage in self._stages]
        parent = [np.zeros(0, dtype=int)] + [
            np.array([position[t][self._by_id[nid].parent] for nid in stage], dtype=int)
            for t, stage in enumerate(self._stages[1:])
        ]
        ancestor = [np.arange(self.n_leaves)]
        for t in range(self.height, 0, -1):
            ancestor.insert(0, parent[t][ancestor[0]])
        cond_prob = [np.array([self._by_id[nid].cond_prob for nid in stage])
                     for stage in self._stages]
        children = []
        for below in parent[1:]:
            counts = np.bincount(below)
            # children grouped by parent, each group in child order
            order = np.argsort(below, kind="stable")
            first = np.cumsum(counts) - counts
            children.append(MappingProxyType({
                int(m): (nodes, _read_only(order[first[nodes][:, None] + np.arange(m)]))
                for m in np.unique(counts) for nodes in [_read_only(np.flatnonzero(counts == m))]
            }))
        arrays = (tuple(map(_read_only, part)) for part in (parent, ancestor, cond_prob))
        return StageIndex(tuple(map(MappingProxyType, position)), *arrays, tuple(children))


def parse_tree(text: str) -> ScenarioTree:
    """Parse the JSON tree interchange format into a validated tree.

    The format is ``{"nodes": [{"id": int, "parent": int|null, "state": num,
    "prob": num}, ...]}`` with exactly one root (``parent: null``) of
    probability one.  Sibling probabilities within 1e-9 of a unit sum are
    renormalized to sum to one exactly; larger deviations are rejected, as
    are nonpositive probabilities.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TreeFormatError(f"malformed tree file: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list) or not doc["nodes"]:
        raise TreeFormatError('tree file must be an object with a non-empty "nodes" list')
    raw: list[tuple[int, Optional[int], float, float]] = []
    for entry in doc["nodes"]:
        if not isinstance(entry, dict):
            raise TreeFormatError(f"node entries must be objects, got {entry!r}")
        try:
            nid, parent, state, prob = entry["id"], entry["parent"], entry["state"], entry["prob"]
        except KeyError as exc:
            raise TreeFormatError(f"node entry missing key {exc}") from exc
        if not isinstance(nid, int) or isinstance(nid, bool):
            raise TreeFormatError(f"node id must be an integer, got {nid!r}")
        if parent is not None and (not isinstance(parent, int) or isinstance(parent, bool)):
            raise TreeFormatError(f"parent of node {nid} must be an integer or null")
        if not isinstance(state, (int, float)) or isinstance(state, bool):
            raise TreeFormatError(f"state of node {nid} must be a number")
        if not isinstance(prob, (int, float)) or isinstance(prob, bool):
            raise TreeFormatError(f"prob of node {nid} must be a number")
        raw.append((nid, parent, float(state), float(prob)))
    # duplicate ids and unknown parents are rejected by ScenarioTree itself
    roots = [item for item in raw if item[1] is None]
    if len(roots) != 1:
        raise TreeFormatError(f"tree must have exactly one root, found {len(roots)}")
    if abs(roots[0][3] - 1.0) > _PARSE_SUM_ATOL:
        raise TreeFormatError(f"root probability must be 1, got {roots[0][3]!r}")
    for nid, _, _, prob in raw:
        if prob <= 0.0:
            raise TreeFormatError(f"node {nid} has nonpositive probability {prob!r}")
    probs = [1.0 if item[1] is None else item[3] for item in raw]
    groups: dict[int, list[int]] = {}
    for idx, (nid, parent, _, _) in enumerate(raw):
        if parent is not None:
            groups.setdefault(parent, []).append(idx)
    for parent, members in groups.items():
        total = math.fsum(probs[k] for k in members)
        if abs(total - 1.0) > _PARSE_SUM_ATOL:
            raise TreeFormatError(
                f"children probabilities sum to {total:.10g} under node {parent}"
            )
        renorm = [probs[k] / total for k in members]
        # push the rounding residue onto the largest entry so the sum is a unit
        top = max(range(len(renorm)), key=renorm.__getitem__)
        renorm[top] += 1.0 - math.fsum(renorm)
        for k, val in zip(members, renorm):
            probs[k] = val
    nodes = tuple(
        Node(nid, parent, state, probs[k]) for k, (nid, parent, state, _) in enumerate(raw)
    )
    return ScenarioTree(nodes)


def serialize_tree(tree: ScenarioTree) -> str:
    """Serialize a tree back to the JSON interchange format (round-trip safe)."""
    payload = {
        "nodes": [
            {"id": n.id, "parent": n.parent, "state": n.state, "prob": n.cond_prob}
            for n in tree.nodes
        ]
    }
    return json.dumps(payload, indent=2)


def trajectories(tree: ScenarioTree) -> list[Trajectory]:
    """All root-to-leaf trajectories, in leaf order.

    The probability of a trajectory is the product of the branch
    probabilities along its path; over all leaves these sum to one.
    """
    out = []
    for leaf in tree.leaf_ids:
        states: list[float] = []
        prob = 1.0
        nid: Optional[int] = leaf
        while nid is not None:
            node = tree.node(nid)
            states.append(node.state)
            prob *= node.cond_prob
            nid = node.parent
        out.append(Trajectory(tuple(reversed(states)), leaf, prob))
    return out


def ground_cost(a: Trajectory, b: Trajectory, r: float = 1.0) -> float:
    """l1 distance between two equal-length trajectories, raised to power ``r``."""
    if r < 1.0:
        raise ValueError(f"order r must be >= 1, got {r}")
    if len(a.states) != len(b.states):
        raise ValueError(
            f"trajectories have different lengths: {len(a.states)} vs {len(b.states)}"
        )
    base = float(np.abs(np.asarray(a.states) - np.asarray(b.states)).sum())
    return base**r


def cost_matrix(tree_a: ScenarioTree, tree_b: ScenarioTree, r: float = 1.0) -> np.ndarray:
    """Dense matrix of pairwise trajectory costs ``ground_cost(a_i, b_j, r)``.

    Rows follow ``tree_a``'s leaf order, columns ``tree_b``'s.  Trees of
    different heights are rejected here and nowhere else.
    """
    if tree_a.height != tree_b.height:
        raise ValueError(
            f"trees have different heights: {tree_a.height} vs {tree_b.height}"
        )
    if r < 1.0:
        raise ValueError(f"order r must be >= 1, got {r}")
    sa = tree_a.leaf_states
    sb = tree_b.leaf_states
    base = np.abs(sa[:, None, :] - sb[None, :, :]).sum(axis=2)
    return base**r


def generate_random_tree(branching: Sequence[int], seed: int) -> ScenarioTree:
    """Generate a random tree with the given per-stage branching factors.

    ``branching[0]`` must be 1 (the root level); ``branching[t]`` is the
    number of children of every stage ``t-1`` node.  States perform a
    standard-normal random walk from the root state 0; each sibling group's
    probabilities are normalized exponentials of uniform draws.  The result
    is a deterministic function of ``seed``.
    """
    if len(branching) == 0:
        raise ValueError("branching list must not be empty")
    if any((not isinstance(b, (int, np.integer))) or b < 1 for b in branching):
        raise ValueError(f"branching factors must be positive integers, got {list(branching)!r}")
    if branching[0] != 1:
        raise ValueError(f"branching[0] must be 1 (single root), got {branching[0]}")
    rng = np.random.default_rng(seed)
    nodes = [Node(0, None, 0.0, 1.0)]
    level = [0]
    next_id = 1
    for width in branching[1:]:
        new_level: list[int] = []
        for parent in level:
            parent_state = nodes[parent].state
            weights = np.exp(rng.random(width))
            probs = weights / weights.sum()
            probs[int(np.argmax(probs))] += 1.0 - probs.sum()
            steps = rng.standard_normal(width)
            for k in range(width):
                nodes.append(
                    Node(next_id, parent, float(parent_state + steps[k]), float(probs[k]))
                )
                new_level.append(next_id)
                next_id += 1
        level = new_level
    return ScenarioTree(tuple(nodes))
