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
    "TreeFormatError",
    "cost_matrix",
    "generate_random_tree",
    "parse_tree",
    "serialize_tree",
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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class StageIndex:
    """Read-only index arrays over the stages of a tree, with node ``k`` of
    stage ``t`` being ``tree.stage(t)[k]``: ``position[t]`` maps a stage-t
    node id to its index ``k``, in node order; ``parent[t][k]`` is the node's
    parent's index in stage t-1 (empty for the root stage); ``ancestor[t][l]``
    is the index of leaf ``l``'s stage-t ancestor; ``cond_prob[t][k]`` is the
    node's branch probability and ``state[t][k]`` its state; ``children[t]``
    maps a child count ``m`` to the indices of the stage-t nodes with ``m``
    children and their ``[count, m]`` stack of child indices, in child order.
    A tree builds its index once, at construction, and checks its sibling
    sums and leaf depths on these arrays.  Its leaf arrays are read off
    ``ancestor``: a leaf's states are ``state[t][ancestor[t][l]]`` over t.
    """

    position: tuple[Mapping[int, int], ...]
    parent: tuple[np.ndarray, ...]
    ancestor: tuple[np.ndarray, ...]
    cond_prob: tuple[np.ndarray, ...]
    state: tuple[np.ndarray, ...]
    children: tuple[Mapping[int, tuple[np.ndarray, np.ndarray]], ...]


@dataclass(frozen=True)
class ScenarioTree:
    """Rooted tree with per-node states and conditional branch probabilities.

    Construction builds the tree's :class:`StageIndex` once, as the plain
    attribute ``stage_index``, and validates every invariant, the sibling
    sums and leaf depths on the index arrays: finite states, a single root
    carrying probability one, strictly positive branch probabilities summing
    to one over each sibling group, unique ids, acyclic parent links and a
    common depth for all leaves; a NaN fails every probability check.  Node
    order in ``nodes`` is preserved; children and leaves follow it.
    """

    nodes: tuple[Node, ...]

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if not nodes:
            raise TreeFormatError("tree has no nodes")
        row: dict[int, int] = {}
        for k, node in enumerate(nodes):
            if node.id in row:
                raise TreeFormatError(f"duplicate node id {node.id}")
            if not math.isfinite(node.state):
                raise TreeFormatError(f"node {node.id} has non-finite state {node.state!r}")
            row[node.id] = k
        roots = [k for k, node in enumerate(nodes) if node.parent is None]
        if len(roots) != 1:
            raise TreeFormatError(f"tree must have exactly one root, found {len(roots)}")
        root = nodes[roots[0]]
        if not abs(root.cond_prob - 1.0) <= _CHILD_SUM_ATOL:
            raise TreeFormatError(f"root probability must be 1, got {root.cond_prob!r}")
        up = []  # each node's parent row; the root is its own
        for k, node in enumerate(nodes):
            if node.parent is None:
                up.append(k)
                continue
            if node.parent not in row:
                raise TreeFormatError(f"node {node.id} references unknown parent {node.parent}")
            if not node.cond_prob > 0.0:
                raise TreeFormatError(f"node {node.id} has nonpositive probability {node.cond_prob!r}")
            up.append(row[node.parent])
        index = _stage_index(nodes, np.array(up), roots[0])
        height = len(index.position) - 1
        for t, groups in enumerate(index.children):
            for above, kids in groups.values():
                for k, probs in zip(above.tolist(), index.cond_prob[t + 1][kids].tolist()):
                    total = math.fsum(probs)
                    if probs and not abs(total - 1.0) <= _CHILD_SUM_ATOL:  # a leaf has none
                        raise TreeFormatError(f"children probabilities sum to {total:.10g} "
                                              f"under node {list(index.position[t])[k]}")
        short = [t for t, groups in enumerate(index.children) if 0 in groups]
        if short:
            raise TreeFormatError(f"leaves must share one depth, found depths {short + [height]}")
        object.__setattr__(self, "stage_index", index)
        object.__setattr__(self, "height", height)

    def stage(self, t: int) -> tuple[int, ...]:
        """Ids of all nodes at stage ``t``, in node order."""
        return tuple(self.stage_index.position[t])

    @property
    def n_leaves(self) -> int:
        return len(self.stage_index.position[self.height])

    @cached_property
    def leaf_probabilities(self) -> np.ndarray:
        """Unconditional leaf probabilities in leaf order, each the product of
        the branch probabilities on its path taken from the leaf up; computed
        once, read-only."""
        index = self.stage_index
        prob = index.cond_prob[self.height][index.ancestor[self.height]]
        for t in range(self.height - 1, -1, -1):
            prob *= index.cond_prob[t][index.ancestor[t]]
        return _read_only(prob)

    @cached_property
    def leaf_states(self) -> np.ndarray:
        """The states along each root-to-leaf path, one row per leaf in leaf
        order; computed once, read-only."""
        index = self.stage_index
        return _read_only(np.stack([state[ancestor] for state, ancestor
                                    in zip(index.state, index.ancestor)], axis=1))


def _stage_index(nodes: tuple[Node, ...], up: np.ndarray, root: int) -> StageIndex:
    """The :class:`StageIndex` of ``nodes``, whose parent rows are ``up``;
    depths come from doubling ancestor steps.  Childless stage-t nodes with
    t below the height form the group ``children[t][0]``."""
    above, depth = up, (up != np.arange(len(nodes))).astype(int)  # depth: steps up to above
    for _ in range(len(nodes).bit_length()):
        depth, above = depth + depth[above], above[above]
    if not np.all(above == root):
        raise TreeFormatError("parent links contain a cycle")
    order = np.argsort(depth, kind="stable")  # rows by stage, in node order within one
    rows = np.split(order, np.cumsum(np.bincount(depth))[:-1])
    pos = np.empty(len(nodes), dtype=int)  # each node's index in its stage
    for stage in rows:
        pos[stage] = np.arange(len(stage))
    parent = [np.zeros(0, dtype=int)] + [pos[up[stage]] for stage in rows[1:]]
    ancestor = [np.arange(len(rows[-1]))]
    for t in range(len(rows) - 1, 0, -1):
        ancestor.insert(0, parent[t][ancestor[0]])
    cond_prob = np.array([node.cond_prob for node in nodes], dtype=float)
    state = np.array([node.state for node in nodes], dtype=float)
    children = []
    for t, below in enumerate(parent[1:]):
        counts = np.bincount(below, minlength=len(rows[t]))
        # children grouped by parent, each group in child order
        by_parent = np.argsort(below, kind="stable")
        start = np.cumsum(counts) - counts
        children.append(MappingProxyType({
            m: (group, _read_only(by_parent[start[group][:, None] + np.arange(m)]))
            for m in sorted(set(counts.tolist()))
            for group in [_read_only(np.flatnonzero(counts == m))]
        }))
    arrays = (tuple(map(_read_only, part)) for part in (
        parent, ancestor, [cond_prob[stage] for stage in rows], [state[stage] for stage in rows]))
    position = tuple(MappingProxyType({nodes[k].id: j for j, k in enumerate(stage.tolist())})
                     for stage in rows)
    return StageIndex(position, *arrays, tuple(children))


def _as_float(value, key: str, nid: int) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TreeFormatError(f"{key} of node {nid} must be a number")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise TreeFormatError(f"{key} of node {nid} is beyond the float range") from None


def parse_tree(text: str) -> ScenarioTree:
    """Parse the JSON tree interchange format into a validated tree.

    The format is ``{"nodes": [{"id": int, "parent": int|null, "state": num,
    "prob": num}, ...]}`` with exactly one root (``parent: null``) of
    probability one.  Root probabilities and sibling sums within 1e-9 of one
    are set or renormalized to one exactly; larger deviations are rejected.
    Probabilities must be finite numbers; every other invariant is checked by
    :class:`ScenarioTree`.
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
        state, prob = _as_float(state, "state", nid), _as_float(prob, "prob", nid)
        if not math.isfinite(prob):
            raise TreeFormatError(f"prob of node {nid} must be a finite number")
        raw.append((nid, parent, state, prob))
    for _, parent, _, prob in raw:
        if parent is None and not abs(prob - 1.0) <= _PARSE_SUM_ATOL:
            raise TreeFormatError(f"root probability must be 1, got {prob!r}")
    probs = [1.0 if item[1] is None else item[3] for item in raw]
    ids = {item[0] for item in raw}
    groups: dict[int, list[int]] = {}
    for idx, (_, parent, _, _) in enumerate(raw):
        if parent in ids:  # neither the root nor a node whose parent ScenarioTree rejects
            groups.setdefault(parent, []).append(idx)
    for parent, members in groups.items():
        total = math.fsum(probs[k] for k in members)
        if not abs(total - 1.0) <= _PARSE_SUM_ATOL:
            raise TreeFormatError(f"children probabilities sum to {total:.10g} under node {parent}")
        renorm = [probs[k] / total for k in members]
        # push the rounding residue onto the largest entry so the sum is a unit
        top = max(range(len(renorm)), key=renorm.__getitem__)
        renorm[top] += 1.0 - math.fsum(renorm)
        for k, val in zip(members, renorm):
            probs[k] = val
    return ScenarioTree(tuple(Node(nid, parent, state, probs[k])
                              for k, (nid, parent, state, _) in enumerate(raw)))


def serialize_tree(tree: ScenarioTree) -> str:
    """Serialize a tree back to the JSON interchange format (round-trip safe)."""
    nodes = [{"id": n.id, "parent": n.parent, "state": n.state, "prob": n.cond_prob}
             for n in tree.nodes]
    return json.dumps({"nodes": nodes}, indent=2)


def cost_matrix(tree_a: ScenarioTree, tree_b: ScenarioTree, r: float = 1.0) -> np.ndarray:
    """Dense matrix of leaf-pair costs: entry ``(i, j)`` is the l1 distance
    between the state paths of leaf ``i`` of ``tree_a`` and leaf ``j`` of
    ``tree_b`` (rows of :attr:`ScenarioTree.leaf_states`), raised to the
    power ``r``.

    Rows follow ``tree_a``'s leaf order, columns ``tree_b``'s.  Trees of
    different heights are rejected here and nowhere else, and so are orders
    below one or not finite, and costs that overflow the float range.  The
    distances are summed one stage at a time, so the work arrays are two of
    the result's size.
    """
    if tree_a.height != tree_b.height:
        raise ValueError(f"trees have different heights: {tree_a.height} vs {tree_b.height}")
    if not 1.0 <= r < math.inf:  # written so that NaN fails it
        raise ValueError(f"order r must be >= 1 and finite, got {r}")
    sa, sb = tree_a.leaf_states, tree_b.leaf_states
    cost = np.zeros((len(sa), len(sb)))
    gap = np.empty_like(cost)
    with np.errstate(over="ignore"):
        for t in range(tree_a.height + 1):
            np.subtract(sa[:, t, None], sb[None, :, t], out=gap)
            cost += np.abs(gap, out=gap)
        cost **= r
    if not np.all(np.isfinite(cost)):
        raise ValueError(f"trajectory costs overflow the float range at order r={r}")
    return cost


def generate_random_tree(branching: Sequence[int], seed: int) -> ScenarioTree:
    """Generate a random tree with the given per-stage branching factors.

    ``branching[0]`` must be 1 (the root level); ``branching[t]`` is the
    number of children of every stage ``t-1`` node.  Every factor must be a
    positive integer, and a bool is not one.  States perform a
    standard-normal random walk from the root state 0; each sibling group's
    probabilities are normalized exponentials of uniform draws.  The result
    is a deterministic function of ``seed``.
    """
    if len(branching) == 0:
        raise ValueError("branching list must not be empty")
    if any(isinstance(b, bool) or not isinstance(b, (int, np.integer)) or b < 1
           for b in branching):
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
