"""Independent reference values for the benchmark's correctness gate.

Nothing here calls the solvers under test.  Trees are read straight from
their JSON files with this module's own parser, the nested distance is
recomputed by a backward recursion that writes every node-pair subproblem
as a dense equality-form LP, and the flat distance is the dense LP over all
leaf pairs.  Both LPs go to the package's generic two-phase simplex
(``nested_sinkhorn._simplex.solve_lp``), which shares no code with the
transportation simplex, the scaling iterations or the stage recursion.
"""

from __future__ import annotations

import importlib
import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tree:
    """A scenario tree as plain tables keyed by node id."""

    parent: dict[int, int | None]
    state: dict[int, float]
    prob: dict[int, float]          # conditional probability given the parent
    children: dict[int, tuple[int, ...]]
    stages: tuple[tuple[int, ...], ...]
    root: int

    @property
    def height(self) -> int:
        return len(self.stages) - 1

    @property
    def leaves(self) -> tuple[int, ...]:
        return self.stages[-1]

    def max_branching(self) -> int:
        return max(len(kids) for kids in self.children.values())

    def path_states(self, leaf: int) -> list[float]:
        out = []
        nid: int | None = leaf
        while nid is not None:
            out.append(self.state[nid])
            nid = self.parent[nid]
        return out[::-1]

    def path_prob(self, leaf: int) -> float:
        out = 1.0
        nid: int | None = leaf
        while nid is not None:
            out *= self.prob[nid]
            nid = self.parent[nid]
        return out


def load_tree(path: str) -> Tree:
    """Read a tree file; sibling probabilities are normalized to a unit sum."""
    with open(path, "r", encoding="utf-8") as handle:
        nodes = json.load(handle)["nodes"]
    parent = {int(n["id"]): n["parent"] for n in nodes}
    state = {int(n["id"]): float(n["state"]) for n in nodes}
    raw = {int(n["id"]): float(n["prob"]) for n in nodes}
    children: dict[int, list[int]] = {nid: [] for nid in parent}
    for nid, par in parent.items():
        if par is not None:
            children[par].append(nid)
    (root,) = [nid for nid, par in parent.items() if par is None]
    prob = {root: 1.0}
    for kids in children.values():
        total = math.fsum(raw[k] for k in kids)
        for k in kids:
            prob[k] = raw[k] / total
    stages = [(root,)]
    while any(children[n] for n in stages[-1]):
        stages.append(tuple(k for n in stages[-1] for k in children[n]))
    return Tree(parent, state, prob, {k: tuple(v) for k, v in children.items()},
                tuple(stages), root)


def _solve_lp():
    return importlib.import_module("nested_sinkhorn._simplex").solve_lp


def _leaf_cost(a: Tree, b: Tree, r: float) -> dict[tuple[int, int], float]:
    paths_a = {i: np.array(a.path_states(i)) for i in a.leaves}
    paths_b = {j: np.array(b.path_states(j)) for j in b.leaves}
    return {(i, j): float(np.abs(paths_a[i] - paths_b[j]).sum()) ** r
            for i in a.leaves for j in b.leaves}


def _coupling_constraints(m: int, n: int) -> np.ndarray:
    """Row-sum then column-sum constraints of an m x n coupling, row-major."""
    A = np.zeros((m + n, m * n))
    for k in range(m):
        A[k, k * n:(k + 1) * n] = 1.0
    for l in range(n):
        A[m + l, l::n] = 1.0
    return A


def nested_distance(a: Tree, b: Tree, r: float = 1.0) -> float:
    """Exact nested distance of order ``r`` by the backward recursion."""
    if a.height != b.height:
        raise ValueError("trees have different heights")
    solve_lp = _solve_lp()
    values = _leaf_cost(a, b, r)
    constraints: dict[tuple[int, int], np.ndarray] = {}
    for t in range(a.height - 1, -1, -1):
        nxt = {}
        for i in a.stages[t]:
            kids_a = a.children[i]
            pa = [a.prob[k] for k in kids_a]
            for j in b.stages[t]:
                kids_b = b.children[j]
                shape = (len(kids_a), len(kids_b))
                if shape not in constraints:
                    constraints[shape] = _coupling_constraints(*shape)
                cost = [values[(x, y)] for x in kids_a for y in kids_b]
                rhs = pa + [b.prob[k] for k in kids_b]
                _, nxt[(i, j)] = solve_lp(cost, constraints[shape], rhs)
        values = nxt
    return max(values[(a.root, b.root)], 0.0) ** (1.0 / r)


def flat_distance(a: Tree, b: Tree, r: float = 1.0) -> float:
    """Order-``r`` transport distance between the two leaf measures."""
    if a.height != b.height:
        raise ValueError("trees have different heights")
    costs = _leaf_cost(a, b, r)
    cost = [costs[(i, j)] for i in a.leaves for j in b.leaves]
    rhs = [a.path_prob(i) for i in a.leaves] + [b.path_prob(j) for j in b.leaves]
    A = _coupling_constraints(len(a.leaves), len(b.leaves))
    _, value = _solve_lp()(cost, A, rhs)
    return max(value, 0.0) ** (1.0 / r)
