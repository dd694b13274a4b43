"""The benchmark's workloads: the tree files each one writes, the CLI calls
that make up one operation, and the checks its outputs must pass.

Why each workload exists and which layer it isolates is in WORKLOADS.md.
Each workload solves one fixed family of tree pairs.  The seed draws a
random isomorphic copy of the family: node ids relabeled, every state
shifted by one common offset, and siblings shuffled, which leaves every
distance unchanged.  Seed 0 writes the family exactly as
``generate_random_tree`` makes it.  A different tree draw per seed would
change the work itself: the scaling iterations of the ``ladder`` family
range from 18k to 100k over generator seeds 0-9.  ``flat-hi`` keeps the
sibling order, because the pivot count of its one Bland-priced 144x24
transport LP depends on the order: 0.96 s to 3.0 s over seeds 0-9.

Each ``check`` returns a list of problems; an empty list means the op's
outputs are correct.  Values are compared, never bytes, and the wall-time
columns are ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

REL_TOL = 1e-9      # exact values against the oracle
SLACK = 1e-8        # every checked inequality
MAX_SHIFT = 5.0     # largest common state offset of a seed's copy
LADDER_STAGES = 5
LADDER_LAMBDA = 20.0                  # the bench command's defaults
LADDER_A = (1, 2, 3, 2, 3, 4)
LADDER_B = (1, 2, 2, 1, 3, 2)
FLAT_LAMBDA = 100.0
CERTIFY_ROWS = {"bounds": 4, "equivalence": 3, "martingale": 2}

TreeSpec = dict[str, tuple[tuple[int, ...], int]]   # file stem -> (branching, generator seed)
Rows = list[dict]


@dataclass(frozen=True)
class Command:
    """One CLI call; ``fmt`` is the ``--output`` format it writes."""

    argv: tuple[str, ...]
    fmt: str = "json"


@dataclass(frozen=True)
class Workload:
    name: str
    trees: TreeSpec
    commands: Callable[[dict[str, str]], list[Command]]
    reference: Callable[[dict[str, str]], dict]
    check: Callable[[list[Rows], dict], list[str]]
    shuffle: bool = True


def isomorphic_copy(doc: dict, rng: np.random.Generator, shift: float, shuffle: bool) -> dict:
    """The same tree with ids relabeled, states shifted and, if ``shuffle``,
    siblings shuffled.

    Nodes are listed stage by stage, children in their (shuffled) order, so
    the shuffle decides the child and leaf order the CLI sees.
    """
    nodes = doc["nodes"]
    children: dict[int, list[dict]] = {}
    for node in nodes:
        if node["parent"] is not None:
            children.setdefault(node["parent"], []).append(node)
    new_ids = [int(i) for i in rng.permutation(len(nodes))]
    renamed: dict[int, int] = {}
    out = []
    level = [node for node in nodes if node["parent"] is None]
    while level:
        below = []
        for node in level:
            renamed[node["id"]] = new_ids[len(out)]
            parent = node["parent"]
            out.append({"id": renamed[node["id"]],
                        "parent": None if parent is None else renamed[parent],
                        "state": node["state"] + shift, "prob": node["prob"]})
            kids = children.get(node["id"], [])
            if shuffle:
                kids = [kids[k] for k in rng.permutation(len(kids))]
            below.extend(kids)
        level = below
    return {"nodes": out}


def write_trees(package, workload: Workload, seed: int, work: Path) -> dict[str, str]:
    """Write the seed's copy of the workload's trees; returns their paths."""
    rng = np.random.default_rng(seed)
    shift = float(rng.uniform(-MAX_SHIFT, MAX_SHIFT))
    paths = {}
    for stem, (branching, tree_seed) in workload.trees.items():
        doc = json.loads(package.serialize_tree(package.generate_random_tree(branching, tree_seed)))
        if seed:
            doc = isomorphic_copy(doc, rng, shift, workload.shuffle)
        path = work / f"{stem}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        paths[stem] = str(path)
    return paths


def _pair(*argv: str, paths: dict[str, str], fmt: str = "json") -> Command:
    return Command((*argv, "--tree-a", paths["a"], "--tree-b", paths["b"]), fmt)


def _close(name: str, value, ref: float) -> list[str]:
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or abs(value - ref) > REL_TOL * abs(ref) + 1e-15:
        return [f"{name}={value!r}, oracle {ref!r}"]
    return []


def _at_most(name: str, value: float, bound: float) -> list[str]:
    if not value <= bound + SLACK:
        return [f"{name}: {value!r} exceeds {bound!r}"]
    return []


def _sandwich(name: str, low: float, exact: float, high: float) -> list[str]:
    return _at_most(f"{name} lower side", low, exact) + _at_most(f"{name} upper side", exact, high)


def _converged(row: dict) -> list[str]:
    return [] if row.get("converged") is True else [f"not converged: {row.get('converged')!r}"]


def _gap_bound(a: oracle.Tree, b: oracle.Tree, lam: float) -> float:
    return a.height * (math.log(a.max_branching()) + math.log(b.max_branching())) / lam


# -- ladder: the bench command's exact-vs-regularized table -----------------

def _ladder_commands(paths: dict[str, str]) -> list[Command]:
    out = []
    for s in range(1, LADDER_STAGES + 1):
        pair = {"a": paths[f"a{s}"], "b": paths[f"b{s}"]}
        out.append(_pair("nested", paths=pair))
        out.append(_pair("nested-sinkhorn", "--lambda", str(LADDER_LAMBDA), paths=pair))
    return out


def _ladder_reference(paths: dict[str, str]) -> dict:
    ref = {}
    for s in range(1, LADDER_STAGES + 1):
        a = oracle.load_tree(paths[f"a{s}"])
        b = oracle.load_tree(paths[f"b{s}"])
        ref[s] = {"nd_w": oracle.nested_distance(a, b), "gap": _gap_bound(a, b, LADDER_LAMBDA)}
    return ref


def _ladder_check(outputs: list[Rows], ref: dict) -> list[str]:
    problems = []
    for s in range(1, LADDER_STAGES + 1):
        (exact,), (sink,) = outputs[2 * s - 2: 2 * s]
        nd_w = ref[s]["nd_w"]
        tag = f"stages={s}"
        if exact.get("stages") != s or sink.get("stages") != s:
            problems.append(f"{tag}: rows report {exact.get('stages')}, {sink.get('stages')}")
        problems += _close(f"{tag} nd", exact.get("nd"), nd_w)
        problems += _converged(sink)
        problems += _sandwich(tag, sink["nde_s"], nd_w, sink["nd_s"])
        problems += _at_most(f"{tag} gap", max(sink["nd_s"] - nd_w, nd_w - sink["nde_s"]),
                             ref[s]["gap"])
    return problems


# -- certify-uneven: every verification report on uneven trees --------------

def _certify_check(outputs: list[Rows], ref: dict) -> list[str]:
    rows = outputs[0]
    problems = []
    counts: dict[str, int] = {}
    for row in rows:
        counts[row["report"]] = counts.get(row["report"], 0) + 1
        if row["passed"] != "true":
            problems.append(f"{row['report']}: {row['check']} failed ({row['value']})")
        if not math.isfinite(float(row["value"])):
            problems.append(f"{row['report']}: {row['check']} value {row['value']}")
    if counts != CERTIFY_ROWS:
        problems.append(f"report rows {counts!r}, expected {CERTIFY_ROWS!r}")
    return problems


# -- flat-hi: leaf-scale exact LP and log-domain scaling --------------------

def _flat_reference(paths: dict[str, str]) -> dict:
    a, b = oracle.load_tree(paths["a"]), oracle.load_tree(paths["b"])
    gap = (math.log(len(a.leaves)) + math.log(len(b.leaves))) / FLAT_LAMBDA
    return {"w": oracle.flat_distance(a, b), "gap": gap}


def _flat_check(outputs: list[Rows], ref: dict) -> list[str]:
    (flat,), (sink,) = outputs
    problems = _close("distance", flat.get("distance"), ref["w"])
    problems += _converged(sink)
    if sink.get("lambda") != FLAT_LAMBDA:
        problems.append(f"lambda={sink.get('lambda')!r}")
    problems += _sandwich("sinkhorn", sink["de_s"], ref["w"], sink["d_s"])
    problems += _at_most("sinkhorn gap", sink["d_s"] - sink["de_s"], ref["gap"])
    return problems


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "ladder",
            {stem: (family[: s + 1], 17 * s + k)
             for s in range(1, LADDER_STAGES + 1)
             for stem, family, k in ((f"a{s}", LADDER_A, 1), (f"b{s}", LADDER_B, 2))},
            _ladder_commands,
            _ladder_reference,
            _ladder_check,
        ),
        Workload(
            "certify-uneven",
            {"a": ((1, 4, 1, 3, 2, 1, 3), 0), "b": ((1, 2, 3, 1, 2, 3, 2), 1)},
            # CSV, because `verify --output json` raises TypeError on a numpy
            # bool in the Gibbs row (see WORKLOADS.md, known defects)
            lambda paths: [_pair("verify", "--lambda", "2", paths=paths, fmt="csv")],
            lambda paths: {},
            _certify_check,
        ),
        Workload(
            "flat-hi",
            {"a": ((1, 2, 3, 2, 3, 4), 86), "b": ((1, 2, 2, 1, 3, 2), 87)},
            lambda paths: [_pair("wasserstein", paths=paths),
                           _pair("sinkhorn", "--lambda", str(FLAT_LAMBDA), paths=paths)],
            _flat_reference,
            _flat_check,
            shuffle=False,
        ),
    )
}
