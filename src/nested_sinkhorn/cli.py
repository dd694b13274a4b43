"""Command-line front end.

Reads scenario trees from JSON files, computes flat or nested distances
(exact or regularized), runs regularization sweeps and verification
reports, generates random benchmark trees, and emits deterministic CSV or
JSON.  Wall-clock columns are the only nondeterministic output.  Exit
status: 0 on success with all verifications passing, 1 on a verification
failure or an unconverged computation, 2 on input errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .nested import (
    DEFAULT_LAMBDA_GRID,
    lambda_sweep,
    martingale_check,
    nested_bound_report,
    nested_exact,
    nested_sinkhorn,
    verify_entropic_equivalence,
)
from .scenario_tree import (
    ScenarioTree,
    TreeFormatError,
    cost_matrix,
    generate_random_tree,
    parse_tree,
    serialize_tree,
    trajectories,
)
from .sinkhorn import sinkhorn_auto
from .transport import wasserstein_distance

__all__ = ["RunConfig", "main", "run"]

_BENCH_BRANCHING_A = (1, 2, 3, 2, 3, 4)
_BENCH_BRANCHING_B = (1, 2, 2, 1, 3, 2)


@dataclass
class RunConfig:
    """Parsed command invocation."""

    command: str
    tree_a: Optional[str] = None
    tree_b: Optional[str] = None
    r: float = 1.0
    lam: float = 20.0
    lambdas: Optional[tuple[float, ...]] = None
    tol: float = 1e-9
    max_iter: int = 100_000
    output: str = "csv"
    seed: int = 0
    branching: Optional[tuple[int, ...]] = None
    branching_a: tuple[int, ...] = _BENCH_BRANCHING_A
    branching_b: tuple[int, ...] = _BENCH_BRANCHING_B
    max_stages: int = 5
    out: Optional[str] = None


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.10g}"
    return str(value)


def _write(config: RunConfig, text: str) -> None:
    if config.out:
        with open(config.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(config: RunConfig, header: Sequence[str], rows: list[dict],
          extra: Optional[dict] = None) -> None:
    """Write ``rows`` as CSV or JSON; ``extra`` adds top-level JSON keys."""
    if config.output == "json":
        payload = {"command": config.command, "rows": rows, **(extra or {})}
        _write(config, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(row[key]) for key in header])
    _write(config, buf.getvalue())


def _load_tree(path: str) -> ScenarioTree:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_tree(handle.read())


def _load_pair(config: RunConfig) -> tuple[ScenarioTree, ScenarioTree]:
    if not config.tree_a or not config.tree_b:
        raise ValueError("this command needs --tree-a and --tree-b")
    return _load_tree(config.tree_a), _load_tree(config.tree_b)


def _cmd_wasserstein(config: RunConfig) -> int:
    tree_a, tree_b = _load_pair(config)
    start = time.perf_counter()
    distance = wasserstein_distance(tree_a, tree_b, config.r)
    elapsed = time.perf_counter() - start
    _emit(config, ["distance", "r", "wall_time_s"],
          [{"distance": distance, "r": config.r, "wall_time_s": elapsed}])
    return 0


def _cmd_sinkhorn(config: RunConfig) -> int:
    tree_a, tree_b = _load_pair(config)
    p = np.array([t.prob for t in trajectories(tree_a)])
    q = np.array([t.prob for t in trajectories(tree_b)])
    cost = cost_matrix(tree_a, tree_b, config.r)
    start = time.perf_counter()
    res = sinkhorn_auto(p, q, cost, config.lam, config.tol, config.max_iter)
    elapsed = time.perf_counter() - start
    _emit(
        config,
        ["d_s", "de_s", "entropy", "lambda", "r", "iterations", "marginal_error",
         "converged", "wall_time_s"],
        [{
            "d_s": res.d_s,
            "de_s": res.de_s,
            "entropy": res.entropy,
            "lambda": res.lam,
            "r": config.r,
            "iterations": res.iterations,
            "marginal_error": res.marginal_error,
            "converged": res.converged,
            "wall_time_s": elapsed,
        }],
    )
    return 0 if res.converged else 1


def _cmd_nested(config: RunConfig) -> int:
    tree_a, tree_b = _load_pair(config)
    start = time.perf_counter()
    res = nested_exact(tree_a, tree_b, config.r)
    elapsed = time.perf_counter() - start
    _emit(config, ["nd", "r", "stages", "wall_time_s"],
          [{"nd": res.value, "r": config.r, "stages": tree_a.height, "wall_time_s": elapsed}])
    return 0


def _cmd_nested_sinkhorn(config: RunConfig) -> int:
    tree_a, tree_b = _load_pair(config)
    start = time.perf_counter()
    res = nested_sinkhorn(tree_a, tree_b, config.r, config.lam, tol=config.tol,
                          max_iter=config.max_iter)
    elapsed = time.perf_counter() - start
    subproblems = ";".join(str(len(table)) for table in res.stage_tables)
    _emit(
        config,
        ["nd_s", "nde_s", "entropy", "lambda", "r", "stages", "stage_subproblems",
         "iterations", "converged", "wall_time_s"],
        [{
            "nd_s": res.value,
            "nde_s": res.value_with_entropy,
            "entropy": res.total_entropy,
            "lambda": config.lam,
            "r": config.r,
            "stages": tree_a.height,
            "stage_subproblems": subproblems,
            "iterations": res.total_iterations,
            "converged": res.converged,
            "wall_time_s": elapsed,
        }],
        {"stats": [asdict(stage) for stage in res.stats]},
    )
    return 0 if res.converged else 1


def _cmd_sweep(config: RunConfig) -> int:
    tree_a, tree_b = _load_pair(config)
    grid = config.lambdas if config.lambdas else DEFAULT_LAMBDA_GRID
    rows = lambda_sweep(tree_a, tree_b, config.r, grid, tol=config.tol,
                        max_iter=config.max_iter)
    _emit(
        config,
        ["lambda", "nd_s", "nde_s", "nd_w", "wall_time_exact_s", "wall_time_sinkhorn_s",
         "iterations", "converged"],
        [{
            "lambda": row.lam,
            "nd_s": row.nd_s,
            "nde_s": row.nde_s,
            "nd_w": row.nd_w,
            "wall_time_exact_s": row.wall_time_exact_s,
            "wall_time_sinkhorn_s": row.wall_time_sinkhorn_s,
            "iterations": row.iterations,
            "converged": row.converged,
        } for row in rows],
    )
    return 0 if all(row.converged for row in rows) else 1


def _cmd_verify(config: RunConfig) -> int:
    tree_a, tree_b = _load_pair(config)
    rows: list[dict] = []

    bounds = nested_bound_report(tree_a, tree_b, config.r, config.lam)
    for check in bounds.checks:
        rows.append({"report": "bounds", "check": check.name, "passed": check.passed,
                     "value": check.slack})

    sink = nested_sinkhorn(tree_a, tree_b, config.r, config.lam, tol=config.tol,
                           max_iter=config.max_iter)
    if sink.converged:
        equivalence = verify_entropic_equivalence(tree_a, tree_b, config.r, config.lam, sink)
        rows.append({"report": "equivalence", "check": "conditional marginal feasibility",
                     "passed": equivalence.feasibility_ok,
                     "value": equivalence.max_marginal_residual})
        rows.append({"report": "equivalence", "check": "flat objective equality",
                     "passed": equivalence.objective_ok, "value": equivalence.objective_gap})
        rows.append({"report": "equivalence", "check": "stagewise Gibbs decomposition",
                     "passed": equivalence.gibbs_ok, "value": equivalence.max_gibbs_residual})
        martingale = martingale_check(sink)
        rows.append({"report": "martingale", "check": "martingale residual",
                     "passed": martingale.max_martingale_residual <= martingale.residual_tol,
                     "value": martingale.max_martingale_residual})
        rows.append({"report": "martingale", "check": "projection residual",
                     "passed": martingale.max_projection_residual <= martingale.projection_tol,
                     "value": martingale.max_projection_residual})
    else:
        rows.append({"report": "equivalence", "check": "converged", "passed": False,
                     "value": float(sink.total_iterations)})

    _emit(config, ["report", "check", "passed", "value"], rows)
    return 0 if all(row["passed"] for row in rows) else 1


def _cmd_gen(config: RunConfig) -> int:
    if not config.branching:
        raise ValueError("gen needs --branching")
    tree = generate_random_tree(config.branching, config.seed)
    _write(config, serialize_tree(tree) + "\n")
    return 0


def _cmd_bench(config: RunConfig) -> int:
    rows = []
    all_converged = True
    for stages in range(1, config.max_stages + 1):
        if stages + 1 > len(config.branching_a) or stages + 1 > len(config.branching_b):
            raise ValueError(
                f"benchmark branching lists are too short for {stages} stages"
            )
        tree_a = generate_random_tree(config.branching_a[: stages + 1],
                                      config.seed + 17 * stages + 1)
        tree_b = generate_random_tree(config.branching_b[: stages + 1],
                                      config.seed + 17 * stages + 2)
        start = time.perf_counter()
        exact = nested_exact(tree_a, tree_b, config.r)
        exact_time = time.perf_counter() - start
        start = time.perf_counter()
        sink = nested_sinkhorn(tree_a, tree_b, config.r, config.lam, tol=config.tol,
                               max_iter=config.max_iter)
        sinkhorn_time = time.perf_counter() - start
        all_converged = all_converged and sink.converged
        rows.append({
            "stages": stages,
            "leaves_a": tree_a.n_leaves,
            "leaves_b": tree_b.n_leaves,
            "nd_w": exact.value,
            "nd_s": sink.value,
            "nde_s": sink.value_with_entropy,
            "difference": exact.value - sink.value_with_entropy,
            "converged": sink.converged,
            "wall_time_exact_s": exact_time,
            "wall_time_sinkhorn_s": sinkhorn_time,
            "acceleration": exact_time / sinkhorn_time if sinkhorn_time > 0 else float("inf"),
        })
    _emit(
        config,
        ["stages", "leaves_a", "leaves_b", "nd_w", "nd_s", "nde_s", "difference",
         "converged", "wall_time_exact_s", "wall_time_sinkhorn_s", "acceleration"],
        rows,
    )
    return 0 if all_converged else 1


_COMMANDS = {
    "wasserstein": _cmd_wasserstein,
    "sinkhorn": _cmd_sinkhorn,
    "nested": _cmd_nested,
    "nested-sinkhorn": _cmd_nested_sinkhorn,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


def run(config: RunConfig) -> int:
    """Execute a command; returns the process exit status."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        print(f"unknown command: {config.command}", file=sys.stderr)
        return 2
    try:
        return handler(config)
    except (TreeFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nested-sinkhorn",
        description="Exact and entropy-regularized transport distances between scenario trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trees = argparse.ArgumentParser(add_help=False)
    trees.add_argument("--tree-a", required=True, help="path to the first tree file (JSON)")
    trees.add_argument("--tree-b", required=True, help="path to the second tree file (JSON)")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--r", type=float, default=1.0, help="cost order r >= 1 (default 1)")
    common.add_argument("--tol", type=float, default=1e-9,
                        help="marginal stopping tolerance (default 1e-9)")
    common.add_argument("--max-iter", type=int, default=100_000,
                        help="iteration cap per scaling subproblem (default 100000)")
    common.add_argument("--output", choices=("csv", "json"), default="csv",
                        help="report format (default csv)")
    common.add_argument("--out", default=None, help="write the report to a file instead of stdout")

    reg = argparse.ArgumentParser(add_help=False)
    reg.add_argument("--lambda", dest="lam", type=float, default=20.0,
                     help="regularization parameter (default 20)")

    sub.add_parser("wasserstein", parents=[trees, common],
                   help="flat transport distance between the leaf measures")
    sub.add_parser("sinkhorn", parents=[trees, common, reg],
                   help="regularized flat transport on the leaf measures")
    sub.add_parser("nested", parents=[trees, common],
                   help="exact nested distance")
    sub.add_parser("nested-sinkhorn", parents=[trees, common, reg],
                   help="regularized nested divergence")
    sweep = sub.add_parser("sweep", parents=[trees, common],
                           help="regularized nested values over a lambda grid")
    sweep.add_argument("--lambdas", type=_float_list, default=None,
                       help="comma-separated grid (default 0.5,1,2,...,30)")
    sub.add_parser("verify", parents=[trees, common, reg],
                   help="run every verification report on a tree pair")
    gen = sub.add_parser("gen", parents=[common], help="generate a random tree file")
    gen.add_argument("--branching", type=_int_list, required=True,
                     help="per-stage branching factors, e.g. 1,2,3")
    gen.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    bench = sub.add_parser("bench", parents=[common, reg],
                           help="exact-vs-regularized benchmark over growing stage counts")
    bench.add_argument("--branching-a", type=_int_list, default=_BENCH_BRANCHING_A,
                       help="branching of the first tree family (default 1,2,3,2,3,4)")
    bench.add_argument("--branching-b", type=_int_list, default=_BENCH_BRANCHING_B,
                       help="branching of the second tree family (default 1,2,2,1,3,2)")
    bench.add_argument("--max-stages", type=int, default=5,
                       help="largest stage count to benchmark (default 5)")
    bench.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        tree_a=getattr(args, "tree_a", None),
        tree_b=getattr(args, "tree_b", None),
        r=getattr(args, "r", 1.0),
        lam=getattr(args, "lam", 20.0),
        lambdas=getattr(args, "lambdas", None),
        tol=getattr(args, "tol", 1e-9),
        max_iter=getattr(args, "max_iter", 100_000),
        output=getattr(args, "output", "csv"),
        seed=getattr(args, "seed", 0),
        branching=getattr(args, "branching", None),
        branching_a=getattr(args, "branching_a", _BENCH_BRANCHING_A),
        branching_b=getattr(args, "branching_b", _BENCH_BRANCHING_B),
        max_stages=getattr(args, "max_stages", 5),
        out=getattr(args, "out", None),
    )
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
