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
from functools import cache
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


def _emit(config: RunConfig, rows: list[dict], extra: Optional[dict] = None) -> None:
    """Write ``rows`` as CSV or JSON; ``extra`` adds top-level JSON keys.

    The CSV columns are the first row's keys, in their order.
    """
    if config.output == "json":
        payload = {"command": config.command, "rows": rows, **(extra or {})}
        _write(config, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return
    header = list(rows[0])
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
    _emit(config, [{"distance": distance, "r": config.r, "wall_time_s": elapsed}])
    return 0


def _cmd_sinkhorn(config: RunConfig) -> int:
    tree_a, tree_b = _load_pair(config)
    cost = cost_matrix(tree_a, tree_b, config.r)
    start = time.perf_counter()
    res = sinkhorn_auto(tree_a.leaf_probabilities, tree_b.leaf_probabilities, cost,
                        config.lam, config.tol, config.max_iter)
    elapsed = time.perf_counter() - start
    _emit(
        config,
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
    _emit(config, [{"nd": res.value, "r": config.r, "stages": tree_a.height,
                    "wall_time_s": elapsed}])
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
    grid = DEFAULT_LAMBDA_GRID if config.lambdas is None else config.lambdas
    rows = lambda_sweep(tree_a, tree_b, config.r, grid, tol=config.tol,
                        max_iter=config.max_iter)
    _emit(
        config,
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
    """Check the bounds, the flat equivalence and the martingale property on
    one regularized run: the bound report's, at its tight tolerance."""
    tree_a, tree_b = _load_pair(config)
    bounds = nested_bound_report(tree_a, tree_b, config.r, config.lam)
    sink = bounds.regularized
    checks = [("bounds", check.name, check.passed, check.slack) for check in bounds.checks]
    if sink.converged:
        checks += [("equivalence", check.name, check.passed, check.value)
                   for check in verify_entropic_equivalence(sink).checks]
        checks += [("martingale", check.name, check.passed, check.value)
                   for check in martingale_check(sink).checks]
    else:
        checks.append(("equivalence", "converged", False, float(sink.total_iterations)))
    rows = [dict(zip(("report", "check", "passed", "value"), check)) for check in checks]
    _emit(config, rows, {"stats": [asdict(stage) for stage in sink.stats]})
    return 0 if all(row["passed"] for row in rows) else 1


def _cmd_gen(config: RunConfig) -> int:
    if not config.branching:
        raise ValueError("gen needs --branching")
    tree = generate_random_tree(config.branching, config.seed)
    _write(config, serialize_tree(tree) + "\n")
    return 0


def _cmd_bench(config: RunConfig) -> int:
    if config.max_stages < 1:
        raise ValueError("bench needs --max-stages >= 1")
    # the first stage count the lists cannot serve, checked before any solve
    short = max(1, min(len(config.branching_a), len(config.branching_b)))
    if short <= config.max_stages:
        raise ValueError(f"benchmark branching lists are too short for {short} stages")
    rows = []
    for stages in range(1, config.max_stages + 1):
        tree_a = generate_random_tree(config.branching_a[: stages + 1],
                                      config.seed + 17 * stages + 1)
        tree_b = generate_random_tree(config.branching_b[: stages + 1],
                                      config.seed + 17 * stages + 2)
        row = lambda_sweep(tree_a, tree_b, config.r, [config.lam], config.tol,
                           config.max_iter)[0]
        rows.append({
            "stages": stages,
            "leaves_a": tree_a.n_leaves,
            "leaves_b": tree_b.n_leaves,
            "nd_w": row.nd_w,
            "nd_s": row.nd_s,
            "nde_s": row.nde_s,
            "difference": row.nd_w - row.nde_s,
            "converged": row.converged,
            "wall_time_exact_s": row.wall_time_exact_s,
            "wall_time_sinkhorn_s": row.wall_time_sinkhorn_s,
            "acceleration": (row.wall_time_exact_s / row.wall_time_sinkhorn_s
                             if row.wall_time_sinkhorn_s > 0 else float("inf")),
        })
    _emit(config, rows)
    return 0 if all(row["converged"] for row in rows) else 1


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


def _list_of(kind: type):
    """Argument type: a comma-separated list of ``kind`` values."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(",") if part.strip() != "")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, got {text!r}") from exc
    return parse


@cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nested-sinkhorn",
        description="Exact and entropy-regularized transport distances between scenario trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # an option left off the command line stays out of the namespace, so the
    # defaults of RunConfig apply
    def options():
        return argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)

    trees = options()
    trees.add_argument("--tree-a", required=True, help="path to the first tree file (JSON)")
    trees.add_argument("--tree-b", required=True, help="path to the second tree file (JSON)")
    out = options()
    out.add_argument("--out", help="write the output to a file instead of stdout")
    report = options()
    report.add_argument("--r", type=float, help="cost order r >= 1 (default 1)")
    report.add_argument("--output", choices=("csv", "json"), help="report format (default csv)")
    scaling = options()
    scaling.add_argument("--tol", type=float, help="marginal stopping tolerance (default 1e-9)")
    scaling.add_argument("--max-iter", type=int,
                         help="iteration cap per scaling subproblem (default 100000)")
    reg = options()
    reg.add_argument("--lambda", dest="lam", type=float,
                     help="regularization parameter (default 20)")

    def command(name, parents, text):
        return sub.add_parser(name, parents=parents + [out], help=text,
                              argument_default=argparse.SUPPRESS)

    command("wasserstein", [trees, report], "flat transport distance between the leaf measures")
    command("sinkhorn", [trees, report, reg, scaling],
            "regularized flat transport on the leaf measures")
    command("nested", [trees, report], "exact nested distance")
    command("nested-sinkhorn", [trees, report, reg, scaling], "regularized nested divergence")
    sweep = command("sweep", [trees, report, scaling],
                    "regularized nested values over a lambda grid")
    sweep.add_argument("--lambdas", type=_list_of(float),
                       help="comma-separated grid (default 0.5,1,2,...,30)")
    command("verify", [trees, report, reg],
            "run every verification report on one tight regularized run")
    gen = command("gen", [], "generate a random tree file")
    gen.add_argument("--branching", type=_list_of(int), required=True,
                     help="per-stage branching factors, e.g. 1,2,3")
    gen.add_argument("--seed", type=int, help="generator seed (default 0)")
    bench = command("bench", [report, reg, scaling],
                    "exact-vs-regularized benchmark over growing stage counts")
    bench.add_argument("--branching-a", type=_list_of(int),
                       help="branching of the first tree family (default 1,2,3,2,3,4)")
    bench.add_argument("--branching-b", type=_list_of(int),
                       help="branching of the second tree family (default 1,2,2,1,3,2)")
    bench.add_argument("--max-stages", type=int,
                       help="largest stage count to benchmark (default 5)")
    bench.add_argument("--seed", type=int, help="generator seed (default 0)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(RunConfig(**vars(_build_parser().parse_args(argv))))


if __name__ == "__main__":
    raise SystemExit(main())
