"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The run has four phases:

1. set-up: import the package and generate, serialize and write the
   workload's tree files, repeated; it is repeated again after the timed
   phases, and ``setup_s`` is the median of both batches, so that it
   samples the host's speed at two moments of the run;
2. the untraced phase: one warm-up op, then ops back to back for
   ``--seconds`` seconds, each timed on its own;
3. with ``--trace 1``, the traced phase: the package's public functions are
   wrapped (see ``tracing.py``) and ops run for half as long, at least three;
4. the correctness gate, untimed: every op's output files are checked
   against the oracle of ``oracle.py`` and the bounds of ``workloads.py``.

A failed op (exception, nonzero exit, or a failed check) is counted, never
fatal.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The
line before it records the run's settings and every end-to-end figure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import tracing
from workloads import WORKLOADS, Command, Workload, write_trees

PACKAGE = "nested_sinkhorn"
THREADS_ENV_VAR = "NESTED_SINKHORN_THREADS"
SETUP_REPEATS = 8     # per batch
MIN_TRACED_OPS = 3

END_TO_END_UNITS = {
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "ok_ratio": "1",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    return "s" if last == "s" or last.endswith(("_s", "_s_max")) else "count"


PER_LAYER_UNITS = {name: _layer_unit(name) for name in tracing.op_metrics([])}
PER_LAYER_UNITS["trace.overhead_ratio"] = "1"


@dataclass
class Op:
    """One operation: its output files, or the reason it failed."""

    outputs: list[tuple[Path, str]] = field(default_factory=list)
    error: Optional[str] = None
    seconds: float = 0.0


def invoke(cli, argv: list[str]) -> int:
    """Run one CLI call in-process; the exit status it would have returned."""
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code if isinstance(exc.code, int) else 2


def run_op(cli, commands: list[Command], out_dir: Path, op_id: int) -> Op:
    op = Op()
    for k, command in enumerate(commands):
        out = out_dir / f"op{op_id}-{k}.{command.fmt}"
        argv = [*command.argv, "--output", command.fmt, "--out", str(out)]
        try:
            code = invoke(cli, argv)
        except Exception as exc:  # a crash is a failed op, not a failed run
            op.error = f"{command.argv[0]} raised {type(exc).__name__}: {exc}"
            return op
        if code != 0:
            op.error = f"{command.argv[0]} exited {code}"
            return op
        op.outputs.append((out, command.fmt))
    return op


def timed_ops(seconds: float, min_ops: int, first_id: int,
              run: Callable[[int], Op]) -> tuple[list[Op], float]:
    """Ops back to back until ``seconds`` have passed and ``min_ops`` ran."""
    ops: list[Op] = []
    start = perf_counter()
    while True:
        op_start = perf_counter()
        op = run(first_id + len(ops))
        op_end = perf_counter()
        op.seconds = op_end - op_start
        ops.append(op)
        if op_end - start >= seconds and len(ops) >= min_ops:
            return ops, op_end - start


def set_up(workload: Workload, seed: int, work: Path) -> tuple[list[float], dict[str, str]]:
    """Times of repeated set-ups: a fresh package import, then writing the trees."""
    work.mkdir()
    times = []
    for _ in range(SETUP_REPEATS):
        for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
            del sys.modules[key]
        start = perf_counter()
        package = importlib.import_module(PACKAGE)
        importlib.import_module(PACKAGE + ".cli")
        paths = write_trees(package, workload, seed, work)
        times.append(perf_counter() - start)
    return times, paths


def _read(path: Path, fmt: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        if fmt == "csv":
            return list(csv.DictReader(handle))
        return json.load(handle)["rows"]


def gate(workload: Workload, op: Op, ref: dict) -> list[str]:
    """Problems with one op's outputs; empty when it is correct."""
    if op.error is not None:
        return [op.error]
    try:
        return workload.check([_read(path, fmt) for path, fmt in op.outputs], ref)
    except Exception as exc:  # malformed output is a failed op
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    setup_times, paths = set_up(workload, seed, work / "trees")
    cli = sys.modules[PACKAGE + ".cli"]
    commands = workload.commands(paths)
    out_dir = work / "out"
    out_dir.mkdir()

    warmup = run_op(cli, commands, out_dir, 0)
    untraced, phase_s = timed_ops(seconds, 1, 1,
                                  lambda i: run_op(cli, commands, out_dir, i))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced: list[Op] = []
    tracer = tracing.Tracer(PACKAGE)
    if trace:
        tracer.install()
        try:
            traced, _ = timed_ops(
                seconds / 2, MIN_TRACED_OPS, 1 + len(untraced),
                lambda i: tracer.run_op(i, lambda: run_op(cli, commands, out_dir, i)))
        finally:
            tracer.restore()

    setup_times += set_up(workload, seed, work / "trees-again")[0]
    start = perf_counter()
    ref = workload.reference(paths)
    oracle_s = perf_counter() - start
    problems = {}
    for op_id, op in enumerate([warmup, *untraced, *traced]):
        found = gate(workload, op, ref)
        if found:
            problems[op_id] = found
    attempted = 1 + len(untraced) + len(traced)
    passed_untraced = sum(1 for i in range(1, 1 + len(untraced)) if i not in problems)
    op_s_p50 = statistics.median(op.seconds for op in untraced)

    end_to_end = {
        "op_s_p50": op_s_p50,
        "ops_per_s": passed_untraced / phase_s,
        "ok_ratio": (attempted - len(problems)) / attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    resolve = getattr(cli, "_resolve_threads", None)
    info = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "threads": resolve(None) if resolve else int(os.environ[THREADS_ENV_VAR]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "op_samples": len(untraced),
        "op_seconds": [op.seconds for op in untraced],
        "traced_ops": len(traced),
        "failed_ratio": len(problems) / attempted,
        "oracle_s": oracle_s,
        "end_to_end": end_to_end,
    }
    if trace:
        per_op = [tracing.op_metrics([s for s in tracer.spans if s.op == i])
                  for i in range(1 + len(untraced), attempted)]
        metrics = {name: _metric(statistics.median(m[name] for m in per_op), PER_LAYER_UNITS[name])
                   for name in per_op[0]}
        traced_p50 = statistics.median(op.seconds for op in traced)
        metrics["trace.overhead_ratio"] = _metric(traced_p50 / op_s_p50,
                                                  PER_LAYER_UNITS["trace.overhead_ratio"])
    else:
        metrics = {name: _metric(end_to_end[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}
    return {
        "info": info,
        "problems": problems,
        "result": {"correct": not problems, "attempted": attempted,
                   "failed": len(problems), "metrics": metrics},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # the CLI's default thread count, pinned so no --threads flag is needed
    os.environ[THREADS_ENV_VAR] = str(len(os.sched_getaffinity(0)))

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run still uses it
            work.parent.rmdir()
    for op_id, found in sorted(run["problems"].items()):
        print(f"op {op_id} failed: {'; '.join(found[:3])}", file=sys.stderr)
    print(json.dumps(run["info"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
