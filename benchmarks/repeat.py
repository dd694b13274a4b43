"""Repeat benchmark runs over seeds and summarize their spread.

    python3 benchmarks/repeat.py --workloads ladder,flat-hi --seeds 0-9 [--trace-seeds 0]
                                 [--seconds 30] [--write benchmarks/baseline.json]

Each run is a fresh ``run.py`` process, started from the checkout root, one
at a time.  For every end-to-end metric the summary gives the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the quartile distance as a share of the median.  Traced runs give
the per-layer medians and each timed layer's share of ``op_s_p50``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if not text:
        return []
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1]),
            "wall_s": perf_counter() - start}


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--write", default=None, help="write the summary as JSON here")
    args = parser.parse_args()

    summary: dict = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            run = run_once(workload, seed, args.seconds, 0)
            runs.append(run)
            metrics = {k: round(v["value"], 4) for k, v in run["result"]["metrics"].items()}
            print(workload, seed, run["result"]["failed"], run["info"]["op_samples"],
                  f"{run['wall_s']:.1f}s", metrics, flush=True)
        host = runs[0]["info"]
        summary["host"] = {key: host[key] for key in ("threads", "nproc", "python", "numpy")}
        entry: dict = {
            "seeds": _seeds(args.seeds),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "op_samples": summarize([r["info"]["op_samples"] for r in runs]),
            "run_wall_s": summarize([r["wall_s"] for r in runs]),
            "end_to_end": {
                name: summarize([r["result"]["metrics"][name]["value"] for r in runs])
                for name in runs[0]["result"]["metrics"]
            },
        }
        for name, stats in entry["end_to_end"].items():
            print(f"  {workload} {name}: median {stats['median']:.5g} "
                  f"q1 {stats['q1']:.5g} q3 {stats['q3']:.5g} spread {stats['spread']:.3f}",
                  flush=True)
        traced = [run_once(workload, seed, args.seconds, 1) for seed in _seeds(args.trace_seeds)]
        if traced:
            layers = {name: statistics.median(r["result"]["metrics"][name]["value"]
                                              for r in traced)
                      for name in traced[0]["result"]["metrics"]}
            op_s = entry["end_to_end"]["op_s_p50"]["median"]
            entry["per_layer"] = layers
            entry["per_layer_share_of_op_s_p50"] = {
                name: value / op_s for name, value in layers.items()
                if traced[0]["result"]["metrics"][name]["unit"] == "s"
            }
            entry["traced_failed"] = sum(r["result"]["failed"] for r in traced)
            print(f"  {workload} per-layer: {json.dumps(layers)}", flush=True)
        summary["workloads"][workload] = entry
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
