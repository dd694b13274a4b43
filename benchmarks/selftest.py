"""Self-test of the benchmark, at its shortest run length.

    python3 benchmarks/selftest.py [--workloads ladder,flat-hi]

Run from the checkout root.  For every workload it asserts that

* every metric in BENCHMARK.json is printed by name with its unit, untraced
  at seed 0 and traced at seed 1;
* no op fails at seeds 0 and 1 (``failed == 0``, ``failed_ratio == 0``);
* an output value corrupted after the CLI wrote it counts as a failed op,
  and the run still ends normally with a result line;

and, once, that ``run.py`` exits nonzero without a result line in a
directory holding only BENCHMARK.json and the benchmark's own files.
Prints one line per check and exits 1 if any failed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def _check_metrics(proc: subprocess.CompletedProcess, section: str) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    for spec in SPEC[section]:
        got = result["metrics"].get(spec["name"])
        if got is None or got.get("unit") != spec["unit"] \
                or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{spec['name']}: {got!r}, expected unit {spec['unit']}")
    extra = set(result["metrics"]) - {spec["name"] for spec in SPEC[section]}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    if result["failed"] != 0 or info["failed_ratio"] != 0 or result["correct"] is not True:
        problems.append(f"failed {result['failed']} of {result['attempted']}: "
                        f"{proc.stderr.strip()[-300:]}")
    return problems


def _corrupt(path: Path, fmt: str) -> None:
    """Flip the first verification verdict, or perturb every reported
    number except the wall-clock columns by one part in a million."""
    text = path.read_text(encoding="utf-8")
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        rows[0]["passed"] = "false"
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        path.write_text(buf.getvalue(), encoding="utf-8")
        return
    doc = json.loads(text)
    for row in doc["rows"]:
        for key, value in row.items():
            if isinstance(value, float) and not key.startswith(("wall_time", "acceleration")):
                row[key] = value * (1.0 + 1e-6)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _check_corruption(workload: str) -> list[str]:
    original = run.invoke

    def corrupting(cli, argv):
        code = original(cli, argv)
        out = Path(argv[argv.index("--out") + 1])
        if code == 0 and out.is_file():
            _corrupt(out, argv[argv.index("--output") + 1])
        return code

    stdout = io.StringIO()
    run.invoke = corrupting
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", workload, "--seed", "0", "--seconds", "1",
                             "--trace", "0"])
    finally:
        run.invoke = original
    if code != 0:
        return [f"run exited {code}"]
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    if result["correct"] is not False or result["failed"] != result["attempted"]:
        return [f"corrupted outputs passed: {result}"]
    return []


def _check_bare_directory() -> list[str]:
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run(SPEC["workloads"][0]["name"], 0, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run still uses it
            bare.parent.rmdir()
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"exit {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    args = parser.parse_args()

    checks = [("metric names match run.py", lambda: [
        f"{section}: BENCHMARK.json {sorted(listed)} vs run.py {sorted(units)}"
        for section, units in (("end_to_end", run.END_TO_END_UNITS),
                               ("per_layer", run.PER_LAYER_UNITS))
        for listed in [{s["name"]: s["unit"] for s in SPEC[section]}]
        if listed != units
    ])]
    for workload in args.workloads.split(","):
        checks += [
            (f"{workload} seed 0 untraced",
             lambda w=workload: _check_metrics(_run(w, 0, 0), "end_to_end")),
            (f"{workload} seed 1 traced",
             lambda w=workload: _check_metrics(_run(w, 1, 1), "per_layer")),
            (f"{workload} corrupted outputs fail", lambda w=workload: _check_corruption(w)),
        ]
    checks.append(("bare directory exits nonzero", _check_bare_directory))

    failed = 0
    for name, check in checks:
        problems = check()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {name}" + "".join(f"\n     {p}" for p in problems),
              flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
