"""Short-mode schema check of the benchmark.

    python3 bench/selfcheck.py

Run from the repository root.  For every workload and both trace settings it
runs ``bench/run.py --short`` (shrunken inputs, one-second budget) and checks
that the result line has exactly the keys and metrics BENCHMARK.json
declares, with their units, that every operation passed, and that the
traced run's exact counts are positive where the workload exercises that
layer.  Last, it runs the benchmark in a directory holding only
BENCHMARK.json and ``bench/`` and checks that it fails without a result.
Timings are not checked.  Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

# layers each workload must reach, by exact count
EXERCISED = {
    "evolve_bump_long": ("solver.node_steps", "diagnostics.calls", "core.save_bytes"),
    "snapshot_io": ("core.save_bytes", "core.load_bytes", "solver.node_steps"),
    "norms_bootstrap": ("norms.sine_transform_calls", "bootstrap.iterations"),
}


def _run(cmd, cwd="."):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _check_result(spec, workload, trace, proc) -> list:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result, details = json.loads(lines[-1]), json.loads(lines[-2])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: not correct: {result} {details['errors']}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {want}")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            problems.append(f"{where}: malformed metric {name}: {metric}")
    if trace:
        for name in EXERCISED[workload]:
            if not result["metrics"][name]["value"] > 0:
                problems.append(f"{where}: {name} is zero")
    for key in ("seed", "failed_ratio", "digests", "environment", "wall_s", "setup_s"):
        if key not in details:
            problems.append(f"{where}: details line lacks {key}")
    return problems


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = _run(spec["command"] + ["--workload", workload, "--seed", "1",
                                           "--seconds", "1", "--trace", str(trace),
                                           "--short"])
            problems += _check_result(spec, workload, trace, proc)
            print(f"{workload} --trace {trace}: checked", flush=True)

    bare = Path(".bench_work/bare")
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("bare directory: the benchmark did not fail without the program")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
