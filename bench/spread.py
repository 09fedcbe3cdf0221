"""Run-to-run spread of the benchmark over several seeds.

    python3 bench/spread.py --seeds 1 2 3 4 5 [--trace 0|1] [--out FILE]
                            [--compare FILE]

Run from the repository root.  Runs the benchmark command of BENCHMARK.json
once per seed and every workload (``run_seconds`` each), then prints for every
end-to-end metric the median of the per-run values and the distance between
their first and third quartiles as a share of that median, next to the
metric's bound.  With ``--trace 1`` it prints the exact counts of each seed
instead.  ``--out`` keeps the raw results; ``--compare`` takes an earlier
``--out`` file and reports each median's change against it, up or down
(against the bound), and, for traced results, whether every exact count repeated.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import EXACT_COUNTS


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: {} for w in workloads}
    problems = 0
    for seed in args.seeds:
        for workload in workloads:
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs[workload][str(seed)] = {"result": result, "details": json.loads(lines[-2])}
            problems += not result["correct"]
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                      if args.trace == 0 or k in EXACT_COUNTS}
            print(f"{workload} seed {seed}: correct={result['correct']} {values}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"trace": args.trace, "runs": runs}) + "\n")

    old = json.loads(Path(args.compare).read_text())["runs"] if args.compare else {}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, by_seed in runs.items():
        if args.trace:
            for seed, run in by_seed.items():
                before = old.get(workload, {}).get(seed)
                if before is None:
                    continue
                for key in EXACT_COUNTS:
                    a = before["result"]["metrics"][key]["value"]
                    b = run["result"]["metrics"][key]["value"]
                    if a != b:
                        problems += 1
                        print(f"{workload} seed {seed}: {key} {a} -> {b}")
            continue
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in by_seed.values()]
            med, spread = _spread(values)
            line = (f"{workload:18s} {name:12s} median {med:10.4f}  spread "
                    f"{spread:6.3f}  bound {bound}  (steady below {bound / 3:.3f})")
            if workload in old:
                prev = [r["result"]["metrics"][name]["value"]
                        for r in old[workload].values()]
                change = med / statistics.median(prev) - 1.0
                line += f"  change {change:+.3f}"
                problems += abs(change) > bound
            problems += spread > bound
            print(line)
        for key in ("wall_s", "cal_s", "setup_raw_s"):  # unbounded, from the details line
            med, spread = _spread([r["details"][key]["median"] for r in by_seed.values()])
            print(f"{workload:18s} {key:12s} median {med:10.4f}  spread {spread:6.3f}")
    print("spread:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
