"""nlwlab benchmark: seeded scenario workloads run through ``nlwlab.cli.run``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.  The
workload's inputs are generated from the seed before any timing (see
``workloads.py``).  Then fresh worker processes (``worker.py``), one at a
time and single-threaded, each set up and run the workload once, until S
seconds have passed (at least three runs of each kind).

``--trace 0`` prints the end-to-end metrics: the median over the workers
of one run's wall time (set-up excluded) divided by the time of a fixed
calibration kernel run in the same worker, the median set-up time (fresh
process to parsed configs) scaled the same way to a machine on which the
calibration takes ``CAL_REF_S``, and the median peak RSS of a worker.
Dividing by the calibration cancels the drift of this kind of shared
machine's speed; raw times are in the details line (see DESIGN.md).
``--trace 1`` alternates untraced and traced workers and prints the
per-layer split from the traced ones (``spans.py``) plus the tracing
overhead.  In traced runs the exact counts must agree between all workers,
no span may have a negative self time, and the ``cli.run`` spans must match
the worker's own timing of its ``cli.run`` calls; otherwise the benchmark
stops with an error.

The last stdout line is the result object; the line before it holds the
details (quartiles, failure ratio, artifact digests, environment).
Everything is written under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORK_ROOT = Path(".bench_work")
MIN_RUNS = 3
# every worker ends by this many seconds after the start, or is killed
LIMIT_S = 160.0
# counts that must repeat exactly in every traced run of one workload and seed
EXACT_COUNTS = ("solver.node_steps", "core.state_builds", "core.save_bytes",
                "diagnostics.calls", "norms.sine_transform_calls",
                "bootstrap.iterations")
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# nominal calibration time (about this machine's median) that setup_s is
# scaled to
CAL_REF_S = 0.1
# a span whose self time is below this is taken as overlapping its children
MIN_SELF_S = -1e-6


def _quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _environment():
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "NLWLAB_PRECISION": os.environ.get("NLWLAB_PRECISION"),
    }


def _run_worker(plan: Path, out: Path, trace: bool, n_ops: int, timeout: float) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan), str(out),
             repr(spawn), "1" if trace else "0"],
            env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        why = f"worker timed out after {timeout:.1f} s"
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            result = json.loads(lines[-1])
            result["elapsed_s"] = time.perf_counter() - spawn
            result["trace"] = trace
            return result
        why = f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    shutil.rmtree(out, ignore_errors=True)
    return {"attempted": n_ops, "failed": n_ops, "errors": [why], "trace": trace,
            "elapsed_s": time.perf_counter() - spawn}


def _check_layers(traced) -> dict:
    """Medians of the traced workers' layer metrics after the span checks."""
    layers = [w["layers"] for w in traced]
    for key in EXACT_COUNTS:
        seen = sorted({lay[key] for lay in layers})
        if len(seen) > 1:
            sys.exit(f"bench: exact count {key} differs between runs of one "
                     f"workload and seed: {seen}")
    for w in traced:
        if w["min_span_self_s"] < MIN_SELF_S:
            sys.exit(f"bench: a span has self time {w['min_span_self_s']!r} s; "
                     "spans overlap on the span stack")
        # the worker's timer encloses the cli.run spans; only the wrapper's
        # own bookkeeping lies between them
        gap = w["run_s"] - w["layers"]["cli.run_s"]
        if not 0.0 <= gap <= 1e-3 + 1e-3 * w["run_s"]:
            sys.exit(f"bench: cli.run spans sum to {w['layers']['cli.run_s']!r} s, "
                     f"the worker timed its cli.run calls at {w['run_s']!r} s")
    medians = {}
    for key in layers[0]:
        values = [lay[key] for lay in layers]
        # counts stay whole numbers
        pick = statistics.median_low if isinstance(values[0], int) else statistics.median
        medians[key] = pick(values)
    return medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="shrunken inputs, for the schema self-check only")
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not (Path("src/nlwlab/__init__.py").is_file()
            and Path("src/nlwlab/cli.py").is_file()):
        print("bench: run from a checkout root holding src/nlwlab", file=sys.stderr)
        return 2

    # the path enters the configs, so it depends on nothing but workload and
    # seed: the artifact digests then compare across runs
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    plan = write_inputs(args.workload, args.seed, work, short=args.short)
    n_ops = sum(1 + (op["readback"] is not None)
                for op in json.loads(plan.read_text())["ops"])

    workers = []
    while True:
        untraced = [w for w in workers if not w["trace"]]
        traced = [w for w in workers if w["trace"]]
        elapsed = time.perf_counter() - start
        enough = len(untraced) >= MIN_RUNS and (not args.trace or len(traced) >= MIN_RUNS)
        if workers:
            typical = statistics.median(w["elapsed_s"] for w in workers)
            if (enough and elapsed + typical > args.seconds
                    or elapsed + typical > LIMIT_S):
                break
        trace = bool(args.trace) and len(traced) < len(untraced)
        workers.append(_run_worker(plan, work / f"w{len(workers)}", trace, n_ops,
                                   timeout=LIMIT_S - elapsed))

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    ok = [w for w in workers if "wall_s" in w]
    for w in ok:
        w["wall_rel"] = w["wall_s"] / w["cal_s"]
        w["setup_s"] = w["setup_raw_s"] / w["cal_s"] * CAL_REF_S
    untraced = [w for w in ok if not w["trace"]]
    traced = [w for w in ok if w["trace"]]
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "short": args.short, "workers": len(workers),
        "failed_ratio": failed / attempted,
        "errors": [e for w in workers for e in w["errors"]][:5],
        "digests": sorted({w["digest"] for w in ok}),
        "environment": _environment(),
    }
    for key in ("wall_rel", "wall_s", "cal_s", "setup_s", "setup_raw_s", "rss_mb"):
        if untraced:
            details[key] = _quartiles([w[key] for w in untraced])

    if not untraced or (args.trace and not traced):
        print(json.dumps(details))
        print("bench: no worker finished a run", file=sys.stderr)
        return 1
    if args.trace:
        values = _check_layers(traced)
        values["trace_overhead"] = (statistics.median(w["wall_rel"] for w in traced)
                                    / details["wall_rel"]["median"])
        details["traced_wall_s"] = _quartiles([w["wall_s"] for w in traced])
    else:
        values = {"wall_rel": details["wall_rel"]["median"],
                  "setup_s": details["setup_s"]["median"],
                  "peak_rss_mb": details["rss_mb"]["median"]}
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
