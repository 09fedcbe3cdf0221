"""One measured workload run in a fresh process.

Usage: python3 bench/worker.py PLAN OUT_DIR SPAWN_TIME TRACE

Set-up (interpreter start, ``import nlwlab``, parsing every config of the
plan) is timed from SPAWN_TIME, the parent's ``time.perf_counter()`` just
before it started this process (the clock is system-wide on Linux).  Then
the plan's operations run once, timed together: each ``cli.run`` and, where
the plan asks for it, the read-back of every snapshot the run wrote.  A
fixed calibration kernel runs just before and just after that timed run;
the mean of its two times goes out with the result, so that the parent can
divide the machine's momentary speed out of the wall and set-up times.  The
``cli.run`` calls are also timed on their own (``run_s``), against which the
parent checks a traced worker's ``cli.run`` spans.

An operation fails when it raises, returns non-zero, leaves a manifest whose
status is not "pass", or (read-back) finds the wrong number of snapshots,
times that do not strictly increase, or a final max|u| that differs in any
bit from the last step-log row.

Prints one JSON object on its last stdout line.  OUT_DIR is removed before
the process ends; its artifact digest is taken first.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def _import_nlwlab():
    src = Path("src").resolve()
    sys.path.insert(0, str(src))
    import nlwlab.cli
    if not Path(nlwlab.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"nlwlab imported from {nlwlab.cli.__file__}, not {src}")
    return nlwlab.cli


def _digest(out: Path) -> str:
    """sha256 over every artifact; the manifest's wall time is left out."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("walltime_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(str(path.relative_to(out)).encode() + b"\0" + data)
    return h.hexdigest()


def _readback(core, out: Path, expected: int) -> str | None:
    """Load every snapshot; return why the read-back failed, or None."""
    files = sorted(out.glob("state_*.txt"))
    states = [core.load_state(f) for f in files]
    if len(states) != expected:
        return f"read-back: {len(states)} snapshots, expected {expected}"
    times = [s.t for s in states]
    if any(b <= a for a, b in zip(times, times[1:])):
        return "read-back: snapshot times do not strictly increase"
    last_row = (out / "step_log.csv").read_text().strip().splitlines()[-1]
    logged = float(last_row.split(",")[3])
    loaded = float(abs(states[-1].u).max())
    if loaded != logged:
        return f"read-back: final max|u| {loaded!r} != step log {logged!r}"
    return None


def _calibrate(scratch: Path) -> float:
    """Seconds taken by a fixed mix of the kinds of work the workloads do.

    Interpreter loops over small numpy arrays, a dense sine matrix product,
    and float text written to ``scratch``, read back and parsed; all on
    arrays far smaller than any workload's, so the peak RSS is not touched.
    The benchmark code owns it, so no program change can alter its duration:
    only the machine's speed at that moment does.
    """
    import numpy as np
    x = np.linspace(0.0, 1.0, 4097)
    m = np.linspace(0.0, 3.0, 256)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(5):
        for _ in range(150):
            y = np.abs(x) ** 6.0 * x
            acc += float(np.trapezoid(y * y, dx=1e-3))
        for _ in range(6):
            acc += float((np.sin(np.outer(m, m)) @ m).sum())
        scratch.write_text("\n".join(
            f"{a!r} {b!r}" for a, b in zip(x.tolist(), (0.3 * x).tolist())))
        acc += sum(float(tok) for tok in scratch.read_text().split())
    scratch.unlink()
    if not np.isfinite(acc):
        raise ArithmeticError("calibration produced a non-finite sum")
    return time.perf_counter() - t0


def main(argv) -> int:
    plan_path, out_root, spawn, trace = argv[1], Path(argv[2]), float(argv[3]), argv[4] == "1"
    cli = _import_nlwlab()
    from nlwlab import core
    plan = json.loads(Path(plan_path).read_text())
    ops = []
    for op in plan["ops"]:
        raw = json.loads(Path(op["config"]).read_text())
        cfg = cli.parse_config(raw, out_override=str(out_root / op["name"]))
        ops.append((op, cfg))
    setup_raw_s = time.perf_counter() - spawn

    tracer = None
    if trace:
        from spans import Tracer  # bench/ is this script's directory
        tracer = Tracer()
        tracer.install()

    cal_scratch = out_root.parent / f"{out_root.name}.cal.txt"
    cal_before = _calibrate(cal_scratch)
    attempted, errors, run_s = 0, [], 0.0
    t0 = time.perf_counter()
    for op, cfg in ops:
        out = Path(cfg.out_dir)
        attempted += 1
        try:
            t_run = time.perf_counter()
            try:
                rc = cli.run(cfg, threads=1)
            finally:
                run_s += time.perf_counter() - t_run
            status = json.loads((out / "manifest.json").read_text())["status"]
            if rc != 0 or status != "pass":
                errors.append(f"{op['name']}: exit {rc}, manifest status {status!r}")
        except Exception:
            errors.append(f"{op['name']}: {traceback.format_exc(limit=3)}")
        if op["readback"] is not None:
            attempted += 1
            try:
                why = _readback(core, out, op["readback"])
            except Exception:
                why = f"read-back: {traceback.format_exc(limit=3)}"
            if why:
                errors.append(f"{op['name']} {why}")
    wall_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal_s = 0.5 * (cal_before + _calibrate(cal_scratch))

    result = {
        "setup_raw_s": setup_raw_s,
        "wall_s": wall_s,
        "run_s": run_s,
        "cal_s": cal_s,
        "rss_mb": rss_mb,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "digest": _digest(out_root),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["min_span_self_s"] = tracer.min_self_s()
        tracer.write(out_root.parent / f"{out_root.name}.spans.json")
    shutil.rmtree(out_root, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
