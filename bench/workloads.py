"""Seeded inputs for the benchmark workloads.

Each workload is a list of operations on generated JSON configs (and, for
``snapshot_io``, a generated state file).  The seed draws only the shape of
the initial profile from narrow ranges; grid size, step count, snapshot
stride and snapshot count are fixed per workload, so every seed does the
same amount of work.  Inputs are written here, before any timing, by the
benchmark's own code: the program under test only ever reads them.

``short`` shrinks every grid and run for the schema self-check; it is never
used for measurements.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

WORKLOADS = ("evolve_bump_long", "snapshot_io", "norms_bootstrap")

# The evolve configs enable energy_drift and exterior_zero but not the
# scenario's finite_speed check.  That check compares the support radius,
# the last node where max(|u|, |v|) > 1e-12, against rho0 + t + 2h, with rho0
# taken from u alone at t = 0 (v = 0 there).  Along a steep compact tail |v|
# passes the floor up to three nodes beyond |u|, so whether the check passes
# depends on where the floor falls between nodes: with h = 1/512 the bump
# radius 1.077626, amplitude 0.920217 exceeds the bound by exactly h.
# exterior_zero tests the same light cone on |u| with a 1e-12 tolerance.


def _evolve_bump_long(rng: random.Random, short: bool):
    # defocusing p = 7 bump on a large grid, coarse stride, cone guard on: the
    # leapfrog kernel and the per-step energy/virial dominate
    h = 1.0 / 512
    n, steps, stride = (1536, 768, 128) if short else (4096, 3072, 512)
    cfg = {
        "scenario": "evolve",
        "equation": {"p": 7.0, "mu": 1},
        "grid": {"h": h, "n": n},
        "initial": {"kind": "bump",
                    "radius": round(rng.uniform(0.9, 1.1), 6),
                    "amplitude": round(rng.uniform(0.9, 1.1), 6)},
        "run": {"t_final": steps * h, "snapshot_stride": stride},
        "checks": {"energy_drift": 1e-4, "exterior_zero": 1e-12},
    }
    return [{"name": "evolve", "config": cfg}], {}


def _snapshot_state(rng: random.Random, n: int, h: float) -> str:
    """Text state file (core's format) holding a seeded sum of compact bumps.

    The bumps overlap and their centres move by at most 0.05, so the support
    and with it the number of nonzero values written per snapshot (the cost
    of the text I/O) hardly depend on the seed.
    """
    r = np.arange(n + 1, dtype=float) * h
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    for centre in (1.0, 1.75, 2.5):
        centre += rng.uniform(-0.05, 0.05)
        width = rng.uniform(0.45, 0.55)
        amp = rng.uniform(0.04, 0.08)  # far below the focusing blowup threshold
        x = np.abs(r - centre) / width
        inside = x < 1.0
        bump = np.zeros(n + 1)
        bump[inside] = np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
        u += amp * bump
        v += 0.5 * amp * bump
    header = {"p": 5.0, "mu": -1, "h": h, "n": n, "t": 0.0}
    rows = [f"{float(a)!r} {float(b)!r} {float(c)!r}" for a, b, c in zip(r, u, v)]
    return "# " + json.dumps(header) + "\n" + "\n".join(rows) + "\n"


def _snapshot_io(rng: random.Random, short: bool):
    # focusing p = 5 from a seeded state file, a snapshot at every other
    # layer, then every snapshot read back: core's text I/O dominates
    h = 1.0 / 256
    n, steps, stride = (1024, 64, 2) if short else (2560, 256, 2)
    cfg = {
        "scenario": "evolve",
        "equation": {"p": 5.0, "mu": -1},
        "grid": {"h": h, "n": n},
        "initial": {"kind": "file", "path": "initial.txt"},
        "run": {"t_final": steps * h, "snapshot_stride": stride},
        "checks": {"energy_drift": 1e-3, "exterior_zero": 1e-12},
    }
    # layer 0, every stride-th interior layer and the final layer are stored
    snapshots = 2 + len(range(stride, steps, stride))
    files = {"initial.txt": _snapshot_state(rng, n, h)}
    return [{"name": "evolve", "config": cfg, "readback": snapshots}], files


def _norms_bootstrap(rng: random.Random, short: bool):
    # n = 2048 takes the direct O(n^2) sine sum, n = 3000 the DST; bootstrap
    # arithmetic rides along
    n_direct, n_dst = (512, 750) if short else (2048, 3000)
    direct = {
        "scenario": "norms",
        "equation": {"p": 5.0, "mu": 1},
        "grid": {"h": 16.0 / n_direct, "n": n_direct},
        "initial": {"kind": "gaussian",
                    "width": round(rng.uniform(0.9, 1.1), 6),
                    "amplitude": round(rng.uniform(0.9, 1.1), 6)},
        "run": {"t_final": 32 * 16.0 / n_direct, "snapshot_stride": 1},
        "norms": {"betas": [k / 8.0 for k in range(12)],
                  "tail_radii": [2.0, 4.0, 8.0],
                  "g1_radii": [0.5, 1.0, 2.0, 4.0],
                  "sp_interval": [0.0, 32 * 16.0 / n_direct]},
        "checks": {"route_agreement": 1e-6, "l2_match": 1e-10,
                   "tail_monotone": 0.0, "hardy": 1.0},
    }
    dst = {
        "scenario": "norms",
        "equation": {"p": 5.0, "mu": 1},
        "grid": {"h": 60.0 / n_dst, "n": n_dst},
        "initial": {"kind": "gaussian", "width": round(rng.uniform(0.9, 1.1), 6),
                    "amplitude": 1.0},
        "run": {"t_final": 0.0},
        "norms": {"betas": [0.0, 0.5, 1.0, 1.16667], "tail_radii": [2.0, 4.0, 8.0]},
        "checks": {"route_agreement": 1e-6, "l2_match": 1e-10,
                   "tail_monotone": 0.0, "hardy": 1.0},
    }
    boot = {
        "scenario": "bootstrap",
        "bootstrap": {"p_values": [5.0, 6.0, 7.0, 9.0, 13.0],
                      "beta0_values": [0.01, 0.1], "tol": 1e-12,
                      "dense_sample": 2000},
        "checks": {"contraction_subunit": 1.0, "iteration_monotone": 0.0,
                   "limit_gap": 1e-10, "fixed_point": 5e-15},
    }
    ops = [{"name": "norms_direct", "config": direct},
           {"name": "norms_dst", "config": dst},
           {"name": "bootstrap", "config": boot}]
    return ops, {}


_BUILDERS = {
    "evolve_bump_long": _evolve_bump_long,
    "snapshot_io": _snapshot_io,
    "norms_bootstrap": _norms_bootstrap,
}


def write_inputs(workload: str, seed: int, work: Path, short: bool = False) -> Path:
    """Generate the workload's inputs under ``work``; return the plan file.

    The plan lists the operations in order.  Each has a config file path
    (relative paths inside configs are resolved against ``work``) and, for
    a snapshot read-back, the number of snapshot files the run must leave.
    """
    ops, files = _BUILDERS[workload](random.Random(f"{workload}:{seed}"), short)
    work.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (work / name).write_text(text)
    plan = []
    for op in ops:
        cfg = op["config"]
        if cfg.get("initial", {}).get("kind") == "file":
            cfg["initial"]["path"] = str(work / cfg["initial"]["path"])
        path = work / f"{op['name']}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n")
        plan.append({"name": op["name"], "config": str(path),
                     "readback": op.get("readback")})
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps({"workload": workload, "seed": seed,
                                     "ops": plan}, indent=2) + "\n")
    return plan_path
