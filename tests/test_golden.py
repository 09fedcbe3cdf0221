"""Behaviour lock: the numeric content of the seven exemplar runs.

Every config under configs/ is run in-process into a temporary directory, and
every number it writes is compared with tests/golden.json: each column of the
CSV artifacts (step log, tails, records, contraction, exponents), every
numeric leaf of the JSON artifacts (norm report, residuals, linear-check
report), the manifest's check values and pass flags plus its extras
(verify-W report, blowup times), and of each stored state file its header
time, u and v at every STATE_SAMPLE-th node and their max |.|.  The
manifest's config echo and wall time are not pinned.

Tolerance: 1e-12 relative to the largest |value| of the column (or of the
field, for a scalar), so columns that cross zero, such as z, are compared
on their own scale.  Flags, nulls and non-finite values must match exactly.

Regenerate the file only for an intended behaviour change, and record the
regeneration and its reason in CHANGES.md.  A regeneration keeps every
stored value still within tolerance, so its diff shows only what moved:

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from nlwlab.cli import parse_config, run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
RTOL = 1e-12
STATE_SAMPLE = 64


def _csv_columns(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(tok) for tok in ln.split(",")] for ln in lines[1:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _leaves(node, path: str, out: dict) -> None:
    if isinstance(node, dict):
        for key, val in node.items():
            _leaves(val, f"{path}/{key}", out)
    elif isinstance(node, list):
        for i, val in enumerate(node):
            _leaves(val, f"{path}/{i}", out)
    elif node is None or isinstance(node, (bool, int, float)):
        out[path] = node


def _state_numbers(text: str) -> dict:
    """A state file's header time, and u and v sampled every STATE_SAMPLE-th
    node with their max |.| over all nodes."""
    header, _, body = text.partition("\n")
    rows = [[float(tok) for tok in ln.split()] for ln in body.splitlines() if ln.strip()]
    numbers = {"t": json.loads(header.lstrip("#"))["t"]}
    for i, name in ((1, "u"), (2, "v")):
        col = [row[i] for row in rows]
        numbers[name] = col[::STATE_SAMPLE]
        numbers[f"max_abs_{name}"] = max(map(abs, col))
    return numbers


def _manifest_numbers(manifest: dict) -> dict:
    body = {k: v for k, v in manifest.items() if k not in ("config", "walltime_s")}
    body["checks"] = {c["name"]: {"value": c["value"], "pass": c["pass"]}
                      for c in manifest["checks"]}
    return body


def run_exemplar(name: str, out: Path) -> dict:
    """Run configs/<name>.json into out; return {key: number or column}."""
    raw = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    run(parse_config(raw, out_override=str(out)))
    numbers = {}
    for path in sorted(out.iterdir()):
        key = f"{name}/{path.name}"
        if path.suffix == ".csv":
            for col, values in _csv_columns(path.read_text()).items():
                numbers[f"{key}:{col}"] = values
        elif path.suffix == ".json":
            doc = json.loads(path.read_text())
            if path.name == "manifest.json":
                doc = _manifest_numbers(doc)
            _leaves(doc, key, numbers)
        elif path.suffix == ".txt":
            for field, value in _state_numbers(path.read_text()).items():
                numbers[f"{key}:{field}"] = value
    return numbers


def _finite(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)


def _mismatch(got, want) -> str | None:
    """None if got matches want within the lock's tolerance, else a reason."""
    if not isinstance(want, list):
        got, want = [got], [want]
    if not isinstance(got, list) or len(got) != len(want):
        return f"shape differs: {got!r}"
    tol = RTOL * max((abs(w) for w in want if _finite(w)), default=0.0)
    for i, (g, w) in enumerate(zip(got, want)):
        if _finite(g) and _finite(w):
            same = abs(g - w) <= tol
        else:  # flags, nulls, inf and nan: exactly, by type and value
            same = type(g) is type(w) and (g == w or (g != g and w != w))
        if not same:
            return f"entry {i}: {g!r} != {w!r} (tolerance {tol:.3e})"
    return None


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_exemplar(golden):
    assert sorted({key.split("/")[0] for key in golden}) == CONFIGS
    assert GOLDEN.stat().st_size < 400 * 1024


@pytest.mark.parametrize("name", CONFIGS)
def test_exemplar_matches_golden(name, tmp_path, golden):
    got = run_exemplar(name, tmp_path / name)
    want = {k: v for k, v in golden.items() if k.split("/")[0] == name}
    assert sorted(got) == sorted(want)
    bad = {key: why for key in want if (why := _mismatch(got[key], want[key]))}
    assert not bad, bad


def _merged(stored: dict, numbers: dict) -> dict:
    """The regenerated lock: each stored value that :func:`_mismatch` still
    accepts is kept as it is, a value that moved out of tolerance or a new
    key takes the run's number, and a key no run writes any more is dropped."""
    return {key: stored[key] if key in stored and _mismatch(got, stored[key]) is None
            else got for key, got in numbers.items()}


def test_regeneration_keeps_the_values_still_in_tolerance():
    stored = {"a": [1.0, 2.0], "b": 3.0, "c": [True, None], "d": [1.0], "gone": 1.0}
    numbers = {"a": [1.0 + 1e-13, 2.0], "b": 3.1, "c": [True, None], "d": [1.0, 2.0],
               "new": [0.5]}
    assert _merged(stored, numbers) == {"a": [1.0, 2.0], "b": 3.1, "c": [True, None],
                                        "d": [1.0, 2.0], "new": [0.5]}


def _write_golden() -> None:
    numbers = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            numbers.update(run_exemplar(name, Path(tmp) / name))
    if GOLDEN.exists():  # only what moved out of tolerance is rewritten
        numbers = _merged(json.loads(GOLDEN.read_text()), numbers)
    # one entry per line: diffs of a regeneration stay readable
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(numbers.items()))
    GOLDEN.write_text("{\n" + body + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate")
    _write_golden()
