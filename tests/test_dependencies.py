"""Dependency audit: the runtime imports are exactly the declared dependencies."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported_top_levels() -> set:
    names = set()
    for path in sorted((ROOT / "src" / "nlwlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"nlwlab"}


def _declared_dependencies() -> set:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.\-]+", req).group(0).lower().replace("-", "_")
            for req in project["dependencies"]}


def test_runtime_imports_match_declared_dependencies():
    assert _imported_top_levels() == _declared_dependencies() == {"numpy"}


def test_importing_the_cli_skips_command_line_and_pool_modules():
    # argparse is needed only by main; no runner uses a thread pool
    code = ("import sys, nlwlab.cli\n"
            "print(sorted(m for m in ('argparse', 'concurrent.futures') if m in sys.modules))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _numpy_calls(attr: str) -> Counter:
    """(module, top-level function or class) -> count of np.<attr>(...) calls
    in src/nlwlab; None names module-level code."""
    calls = Counter()
    for path in sorted((ROOT / "src" / "nlwlab").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            name = getattr(top, "name", None)
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == attr
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id in ("np", "numpy")):
                    calls[path.stem, name] += 1
    return calls


def test_one_radial_derivative():
    # d_r is diagnostics._radial_derivative everywhere, the step log included
    assert _numpy_calls("gradient") == Counter()


def test_trapezoid_only_in_one_dimensional_integrals():
    # 4 pi int f r^2 dr is diagnostics._radial_integral; np.trapezoid is left
    # to integrals without the r^2 weight
    assert _numpy_calls("trapezoid") == Counter({
        ("norms", "_frequency_norm"): 1,  # the frequency-side norm, d rho
        ("norms", "sp_norm"): 1,  # the time integral
        ("norms", "_lm_norm"): 1,  # the 1D L^m norm
        ("diagnostics", "support_and_hardy"): 1,  # Hardy: 4 pi int u^2 dr
        ("solver", "representation_residual"): 3,  # along the backward cone
    })
