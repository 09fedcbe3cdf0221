"""Dependency audit: the runtime imports are exactly the declared dependencies."""

import ast
import os
import re
import subprocess
import sys
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
