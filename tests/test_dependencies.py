"""Dependency audit: the runtime imports are exactly the declared dependencies."""

import ast
import json
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


def _python(code: str, *args: str) -> str:
    """stdout of ``code`` run with ``args`` in a fresh interpreter on src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_skips_command_line_and_pool_modules():
    # argparse is needed only by main; no runner uses a thread pool
    code = ("import sys, nlwlab.cli\n"
            "print(sorted(m for m in ('argparse', 'concurrent.futures') if m in sys.modules))")
    assert _python(code) == "[]\n"


def test_importing_the_cli_builds_no_float_text_table():
    # the formatter's tables are built on first use, so set-up pays nothing
    code = ("import numpy as np, nlwlab.cli, nlwlab.core as core\n"
            "print(core._float_tables.cache_info().currsize)\n"
            "core._float_text(np.zeros(1))\n"
            "print(core._float_tables.cache_info().currsize)")
    assert _python(code) == "0\n1\n"


@pytest.mark.parametrize("config", sorted(p.name for p in (ROOT / "configs").glob("*.json")))
def test_parsing_loads_the_runner_module_and_running_loads_none(config, tmp_path):
    # nlwlab.scenarios is compiled while a config of one of its scenarios is
    # parsed, in set-up, and never for an evolve config; run then loads no
    # nlwlab module, so none compiles inside a timed run
    code = ("import json, sys\n"
            "from nlwlab import cli\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('nlwlab'))\n"
            "cfg = cli.parse_config(json.load(open(sys.argv[1])), out_override=sys.argv[2])\n"
            "parsed = loaded()\n"
            "cli.run(cfg)\n"
            "print(json.dumps([cfg.scenario, parsed, loaded()]))")
    scenario, parsed, ran = json.loads(_python(code, str(ROOT / "configs" / config),
                                               str(tmp_path / "out")))
    assert ("nlwlab.scenarios" in parsed) is (scenario != "evolve")
    assert {"nlwlab.norms", "nlwlab.bootstrap"} <= set(parsed)
    assert ran == parsed


def _calls(callee) -> Counter:
    """(module, top-level function or class) -> count of the calls in
    src/nlwlab whose callee node ``callee`` accepts; None names module-level code."""
    calls = Counter()
    for path in sorted((ROOT / "src" / "nlwlab").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            name = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and callee(node.func):
                    calls[path.stem, name] += 1
    return calls


def _numpy_calls(attr: str) -> Counter:
    """:func:`_calls` of np.<attr>(...)."""
    return _calls(lambda f: isinstance(f, ast.Attribute) and f.attr == attr
                  and isinstance(f.value, ast.Name) and f.value.id in ("np", "numpy"))


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
        ("diagnostics", "hardy_mass"): 1,  # Hardy: 4 pi int u^2 dr
    })


def test_one_lattice_rule():
    # whether x is a whole number of steps of h is decided by
    # core._lattice_steps alone; rounding x / h anywhere else is a second copy
    assert _calls(lambda f: isinstance(f, ast.Name) and f.id == "round") == Counter({
        ("core", "_lattice_steps"): 1})


def test_one_source_formula():
    # the source is -mu r |u|^{p-1} u, which divides by no power of r: a
    # power of r with exponent p - 1 would be a second, w-form copy of it
    def name(e):
        return getattr(e, "id", getattr(e, "attr", None))

    def is_p_minus_1(e):
        return (isinstance(e, ast.BinOp) and isinstance(e.op, ast.Sub)
                and name(e.left) == "p" and getattr(e.right, "value", None) == 1)

    found = []
    for path in sorted((ROOT / "src" / "nlwlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                base, exponent = node.left, node.right
            elif (isinstance(node, ast.Call) and name(node.func) in ("power", "pow")
                  and len(node.args) >= 2):
                base, exponent = node.args[:2]
            else:
                continue
            if is_p_minus_1(exponent) and "r" in map(name, ast.walk(base)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_evolve_is_the_only_kernel_driver():
    # the leapfrog kernel and its prefix views are driven from solver.evolve
    # alone: a second driver would be a second copy of the prefix, the guards
    # and the warning log
    for kernel in ("_source_term", "_advance", "_u_from_w", "_v_from_layers",
                   "_prefix_views"):
        callers = _calls(lambda f: isinstance(f, ast.Name) and f.id == kernel)
        assert set(callers) == {("solver", "evolve")}, kernel


def test_step_log_rows_is_the_one_engine_of_the_log_values():
    # E, z, max |u| and the support radius are computed for the solver's
    # blocks alone; a record reads them from the log, and a single-state
    # path beside it would be a second copy of the formulas
    def callers(name):
        return set(_calls(lambda f: getattr(f, "id", getattr(f, "attr", None)) == name))

    assert callers("_support_radii") == {("diagnostics", "step_log_rows")}
    assert callers("_radial_quadrature") == {("diagnostics", "step_log_rows"),
                                             ("diagnostics", "_radial_integral")}
    assert callers("step_log_rows") == {("solver", "evolve")}


def test_no_module_reads_the_environment():
    # every input that changes an artifact is a config field, which the
    # manifest echoes; an environment variable would escape the echo
    names = {"environ", "environb", "getenv", "getenvb"}
    reads = []
    for path in sorted((ROOT / "src" / "nlwlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in names:
                reads.append((path.stem, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [(path.stem, a.name) for a in node.names if a.name in names | {"*"}]
    assert reads == []


def test_runners_read_no_config_field():
    # parse_config reads every field; a runner takes the typed values.  The
    # scan sees all six runners, so a runner moved out of it fails here
    readers = _calls(lambda f: isinstance(f, ast.Name) and f.id == "_field")
    assert readers and all(module == "cli" for module, _ in readers)
    assert [name for _, name in readers if name.startswith("_run")] == []
    runners = {name for _, name in _calls(lambda f: True) if name and name.startswith("_run_")}
    assert runners == {"_run_evolve", "_run_norms", "_run_diagnose", "_run_bootstrap",
                       "_run_verify_w", "_run_linear_check"}


def test_public_names_have_a_caller():
    # a public name that only tests reach is not part of the package: every
    # name in an __all__, and every public method or property of a class
    # there, is read somewhere in src/nlwlab outside its own definition
    # (imports and the __all__ strings do not count), except the entry
    # points of tests/test_acceptance.py.  A module-level name is read as a
    # bare name in its own module or in one that imports it from there, or
    # as <module>.<name>; a method or property by its name alone
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted((ROOT / "src" / "nlwlab").glob("*.py"))}

    def imports(tree, module, name):
        return any(isinstance(node, ast.ImportFrom) and node.module == f"nlwlab.{module}"
                   and name in [a.name for a in node.names]
                   for node in ast.walk(tree))

    def read(name, definition, module=None):
        skip = set(ast.walk(definition))
        for stem, tree in trees.items():
            bare = module is None or stem == module or imports(tree, module, name)
            for node in ast.walk(tree):
                if not isinstance(getattr(node, "ctx", None), ast.Load) or node in skip:
                    continue
                if isinstance(node, ast.Name) and bare and node.id == name:
                    return True
                if isinstance(node, ast.Attribute) and node.attr == name and (
                        module is None or getattr(node.value, "id", None) == module):
                    return True
        return False

    uncalled = set()
    for module, tree in trees.items():
        public = next(ast.literal_eval(top.value) for top in tree.body
                      if isinstance(top, ast.Assign)
                      and [getattr(t, "id", None) for t in top.targets] == ["__all__"])
        for top in tree.body:
            if getattr(top, "name", None) in public:
                if not read(top.name, top, module):
                    uncalled.add(top.name)
                uncalled.update(f"{top.name}.{m.name}" for m in getattr(top, "body", [])
                                if isinstance(m, ast.FunctionDef)
                                and not m.name.startswith("_") and not read(m.name, m))
    assert uncalled == {"scale_state", "tail_norms", "sobolev_norm_1d", "contraction_constant"}


def test_only_parse_config_rejects_a_config():
    # a config is rejected while it is parsed, before any output exists:
    # ConfigError is raised, and a library rule reported under its field
    # path, in cli alone; a runner imports neither, and run catches none
    def named(name):
        return lambda f: getattr(f, "id", getattr(f, "attr", None)) == name

    raisers = set()
    for path in sorted((ROOT / "src" / "nlwlab").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        raisers.update(path.stem for node in ast.walk(tree)
                       if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                       and named("ConfigError")(node.exc.func))
    assert raisers == {"cli"}
    assert {module for module, _ in _calls(named("_reported_as"))} == {"cli"}
    scenarios = ast.parse((ROOT / "src" / "nlwlab" / "scenarios.py").read_text())
    imported = {alias.name for node in ast.walk(scenarios)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"ConfigError", "_reported_as"}
    cli = ast.parse((ROOT / "src" / "nlwlab" / "cli.py").read_text())
    run = next(top for top in cli.body if getattr(top, "name", None) == "run")
    caught = [ast.unparse(node.type) for node in ast.walk(run)
              if isinstance(node, ast.ExceptHandler) and node.type is not None]
    assert caught == ["solver.SolverError"]
