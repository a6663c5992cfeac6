"""Static checks that stand in for a linter: tracer targets resolve, no unused imports in
the package, tests or scripts, exported functions have callers, documented command lines
parse, README names resolve, importing the package leaves scipy's heavy subpackages out.
Also the Python scripts under scripts/ run and reach what they print."""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "splitavg"


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # bench/run.py --trace 1 wraps these; a refactor that drops one breaks it
    for module, attr, _ in _tracing().WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", sorted(
    str(p.relative_to(ROOT)) for folder in (PACKAGE, ROOT / "tests", ROOT / "scripts")
    for p in folder.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse((ROOT / path).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    traced = set()
    if Path(path).parent == PACKAGE.relative_to(ROOT):
        module = importlib.import_module(f"splitavg.{Path(path).stem}")
        traced = {attr for mod, attr, _ in _tracing().WRAPPED if mod is module}
    unused = set(_imported_names(tree)) - used - traced
    assert not unused, f"{path} imports {sorted(unused)} and never uses them"


def _cli_argvs(text):
    """Arguments of each ``splitavg.cli`` command line in a bash text."""
    for line in text.replace("\\\n", " ").splitlines():
        if "splitavg.cli" in line:
            line = re.sub(r"\$\{?model\}?", "ols", line).replace("$OUT", "grids_out")
            words = shlex.split(line, comments=True)
            yield words[words.index("splitavg.cli") + 1:]


def test_documented_command_lines_parse():
    # parsed, not run: a CLI refactor must keep every flag the grids and README use
    from splitavg.cli import UsageError, build_parser

    script = (ROOT / "scripts" / "run_reference_grids.sh").read_text()
    readme = "".join(re.findall(r"```bash\n(.*?)```", (ROOT / "README.md").read_text(),
                                flags=re.S))
    for text in (script, readme):
        argvs = list(_cli_argvs(text))
        assert argvs
        for argv in argvs:
            try:
                build_parser().parse_args(argv)
            except UsageError as exc:
                pytest.fail(f"{shlex.join(argv)}: {exc}")


def test_every_module_name_in_the_readme_resolves():
    # a `<module>.<name>` the README names must still exist in splitavg.<module>
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    named = set(re.findall(r"`(?:splitavg\.)?(\w+)\.(\w+)", (ROOT / "README.md").read_text()))
    named = sorted((module, attr) for module, attr in named if module in modules)
    assert named
    missing = [f"{module}.{attr}" for module, attr in named
               if not hasattr(importlib.import_module(f"splitavg.{module}"), attr)]
    assert not missing, f"README.md names {missing}, which do not exist"


def _called_names(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            yield func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_every_exported_function_is_called_outside_its_module():
    # a public function that only its own module (or nobody) calls is dead API
    import splitavg

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    functions = {name: Path(inspect.getsourcefile(getattr(splitavg, name))).resolve()
                 for name in exported if inspect.isfunction(getattr(splitavg, name))}
    callers = {name: set() for name in functions}
    for folder in ("src", "tests", "scripts", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            for name in set(_called_names(path)) & set(callers):
                callers[name].add(path.resolve())
    uncalled = sorted(name for name, paths in callers.items() if not paths - {functions[name]})
    assert not uncalled, f"exported but never called outside their module: {uncalled}"


def test_importing_the_package_loads_no_scipy_optimize_or_integrate():
    # scipy.optimize alone is ~200 modules and ~17 MB in every process that imports
    # splitavg; scipy.integrate, which highdim reads only on its reference path, imports it
    code = ("import sys, splitavg, splitavg.cli; print(' '.join(sorted(name for name in "
            "sys.modules if name.startswith(('scipy.optimize', 'scipy.integrate')))))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == []


def test_ridge_moment_script_fits_the_implemented_p1_coefficients():
    # the quadrature half of the script (~1.5 s); its Bartlett Monte Carlo takes ~15 s
    spec = importlib.util.spec_from_file_location(
        "validate_ridge_moments", ROOT / "scripts" / "validate_ridge_moments.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for sigma2, theta0 in script.P1_CASES:
        gam, delta_hat, sum_hat = script.fit_p1(sigma2, theta0)
        implemented = gam.second_order_sum()[0, 0]
        assert abs(delta_hat - gam.delta[0]) <= 1e-5
        assert abs(sum_hat - implemented) <= 1e-5
        for which in ("alt_gamma2", "uncorrected"):
            alt = script.alternate_sums(1, sigma2, np.array([theta0]), which)[0, 0]
            if f"{alt:+.6f}" != f"{implemented:+.6f}":  # a difference the script prints
                assert abs(alt - sum_hat) >= 0.06, (sigma2, theta0, which)


def test_tradeoff_script_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = ROOT / "scripts" / "accuracy_complexity_tradeoff.py"
    proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
