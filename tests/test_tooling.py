"""Static checks that stand in for a linter: tracer targets resolve, no unused imports in
the package, tests or scripts, exported functions have callers, documented command lines
parse, README names resolve, only the model module draws random numbers, importing the
package leaves no scipy module loaded.
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


def test_grid_plans_reproduce_their_csvs(tmp_path):
    # the plan lines of the grids script, run in-process, write grids_out/ byte for byte
    from splitavg.cli import main

    script = (ROOT / "scripts" / "run_reference_grids.sh").read_text()
    argvs = [argv for argv in _cli_argvs(script) if argv[0] == "plan"]
    assert len(argvs) == 3
    for argv in argvs:
        out = Path(argv[argv.index("--out") + 1])
        argv[argv.index("--out") + 1] = str(tmp_path / out.name)
        assert main(argv) == 0
        assert (tmp_path / out.name).read_bytes() == (ROOT / out).read_bytes(), out.name


def test_grid_table1_and_wishart_lines_reproduce_their_csvs(tmp_path):
    # the same for table1 and wishart-check (~3 s): the high-dim solves, wishart-check's
    # random B and both of its oracle streams
    from splitavg.cli import main

    script = (ROOT / "scripts" / "run_reference_grids.sh").read_text()
    argvs = [argv for argv in _cli_argvs(script) if argv[0] in ("table1", "wishart-check")]
    assert len(argvs) == 2
    for argv in argvs:
        out = Path(argv[argv.index("--out") + 1])
        argv[argv.index("--out") + 1] = str(tmp_path / out.name)
        assert main(argv) == 0
        assert (tmp_path / out.name).read_bytes() == (ROOT / out).read_bytes(), out.name


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


# the numpy Generator methods that draw numbers; spawn only derives child generators
SAMPLERS = {name for name in dir(np.random.Generator)
            if not name.startswith("_") and name not in ("bit_generator", "spawn")}


def _calls_by_function(node, owner=None):
    """(innermost enclosing function name, call) for every call; None at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls_by_function(child, child.name)
            continue
        if isinstance(child, ast.Call):
            yield owner, child
        yield from _calls_by_function(child, owner)


def _resolve(module, node):
    """The object a name or dotted name stands for in a module's namespace, else None."""
    if isinstance(node, ast.Name):
        return getattr(module, node.id, None)
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(module, node.value), node.attr, None)
    return None


def test_only_the_model_module_draws_random_numbers():
    # one draw rule: every random number in the package comes from splitavg.model
    # (_draw, _gram_draw, _gaussian, sample_noise, split_uniform)
    allowed = set()
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "model":
            continue
        module = importlib.import_module(
            "splitavg" if path.stem == "__init__" else f"splitavg.{path.stem}")
        for owner, call in _calls_by_function(ast.parse(path.read_text())):
            func = call.func
            if not isinstance(func, ast.Attribute) or func.attr not in SAMPLERS:
                continue
            # a class's constructor (NoiseDist.laplace) or a module's function
            # (np.power) shares a name with a sampler; np.random's do draw
            receiver = _resolve(module, func.value)
            if inspect.isclass(receiver) or (inspect.ismodule(receiver)
                                             and receiver is not np.random):
                continue
            found.add((path.stem, owner, func.attr))
    assert found == allowed, f"random draws outside splitavg.model: {sorted(found)}"


def test_importing_the_package_leaves_no_scipy_module_loaded():
    # any scipy subpackage runs scipy's array-API layer (~110 modules, ~28 MB, numpy.f2py
    # and numpy.testing among them) in every process that imports splitavg; highdim reads
    # scipy.integrate only on its reference path.  The LAPACK extension the estimator
    # loads leaves sys.modules again, so a later scipy import finds scipy as it was
    code = ("import sys, splitavg, splitavg.cli; print(' '.join(sorted(name for name in "
            "sys.modules if name.startswith('scipy'))))")
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
