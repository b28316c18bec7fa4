"""Import hygiene of the package: imports sit at module top, criteria is a leaf, tbglss does
not import selection at run time, only the CLI prints, and the package runs on numpy alone:
neither importing the CLI nor running it loads any scipy module.  Every vcpde name the
benchmark in perfbench/ imports or traces, and every one the README's examples import,
exists."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vcpde"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imports(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_relative_import_inside_a_function(path):
    # any import inside a function is flagged, relative or not
    tree = ast.parse(path.read_text(), filename=str(path))
    nested = sorted({
        f"{path.name}:{node.lineno}"
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in _imports(function)
    })
    assert not nested, f"function-level imports: {nested}"


def test_criteria_is_a_leaf():
    tree = ast.parse((PACKAGE / "criteria.py").read_text())
    imported = {node.module for node in _imports(tree) if isinstance(node, ast.ImportFrom)}
    assert not imported & {"tbglss", "selection", "baselines", "pipeline"}


def _modules(node):
    """Every dotted name an import statement may bind a module to."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def test_tbglss_imports_selection_only_for_type_checking():
    # selection imports tbglss, so a run-time import back would be a cycle
    tree = ast.parse((PACKAGE / "tbglss.py").read_text())
    guarded = {id(node) for branch in ast.walk(tree)
               if isinstance(branch, ast.If) and ast.unparse(branch.test) == "TYPE_CHECKING"
               for statement in branch.body for node in _imports(statement)}
    runtime = sorted(node.lineno for node in _imports(tree) if id(node) not in guarded
                     and any(name.split(".")[-1] == "selection" for name in _modules(node)))
    assert not runtime, f"run-time imports of selection in tbglss.py: lines {runtime}"


def test_only_the_cli_prints():
    # the library reports through logging and return values
    calls = sorted(
        f"{path.name}:{node.lineno}"
        for path in MODULES if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    )
    assert not calls, f"print calls outside cli.py: {calls}"


def _scipy_modules_after(code, *args):
    """The scipy modules loaded once `code` has run in a fresh interpreter."""
    code += ("\nimport sys\n"
             "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    return subprocess.run([sys.executable, "-c", code, *args], check=True, capture_output=True,
                          text=True, env=env).stdout.splitlines()[-1].split()


def test_the_cli_loads_no_slow_scipy_module():
    # the package owns its filters, its RK45 and its binomial law
    loaded = _scipy_modules_after("import vcpde.cli")
    assert not loaded, f"importing vcpde.cli loads {loaded}"


def test_simulate_and_discover_with_ci_load_no_scipy_module(tmp_path):
    # a deferred import would show only once the solver and the bootstrap CIs have run
    code = (
        "import sys\n"
        "from vcpde import cli\n"
        "out = sys.argv[1]\n"
        "assert cli.main(['simulate', '--family', 'ad', '--nx', '64', '--nt', '48',\n"
        "                 '--t-span', '0:2', '--noise', '0.01', '--output', out]) == 0\n"
        "assert cli.main(['discover', '--dataset', out + '/advection_diffusion_noise0.01_seed0.json',\n"
        "                 '--t-rms', '0.02', '--t-ge', '0.1', '--iterations', '120',\n"
        "                 '--burnin', '30', '--update-iterations', '60', '--update-burnin', '15',\n"
        "                 '--with-ci', '--output', out + '/ci']) == 0\n"
    )
    loaded = _scipy_modules_after(code, str(tmp_path))
    report = json.loads((tmp_path / "ci" / "tbglss_advection_diffusion_noise0.01_seed0.json")
                        .read_text())
    assert report["bootstrap_cis"]["intervals"]  # the bootstrap ran
    assert not loaded, f"simulate and discover --with-ci load {loaded}"


PERFBENCH = PACKAGE.parents[1] / "perfbench"


def _perfbench_tree(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _vcpde_imports(tree):
    """(module, name) of every `from vcpde... import name` in `tree`."""
    return [(node.module, alias.name) for node in _imports(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "vcpde"
            for alias in node.names]


def test_every_vcpde_name_perfbench_imports_exists():
    # the benchmark imports these names; deleting one breaks its checks or its setup timing
    setup = next(node.value.value for node in ast.walk(_perfbench_tree("run.py"))
                 if isinstance(node, ast.Assign)
                 and [target.id for target in node.targets] == ["SETUP_CODE"])
    trees = [_perfbench_tree(name) for name in ("checks.py", "run.py", "traced.py")]
    names = [pair for tree in [*trees, ast.parse(setup)] for pair in _vcpde_imports(tree)]
    assert ("vcpde.cli", "make_scenario") in names
    missing = _unresolved(names)
    assert not missing, f"perfbench imports names vcpde no longer has: {missing}"


def test_every_vcpde_name_the_readme_imports_exists():
    # a reader runs the README's python examples as they stand
    text = (PACKAGE.parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    names = [pair for block in blocks for pair in _vcpde_imports(ast.parse(block))]
    assert ("vcpde", "discover") in names
    missing = _unresolved(names)
    assert not missing, f"README.md imports names vcpde no longer has: {missing}"


def _unresolved(names):
    """The `module.name` of every (module, name) pair that is neither a submodule nor an
    attribute of its module."""
    missing = []
    for module, name in names:
        try:
            importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            if not hasattr(importlib.import_module(module), name):
                missing.append(f"{module}.{name}")
    return missing


def test_every_function_perfbench_traces_exists():
    # a traced layer metric reads the spans named <module>.<function>; if that function is
    # gone, nothing records the span and the metric silently reads 0
    tree = _perfbench_tree("traced.py")
    constants = {target.id: node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)}
    layers = ast.literal_eval(constants["LAYERS"])
    spans = {key.value for key in constants["COUNTERS"].keys}
    spans |= {node.slice.value for node in ast.walk(tree) if isinstance(node, ast.Subscript)
              and isinstance(node.value, ast.Name) and node.value.id == "total"
              and isinstance(node.slice, ast.Constant)}
    spans = {span for span in spans if span.split(".")[0] in layers}
    # methods traced.py wraps by hand, by span name: `_wrap(tracer, name, Class.method, ...)`
    methods = {call.args[1].value: call.args[2] for call in ast.walk(tree)
               if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_wrap"
               and isinstance(call.args[2], ast.Attribute)}
    assert {"gibbs.sample_posterior", "tbglss.run_tbglss", "library.gram"} <= spans
    missing = []
    for span in sorted(spans):
        layer, name = span.split(".")
        module = importlib.import_module(f"vcpde.{layer}")
        if span in methods:
            owner = getattr(module, methods[span].value.id, None)
            found = inspect.isfunction(getattr(owner, methods[span].attr, None))
        else:  # traced.py wraps the public functions a layer defines
            fn = getattr(module, name, None)
            found = (not name.startswith("_") and inspect.isfunction(fn)
                     and fn.__module__ == module.__name__)
        if not found:
            missing.append(span)
    assert not missing, f"perfbench traces functions vcpde no longer has: {missing}"
