"""Import hygiene of the package: imports sit at module top, criteria is a leaf, tbglss does
not import selection at run time, only differentiation names the derivative methods, only the
CLI prints, only dataio writes files or encodes JSON (and only it and the CLI import csv or
pathlib), only pool runs tasks, only the system and the true solution build coefficient
trajectories, and the package runs on numpy alone: neither importing the CLI nor running it
loads any scipy module.  Every vcpde name the benchmark in perfbench/ imports or traces, and
every one the README's examples import, exists."""

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


def _file_write(call: ast.Call) -> str | None:
    """The name of the function `call` writes a file with, if it does: open or Path.open with
    a writing mode (or one not spelled out), write_text, write_bytes, np.save* or
    csv.writer."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
    if name == "open":
        # open(file, mode) or path.open(mode); "r" when the mode is left out
        given = call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
        given += [k.value for k in call.keywords if k.arg == "mode"]
        mode = given[0] if given else ast.Constant("r")
        writes = not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax+"))
        return name if writes else None
    if (name in ("write_text", "write_bytes")
            or (owner in ("np", "numpy") and name.startswith("save"))
            or (owner == "csv" and name in ("writer", "DictWriter"))):
        return name
    return None


def test_only_dataio_writes_files():
    # dataio owns every output format; the rest of the package may make a directory or read
    # a file (the CLI's --config) but writes none
    writes = {path.name: sorted(f"{name}:{node.lineno}"
                                for node in ast.walk(ast.parse(path.read_text()))
                                if isinstance(node, ast.Call) and (name := _file_write(node)))
              for path in MODULES}
    outside = {name: found for name, found in writes.items() if found and name != "dataio.py"}
    assert not outside, f"file writes outside dataio.py: {outside}"
    assert {"open", "write_text", "savetxt", "savez_compressed", "writer"} <= {
        write.split(":")[0] for write in writes["dataio.py"]}  # the check sees dataio's writes
    io_imports = sorted(f"{path.name}:{node.lineno}" for path in MODULES
                        if path.name not in ("dataio.py", "cli.py")
                        for node in _imports(ast.parse(path.read_text()))
                        if {"csv", "pathlib"} & {name.split(".")[0] for name in _modules(node)})
    assert not io_imports, f"csv or pathlib imported outside dataio.py and cli.py: {io_imports}"


def test_only_dataio_encodes_json():
    # one encoder states the JSON layout (indent 2, sorted keys) of every file
    calls = sorted(
        f"{path.name}:{node.lineno}"
        for path in MODULES if path.name != "dataio.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps") and getattr(node.func.value, "id", None) == "json"
    )
    assert not calls, f"json.dump or json.dumps outside dataio.py: {calls}"


def _docstrings(tree) -> set[int]:
    """The id of every docstring's constant in `tree`."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def test_only_differentiation_names_the_derivative_methods():
    # the method names are stated once, beside the tiers that pick them; the CLI imports
    # DIFF_METHODS and POLY_FIT_METHODS for its choices and its option readers
    names = {"finite_difference", "poly_fit"}
    found = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = _docstrings(tree)
        found[path.name] = sorted(f"{node.value}:{node.lineno}" for node in ast.walk(tree)
                                  if isinstance(node, ast.Constant) and node.value in names
                                  and id(node) not in docstrings)
    outside = {name: lines for name, lines in found.items()
               if lines and name != "differentiation.py"}
    assert not outside, f"derivative method names outside differentiation.py: {outside}"
    assert {line.split(":")[0] for line in found["differentiation.py"]} == names  # it sees them


def _calls(tree, name):
    """Every call in `tree` of a function or method called `name`."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_only_the_system_and_the_true_solution_build_trajectories():
    # every method's fit reaches physical units through `GroupedLinearSystem.trajectories`;
    # the solvers' closed-form truth is the one other maker of trajectories
    makers = {("library.py", "trajectories"), ("solvers.py", "true_coefficients")}
    found, inside = set(), set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {(path.name, call.lineno) for call in _calls(tree, "CoefficientTrajectories")}
        inside |= {(path.name, call.lineno) for function in ast.walk(tree)
                   if isinstance(function, ast.FunctionDef) and (path.name, function.name) in makers
                   for call in _calls(function, "CoefficientTrajectories")}
    outside = sorted(f"{name}:{line}" for name, line in found - inside)
    assert not outside, f"CoefficientTrajectories built outside its two makers: {outside}"
    assert {name for name, _ in inside} == {"library.py", "solvers.py"}  # the check sees both


def _runs_tasks(node) -> bool:
    """Whether `node` imports a module that starts processes or threads, or names `Workers`."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        names = _modules(node)
        return (bool({"multiprocessing", "threading", "concurrent"}
                     & {name.split(".")[0] for name in names})
                or any(name.split(".")[-1] == "Workers" for name in names))
    return "Workers" in (getattr(node, "id", None), getattr(node, "attr", None))


def test_only_pool_runs_tasks():
    # `pool.drive` is the one way a task runs: no other module starts a process or a thread,
    # or opens workers of its own
    found = sorted(f"{path.name}:{node.lineno}" for path in MODULES if path.name != "pool.py"
                   for node in ast.walk(ast.parse(path.read_text())) if _runs_tasks(node))
    assert not found, f"processes, threads or Workers outside pool.py: {found}"


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
