"""The public surface: what `condlab` exports, and the README's library example."""

import ast
import importlib
import inspect
import pathlib
import re

import pytest

import condlab
from condlab import walker
from condlab.cli import _COMMANDS
from condlab.environment import Lattice
from condlab.operators import TorusOperator

MODULES = ("environment", "errors", "experiments", "functionals", "operators", "spectral", "walker")


def test_package_exports_exactly_the_modules_public_names():
    declared = set()
    for name in MODULES:
        declared.update(importlib.import_module(f"condlab.{name}").__all__)
    exported = {k for k, v in vars(condlab).items() if not k.startswith("_") and not inspect.ismodule(v)}
    assert sorted(exported - declared) == []
    assert sorted(declared - exported) == []


def test_readme_library_example_runs(capsys):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    # the asymptotic variance, then the decay curve
    printed = capsys.readouterr().out.splitlines()
    assert float(printed[0]) > 0
    assert printed[1].startswith("[")



def _default_rng_callers(tree):
    """The innermost enclosing function (None at module level) of each default_rng call."""
    callers = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and ast.unparse(child.func).endswith("default_rng"):
                callers.append(func)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    visit(tree, None)
    return callers


def test_generators_come_only_from_the_seed_tree_helper():
    # every random stream is a node of util.child_rng's seed tree
    src = pathlib.Path(condlab.__file__).resolve().parent
    callers = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        found = _default_rng_callers(ast.parse(text))
        assert len(found) == text.count("default_rng("), path.name
        callers += [(path.stem, func) for func in found]
    assert sorted(callers) == [("util", "child_rng")]


@pytest.mark.parametrize("command, experiment", [
    ("decay", "variance_decay_experiment"), ("diffusivity", "diffusivity_experiment"),
    ("msd", "msd_experiment"), ("contract", "contractivity_experiment"), ("nash-check", "nash_chain_check"),
])
def test_experiment_commands_pass_their_config_keys_as_parameters(command, experiment):
    # the command runs experiment(**config): each of its keys names a parameter
    params = inspect.signature(getattr(condlab, experiment)).parameters
    keys = [*_COMMANDS[command].defaults, "seed", "workers"]
    assert [key for key in keys if key not in params] == []


def test_experiments_reach_a_spectral_engine_only_through_torus_measures():
    # the engine follows from the walk kind inside spectral.torus_measures;
    # no experiment picks one, runs one, or builds a certificate itself
    path = pathlib.Path(condlab.__file__).resolve().parent / "experiments.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    engines = {"_quadrature_group", "_lanczos", "_gauss_radau", "_fourier_measure", "fft", "fftn", "Quadrature"}
    assert sorted(names & engines) == []
    assert "torus_measures" in names


def test_the_simple_walk_has_no_route_of_its_own():
    # the simple walk is the walk on unit conductances: no operator kind, no
    # walker of its own, and the generator's diagonal is derived, not passed
    assert "kind" not in inspect.signature(TorusOperator.__init__).parameters
    assert "diagonal" not in inspect.signature(Lattice.generator_entries).parameters
    assert "simulate_srw" not in walker.__all__
