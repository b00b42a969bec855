"""The public surface: what `condlab` exports, and the README's library example."""

import importlib
import inspect
import pathlib
import re

import condlab

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
