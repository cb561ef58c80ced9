"""The names the demos and the README's python blocks import from softqn exist,
the package root exports exactly those it is asked for, and every demo runs."""

import ast
import importlib
import re
import runpy
from pathlib import Path

import pytest

import softqn

ROOT = Path(__file__).resolve().parents[1]


def _sources():
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text()
    readme = (ROOT / "README.md").read_text()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S), start=1):
        yield f"README python block {i}", block


def _softqn_imports(source):
    """(module, name) for each name imported from softqn or one of its modules;
    name is None for a plain ``import softqn...``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "softqn":
                yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "softqn":
                    yield alias.name, None


SOURCES = list(_sources())


@pytest.mark.parametrize("source", [s for _, s in SOURCES], ids=[label for label, _ in SOURCES])
def test_softqn_imports_resolve(source):
    imports = list(_softqn_imports(source))
    assert imports, "no softqn import found"
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if name is not None and not hasattr(importlib.import_module(module), name)
    ]
    assert not missing


def test_package_root_exports_what_demos_and_readme_import():
    used = {
        name
        for _, source in SOURCES
        for module, name in _softqn_imports(source)
        if module == "softqn" and name is not None
    }
    assert sorted(softqn.__all__) == sorted(used)


DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs_to_completion(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
