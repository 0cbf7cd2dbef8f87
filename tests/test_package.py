"""Package hygiene: every public name exists, and every import the package
makes is one that installing it provides."""

import ast
import importlib
import re
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "orbitlab").glob("*.py"))
# importing __main__ would run the CLI; it declares no __all__
MODULES = [p for p in SOURCES if p.stem != "__main__"]


def _runtime_dependencies() -> set[str]:
    """Import names of pyproject's ``[project].dependencies``."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = (re.match(r"[A-Za-z0-9_.-]+", req).group() for req in project["dependencies"])
    return {n.lower().replace("-", "_") for n in names}


def _imports(path: Path):
    """(line, top-level module) of every absolute import in the file, those
    inside functions included; relative imports stay inside the package."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_resolves(path):
    module = importlib.import_module(
        "orbitlab" if path.stem == "__init__" else f"orbitlab.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{path.name}: __all__ names {missing} that do not exist"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_package_or_runtime_dependencies(path):
    allowed = sys.stdlib_module_names | _runtime_dependencies() | {"orbitlab"}
    stray = [f"line {line}: {name}" for line, name in _imports(path) if name not in allowed]
    assert not stray, f"{path.name} imports what installing orbitlab does not provide: {stray}"
