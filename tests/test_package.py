"""Package hygiene: every public name exists, and every import the package
makes is one that installing it provides."""

import ast
import importlib
import json
import os
import re
import subprocess
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


def _unused_imports(path: Path) -> list[str]:
    """Names the module imports and never uses; a line marked
    ``# noqa: F401`` keeps its imports. A name counts as used if it is read
    anywhere in the module or listed in its ``__all__``."""
    text = path.read_text()
    tree, lines = ast.parse(text), text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"line {alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(path)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


# run in a fresh interpreter: the factorial family through classify-seq and
# E2, then the names of the scipy modules loaded and whether importing the
# package built the factorial family's tables
NO_SCIPY_CHILD = """
import json, sys
from orbitlab import expcli, seqcore
built_on_import = seqcore._ln_tables.cache_info().currsize
with open("e2.json", "w") as f:
    json.dump({"scenario": "E2", "N": 2000, "recurrence_N": 100, "ratio_N": 1000}, f)
codes = [expcli.main(["classify-seq", "--family", "factorial", "--horizon", "10000"]),
         expcli.main(["run", "--config", "e2.json", "--out", "e2"])]
print(json.dumps([codes, built_on_import, sorted(m for m in sys.modules
                                                 if m.split(".")[0] == "scipy")]))
"""


def test_factorial_family_imports_no_scipy(tmp_path):
    # importing scipy.special adds about 26 MB to a process's peak RSS
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_CHILD], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, built_on_import, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert built_on_import == 0
    assert scipy_modules == []
