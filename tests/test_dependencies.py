"""The package declares numpy as its one runtime dependency, and pytest and
hypothesis for its tests: an import of anything else (say scipy) would pass
wherever that happens to be installed and break a clean install."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUNTIME = {"numpy", "fdkdv"}
ALLOWED = {
    "src/fdkdv": RUNTIME,
    "tests": RUNTIME | {"pytest", "hypothesis"},
}


def imported_packages(path: Path) -> set[str]:
    """Top-level package of every absolute import in the file, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("folder", sorted(ALLOWED))
def test_imports_are_declared(folder):
    files = sorted((ROOT / folder).glob("*.py"))
    assert files
    undeclared = {
        f"{path.name}: {name}"
        for path in files
        for name in imported_packages(path)
        if name not in sys.stdlib_module_names and name not in ALLOWED[folder]
    }
    assert not undeclared
