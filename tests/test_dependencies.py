"""The package declares numpy as its one runtime dependency, and pytest and
hypothesis for its tests: an import of anything else (say scipy) would pass
wherever that happens to be installed and break a clean install.  And every
module-level import in the package is used."""

import ast
import importlib.util
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


def load_spans() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


# __init__.py imports only to re-export
MODULES = sorted(p for p in (ROOT / "src/fdkdv").glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    # the traced benchmark patches each span's function on the modules that
    # import it, so those names may stay imported without a use
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    patched = {attr for _, attr, importers in load_spans().values() if path.stem in importers}
    unused = bound - used - patched
    assert not unused
