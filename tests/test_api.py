"""Public-API consistency of the package modules."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import darboux3

PACKAGE_DIR = Path(darboux3.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(darboux3.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"darboux3.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_cross_module_imports_are_exported():
    """Every public name one module (or ``__init__``) imports from another
    is listed in that module's ``__all__``."""
    unlisted = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module):
                continue
            exported = importlib.import_module(f"darboux3.{node.module}").__all__
            unlisted += [
                f"{path.stem} imports {node.module}.{alias.name}"
                for alias in node.names
                if not alias.name.startswith("_") and alias.name not in exported
            ]
    assert not unlisted
