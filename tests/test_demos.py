"""The demos import only names the package still provides (parsed, not run)."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def resolves(module_name, name):
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return True
    is_package = hasattr(module, "__path__")
    return is_package and importlib.util.find_spec(f"{module_name}.{name}") is not None


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("softdss"):
            for alias in node.names:
                assert resolves(node.module, alias.name), (
                    f"{path.name}: {node.module} has no {alias.name}"
                )
