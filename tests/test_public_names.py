"""The package's public names: every `__all__` entry exists, and the package
re-exports only names its modules list. Layer tracing wraps each `__all__` name
by getattr, so a stale entry breaks every traced run."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import spdcpol

MODULES = [name for _, name, _ in pkgutil.iter_modules(spdcpol.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_exists(name):
    module = importlib.import_module(f"spdcpol.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"spdcpol.{name}.__all__ lists missing names {missing}"


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(spdcpol.__file__).read_text())
    checked = 0
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            module = importlib.import_module(f"spdcpol.{node.module}")
            if hasattr(module, "__all__"):
                unlisted = [a.name for a in node.names if a.name not in module.__all__]
                assert not unlisted, f"spdcpol imports {unlisted} outside {node.module}.__all__"
                checked += 1
    assert checked >= 4  # counting, polarimetry, spectral and state
