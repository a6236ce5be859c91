"""Every package's ``__all__`` names exactly what its ``__init__`` imports."""

import ast
import importlib
import inspect

import pytest

PACKAGES = ["carterlab", "carterlab.linear", "carterlab.permgrp",
            "carterlab.rootsys", "carterlab.verify"]


def imported_names(module) -> set:
    """Names bound by the relative imports of the module's source."""
    tree = ast.parse(inspect.getsource(module))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names}


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_exactly_the_imports(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), name
    for entry in exported:
        assert hasattr(module, entry), (name, entry)
    version = {"__version__"} & set(vars(module))
    assert set(exported) == imported_names(module) | version, name
