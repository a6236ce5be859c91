"""Every package's ``__all__`` names exactly what its ``__init__`` imports,
every public name of the engine is used by the engine itself, and the
package defines no exception types beyond its four."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import carterlab

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


# Public names that no module of the package reads, kept on purpose.
UNREFERENCED_ALLOWED = {
    "linear.groupspec.realize_group",   # the package's top-level entry point
    # closed forms and a direct series that tests compare the engine against
    "linear.classical.lie_order", "rootsys.weyl.torus_order",
    "rootsys.weyl.Twist.matrix", "permgrp.sylow.lower_central_series",
    # small, documented group API
    "permgrp.group.PermGroup.same_group_as", "permgrp.group.PermGroup.random_element",
    "permgrp.group.PermGroup.rebase", "permgrp.io.group_to_json",
    "linear.matrix.Matrix.scalar", "verify.registry.regenerate_derived",
    # the SL determinant check in test_classical.py
    "linear.matrix.Matrix.det",
    # brute-force oracles, independent of the engine by design
    "permgrp.bruteforce.closure_order", "permgrp.bruteforce.brute_normalizer",
    "permgrp.bruteforce.brute_centralizer", "permgrp.bruteforce.brute_conjugator",
    "permgrp.bruteforce.brute_subgroup_conjugator", "permgrp.bruteforce.all_subgroups",
}


def _public(names):
    return [n for n in names if not n.startswith("_")]


def test_every_public_name_is_referenced_or_allowed():
    """Public module-level functions and classes (read as a name or an
    attribute), and the public methods of those classes (read as an
    attribute), are read by some module other than a package
    ``__init__``, or are allowed above.  A local variable that shares a
    method's name does not count as a read of the method."""
    root = pathlib.Path(carterlab.__file__).parent
    defined, names, attributes = [], set(), set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                for name in _public([node.name]):
                    defined.append((f"{module}.{name}", name, False))
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                methods = [m.name for m in node.body if isinstance(m, ast.FunctionDef)]
                for name in _public(methods):
                    defined.append((f"{module}.{node.name}.{name}", name, True))
        if path.name != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
    unreferenced = {qual for qual, name, method in defined
                    if name not in attributes and (method or name not in names)}
    assert unreferenced == UNREFERENCED_ALLOWED


def test_exception_types_are_exactly_the_four():
    """One type per outcome: ``InputError`` exits 2, ``CapExceeded`` exits
    3 (and skips a case), ``SkipCase`` skips and ``CheckFailure`` fails a
    case.  A new exception class would be a fifth outcome no caller
    tells apart."""
    defined = set()
    for info in pkgutil.walk_packages(carterlab.__path__, "carterlab."):
        module = importlib.import_module(info.name)
        defined |= {f"{info.name}.{name}" for name, obj in vars(module).items()
                    if inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == info.name}
    assert defined == {"carterlab.errors.CapExceeded", "carterlab.errors.InputError",
                       "carterlab.verify.report.SkipCase",
                       "carterlab.verify.report.CheckFailure"}
