"""Each public name is declared once, in the ``__all__`` of the module that defines it."""
import importlib
import inspect

import pytest

import mixedprep

MODULES = ("circuits", "errors", "linalg", "metrics", "purify", "realamp", "serialize",
           "simulator", "states")


def declared(module):
    return importlib.import_module(f"mixedprep.{module}").__all__


@pytest.mark.parametrize("module", MODULES)
def test_a_star_import_of_a_module_binds_exactly_its_all(module):
    # without an __all__ it bound numpy, math and every helper the module imports
    namespace = {}
    exec(f"from mixedprep.{module} import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(declared(module))


def test_no_name_is_declared_by_two_modules_and_the_package_exports_them_all():
    names = [name for module in MODULES for name in declared(module)]
    assert len(names) == len(set(names))
    assert sorted(mixedprep.__all__) == sorted(["__version__", *names])


@pytest.mark.parametrize("module", MODULES)
def test_each_declared_class_and_function_is_defined_where_it_is_declared(module):
    mod = importlib.import_module(f"mixedprep.{module}")
    objects = [getattr(mod, name) for name in mod.__all__]
    defined = [obj for obj in objects if inspect.isclass(obj) or inspect.isfunction(obj)]
    assert [obj for obj in defined if obj.__module__ != mod.__name__] == []
