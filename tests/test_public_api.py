"""The package's public surface: ``__all__`` is exactly what the package exports."""
import importlib

import pytest

import mixedprep

MODULES = ("circuits", "cli", "errors", "linalg", "metrics", "purify", "realamp",
           "serialize", "simulator", "states")
REMOVED = ("kron", "is_hermitian", "purity", "pauli_decompose_2q", "PauliDecomposition2Q",
           "sample_pauli", "ShotResult")


def test_all_is_unique_and_resolves():
    assert len(mixedprep.__all__) == len(set(mixedprep.__all__))
    missing = [name for name in mixedprep.__all__ if not hasattr(mixedprep, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from mixedprep import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(mixedprep.__all__)


@pytest.mark.parametrize("module", ("__init__",) + MODULES)
def test_removed_names_are_gone(module):
    mod = mixedprep if module == "__init__" else importlib.import_module(f"mixedprep.{module}")
    assert [name for name in REMOVED if hasattr(mod, name)] == []
