"""Fixtures shared by the test modules."""
import numpy as np
import pytest


def _counted(monkeypatch, *names):
    """A list that gains one entry per call of any of the named ``np.linalg`` functions.

    The entry is the shape of the call's first argument, the matrix solved.
    """
    calls = []
    for name in names:
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(np.shape(args[0]))
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def hermitian_solves(monkeypatch):
    """The shapes of the matrices passed to ``np.linalg.eigh`` or ``eigvalsh``."""
    return _counted(monkeypatch, "eigh", "eigvalsh")


@pytest.fixture
def svd_calls(monkeypatch):
    """The shapes of the matrices passed to ``np.linalg.svd``."""
    return _counted(monkeypatch, "svd")


@pytest.fixture
def qr_calls(monkeypatch):
    """The shapes of the matrices passed to ``np.linalg.qr``."""
    return _counted(monkeypatch, "qr")
