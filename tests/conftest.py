"""Fixtures shared by the test modules."""
import numpy as np
import pytest


def _counted(monkeypatch, *names):
    """A list that gains one entry per call of any of the named ``np.linalg`` functions."""
    calls = []
    for name in names:
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def hermitian_solves(monkeypatch):
    """A list that gains one entry per ``np.linalg.eigh`` or ``eigvalsh`` call."""
    return _counted(monkeypatch, "eigh", "eigvalsh")


@pytest.fixture
def svd_calls(monkeypatch):
    """A list that gains one entry per ``np.linalg.svd`` call."""
    return _counted(monkeypatch, "svd")


@pytest.fixture
def qr_calls(monkeypatch):
    """A list that gains one entry per ``np.linalg.qr`` call."""
    return _counted(monkeypatch, "qr")
