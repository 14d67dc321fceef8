"""Fixtures shared by the test modules."""
import numpy as np
import pytest

from mixedprep import linalg


def _counted(monkeypatch, *names):
    """A list that gains one entry per call of any of the named ``np.linalg`` functions.

    The entry is the shape of the call's first argument, the matrix solved.
    ``density_factor``'s memo is emptied first, so a factor stored by an
    earlier test cannot hide a solve that this one counts.
    """
    linalg._memo.cache_clear()
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
def cholesky_calls(monkeypatch):
    """The shapes of the matrices passed to ``np.linalg.cholesky``.

    ``density_factor`` makes one call per matrix at d <= 15; from d = 16 on it
    first factors the leading (d // 8) x (d // 8) block, and that call counts too.
    """
    return _counted(monkeypatch, "cholesky")


@pytest.fixture
def hermitian_passes(monkeypatch):
    """The shapes of the matrices passed to ``linalg._require_hermitian``, the
    d x d Hermitian test; ``density_factor``'s memo is emptied first."""
    linalg._memo.cache_clear()
    calls = []
    real = linalg._require_hermitian

    def counted(m, *args):
        calls.append(np.shape(m))
        return real(m, *args)

    monkeypatch.setattr(linalg, "_require_hermitian", counted)
    return calls


@pytest.fixture
def svd_calls(monkeypatch):
    """The shapes of the matrices passed to ``np.linalg.svd``."""
    return _counted(monkeypatch, "svd")


@pytest.fixture
def qr_calls(monkeypatch):
    """The shapes of the matrices passed to ``np.linalg.qr``."""
    return _counted(monkeypatch, "qr")
