"""Fixtures shared by the test modules."""
import numpy as np
import pytest


@pytest.fixture
def hermitian_solves(monkeypatch):
    """A list that gains one entry per ``np.linalg.eigh`` or ``eigvalsh`` call."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
