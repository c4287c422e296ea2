"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def factorizations(monkeypatch):
    """The list that every later numpy factorization call appends its function to."""
    calls = []
    # numpy's dense factorizations; gcm calls each as an np.linalg attribute
    for name in ("cholesky", "solve", "inv", "eigh", "eigvalsh", "svd", "qr"):
        def counted(*args, original=getattr(np.linalg, name), **kwargs):
            calls.append(original)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
