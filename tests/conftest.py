"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import mimo_slas


@pytest.fixture
def package_env():
    """Environment for a child ``python -m mimo_slas.cli`` that imports the
    package under test, whether it was installed or found through pytest's
    ``pythonpath`` setting."""
    env = dict(os.environ)
    root = str(Path(mimo_slas.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def cholesky_calls(monkeypatch):
    """A list that grows by one at each ``np.linalg.cholesky`` call."""
    import numpy as np

    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
    return calls
