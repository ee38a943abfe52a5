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
