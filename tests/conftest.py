"""Fixtures shared by the test modules."""

import os
import subprocess
import sys

import pytest

import ttperm


@pytest.fixture
def python_O():
    """Run a script under ``python -O`` with this checkout's ttperm
    importable; returns the finished process (text output)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ttperm.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONOPTIMIZE", None)

    def run(script):
        return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)

    return run
