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


def _ref_cone(f):
    """The mapping cone of a chain map f : X -> Y written on
    ``BlockModule`` sums, block ("cY",) Y_n then ("cX",) X_(n-1), with
    dY, f and -dX placed at the blocks' offsets in that order: the
    reference for ``chain.cone`` and ``chain.tensor_cone``."""
    from ttperm.chain import Complex
    from ttperm.permod import BlockModule, EquivMap

    def place(acc, r0, c0, A, sign=1):
        for (a, ap), v in A.items():
            acc[(r0 + a, c0 + ap)] = sign * v

    X, Y = f.source, f.target
    blocks = {}
    for n in sorted(set(Y.terms) | {n + 1 for n in X.terms}):
        bl = []
        if n in Y.terms:
            bl.append((("cY",), Y.terms[n]))
        if (n - 1) in X.terms:
            bl.append((("cX",), X.terms[n - 1]))
        blocks[n] = BlockModule(X.group, X.ring, bl)
    diffs = {}
    for n, B in blocks.items():
        if (n - 1) not in blocks:
            continue
        C, acc = blocks[n - 1], {}
        if ("cY",) in B.offsets and ("cY",) in C.offsets and n in Y.diffs:
            place(acc, C.offsets[("cY",)], B.offsets[("cY",)],
                  Y.diffs[n].entries)
        if ("cX",) in B.offsets:
            if ("cY",) in C.offsets:
                place(acc, C.offsets[("cY",)], B.offsets[("cX",)],
                      f.component(n - 1).entries)
            if ("cX",) in C.offsets and (n - 1) in X.diffs:
                place(acc, C.offsets[("cX",)], B.offsets[("cX",)],
                      X.diffs[n - 1].entries, sign=-1)
        diffs[n] = EquivMap(B.module, C.module, acc)
    return Complex(X.group, X.ring, {n: B.module for n, B in blocks.items()},
                   diffs)


@pytest.fixture
def ref_cone():
    """The ``BlockModule`` reference cone, ``_ref_cone``."""
    return _ref_cone
