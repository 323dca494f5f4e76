"""Properties of the package source itself."""

import ast
import os

import ttperm


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so every check in the package
    # raises explicitly
    root = os.path.dirname(os.path.abspath(ttperm.__file__))
    found = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                tree = ast.parse(fh.read(), filename=name)
            found += ["%s:%d" % (name, node.lineno)
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []
