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


def test_every_private_function_is_used_by_the_package():
    # a helper that only tests call is code the package carries for
    # nothing: every module-level _name function is read somewhere in
    # the package, by name or as an attribute (imports do not count)
    root = os.path.dirname(os.path.abspath(ttperm.__file__))
    defined, used = set(), set()
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                tree = ast.parse(fh.read(), filename=name)
            defined |= {node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef)
                        and node.name.startswith("_")}
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert defined, "no private functions found"
    assert sorted(defined - used) == []
