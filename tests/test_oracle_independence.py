"""The oracles stay independent of the code they check.

``oracle.py`` lives beside the tests, outside the package, and imports
nothing from it, so no change to ``owakit`` can change what the oracles
compute.  The package must not grow an ``oracle`` module again.
"""

import ast
import importlib.util
import os

ORACLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle.py")


def _imported_modules(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_oracle_imports_nothing_from_owakit():
    modules = list(_imported_modules(ORACLE))
    assert modules, "the walk found no import at all"
    offending = [m for m in modules if m.split(".")[0] in ("owakit", "")]
    assert offending == []


def test_oracle_is_not_in_the_package():
    assert importlib.util.find_spec("owakit.oracle") is None
