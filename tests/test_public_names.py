"""Every public name of the package has a caller outside the tests.

A public function, class or method (one whose name does not start with an
underscore) of ``src/flagparam`` must be at least one of:

- referenced by code in ``src/`` or ``perfbench/``: a ``Name``, an
  ``Attribute`` or an import of that name;
- exported from ``flagparam/__init__.py``, which is such an import;
- named in README.

A name that only the tests reach is code kept alive by its own test.  The
walk matches names, not bindings: any variable or attribute spelled the same
counts as a reference.  So a member with a common name, such as the
attributes ``.n`` or ``.identity``, can be dead and still pass.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flagparam"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def public_definitions(tree):
    """(name, line) of each public module-level function and class, and of each public method."""
    for node in tree.body:
        if not isinstance(node, DEFINITIONS):
            continue
        members = node.body if isinstance(node, ast.ClassDef) else []
        for item in [node] + [m for m in members if isinstance(m, DEFINITIONS)]:
            if not item.name.startswith("_"):
                yield item.name, item.lineno


def referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield from alias.name.split(".")


def test_every_public_name_has_a_caller_outside_the_tests():
    known = set(re.findall(r"\w+", ROOT.joinpath("README.md").read_text()))
    for path in sorted(ROOT.joinpath("src").rglob("*.py")) + sorted(ROOT.joinpath("perfbench").rglob("*.py")):
        known.update(referenced_names(parse(path)))
    dead = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in public_definitions(parse(path))
        if name not in known
    ]
    assert dead == []
