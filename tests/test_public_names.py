"""Every public top-level name of the package has a reader outside the tests.

A name counts as read where the syntax tree uses it: a ``Name``, the
attribute of an ``Attribute``, or an imported ``alias``.  Docstrings and
comments do not count.  The readers are the package itself, the
benchmark harness and the acceptance gate; a name that only the other
tests read is code that no run, verdict or benchmark uses, and belongs
in ``tests/dense_reference.py`` or nowhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "modefisher").glob("*.py"))
READERS = [*PACKAGE, *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def _defined(tree: ast.Module) -> set[str]:
    """Public names bound at the top level of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _read(tree: ast.Module) -> set[str]:
    """Names the module's syntax tree reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_no_public_name_is_read_only_by_tests():
    defined = {name: path.name for path in PACKAGE
               for name in _defined(ast.parse(path.read_text()))}
    read = set().union(*(_read(ast.parse(path.read_text())) for path in READERS))
    unread = {name: module for name, module in defined.items() if name not in read}
    assert not unread, f"public names with no reader outside the tests: {unread}"
