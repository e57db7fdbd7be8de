"""Every top-level name of the package has a reader outside the tests.

A name counts as read where the syntax tree uses it: a ``Name`` that is
loaded (so ``X = ...`` does not read ``X``), the attribute of an
``Attribute``, or an imported ``alias``.  Docstrings and comments do not
count.  A public name's readers are the package itself, the benchmark
harness and the acceptance gate; a private one's are the package alone.
A name that only the other tests read is code that no run, verdict or
benchmark uses, and belongs in ``tests/dense_reference.py`` or nowhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "modefisher").glob("*.py"))
READERS = [*PACKAGE, *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def _defined(tree: ast.Module) -> set[str]:
    """Names bound at the top level of a module, dunders left out."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("__")}


def _read(tree: ast.Module) -> set[str]:
    """Names the module's syntax tree reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _unread(readers, private: bool) -> dict[str, str]:
    """Public or private top-level names of the package that ``readers`` never read."""
    defined = {name: path.name for path in PACKAGE
               for name in _defined(ast.parse(path.read_text()))
               if name.startswith("_") == private}
    read = set().union(*(_read(ast.parse(path.read_text())) for path in readers))
    return {name: module for name, module in defined.items() if name not in read}


def test_no_public_name_is_read_only_by_tests():
    unread = _unread(READERS, private=False)
    assert not unread, f"public names with no reader outside the tests: {unread}"


def test_every_private_name_is_read_by_the_package():
    unread = _unread(PACKAGE, private=True)
    assert not unread, f"private names with no reader in the package: {unread}"
