"""No public API that only tests use.

Every module-level public function, class and constant of the lab must be
read somewhere in src/, scripts/ or perfbench/: by a name, an attribute or
an import.  Its own definition does not count, and neither does the
package __init__, whose re-exports would otherwise keep any name alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAB = ROOT / "src" / "stable_tv_lab"
READERS = ("src", "scripts", "perfbench")


def _defined(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id


def _read(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_name_has_a_reader_outside_the_tests():
    read = set()
    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path != LAB / "__init__.py":
                read.update(_read(ast.parse(path.read_text())))
    unread = [
        f"{path.stem}.{name}"
        for path in sorted(LAB.glob("*.py"))
        if path.name != "__init__.py"
        for name in _defined(ast.parse(path.read_text()))
        if not name.startswith("_") and name not in read
    ]
    assert not unread, f"public names no campaign, CLI path, script or perfbench file reads: {unread}"
