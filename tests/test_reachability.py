"""Every top-level function and class of the package is reached from the
code that runs: the package itself, ``tools/`` or ``perfbench/``.

A definition counts as reached when its name appears in one of those trees
as a name, an attribute, an imported name or an identifier string (such as
a name that ``perfbench`` patches). A name listed in an ``__all__`` does not
count, so an export alone does not keep a definition that nothing calls.
Tests do not count either: code that only tests reach belongs in ``tests/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tools", "perfbench")


def _mentions(tree: ast.AST) -> set[str]:
    """The names ``tree`` mentions outside its ``__all__`` lists."""
    skipped = set()
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target]
                   if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets) and node.value is not None:
            skipped.update(id(n) for n in ast.walk(node.value))
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def unreached(root: Path) -> list[str]:
    """``module.name`` of each top-level definition in ``root/src/dtanet``
    that nothing under ``root``'s scanned trees mentions."""
    mentioned = set()
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            mentioned |= _mentions(ast.parse(path.read_text(encoding="utf-8")))
    found = []
    for path in sorted((root / "src" / "dtanet").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and node.name not in mentioned):
                found.append(f"{path.stem}.{node.name}")
    return found


def test_every_definition_is_reached():
    assert unreached(ROOT) == []
