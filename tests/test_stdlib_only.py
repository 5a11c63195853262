"""chromalg is stdlib-only: every absolute import in src/chromalg names a
standard-library module or chromalg itself."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "chromalg"


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_or_chromalg(path):
    allowed = set(sys.stdlib_module_names) | {"chromalg"}
    outside = sorted({name for name in _absolute_imports(path)
                      if name.split(".")[0] not in allowed})
    assert not outside, f"{path.name} imports {outside}"


def test_the_package_has_modules():
    assert len(list(SRC.glob("*.py"))) > 10


def _definitions(tree: ast.Module):
    """(label, name) of each undecorated module-level def and class, and of
    each _single_underscore method of a module-level class.  Decorated
    definitions (registered checks, dataclasses, caches) are reached through
    their decorator."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*funcs, ast.ClassDef)) and not node.decorator_list:
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, funcs) and item.name.startswith("_")
                        and not item.name.startswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_and_module_level_definition_is_referenced():
    """A def or class that nothing in src/chromalg names by an ast.Name, an
    ast.Attribute or an import is dead code, or belongs in tests/."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    orphans = [f"{module}:{label}" for module, tree in trees.items()
               for label, name in _definitions(tree) if name not in used]
    assert not orphans, f"defined but never referenced in src/chromalg: {orphans}"
