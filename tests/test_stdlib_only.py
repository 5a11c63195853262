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
