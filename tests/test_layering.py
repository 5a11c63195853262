"""The scalar and kernel layers import nothing above them.

rings, poly, linalg and series are the bottom of chromalg: convert, the curve
and group-law modules and the checks all build on them.  An import from one
of them into convert or higher would close a cycle, since convert imports
series and series imports linalg."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "chromalg"

# each bottom module, with the chromalg modules it may import from
BELOW = {"rings": {"errors"}, "poly": {"errors", "rings"}, "linalg": {"errors", "rings"},
         "series": {"errors", "rings", "poly", "linalg"}}


def _chromalg_imports(source: str):
    """The chromalg modules that source imports, at module level or inside a
    function, relatively or by the package name."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name.split(".") for a in node.names]
            yield from (parts[1] for parts in names if parts[0] == "chromalg" and len(parts) > 1)
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "chromalg":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                yield parts[0]
            else:                                  # from . import x
                yield from (a.name for a in node.names)


def _upward(module: str, source: str) -> list[str]:
    return sorted(set(_chromalg_imports(source)) - BELOW[module])


@pytest.mark.parametrize("module", sorted(BELOW))
def test_a_bottom_module_imports_only_below_it(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert not _upward(module, source), f"{module} imports {_upward(module, source)}"


def test_an_import_from_above_is_caught():
    """Negative control on synthetic sources: a function-level relative
    import of convert, and absolute imports of fgl and checks."""
    rings_src = "from .errors import NotInvertible\n\ndef f():\n    from .convert import reduce_scalar\n"
    assert _upward("rings", rings_src) == ["convert"]
    series_src = "from chromalg import fgl, poly\nimport chromalg.checks\nfrom . import linalg\n"
    assert _upward("series", series_src) == ["checks", "fgl"]
