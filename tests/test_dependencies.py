"""numpy is the package's only declared dependency: no module of it may
import anything else from outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spikegrow"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_relative(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    stray = [name for name in imported if name.split(".")[0] not in ALLOWED]
    assert not stray, f"{path.name} imports {stray}"


def test_sources_found():
    """An empty glob would leave the check above with nothing to check."""
    assert (SRC / "__init__.py").exists()
