"""No public name exists only for the tests: every public module-level
function or class of the package is used by the package itself, the
benchmark, the installed console script or the acceptance criteria. And
the kernel's row blocks are decided in one module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spikegrow"
MODULES = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
USERS = [*sorted((ROOT / "benchmarks").glob("*.py")),
         ROOT / "tests" / "test_acceptance.py"]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(nodes) -> set:
    """Every name the nodes look up or import, and every string constant:
    the benchmark's tracer names the attributes it wraps as strings."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.alias):
                found.add(sub.name.rsplit(".", 1)[-1])
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                found.add(sub.value)
    return found


def _script_targets() -> set:
    """The attributes named by pyproject.toml's [project.scripts]."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    return {target.rsplit(":", 1)[-1] for target in scripts.values()}


def _public(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
        and not node.name.startswith("_")


def test_every_public_name_has_a_user():
    """Each public name is referenced outside its own definition and
    `__init__.py`: elsewhere in the package, in benchmarks/, by a console
    script or by tests/test_acceptance.py."""
    bodies = {path: _parse(path).body for path in MODULES}
    used_in = {path: _names(body) for path, body in bodies.items()}
    used = _script_targets().union(*(_names(_parse(p).body) for p in USERS))
    unused = []
    for path, body in bodies.items():
        elsewhere = used.union(*(names for p, names in used_in.items()
                                 if p != path))
        for node in filter(_public, body):
            rest = [n for n in body if n is not node]
            if node.name not in elsewhere and node.name not in _names(rest):
                unused.append(f"{path.name}:{node.name}")
    assert unused == []


def test_definitions_found():
    """An empty scan would leave the check above with nothing to check."""
    names = {node.name for path in MODULES for node in _parse(path).body
             if _public(node)}
    assert {"batch_rate_features", "grow_one", "entrypoint"} <= names


def test_only_lif_reads_cells():
    """`lif.CELLS` sizes the kernel's row blocks, and only `lif` reads it:
    every other module asks `lif.block_rows`, so the row blocking is
    decided in one place."""
    readers = [path.name for path in SRC.glob("*.py")
               if "CELLS" in _names(_parse(path).body)]
    assert readers == ["lif.py"]
