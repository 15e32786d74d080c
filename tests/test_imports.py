"""Every imported name is used: a dead import hides which layer a module
really depends on, and it outlives the code that needed it.

Each module under src/catnet/ and tests/ is parsed with ast. A name an
import binds counts as used when the module reads it anywhere (quoted
annotations included) or lists it in __all__.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "catnet").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _bound(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval")) if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree)
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    return [name for node in imports for name in _bound(node) if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "from x import a, b as c\nimport d.e\n\ndef f() -> 'a':\n    return d\n"
    assert unused_imports(source) == ["c"]
    assert unused_imports("from x import a\n__all__ = ['a']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
