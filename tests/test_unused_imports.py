"""Every top-level import of a ``src/`` module is used.

A non-``__init__`` module must reference each name it imports at module
level, in code or in a string annotation, or list it in ``__all__``
(re-exports).  ``__init__`` modules exist to re-export and are skipped.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            text = ast.parse(annotation.value, mode="eval")
            used |= {node.id for node in ast.walk(text) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def unused_imports(path: Path) -> list[str]:
    """The names ``path`` imports at module level and never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(name)
    return unused


def test_every_top_level_import_is_used():
    offenders = {
        str(path.relative_to(SRC)): names
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path))
    }
    assert offenders == {}


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from typing import Iterable, Sequence\n"
        "import os as system, json\n"
        "__all__ = ['json']\n"
        "def f(items: 'Sequence[int]'):\n"
        "    return items\n"
    )
    assert unused_imports(module) == ["Iterable", "system"]
