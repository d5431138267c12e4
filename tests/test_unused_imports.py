"""Every name a library module imports is read somewhere in that module.

``__init__.py`` is left out: it imports names in order to export them.
"""

import ast
from pathlib import Path

import ilc

SRC = Path(ilc.__file__).parent


def unused_imports(module: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each name bound by an import, at any level, that the
    module never reads: no ``Name`` node loads it."""
    read = {
        node.id
        for node in ast.walk(module)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    found.append((name, node.lineno))
    return found


def test_unused_imports_are_found():
    module = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .trees import APP, LAM as L, hole\n"
        "def f(n: APP):\n"
        "    import json\n"
        "    return os.path.join(hole(), n)\n"
    )
    assert unused_imports(module) == [("L", 3), ("json", 5)]


def test_no_library_module_imports_an_unused_name():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [(path.name, name, line) for name, line in unused_imports(module)]
    assert found == []
