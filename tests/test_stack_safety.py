"""No library function calls itself, so no input depth exhausts Python's
stack: every walk keeps its own explicit stack or queue."""

import ast
from pathlib import Path

import ilc

SRC = Path(ilc.__file__).parent


def self_calls(module: ast.Module) -> list[tuple[str, int]]:
    """(function name, line) of each call of a function, nested ones
    included, to its own name or to its own method on ``self`` or ``cls``."""
    found = []
    for fn in ast.walk(module):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name or (
                isinstance(f, ast.Attribute)
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
                and f.attr == fn.name
            ):
                found.append((fn.name, node.lineno))
    return found


def test_self_calls_are_found():
    module = ast.parse(
        "def f(n):\n"
        "    return f(n - 1)\n"
        "def g():\n"
        "    def go(t):\n"
        "        return [go(c) for c in t]\n"
        "    return go\n"
        "class C:\n"
        "    def walk(self, t):\n"
        "        return self.walk(t) + other.walk(t)\n"
    )
    assert self_calls(module) == [("f", 2), ("go", 5), ("walk", 9)]


def test_no_library_function_calls_itself():
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [(path.name, name, line) for name, line in self_calls(module)]
    assert found == []
