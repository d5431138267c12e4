"""Every module-level function and class of the library has a use.

A function or class defined at the top level of a library module must be
read somewhere in the library outside its own definition, be exported from
``ilc/__init__.py``, or be an entry point.  Code that only the tests call
belongs in the tests (``oracles.py``).
"""

import ast
from pathlib import Path

import ilc

SRC = Path(ilc.__file__).parent

# the ``ilc`` console script of pyproject.toml
ENTRY_POINTS = {("cli", "main")}

# (module, name) of each definition kept without a use in the library, and why
ALLOWED = {
    ("trees", "bind_fvars"): "perfbench/tracer.py wraps it by name",
    ("trees", "close_subtree"): "perfbench/tracer.py wraps it by name",
}


def unused_definitions(modules: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) of each top-level function or class of ``modules``
    (module name to its tree; ``__init__`` holds the exports) that is not
    exported and that no module reads outside the definition itself.

    A name is read as a ``Name`` load, resolved to the module that defines
    it or else to the module it is imported from, or as an attribute load
    on a sibling module (``meaningless.clear_caches``).
    """
    exported = {
        (node.module, alias.name)
        for node in ast.walk(modules["__init__"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    defined = {
        (mod, node.name): (node.lineno, node.end_lineno)
        for mod, tree in modules.items()
        if mod != "__init__"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    used = set()
    for mod, tree in modules.items():
        if mod == "__init__":
            continue
        source = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
                key = (mod, name) if (mod, name) in defined else source.get(name)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                key = (node.value.id, node.attr)
            else:
                continue
            span = defined.get(key)
            if span is None or key[0] == mod and span[0] <= node.lineno <= span[1]:
                continue  # not a definition, or a read inside its own body
            used.add(key)
    return set(defined) - used - exported - ENTRY_POINTS


def test_unused_definitions_are_found():
    modules = {
        "__init__": ast.parse("from .a import exported\n"),
        "a": ast.parse(
            "def exported(): pass\n"
            "def called(): pass\n"
            "def uncalled(): pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "class Used:\n"
            "    def copy(self):\n"
            "        return Used()\n"
        ),
        "b": ast.parse(
            "from . import a\n"
            "from .a import called as c\n"
            "def caller():\n"
            "    return c(), a.Used()\n"
        ),
    }
    assert unused_definitions(modules) == {("a", "uncalled"), ("a", "recursive"), ("b", "caller")}


def test_every_library_definition_has_a_use():
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    # an allowed name that gains a use or disappears fails too, so the
    # list cannot go stale
    assert unused_definitions(modules) == set(ALLOWED)
