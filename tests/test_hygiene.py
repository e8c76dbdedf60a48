"""Source hygiene: every name a package module imports is used in it, every
import sits at module level, and every function, class and method the package
defines is referenced."""

import ast
import pathlib

import pytest

import atlasfuse

PACKAGE = pathlib.Path(atlasfuse.__file__).parent
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression in source reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_scan_catches_an_unused_name():
    source = "import os\nimport numpy as np\nfrom json import dumps, loads\nx = np.zeros(1)\ny = loads\n"
    assert unused_imports(source) == ["dumps (line 3)", "os (line 1)"]


def function_level_imports(source: str) -> list:
    """Import statements inside a function body, as 'function (line n)'."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.add(f"{fn.name} (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_at_module_level(path):
    assert function_level_imports(path.read_text()) == []


def test_function_level_import_scan_catches_a_nested_import():
    source = "import os\ndef f():\n    from json import dumps\n    return dumps, os\n"
    assert function_level_imports(source) == ["f (line 3)"]


def unreferenced_definitions(defining: dict, referencing: list) -> list:
    """Functions, classes and methods in the `defining` sources (name -> source)
    that no Name, Attribute or import alias in the `referencing` sources names.

    Dunders are left out: the language calls them.
    """
    refs = set()
    for source in referencing:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name):
                refs.add(n.id)
            elif isinstance(n, ast.Attribute):
                refs.add(n.attr)
            elif isinstance(n, ast.alias):
                refs.add(n.name.split(".")[-1])
    dead = []
    for module, source in defining.items():
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                if not (n.name.startswith("__") and n.name.endswith("__")) and n.name not in refs:
                    dead.append(f"{module}.{n.name} (line {n.lineno})")
    return sorted(dead)


def test_package_defines_nothing_unreferenced():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    tests = [p.read_text() for p in sorted(pathlib.Path(__file__).parent.glob("*.py"))]
    assert unreferenced_definitions(package, [*package.values(), *tests]) == []


def test_unreferenced_definition_scan_catches_a_dead_method():
    source = (
        "from m import helper\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self.used()\n"
        "    def used(self):\n"
        "        pass\n"
        "    def dead(self):\n"
        "        pass\n"
        "def helper():\n"
        "    pass\n"
        "def orphan():\n"
        "    pass\n"
        "A()\n"
    )
    assert unreferenced_definitions({"m": source}, [source]) == ["m.dead (line 7)", "m.orphan (line 11)"]
