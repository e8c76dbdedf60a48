"""Source hygiene: every name a package module imports is used in it, every
import sits at module level, every function, class and method the package
defines is referenced, every defaulted parameter and dataclass field is set by
some call, every parameter is read by its function, and the lattice and I/O
modules import nothing from the layers above them."""

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


# the lattice, image I/O and contrast layer: it stands without registration,
# fusion, metrics or the pipeline
LOWER_LAYER = {"errors", "atomic", "grid", "synth", "imgio"}


def package_imports(source: str, modules: set) -> set:
    """Package modules that source imports from, relative or absolute; a name
    imported from the package itself that is no module counts as __init__."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            parts = [a.name.split(".") for a in node.names if a.name.split(".")[0] == "atlasfuse"]
            found.update(p[1] if len(p) > 1 else "__init__" for p in parts)
        elif isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                if not path or path[0] != "atlasfuse":
                    continue
                path = path[1:]
            if path:
                found.add(path[0])
            else:
                found.update(a.name if a.name in modules else "__init__" for a in node.names)
    return found


@pytest.mark.parametrize("name", sorted(LOWER_LAYER))
def test_lower_layer_imports_only_from_itself(name):
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    assert package_imports((PACKAGE / f"{name}.py").read_text(), modules) - LOWER_LAYER == set()


def test_package_import_scan_reads_relative_and_absolute_forms():
    source = (
        "import numpy\n"
        "from .grid import Geometry\n"
        "from . import imgio, __version__\n"
        "import atlasfuse.register\n"
        "from atlasfuse.fusion import majority_vote\n"
    )
    modules = {"grid", "imgio", "register", "fusion"}
    assert package_imports(source, modules) == {"grid", "imgio", "__init__", "register", "fusion"}


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


def _defaulted_parameters(fn, offset):
    """(name, positional index or None) of fn's parameters that have a default;
    offset is 1 for a method, whose first parameter no call passes."""
    args = fn.args
    positional = args.posonlyargs + args.args
    out = [(a.arg, i - offset) for i, a in enumerate(positional) if i >= len(positional) - len(args.defaults)]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _passed_arguments(calling: list) -> dict:
    """Called name -> (most positional arguments, keywords, whether **kwargs was
    passed) over every call in the `calling` sources; *args counts as every position."""
    passed = {}
    for source in calling:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            n_pos, keywords, star_kw = passed.get(name, (0, set(), False))
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            n_pos = max(n_pos, float("inf") if starred else len(call.args))
            keywords |= {k.arg for k in call.keywords if k.arg is not None}
            star_kw |= any(k.arg is None for k in call.keywords)
            passed[name] = (n_pos, keywords, star_kw)
    return passed


def unset_parameters(defining: dict, calling: list) -> list:
    """Defaulted parameters of the functions and methods in the `defining`
    sources (name -> source) that no call in the `calling` sources passes,
    by position or by keyword, as 'module.function(parameter) (line n)'.

    Calls are matched by the called name alone, so a call to any function of
    that name counts; a call to a class counts for its __init__. A call with
    *args passes every positional parameter, one with **kwargs every keyword.
    """
    params = []  # (called name, label, parameter, positional index, line)
    for module, source in defining.items():
        tree = ast.parse(source)
        methods = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef):
                        methods[fn] = cls.name
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = methods.get(fn)
            offset = 1 if cls else 0  # self or cls
            called = cls if fn.name == "__init__" else fn.name
            label = f"{module}.{cls}.{fn.name}" if cls else f"{module}.{fn.name}"
            for name, index in _defaulted_parameters(fn, offset):
                params.append((called, label, name, index, fn.lineno))
    passed = _passed_arguments(calling)
    unset = []
    for called, label, name, index, line in params:
        n_pos, keywords, star_kw = passed.get(called, (0, set(), False))
        if not (star_kw or name in keywords or (index is not None and index < n_pos)):
            unset.append(f"{label}({name}) (line {line})")
    return sorted(unset)


def test_every_defaulted_parameter_is_passed_somewhere():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    repo = pathlib.Path(__file__).parent.parent
    callers = [p.read_text() for d in ("tests", "bench") for p in sorted((repo / d).glob("*.py"))]
    assert unset_parameters(package, [*package.values(), *callers]) == []


def test_unset_parameter_scan_catches_a_default_no_call_passes():
    source = (
        "class A:\n"
        "    def __init__(self, x, y=1, z=2):\n"
        "        self.m(0, k=3)\n"
        "    def m(self, a, b=0, *, k=1, j=2):\n"
        "        pass\n"
        "def f(p, q=1, r=2):\n"
        "    pass\n"
        "def g(s=1):\n"
        "    pass\n"
        "A(0, 1)\n"
        "f(0, r=5)\n"
        "g(*[1])\n"
    )
    assert unset_parameters({"m": source}, [source]) == [
        "m.A.__init__(z) (line 2)",
        "m.A.m(b) (line 4)",
        "m.A.m(j) (line 4)",
        "m.f(q) (line 6)",
    ]


def _is_dataclass(cls) -> bool:
    """Whether cls is decorated by dataclass: bare, called, or as dataclasses.dataclass."""
    targets = (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list)
    return any(getattr(t, "id", getattr(t, "attr", None)) == "dataclass" for t in targets)


def unset_fields(defining: dict, calling: list) -> list:
    """Defaulted fields of the dataclasses in the `defining` sources (name ->
    source) that no call in the `calling` sources sets, as
    'module.Class.field (line n)'. A call to the class sets a field by keyword
    or by position, and a call to `replace` sets the fields it names; calls are
    matched by name alone, as in unset_parameters.
    """
    passed = _passed_arguments(calling)
    _, replaced, replace_star = passed.get("replace", (0, set(), False))
    unset = []
    for module, source in defining.items():
        for cls in ast.walk(ast.parse(source)):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            n_pos, keywords, star_kw = passed.get(cls.name, (0, set(), False))
            fields = [f for f in cls.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
            for index, f in enumerate(fields):
                name = f.target.id
                if f.value is None or star_kw or replace_star or index < n_pos or name in keywords | replaced:
                    continue
                unset.append(f"{module}.{cls.name}.{name} (line {f.lineno})")
    return sorted(unset)


def test_every_defaulted_field_is_set_somewhere():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    repo = pathlib.Path(__file__).parent.parent
    callers = [p.read_text() for d in ("tests", "bench") for p in sorted((repo / d).glob("*.py"))]
    assert unset_fields(package, [*package.values(), *callers]) == []


def test_unset_field_scan_catches_a_default_no_call_sets():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field, replace\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 1\n"
        "    z: list = field(default_factory=list)\n"
        "    w: int = 2\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class B:\n"
        "    p: int = 0\n"
        "    q: int = 0\n"
        "    r: int = 0\n"
        "class C:\n"
        "    s: int = 0\n"
        "a = A(0, 1)\n"
        "b = dataclasses.replace(B(p=1), q=2)\n"
    )
    assert unset_fields({"m": source}, [source]) == ["m.A.w (line 8)", "m.A.z (line 7)", "m.B.r (line 13)"]


def unread_parameters(defining: dict) -> list:
    """Parameters of the functions and methods in the `defining` sources
    (name -> source) that their bodies never read, as
    'module.function(parameter) (line n)'. A method's first parameter (self
    or cls) is left out; a read in a nested function or lambda counts.
    """
    unread = []
    for module, source in defining.items():
        tree = ast.parse(source)
        methods = {fn for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
            if fn in methods:
                params = params[1:]
            read = {
                n.id for stmt in fn.body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [f"{module}.{fn.name}({a.arg}) (line {fn.lineno})" for a in params if a.arg not in read]
    return sorted(unread)


def test_every_parameter_is_read():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_parameters(package) == []


def test_unread_parameter_scan_catches_a_parameter_no_body_reads():
    source = (
        "class A:\n"
        "    def m(self, a, b):\n"
        "        return a\n"
        "def f(p, q=1, *rest, k, **extra):\n"
        "    q = 2\n"
        "    return (lambda: p + k)()\n"
        "def g(s):\n"
        "    def inner():\n"
        "        return s\n"
        "    return inner\n"
    )
    assert unread_parameters({"m": source}) == [
        "m.f(extra) (line 4)",
        "m.f(q) (line 4)",
        "m.f(rest) (line 4)",
        "m.m(b) (line 2)",
    ]
