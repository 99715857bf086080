"""Every name a library module imports is used in that module.

No linter ships with the project, so this walks each module's syntax
tree instead.  __init__.py is left out: its imports are the package's
public names.  __future__ imports are exempt.

Every private module-level function or constant of the package is read
somewhere in src/ or tests/, so a rewrite leaves no dead helper behind.
Every public function or class of a library module other than cli is
exported by __init__.py or imported by another library module, so a
public helper does not outlive its last library caller either.

No library module keeps state at module level: none binds a list, dict,
set, bytearray or array there, and none has a global statement, except
the shared prime sieve arith._sieve.  So a cache cannot come back
unnoticed.

No library module imports mpmath, at import time or in a function
body: the 50-digit mode of bounds evaluates in the standard library's
decimal, which fractions loads anyway, where importing mpmath would cost
a process about 20 ms.  mpmath is a test dependency only, the oracle the
50-digit mode is checked against, and a 50-digit call in a fresh
process leaves it unloaded.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "smoothlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement in source and never read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    source = "import math\nfrom dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x = math.pi\n"
    assert unused_imports(source) == ["field"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> list[str]:
    """Private names that source binds at module level by def or by
    assignment: its helper functions and constants."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def names_read(source: str) -> set[str]:
    """Names that source loads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_finds_a_dead_private_name():
    source = (
        "import os\n_LIMIT: int = 3\n_seen = {}\n__all__ = []\nPUBLIC = 1\n"
        "def _helper():\n    return _LIMIT\n"
        "def _dead(x):\n    _seen[x] = x\n"
        "class _Kept:\n    pass\n"
    )
    assert private_definitions(source) == ["_LIMIT", "_seen", "_helper", "_dead"]
    read = names_read(source) | names_read("from m import _helper\nm._seen\n_helper()\n")
    assert [name for name in private_definitions(source) if name not in read] == ["_dead"]


def test_every_private_name_is_read():
    readers = [*PACKAGE.parent.rglob("*.py"), *Path(__file__).parent.rglob("*.py")]
    read = set().union(*(names_read(path.read_text()) for path in readers))
    dead = [f"{path.name}: {name}" for path in MODULES + [PACKAGE / "__init__.py"]
            for name in private_definitions(path.read_text()) if name not in read]
    assert dead == []


def unimported_public_names(sources: dict[str, str]) -> list[str]:
    """"module.name" for each public module-level function or class in
    sources (module name -> source, "__init__" for the package) that no
    other module imports by a from-import of its module, relative or
    absolute.  Import statements are matched, not names read, as a local
    variable may share a helper's name."""
    imported = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.removeprefix(f"{PACKAGE.name}.")
                imported.update((module, a.name) for a in node.names)
    return [f"{module}.{node.name}" for module, source in sources.items()
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and (module, node.name) not in imported]


def test_finds_a_public_name_no_module_imports():
    sources = {
        "__init__": "from .a import Kept, exported\n",
        "a": "class Kept:\n    pass\ndef exported():\n    pass\ndef used():\n    pass\n"
             "def dead():\n    pass\ndef _private():\n    pass\nLIMIT = 1\n",
        "b": "from smoothlab.a import used\nfrom .c import dead\n"
             "def helper():\n    dead = used()\n    return dead\n",
    }
    assert unimported_public_names(sources) == ["a.dead", "b.helper"]


def test_every_public_name_is_exported_or_imported():
    # cli's public names are the command line itself
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert [name for name in unimported_public_names(sources) if not name.startswith("cli.")] == []


MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "bytearray", "array"}


def module_state(source: str) -> list[str]:
    """Names that source binds at module level (outside every function
    body) to a list, dict, set, bytearray or array, by a display, a
    comprehension or a call of the type, and names it declares global."""
    names = []
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Global):
            names += node.names
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            value = node.value
            if isinstance(value, ast.Call):
                func = value.func
                mutable = getattr(func, "id", getattr(func, "attr", None)) in MUTABLE_CONSTRUCTORS
            else:
                mutable = isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                             ast.DictComp, ast.SetComp))
            if mutable:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack += [n for n in ast.walk(node) if isinstance(n, ast.Global)]
        else:
            stack.extend(ast.iter_child_nodes(node))
    return names


def test_finds_module_state():
    source = (
        "import array as arr\nfrom array import array\n"
        "_SIZES = (1, 2)\nLIMIT: int = 3\n_seen = {}\n_rows: list = []\n"
        "if True:\n    _marks = bytearray(8)\n"
        "_cols = arr.array('I')\n_h = array('H')\n_squares = {k * k for k in range(9)}\n"
        "_frozen = frozenset([1])\n"
        "class A:\n    cache = dict()\n"
        "def f():\n    local = []\n    global _count\n    _count = 1\n"
    )
    assert sorted(module_state(source)) == sorted(
        ["_seen", "_rows", "_marks", "_cols", "_h", "_squares", "cache", "_count"])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_keeps_no_state(path):
    allowed = {"_sieve"} if path.name == "arith.py" else set()
    assert set(module_state(path.read_text())) <= allowed


def imported_at_import_time(source: str) -> set[str]:
    """Top-level names of the modules that source imports outside every
    function body, that is, while the module itself is being imported."""
    names = set()
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_finds_an_import_time_import():
    source = (
        "import math, mpmath.libmp\n"
        "if True:\n    from fractions import Fraction\n"
        "class A:\n    from decimal import Decimal\n"
        "def f():\n    import json\n"
        "from . import arith\n"
    )
    assert imported_at_import_time(source) == {"math", "mpmath", "fractions", "decimal"}


def imported_anywhere(source: str) -> set[str]:
    """Top-level names of every module that source imports, function
    bodies included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_finds_an_import_in_a_function_body():
    source = "import math\ndef f():\n    import mpmath.libmp\n    from decimal import Decimal\n"
    assert imported_anywhere(source) == {"math", "mpmath", "decimal"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_does_not_import_mpmath_at_import_time(path):
    # nor anywhere else: no library module imports mpmath at all
    source = path.read_text()
    assert "mpmath" not in imported_at_import_time(source)
    assert "mpmath" not in imported_anywhere(source)


def mpmath_loaded_after(code: str) -> str:
    """stdout of code, run in a fresh interpreter on this tree's src,
    followed by whether mpmath was then loaded."""
    path = [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    result = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print('mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    return result.stdout


def test_importing_the_cli_leaves_mpmath_unloaded():
    assert mpmath_loaded_after("import smoothlab.cli") == "False\n"


def test_50_digit_bounds_leave_mpmath_unloaded():
    out = mpmath_loaded_after(
        "from smoothlab.cli import main\n"
        "main(['bounds', '--N', '1000000', '--p', '1000003', '--precision', 'high'],"
        " standalone_mode=False)"
    )
    assert out.endswith('"stewart_bound": 903595.0467104107\n    }\n  ]\n}\nFalse\n')
