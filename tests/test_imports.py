"""Every name a module of ``radarplace`` imports is used in that module,
every private name the package defines is read somewhere in the package,
and every public function, class and method is read by the package, the
benchmark or the acceptance tests: API that only unit tests call is dead.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "radarplace"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression in ``source`` reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    # annotations are expressions in the tree even under postponed evaluation
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import json\nimport os.path\nimport numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\nclass A:\n    x: np.ndarray\n"
        "def f(p) -> os.PathLike:\n    return p\n"
    )
    assert unused_imports(source) == ["field", "json"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _functions_and_classes(node: ast.stmt) -> list[str]:
    """The name a top-level function or class statement defines, and its methods'."""
    if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return []
    methods = node.body if isinstance(node, ast.ClassDef) else []
    return [node.name] + [m.name for m in methods if isinstance(m, ast.FunctionDef)]


def _loaded_names(tree: ast.Module) -> set[str]:
    """Every name and attribute that an expression in ``tree`` reads."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private top-level function, class or constant,
    and each private method, that no module in ``sources`` reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            defined += [(module, name) for name in _functions_and_classes(node)]
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
        read |= _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    return [f"{m}:{n}" for m, n in defined if _is_private(n) and n not in read]


def test_checker_finds_unread_private_names():
    sources = {
        "a.py": (
            "_LIMIT = 3\n_UNUSED: int = 4\nPUBLIC = 5\n"
            "def _helper():\n    return _LIMIT\n"
            "def _dead():\n    pass\n"
            "class _Box:\n"
            "    def __init__(self):\n        self._put = 1\n"
            "    def _fill(self):\n        return self._grow()\n"
            "    def _grow(self):\n        pass\n"
            "    def _put(self):\n        pass\n"
        ),
        "b.py": "from .a import _helper, _Box\n_Box()._fill()\n",
    }
    assert unread_private_names(sources) == ["a.py:_UNUSED", "a.py:_dead", "a.py:_put"]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def unread_public_names(defining: dict[str, str], reading: dict[str, str]) -> list[str]:
    """``module:name`` for each public top-level function or class, and each
    public method, of ``defining`` that no source in ``reading`` reads.

    An import alone is not a read.  ``save_X`` and ``load_X`` write and read
    one format, so a read of either counts for both.
    """
    defined = [(module, name) for module, source in defining.items()
               for node in ast.parse(source).body for name in _functions_and_classes(node)]
    read = set()
    for source in reading.values():
        read |= _loaded_names(ast.parse(source))
    for name in list(read):
        for this, other in (("save_", "load_"), ("load_", "save_")):
            if name.startswith(this):
                read.add(other + name[len(this):])
    return [f"{m}:{n}" for m, n in defined if not n.startswith("_") and n not in read]


def test_checker_finds_unread_public_names():
    defining = {
        "a.py": (
            "def used():\n    pass\n"
            "def only_imported():\n    pass\n"
            "def save_thing(p):\n    pass\n"
            "def load_thing(p):\n    pass\n"
            "def save_other(p):\n    pass\n"
            "def _private():\n    pass\n"
            "class Box:\n"
            "    def __init__(self):\n        pass\n"
            "    def fill(self):\n        pass\n"
            "    def spare(self):\n        pass\n"
        ),
    }
    reading = {
        "b.py": "from a import used, only_imported, Box\nused()\nBox().fill()\n",
        "c.py": "import a\na.load_thing('x')\n",
    }
    assert unread_public_names(defining, reading) == [
        "a.py:only_imported", "a.py:save_other", "a.py:spare"]


def test_every_public_name_is_read_outside_the_unit_tests():
    readers = [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    defining = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    reading = {str(p): p.read_text() for p in readers}
    assert unread_public_names(defining, reading) == []


def test_the_package_init_is_only_its_docstring():
    body = ast.parse((SRC / "__init__.py").read_text()).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr)
