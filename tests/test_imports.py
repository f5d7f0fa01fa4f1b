"""Every name a module of ``radarplace`` imports is used in that module, and
every private name the package defines is read somewhere in the package.

``__init__.py`` is exempt from the first check: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "radarplace"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private top-level function, class or constant,
    and each private method, that no module in ``sources`` reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [(module, m.name) for m in node.body
                            if isinstance(m, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
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
