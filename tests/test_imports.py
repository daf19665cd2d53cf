"""Every name a module of the package imports is read in that module, every
name ``logcad.tensor`` exports is imported by another module, and every
private function, method and class the package defines is referenced in it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "logcad"


def unused_imports(source: str) -> list[str]:
    """``"line N: name"`` for each name bound by an import that no expression
    of the module reads. ``__future__`` imports and names whose import line
    carries ``# noqa: F401`` are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_checker_flags_unused_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import (\n"
              "    Optional,\n"
              "    Sequence,\n"
              ")\n"
              "import numpy as np\n"
              "from json import dumps  # noqa: F401\n"
              "def f(x: Optional[int]):\n"
              "    return np.zeros(x)\n")
    assert unused_imports(source) == ["line 2: os", "line 5: Sequence"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# test support, called by the gradient-check tests only
TENSOR_TEST_SUPPORT = {"gradient_check"}


def test_every_tensor_export_is_used_by_the_package():
    import logcad.tensor

    imported = set()
    for path in SRC.glob("*.py"):
        if path.name != "tensor.py":
            imported |= {alias.name for node in ast.walk(ast.parse(path.read_text("utf-8")))
                         if isinstance(node, ast.ImportFrom) and node.module == "logcad.tensor"
                         for alias in node.names}
    unused = set(logcad.tensor.__all__) - TENSOR_TEST_SUPPORT - imported
    assert sorted(unused) == []


def unreferenced_private_defs(sources: list[str]) -> list[str]:
    """The private (``_name``, not dunder) functions, methods and classes
    defined in ``sources`` whose name no module of them reads: as a name, an
    attribute or an imported name."""
    trees = [ast.parse(source) for source in sources]
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")}
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return sorted(defined - read)


def test_private_checker_flags_dead_helpers():
    sources = ["def _used(): pass\n"
               "def _dead(): pass\n"
               "class _Dead:\n"
               "    def __init__(self): pass\n"
               "    def _method(self): return _used()\n"
               "class C:\n"
               "    def _called(self): return self._method()\n",
               "from m import _imported\n"
               "def _imported(): pass\n"
               "C()._called()\n"]
    assert unreferenced_private_defs(sources) == ["_Dead", "_dead"]


def test_every_private_definition_is_referenced():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert unreferenced_private_defs(sources) == []
