"""Every name a module of the package imports is read in that module, every
name ``logcad.tensor`` exports is imported by another module, every
private function, method and class the package defines is referenced in it,
and every defaulted parameter the package defines is passed by some call."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "logcad"
PERFBENCH = SRC.parent.parent / "perfbench"


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


def _defaulted(fn: ast.FunctionDef, method: bool) -> tuple[list[str], set[str]]:
    """A def's parameters that a call may pass by position (``self`` or
    ``cls`` dropped from a method that is not static), and the names of those
    of its parameters that have a default."""
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    if method and not static:
        positional = positional[1:]
    defaulted = set(positional[len(positional) - len(fn.args.defaults):]
                    if fn.args.defaults else ())
    defaulted |= {a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                  if d is not None}
    return positional, defaulted


def unpassed_defaults(defining: list[str], calling: list[str]) -> list[str]:
    """``"owner: parameter"`` for each defaulted parameter of a module-level
    function or a method defined in ``defining`` that no call in ``calling``
    passes, by position or by keyword. The owner is ``f`` for a function, ``C`` for
    ``C.__init__`` and ``C.m`` for another method. A call ``C(...)``, or
    ``cls(...)`` inside class ``C``, resolves to ``C.__init__`` and
    ``C.m(...)`` to that method; any other ``x.m(...)`` matches every
    function and method named ``m``."""
    defs = {}  # (class or None, name) -> (positional parameters, defaulted)
    classes = set()
    for tree in map(ast.parse, defining):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes.add(node.name)
            elif not isinstance(node, ast.Module):
                continue
            owner = getattr(node, "name", None)
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    defs[(owner, fn.name)] = _defaulted(fn, owner is not None)
    passed = {key: set() for key in defs}

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "cls":
                keys = [(cls, "__init__")]
            elif isinstance(f, ast.Name):
                keys = [(f.id, "__init__") if f.id in classes else (None, f.id)]
            elif isinstance(f, ast.Attribute) and getattr(f.value, "id", None) in classes:
                keys = [(f.value.id, f.attr)]
            elif isinstance(f, ast.Attribute):
                keys = [key for key in defs if key[1] == f.attr]
            else:
                keys = []
            for key in filter(defs.__contains__, keys):
                positional, defaulted = defs[key]
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                passed[key] |= set(positional if starred else positional[:len(node.args)])
                passed[key] |= {k.arg for k in node.keywords}
                if None in passed[key]:  # a ** argument may pass any of them
                    passed[key] |= defaulted
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    for tree in map(ast.parse, calling):
        visit(tree, None)
    found = []
    for (owner, name), (_, defaulted) in defs.items():
        label = owner if name == "__init__" else name if owner is None else f"{owner}.{name}"
        found += [f"{label}: {param}" for param in defaulted - passed[(owner, name)]]
    return sorted(found)


def test_default_checker_flags_unpassed_parameters():
    defining = ["class C:\n"
                "    def __init__(self, a, b=1, *, c=2): pass\n"
                "    @classmethod\n"
                "    def make(cls, x=0):\n"
                "        return cls(0, c=x)\n"
                "    def m(self, y=0, z=0): pass\n"
                "    @staticmethod\n"
                "    def s(u=0): pass\n"
                "def f(p, q=0, r=0): pass\n"
                "def g(w=0): pass\n"
                "def h(*, k=0): pass\n"]
    calling = defining + ["C.make(1)\n"
                          "obj.m(1)\n"
                          "C.s(2)\n"
                          "mod.f(1, 2)\n"
                          "pkg.mod.f(p=0)\n"
                          "g(*args)\n"
                          "h(**opts)\n"
                          "other.b(r=1)\n"]
    assert unpassed_defaults(defining, calling) == ["C.m: z", "C: b", "f: r"]


# passed by tests only: defaults the package's own calls never override (an
# entry that some call passes, or whose default is gone, fails the check too)
DEFAULTS_TEST_SUPPORT = {
    "CharCnnParams.create: char_emb", "CharCnnParams.create: bank_spec",
    "DescriptionModel: dtype",
    "Tensor: dtype",
    "gradient_check: eps",
    "split_by_phrase: ratios",
}


def test_every_default_is_passed_by_some_call():
    defining = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    calling = defining + [path.read_text(encoding="utf-8")
                          for path in sorted(PERFBENCH.glob("*.py"))]
    assert unpassed_defaults(defining, calling) == sorted(DEFAULTS_TEST_SUPPORT)
