"""Every name a module of the package imports is read in that module, every
name ``logcad.tensor`` exports is imported by another module, every
private function, method and class the package defines is referenced in it,
every defaulted parameter the package defines is passed by some call and, if
any call reaches it, left out by some call, and every dataclass field it
defines is read as an attribute."""

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


def test_every_tensor_export_is_used_by_the_package():
    import logcad.tensor

    imported = set()
    for path in SRC.glob("*.py"):
        if path.name != "tensor.py":
            imported |= {alias.name for node in ast.walk(ast.parse(path.read_text("utf-8")))
                         if isinstance(node, ast.ImportFrom) and node.module == "logcad.tensor"
                         for alias in node.names}
    unused = set(logcad.tensor.__all__) - imported
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


def _resolved_calls(defining: list[str], calling: list[str]) -> tuple[dict, list]:
    """The functions and methods defined in ``defining``, as ``(class or
    None, name) -> (positional parameters, defaulted)``, and for each call in
    ``calling`` that resolves to one of them, ``(key, the parameters it may
    pass)``, by position or by keyword. A call ``C(...)``, or ``cls(...)``
    inside class ``C``, resolves to ``C.__init__`` and ``C.m(...)`` to that
    method; any other ``x.m(...)`` matches every function and method named
    ``m``. A ``*`` argument may pass every positional parameter and a ``**``
    argument every defaulted one."""
    defs = {}
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
    calls = []

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
                passed = set(positional if starred else positional[:len(node.args)])
                passed |= {k.arg for k in node.keywords}
                if None in passed:
                    passed |= defaulted
                calls.append((key, passed))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    for tree in map(ast.parse, calling):
        visit(tree, None)
    return defs, calls


def _label(owner, name: str) -> str:
    """``f`` for a function, ``C`` for ``C.__init__`` and ``C.m`` for another method."""
    return owner if name == "__init__" else name if owner is None else f"{owner}.{name}"


def unpassed_defaults(defining: list[str], calling: list[str]) -> list[str]:
    """``"owner: parameter"`` (see ``_label``) for each defaulted parameter
    of a module-level function or a method defined in ``defining`` that no
    call in ``calling`` passes (calls resolve as in ``_resolved_calls``)."""
    defs, calls = _resolved_calls(defining, calling)
    passed = {key: set() for key in defs}
    for key, params in calls:
        passed[key] |= params
    return sorted(f"{_label(*key)}: {param}" for key, (_, defaulted) in defs.items()
                  for param in defaulted - passed[key])


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
    "split_by_phrase: ratios",
}


def test_every_default_is_passed_by_some_call():
    defining = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    calling = defining + [path.read_text(encoding="utf-8")
                          for path in sorted(PERFBENCH.glob("*.py"))]
    assert unpassed_defaults(defining, calling) == sorted(DEFAULTS_TEST_SUPPORT)


def unrelied_defaults(defining: list[str], calling: list[str]) -> list[str]:
    """``"owner: parameter"`` for each defaulted parameter of a function or
    method defined in ``defining`` that some call in ``calling`` reaches and
    that every such call passes (calls resolve as in ``_resolved_calls``):
    a default no call relies on."""
    defs, calls = _resolved_calls(defining, calling)
    reached = {key for key, _ in calls}
    left_out = {key: set() for key in defs}
    for key, params in calls:
        left_out[key] |= defs[key][1] - params
    return sorted(f"{_label(*key)}: {param}" for key in reached
                  for param in defs[key][1] - left_out[key])


def test_reliance_checker_flags_defaults_every_call_passes():
    defining = ["class C:\n"
                "    def __init__(self, a, b=1, *, c=2): pass\n"
                "    @classmethod\n"
                "    def make(cls, x=0):\n"
                "        return cls(0, 1, c=x)\n"
                "    def m(self, y=0, z=0): pass\n"
                "def f(p, q=0, r=0): pass\n"
                "def g(w=0): pass\n"
                "def h(*, k=0): pass\n"
                "def unused(v=0): pass\n"]
    calling = defining + ["C.make(1)\n"
                          "obj.m(1)\n"
                          "obj.m(1, z=2)\n"
                          "mod.f(1, 2, 3)\n"
                          "f(0, r=1)\n"
                          "g(*args)\n"
                          "h(**opts)\n"]
    assert unrelied_defaults(defining, calling) == [
        "C.m: y", "C.make: x", "C: b", "C: c", "f: r", "g: w", "h: k"]


# defaults that only tests rely on, each with the reason it stays; an entry
# that some package call relies on, or whose default is gone, fails the check
_FLOAT64 = "tests build float64 layers for their gradient checks"
_SEED = "tests build their inputs from the default seed"
DEFAULTS_RELIED_ON_BY_TESTS = {
    "uniform_init: dtype": _FLOAT64,
    "matrix_init: dtype": _FLOAT64,
    "LstmParams.create: dtype": _FLOAT64,
    "BiLstmParams.create: dtype": _FLOAT64,
    "CharCnnParams.create: dtype": _FLOAT64,
    "AttentionParams.create: dtype": _FLOAT64,
    "GateParams.create: dtype": _FLOAT64,
    "MaskNetParams.create: dtype": _FLOAT64,
    "reduce_sum: axis": "gradient checks sum a whole output to one number",
    "lstm_sequence: drop": "LSTM tests step and unroll without dropout",
    "lstm_cell: drop": "LSTM tests step and unroll without dropout",
    "DescriptionModel: seed": _SEED,
    "DescriptionModel: emb_table": "tests build models without an embedding file",
    "EmbeddingTable: seed": _SEED,
    "load_embeddings: seed": _SEED,
    "make_batches: seed": _SEED,
    "split_by_phrase: seed": _SEED,
    "greedy_decode: max_len": "perfbench calls greedy_decode(model, entry) through a loop "
                              "variable, which the checker cannot resolve",
}


def test_every_default_is_relied_on_by_some_call():
    defining = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    calling = defining + [path.read_text(encoding="utf-8")
                          for path in sorted(PERFBENCH.glob("*.py"))]
    assert unrelied_defaults(defining, calling) == sorted(DEFAULTS_RELIED_ON_BY_TESTS)


def unread_dataclass_fields(defining: list[str], reading: list[str]) -> list[str]:
    """``"Class.field"`` for each field of a dataclass defined in
    ``defining`` whose name no module of ``reading`` reads as an attribute
    (``obj.field`` in a load, not an assignment)."""
    def is_dataclass(decorator) -> bool:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"

    defined = [(node.name, stmt.target.id)
               for tree in map(ast.parse, defining) for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
               for stmt in node.body
               if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    read = {node.attr for tree in map(ast.parse, reading) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{cls}.{name}" for cls, name in defined if name not in read)


def test_field_checker_flags_unread_fields():
    defining = ["import dataclasses\n"
                "from dataclasses import dataclass\n"
                "@dataclass\n"
                "class A:\n"
                "    used: int\n"
                "    unused: int\n"
                "    LIMIT = 3\n"
                "@dataclasses.dataclass(frozen=True)\n"
                "class B:\n"
                "    x: int\n"
                "    written: int\n"
                "class Plain:\n"
                "    y: int\n"]
    reading = defining + ["def f(a, b):\n"
                          "    b.written = a.LIMIT\n"
                          "    return a.used + b.x\n"]
    assert unread_dataclass_fields(defining, reading) == ["A.unused", "B.written"]


def test_every_dataclass_field_is_read():
    defining = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    reading = defining + [path.read_text(encoding="utf-8")
                          for path in sorted(PERFBENCH.glob("*.py"))]
    assert unread_dataclass_fields(defining, reading) == []
