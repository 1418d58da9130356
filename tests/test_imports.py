"""Every name a trigcert module imports is used there or listed in its
``__all__``, and every function and method it defines is referenced
somewhere in the package, checked on the syntax tree with the standard
library."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "trigcert"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # a dotted use such as np.fft.fft starts with the Name np
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_checker_flags_unused():
    source = "import os\nfrom math import pi, tau\n__all__ = ['tau']\n"
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_used(path):
    assert unused_imports(path.read_text()) == []


# Defined in src/ and referenced only from outside it, on purpose.
KEEP = {
    "concentration.tail_probability":
        "the benchmark's tracer wraps it (bench/tracing.py LAYERS)",
    "concentration.DiscreteProbSpace.expectation":
        "the tail oracle in tests/test_concentration.py compares against it",
}


def unreferenced(sources: dict) -> list:
    """'module.function' and 'module.Class.method' names defined at the
    top level of the given sources (module name -> text) that nothing in
    them uses.  A function is used when a Name or an attribute access
    mentions it or an ``__all__`` lists it; a method or property only when
    an attribute access does, so a local variable or a module function of
    the same name keeps no method alive.  Dunder methods are called by the
    language and are skipped.  An annotated class field such as
    ``size: int`` declares a name and does not use it, so it is no
    mention."""
    functions, methods, names, attrs = [], [], set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append((f"{module}.{node.name}", node.name))
            elif isinstance(node, ast.ClassDef):
                methods.extend(
                    (f"{module}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__")))
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names.update(ast.literal_eval(node.value))
        fields = {id(node.target) for node in ast.walk(tree)
                  if isinstance(node, ast.AnnAssign)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and id(node) not in fields:
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return sorted([qual for qual, name in functions if name not in names | attrs]
                  + [qual for qual, name in methods if name not in attrs])


def test_dead_api_checker_flags_unreferenced():
    sources = {
        "a": "def used():\n    pass\n\n"
             "def unused():\n    pass\n\n"
             "class C:\n"
             "    def __init__(self):\n        pass\n\n"
             "    def m(self):\n        return used()\n\n"
             "    @property\n    def p(self):\n        return 1\n\n"
             "    @property\n    def width(self):\n        return 2\n\n"
             "    def constant(self):\n        return constant(self.p)\n\n"
             "def constant(x):\n    width = x\n    return width\n\n"
             "def size():\n    return 2\n\n"
             "class Cert:\n    size: int\n",
        "b": "from a import C\n__all__ = ['exported']\n\n"
             "def exported():\n    return C().p\n",
    }
    # the field annotation 'size: int' does not keep the function size
    # alive, nor the local 'width' or the function 'constant' the methods
    # of those names
    assert unreferenced(sources) == ["a.C.constant", "a.C.m", "a.C.width",
                                     "a.size", "a.unused"]


def test_every_function_referenced():
    dead = unreferenced({p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))})
    assert sorted(set(dead) - set(KEEP)) == []
    # a kept name that gains a caller in src/ leaves the keep-list
    assert sorted(set(KEEP) - set(dead)) == []
