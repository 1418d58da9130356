"""Every name a trigcert module imports is used there or listed in its
``__all__``, every module it imports is its own, numpy's or the standard
library's, and every function and method it defines is referenced
somewhere in the package, checked on the syntax tree with the standard
library."""

import ast
import sys
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


def foreign_imports(source: str) -> list:
    """Top-level modules the source imports that are neither relative,
    numpy, nor in the standard library: pyproject.toml declares numpy
    alone, and each further import adds its load time to every run."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return sorted(names - set(sys.stdlib_module_names) - {"numpy"})


def test_dependency_checker_flags_foreign():
    source = ("from __future__ import annotations\nimport math\nimport numpy as np\n"
              "import scipy.linalg\nfrom scipy import fft\nfrom .trigpoly import TWO_PI\n"
              "def f():\n    import sympy\n")
    assert foreign_imports(source) == ["scipy", "sympy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_numpy_and_stdlib(path):
    assert foreign_imports(path.read_text()) == []


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


# Defaulted parameters and dataclass fields that no call in src/ sets, on
# purpose.
KEEP_OPTIONS = {
    "cli.main.argv": "the benchmark and the tests pass the command line",
    "principal.PrincipalConfig.mode":
        "the benchmark's principal-n3 config sets it to empirical, and "
        "theoretical selects the paper's constants",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if (getattr(d, "id", None) or getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def unset_options(sources: dict) -> list:
    """'module.function.param' (or 'module.Class.method.param') for each
    defaulted parameter of a function or method, and 'module.Class.field'
    for each dataclass field with a default, in the given sources (module
    name -> text) that no call in them passes, by keyword or by position.
    A call counts when it names a function of the same name, directly or
    as an attribute, or the class for an ``__init__`` or a dataclass; a
    method's positions start after self.  A call that unpacks ``*args``
    or ``**kwargs`` is taken to pass every parameter, but no dataclass
    field: a config unpacked into a dataclass sets what its user writes,
    not what a caller in the sources does."""
    defs, calls = [], {}

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    fields = [item for item in child.body
                              if isinstance(item, ast.AnnAssign)
                              and isinstance(item.target, ast.Name)]
                    params = [(i, f.target.id) for i, f in enumerate(fields)
                              if f.value is not None]
                    defs.append((f"{prefix}.{child.name}", child.name, params, False))
                visit(child, f"{prefix}.{child.name}", child.name)
                continue
            if not isinstance(child, ast.FunctionDef):
                visit(child, prefix, owner)
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in child.decorator_list)
            if owner and not static:
                positional = positional[1:]
            first = len(positional) - len(args.defaults)
            params = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            params += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None]
            name = owner if owner and child.name == "__init__" else child.name
            qual = f"{prefix}.{child.name}"
            defs.append((qual, name, params, True))
            visit(child, qual, None)

    for module, source in sources.items():
        tree = ast.parse(source)
        visit(tree, module, None)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def passes(call, index, param, unpack):
        # positions up to the first *args are known
        known = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)),
                     len(call.args))
        if unpack and (known < len(call.args)
                       or any(k.arg is None for k in call.keywords)):
            return True
        return (any(k.arg == param for k in call.keywords)
                or (index is not None and index < known))

    return sorted(f"{qual}.{param}" for qual, name, params, unpack in defs
                  for index, param in params
                  if not any(passes(c, index, param, unpack)
                             for c in calls.get(name, [])))


def test_option_checker_flags_unset():
    sources = {
        "a": "def f(x, y=1, *, z=2, w=3):\n    return x\n\n"
             "class C:\n"
             "    def __init__(self, v=0, u=1):\n        pass\n\n"
             "    def m(self, k=1, j=2):\n        return k\n\n"
             "    @staticmethod\n    def s(k=1):\n        return k\n",
        "b": "from a import C, f\n\n"
             "def g(**kw):\n    f(1, 2, w=kw)\n    C(5).m(3)\n    C.s()\n"
             "    return f(*kw)\n",
    }
    # f(*kw) passes everything, so f is never flagged; C(5) sets v and
    # .m(3) sets k, both by position after self
    assert unset_options(sources) == ["a.C.__init__.u", "a.C.m.j", "a.C.s.k"]
    sources["b"] = sources["b"].replace("    return f(*kw)\n", "    return None\n")
    assert unset_options(sources) == ["a.C.__init__.u", "a.C.m.j", "a.C.s.k", "a.f.z"]


def test_option_checker_flags_unset_dataclass_fields():
    sources = {
        "a": "from dataclasses import dataclass\n\n"
             "@dataclass(frozen=True)\nclass D:\n"
             "    x: int\n    y: int = 1\n    z: int = 2\n    w: int = 3\n\n"
             "@dataclass\nclass E:\n    v: int = 0\n\n"
             "class Plain:\n    v: int = 0\n",
        "b": "from a import D, E\n\n"
             "def h(cfg):\n    D(1, 2)\n    D(x=1, w=4)\n    E(*cfg)\n"
             "    return D(**cfg)\n",
    }
    # D(1, 2) sets y by position and D(x=1, w=4) sets w; neither D(**cfg)
    # nor E(*cfg) sets a field, and a plain class has no fields
    assert unset_options(sources) == ["a.D.z", "a.E.v"]


def test_every_option_set_in_src():
    unset = unset_options({p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))})
    assert sorted(set(unset) - set(KEEP_OPTIONS)) == []
    # a kept option that gains a caller in src/ leaves the keep-list
    assert sorted(set(KEEP_OPTIONS) - set(unset)) == []
