"""Hygiene of the library: every name a module imports is used, every
private helper and module constant it defines is used somewhere in it, and
the package exports names, not modules."""

import ast
import types
from collections import Counter
from pathlib import Path

import richlines

SRC = Path(richlines.__file__).resolve().parent


def _unused_imports(tree):
    """The names that tree's import statements bind and no other node
    reads: a plain name, or the root of an attribute chain."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_import_is_used():
    """Each module of src/richlines but __init__, whose imports are its
    re-exports, uses every name it imports, so that code moved out of a
    module takes its imports with it."""
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert {p.stem for p in modules} >= {
        "cli", "construction", "family", "geometry", "keys", "richness", "sweep"
    }
    unused = {
        p.name: found
        for p in modules
        if (found := _unused_imports(ast.parse(p.read_text(), filename=str(p))))
    }
    assert unused == {}


# The layers of src/richlines, lowest first: a module imports only from the
# modules before it.
LAYERS = (
    "errors", "numberfield", "gapset", "keys", "sweep", "geometry",
    "family", "richness", "construction", "harness", "cli",
)


def _relative_imports(tree):
    """The modules of the package that tree's relative imports name, as
    `from .module import ...` or `from . import module, ...`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


def test_modules_import_only_lower_layers():
    """Every relative import of a module of src/richlines names a module of
    an earlier layer in LAYERS, which lists every module but __init__ and
    __main__.  gapset, family and richness, which use the dtype rule and
    the key kernels, import nothing from geometry, whose scalar lines and
    text dumps they do not use."""
    modules = {p.stem: p for p in SRC.glob("*.py")}
    assert set(modules) - {"__init__", "__main__"} == set(LAYERS)
    imports = {name: _relative_imports(ast.parse(modules[name].read_text())) for name in LAYERS}
    upward = {
        name: sorted(imports[name] - set(LAYERS[:k]))
        for k, name in enumerate(LAYERS)
        if imports[name] - set(LAYERS[:k])
    }
    assert upward == {}
    assert not any("geometry" in imports[name] for name in ("gapset", "family", "richness"))


def test_upward_import_is_found():
    """The layering check reads both forms of relative import, and leaves
    absolute imports alone."""
    tree = ast.parse(
        "import numpy as np\nfrom math import gcd\nfrom .keys import group_pairs\n"
        "from . import harness, numberfield\n"
    )
    assert _relative_imports(tree) == {"keys", "harness", "numberfield"}


def test_unused_import_is_found():
    """The check finds an unused plain, dotted and aliased import, and
    counts a use as the root of an attribute chain or a bare name."""
    tree = ast.parse(
        "import os.path\nimport numpy as np\nfrom math import gcd, lcm\n"
        "from .geometry import Point\nnp.zeros(1)\nlcm(2, 3)\n"
    )
    assert _unused_imports(tree) == [(1, "os"), (3, "gcd"), (4, "Point")]


def _read_names(node):
    """How often each name is read within node: as a bare name, or as the
    attribute of an attribute chain."""
    return Counter(
        n.attr if isinstance(n, ast.Attribute) else n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    )


def _unreferenced(trees):
    """(module, name) of each private top-level function or class, and of
    each module constant (an upper-case name, with or without a leading
    underscore), that trees, module name to ast, define and that no node
    outside its own definition reads."""
    total = sum((_read_names(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name] if node.name.startswith("_") else []
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
            else:
                continue
            own = _read_names(node)
            found += [(module, name) for name in names if total[name] == own[name]]
    return sorted(found)


def test_every_private_helper_and_constant_is_used():
    """Each private function and class, and each module constant, that a
    module of src/richlines defines is read somewhere in src/richlines
    outside its own definition, so that a helper whose last caller goes
    goes with it."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")}
    assert _unreferenced(trees) == []


def test_unreferenced_helper_is_found():
    """The check finds a private function that only calls itself, a private
    class and a constant no one reads, and counts a read from another
    module, as a bare name or an attribute, and a public function's use."""
    trees = {
        "a": ast.parse(
            "def _rec(n):\n    return _rec(n - 1)\nclass _Unused:\n    pass\n"
            "_LIMIT = 3\nCAP = 4\nDONE = CAP\ndef _helper():\n    return 1\n"
            "def public():\n    return _helper()\n"
        ),
        "b": ast.parse("from . import a\nprint(a.DONE)\n"),
    }
    assert _unreferenced(trees) == [("a", "_LIMIT"), ("a", "_Unused"), ("a", "_rec")]


def test_package_exports_names_not_modules():
    """richlines.__all__ lists the names the package exports, each bound in
    it and none a module, so that `from richlines import *` binds no
    submodule; every name the package imports from its modules is listed."""
    exported = [getattr(richlines, name) for name in richlines.__all__]
    assert not any(isinstance(value, types.ModuleType) for value in exported)
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(richlines.__all__) == sorted(imported)
