"""Import hygiene of the library: every name a module imports is used."""

import ast
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
    assert {p.stem for p in modules} >= {"cli", "construction", "family", "geometry", "richness"}
    unused = {
        p.name: found
        for p in modules
        if (found := _unused_imports(ast.parse(p.read_text(), filename=str(p))))
    }
    assert unused == {}


def test_unused_import_is_found():
    """The check finds an unused plain, dotted and aliased import, and
    counts a use as the root of an attribute chain or a bare name."""
    tree = ast.parse(
        "import os.path\nimport numpy as np\nfrom math import gcd, lcm\n"
        "from .geometry import Point\nnp.zeros(1)\nlcm(2, 3)\n"
    )
    assert _unused_imports(tree) == [(1, "os"), (3, "gcd"), (4, "Point")]
