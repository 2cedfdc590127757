"""The hand mutant list of tests/mutants.py follows the code it mutates."""

import ast
from pathlib import Path

from mutants import MUTANTS, ROOT


def test_mutant_entries_follow_the_code():
    """Each entry of mutants.MUTANTS names old texts that occur exactly once
    in its file under src/richlines, as the script needs to apply it, and
    tests that exist: a test function defined at the top level of the named
    file."""
    defined = {}
    for file, old, _, tests in MUTANTS:
        text = (ROOT / "src" / "richlines" / file).read_text()
        for each in old if isinstance(old, tuple) else (old,):
            assert text.count(each) == 1, (file, each)
        for test in tests:
            path, name = test.split("::")
            if path not in defined:
                tree = ast.parse(Path(ROOT, path).read_text())
                functions = (node for node in tree.body if isinstance(node, ast.FunctionDef))
                defined[path] = {node.name for node in functions}
            assert name.startswith("test_") and name in defined[path], test
