"""Hand mutants of the kernels, each run against the tests that should
catch it.  Run by hand from the root of a checkout; pytest does not collect
this file:

    python tests/mutants.py          # every mutant
    python tests/mutants.py 6 7 8    # the mutants numbered 6, 7 and 8

Each entry of MUTANTS is (file under src/richlines, exact old text, new
text, tests).  For each one the script copies src/ to a temporary tree,
replaces the one occurrence of the old text there, and runs only the named
tests with PYTHONPATH set to the copy.  The mutant is caught when they fail
and survived when they pass.  An entry whose old text does not occur
exactly once stops the run: the entries follow the code they mutate.

A surviving mutant is either killed by a new test or shown equivalent in
the docstring of the kernel it mutates.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_CONSTRUCTION = "tests/test_construction.py::"
_FASTPATH = "tests/test_fastpath.py::"

MUTANTS = [
    (
        "sweep.py",
        "self.cm = int(per_row.max(initial=0)) * s",
        "self.cm = int(per_row.max(initial=0))",
        [_CONSTRUCTION + "test_intercept_words_stay_within_bins"],
    ),
    (
        "sweep.py",
        "np.diff(heads, append=len(ab)) >= r - 1]]]",
        "np.diff(heads, append=len(ab)) >= r]]]",
        [_FASTPATH + "test_rich_line_keys_match_pair_reference"],
    ),
    (
        "keys.py",
        "2 * max(product_bounds(basis, coeff, shift)), basis.c_lambda)",
        "2 * max(product_bounds(basis, coeff, shift)))",
        [_CONSTRUCTION + "test_structure_constants_wider_than_int8_operands"],
    ),
    (
        "richness.py",
        "lo = np.maximum(-((b * ry + c) // safe), -rx)",
        "lo = np.maximum(-((b * ry + c) // safe), -rx + 1)",
        [_CONSTRUCTION + "test_closed_form_matches_reference"],
    ),
    (
        "keys.py",
        "rows //= reduce(np.gcd, rows.T)[:, None]",
        "rows //= np.maximum(reduce(np.gcd, rows.T) // 2, 1)[:, None]",
        [_FASTPATH + "test_keys_are_primitive"],
    ),
    (
        "richness.py",
        "        big_b**2,\n",
        "        big_b,\n",
        [_CONSTRUCTION + "test_closed_form_stays_within_its_bound"],
    ),
    (
        "richness.py",
        "        d * a * (cc + d * o * s * x),\n",
        "        a * (cc + d * o * s * x),\n",
        [_CONSTRUCTION + "test_columns_stay_within_block_bound"],
    ),
    (
        "construction.py",
        "        2 * max(product_bounds(basis, k, z)) + k,\n",
        "        max(product_bounds(basis, k, z)) + k,\n",
        [_CONSTRUCTION + "test_mechanism_check_stays_within_its_bound"],
    ),
]


def run_mutant(file, old, new, tests):
    """True when the tests fail on src/ with the one occurrence of old in
    src/richlines/file replaced by new."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "richlines" / file
        text = target.read_text()
        if text.count(old) != 1:
            sys.exit(f"{file}: the old text occurs {text.count(old)} times, not once:\n{old}")
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        # pythonpath= keeps pytest from putting the checkout's own src/ first
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        command += ["-o", "pythonpath=", *tests]
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
        # 1: a test failed; 2: a test module failed to import the mutant
        if done.returncode not in (0, 1, 2):
            sys.exit(f"pytest could not run the tests of {file}:\n{done.stdout}{done.stderr}")
        return done.returncode != 0


def main(argv):
    picked = [int(a) for a in argv] or range(1, len(MUTANTS) + 1)
    caught = 0
    for number in picked:
        file, old, new, tests = MUTANTS[number - 1]
        found = run_mutant(file, old, new, tests)
        caught += found
        first = old.strip().splitlines()[0]
        print(f"{number}. {'caught' if found else 'SURVIVED'}: {file}: {first!r}", flush=True)
    print(f"caught {caught}/{len(picked)}")


if __name__ == "__main__":
    main(sys.argv[1:])
