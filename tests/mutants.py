"""Hand mutants of the kernels, each run against the tests that should
catch it.  Run by hand from the root of a checkout; pytest does not collect
this file:

    python tests/mutants.py          # every mutant
    python tests/mutants.py 6 7 8    # the mutants numbered 6, 7 and 8

Each entry of MUTANTS is (file under src/richlines, exact old text, new
text, tests); a mutant that edits several places gives a tuple of old
texts and one of new texts.  For each one the script copies src/ to a
temporary tree, replaces the one occurrence of each old text there, and
runs only the named tests with PYTHONPATH set to the copy.  The mutant is caught when they fail
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
_GRID = _CONSTRUCTION + "test_grid_family_matches_pair_route"

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
        "column = [cc + v for v in product_bounds(basis, o, max(x, 1))]",
        "column = [v for v in product_bounds(basis, o, max(x, 1))]",
        [_CONSTRUCTION + "test_columns_stay_within_block_bound"],
    ),
    (
        "construction.py",
        "        2 * max(product_bounds(basis, k, z)) + k,\n",
        "        max(product_bounds(basis, k, z)) + k,\n",
        [_CONSTRUCTION + "test_mechanism_check_stays_within_its_bound"],
    ),
    (
        "family.py",
        "keep = (np.gcd(a, b) == 1) & ((a > 0) | (b > 0))",
        "keep = (a > 0) | (b > 0)",
        [_GRID],
    ),
    (
        "family.py",
        "start = (si < w - u) & (sj + v >= 0) & (sj + v < h)",
        "start = (si <= w - u) & (sj + v >= 0) & (sj + v < h)",
        [_GRID],
    ),
    (
        "family.py",
        "width, height = w - ux, h - np.abs(uy)",
        "width, height = w - ux, h - np.abs(uy) + 1",
        [_GRID],
    ),
    (
        # origin by max: the empty value below every index, the largest kept
        "family.py",
        (
            "mask = np.full(int(offset[-1] + slots[block][-1]), top, dtype=work)",
            "np.minimum.at(mask, moved.ravel(), index.ravel())",
            "hit = np.flatnonzero(mask < top)",
        ),
        (
            "mask = np.full(int(offset[-1] + slots[block][-1]), -1, dtype=work)",
            "np.maximum.at(mask, moved.ravel(), index.ravel())",
            "hit = np.flatnonzero(mask >= 0)",
        ),
        [_GRID],
    ),
    (
        "family.py",
        "sign = 1 if k > 0 else -1",
        "sign = 1",
        [_GRID],
    ),
    (
        "family.py",
        "block_keys[:, 2] *= abs(k)",
        "block_keys[:, 2] *= k",
        [_GRID],
    ),
    (
        "family.py",
        "cx, cy = x[0] + np.stack([np.zeros_like(xhi), xhi]), y[0] + np.stack([ylo, yhi])",
        "cx, cy = x[0] + np.stack([np.zeros_like(xhi), xhi]), y[0] + np.stack([ylo, ylo])",
        [_GRID],
    ),
    (
        "family.py",
        "return moved, np.arange(len(moved))",
        "return moved, np.arange(len(moved))[::-1]",
        [_CONSTRUCTION + "test_spread_keeps_one_translate_in_order"],
    ),
    (
        "keys.py",
        "return max(coeff, const + 2 * max(product_bounds(basis, coeff, shift)), basis.c_lambda)",
        "return max(coeff, const + max(product_bounds(basis, coeff, shift)), basis.c_lambda)",
        [_CONSTRUCTION + "test_shift_keys_stays_within_its_bound"],
    ),
    (
        "richness.py",
        "new[1:] = (keys[1:, 0] != keys[:-1, 0]) | (keys[1:, 1] != keys[:-1, 1])",
        "new[1:] = keys[1:, 0] != keys[:-1, 0]",
        [_CONSTRUCTION + "test_counter_counts_block_by_block"],
    ),
    (
        # every block's cell lines numbered from 0: wrong origins past block 1
        "family.py",
        "line = np.arange(len(slot), dtype=work) + int(line0[block.start])",
        "line = np.arange(len(slot), dtype=work) + 0",
        [_GRID + "_in_blocks"],
    ),
    (
        # a mixed result typed as its left operand: Element + RationalElement truncates
        "numberfield.py",
        "return RationalElement if isinstance(other, RationalElement) else type(self)",
        "return type(self)",
        ["tests/test_numberfield.py::test_mixed_operands_are_exact"],
    ),
    (
        "construction.py",
        "(least,) = low[canonical_least(basis, keys[low], 1)]",
        "least = low[0]",
        [_CONSTRUCTION + "test_verify_claim2_tuned"],
    ),
    (
        # the signed cofactors of the bound matrix in place of its permanents
        "numberfield.py",
        "basis._permanents = unit, _adjugate(unit, sign=1), _det(unit, sign=1)",
        "basis._permanents = unit, _adjugate(unit), _det(unit, sign=1)",
        [_CONSTRUCTION + "test_columns_stay_within_block_bound"],
    ),
    (
        "numberfield.py",
        "adj = [[p ** (d - 1) * v for v in row] for row in adj]",
        "adj = [[p ** (d - 2) * v for v in row] for row in adj]",
        [_FASTPATH + "test_group_pairs_stays_within_key_bound"],
    ),
    (
        "richness.py",
        "max(target.radius, 1) * target.scale * det)",
        "target.scale * det)",
        [_CONSTRUCTION + "test_columns_stay_within_block_bound"],
    ),
]


def run_mutant(file, old, new, tests):
    """True when the tests fail on src/ with the one occurrence of old in
    src/richlines/file replaced by new (each old text of a tuple by the new
    text at its place)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "richlines" / file
        text = target.read_text()
        for old, new in zip(old, new) if isinstance(old, tuple) else [(old, new)]:
            if text.count(old) != 1:
                sys.exit(f"{file}: the old text occurs {text.count(old)} times, not once:\n{old}")
            text = text.replace(old, new)
        target.write_text(text)
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
        first = (old[0] if isinstance(old, tuple) else old).strip().splitlines()[0]
        print(f"{number}. {'caught' if found else 'SURVIVED'}: {file}: {first!r}", flush=True)
    print(f"caught {caught}/{len(picked)}")


if __name__ == "__main__":
    main(sys.argv[1:])
