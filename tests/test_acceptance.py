"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 demands exact full richness over the whole basis/alpha/r matrix
at realized |P| in [500, 5000].  Several cells of that matrix have no
admissible configuration at desk scale (see the failure details the test
prints); the test states the requirement as written and is expected to fail
honestly on those cells rather than shrink the matrix.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

import richlines as rl
from richlines.construction import (
    AutoTuneError,
    ConstructionParams,
    auto_tune_c1,
    build_pointset,
    szt_incidence_construction,
    verify_claim2,
)
from richlines.errors import RTooLargeError
from richlines.gapset import gap_set, product_bound, sum_bound
from richlines.geometry import CanonicalLine, Point, collinear, line_through
from richlines.harness import parse_config, sweep, sweep_csv
from richlines.keys import _richness_from_pairs, group_pairs, key_tuples
from richlines.numberfield import Element, divide
from richlines.sweep import rich_line_keys

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)

ARITH_BASES = {
    "integers": rl.build_integers_basis(),
    "quadratic k=2": rl.build_quadratic_basis(2),
    "quadratic k=5": rl.build_quadratic_basis(5),
    "quadratic k=-1": rl.build_quadratic_basis(-1),
    "power x^3-2": rl.build_power_basis([-2, 0, 0]),
    "power x^4-x-1": rl.build_power_basis([-1, -1, 0, 0]),
}

MATRIX_BASES = {
    "integers": ARITH_BASES["integers"],
    "quadratic k=2": ARITH_BASES["quadratic k=2"],
    "power x^3-2": ARITH_BASES["power x^3-2"],
}

# Nominal n per matrix cell, chosen so the realized |P| lands in [500, 5000].
# None marks the cells where no nominal n realizes a point count in that
# window at all; the fixture proves the window is empty instead of running.
MATRIX = [
    ("integers", HALF, 3, 1100),
    ("integers", HALF, 5, 1100),
    ("integers", THIRD, 3, 6000),
    ("integers", THIRD, 5, 9000),
    ("quadratic k=2", HALF, 3, 6561),
    ("quadratic k=2", HALF, 5, 20000),
    ("quadratic k=2", THIRD, 3, 30000),
    ("quadratic k=2", THIRD, 5, 30000),
    ("power x^3-2", HALF, 3, 6561),
    ("power x^3-2", HALF, 5, 18225),
    ("power x^3-2", THIRD, 3, None),
    ("power x^3-2", THIRD, 5, None),
]

SWEEP_CFG = {
    "basis": {"type": "integers"},
    "n": 2304,
    "alpha": "1/2",
    "r_list": [3, 4, 5, 6, 8],
    "c1": "1/1",
    "seed": 0,
}


def rand_elt(rng, basis, bound=50):
    return Element(basis, [rng.randint(-bound, bound) for _ in range(basis.degree)])


def window_is_empty(basis, alpha, lo=500, hi=5000, n_max=10**7):
    """True when no n <= n_max realizes |P| in [lo, hi].

    |P| is nondecreasing in n, so it suffices to find the first n where
    |P| >= lo and see that it already overshoots hi.
    """
    if len(build_pointset(basis, n_max, alpha)) < lo:
        return False
    a, b = 2, n_max
    while a < b:
        mid = (a + b) // 2
        if len(build_pointset(basis, mid, alpha)) >= lo:
            b = mid
        else:
            a = mid + 1
    return len(build_pointset(basis, a, alpha)) > hi


@pytest.fixture(scope="module")
def claim2_matrix():
    t0 = time.perf_counter()
    results = {}
    for name, alpha, r, n in MATRIX:
        basis = MATRIX_BASES[name]
        cell = (name, str(alpha), r)
        if n is None:
            assert window_is_empty(basis, alpha)
            results[cell] = {"status": "no |P| window", "n": None}
            continue
        box = build_pointset(basis, n, alpha)
        assert 500 <= len(box) <= 5000, (cell, len(box))
        try:
            tuned = auto_tune_c1(
                ConstructionParams(basis, n, alpha, r, Fraction(1), True)
            )
        except (AutoTuneError, RTooLargeError) as err:
            results[cell] = {
                "status": type(err).__name__,
                "n": n,
                "p": len(box),
            }
            continue
        results[cell] = {
            "status": "ok",
            "n": n,
            "p": len(box),
            "frac": verify_claim2(tuned.family, box, r, tuned.richness).frac_r_rich,
            "basis": basis,
            "alpha": alpha,
            "r": r,
            "box": box,
            "family": tuned.family,
        }
    return results, time.perf_counter() - t0


def test_criterion_1_arithmetic_soundness():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    failures = 0
    for basis in ARITH_BASES.values():
        for _ in range(1000):
            a, b, c = (rand_elt(rng, basis) for _ in range(3))
            if (a * b).coords != (b * a).coords:
                failures += 1
            if ((a * b) * c).coords != (a * (b * c)).coords:
                failures += 1
            if (a * (b + c)).coords != (a * b + a * c).coords:
                failures += 1
            if not b.is_zero():
                if (divide(a, b) * b).coords != a.to_rational().coords:
                    failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 10
    print(
        f"criterion 1: {'PASS' if ok else 'FAIL'} "
        f"(ring axioms + divide/mul round trip, {len(ARITH_BASES)} bases x "
        f"1000 samples, {failures} failures, {elapsed:.2f}s)"
    )
    assert failures == 0
    assert elapsed < 10


def test_criterion_2_closure_bounds():
    rng = random.Random(2025)
    t0 = time.perf_counter()
    violations = 0
    for basis in ARITH_BASES.values():
        d = basis.degree
        for _ in range(1000):
            m = Fraction(rng.randint(1, 2000))
            mp = Fraction(rng.randint(1, 2000))
            sa, sb = gap_set(basis, m), gap_set(basis, mp)
            a = Element(basis, [rng.randint(-sa.radius, sa.radius) for _ in range(d)])
            b = Element(basis, [rng.randint(-sb.radius, sb.radius) for _ in range(d)])
            if not gap_set(basis, sum_bound(m, mp, d)).contains(a + b):
                violations += 1
            if not gap_set(
                basis, product_bound(m, mp, d, basis.c_lambda)
            ).contains(a * b):
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10
    print(
        f"criterion 2: {'PASS' if ok else 'FAIL'} "
        f"(sum/product closure, {len(ARITH_BASES)} bases x 1000 samples, "
        f"{violations} violations, {elapsed:.2f}s)"
    )
    assert violations == 0
    assert elapsed < 10


def test_criterion_3_oracle_agreement():
    basis = ARITH_BASES["integers"]
    axis = [(v,) for v in range(3)]
    pts = [Point(Element(basis, x), Element(basis, y)) for x in axis for y in axis]
    # the oracle: the direction sweep's lines with 3 points of the grid
    keys, richness = rich_line_keys(basis, axis, axis, 3)
    rich = {CanonicalLine(basis, k): n for k, n in zip(key_tuples(keys), richness.tolist())}
    # independent all-triples scan: every 3-rich line shows up as a triple
    triple_lines = {
        line_through(p, q)
        for p, q, t in combinations(pts, 3)
        if collinear(p, q, t)
    }
    # independent pair grouping for the beck statistic
    pair_lines = {}
    for p, q in combinations(pts, 2):
        pair_lines[line_through(p, q)] = pair_lines.get(line_through(p, q), 0) + 1
    max_k = max(k for k in range(2, 10) if any(c == comb(k, 2) for c in pair_lines.values()))
    # the Beck pair (max collinear, lines) from the pair kernel's counts
    _, counts, _ = group_pairs(basis, [p.x.coords for p in pts], [p.y.coords for p in pts])
    beck = (_richness_from_pairs(int(counts.max())), len(counts))
    ok = (
        len(rich) == 8
        and set(rich) == triple_lines
        and set(rich.values()) == {3}
        and beck == (3, 20)
        and (max_k, len(pair_lines)) == (3, 20)
    )
    print(
        f"criterion 3: {'PASS' if ok else 'FAIL'} "
        f"(3x3 grid: {len(rich)} rich lines vs {len(triple_lines)} by triple "
        f"scan, beck={beck} vs pair grouping ({max_k}, {len(pair_lines)}))"
    )
    assert ok


def test_criterion_4_full_richness_matrix(claim2_matrix):
    results, elapsed = claim2_matrix
    bad = {
        cell: res
        for cell, res in results.items()
        if res["status"] != "ok" or res["frac"] != 1.0
    }
    ok = not bad and elapsed < 60
    print(
        f"criterion 4: {'PASS' if ok else 'FAIL'} "
        f"({len(results) - len(bad)}/{len(results)} matrix cells fully r-rich "
        f"after auto-tuning, {elapsed:.1f}s)"
    )
    for cell, res in sorted(bad.items()):
        print(f"  failing cell {cell}: {res['status']}" + (
            f" at n={res['n']}" if res["n"] else ""
        ))
    assert elapsed < 60
    assert not bad, f"cells without a fully r-rich tuned construction: {sorted(bad)}"


def test_criterion_5_family_subset_of_oracle(claim2_matrix):
    """The family, built by the pair kernel, against the r-rich lines of the
    box found independently by the direction sweep."""
    results, _ = claim2_matrix
    checked = 0
    all_subset = True
    for cell, res in results.items():
        if res["status"] != "ok" or res["p"] > 50_000:
            continue
        box = res["box"]
        keys, _ = rich_line_keys(res["basis"], box.x_set.coords(), box.y_set.coords(), res["r"])
        rich = set(key_tuples(keys))
        if not all(key in rich for key in key_tuples(res["family"].keys)):
            all_subset = False
        checked += 1
    ok = all_subset and checked > 0
    print(
        f"criterion 5: {'PASS' if ok else 'FAIL'} "
        f"(L subset of brute-force r-rich lines on {checked} tuned configs)"
    )
    assert ok


def test_criterion_6_scaling_slope():
    t0 = time.perf_counter()
    reports, fit = sweep(parse_config(SWEEP_CFG))
    rates = [rep.rate_claim4 for rep in reports]
    band = max(rates) / min(rates)
    elapsed = time.perf_counter() - t0
    ok = -3.6 <= fit.slope <= -2.4 and band <= 4 and elapsed < 60
    print(
        f"criterion 6: {'PASS' if ok else 'FAIL'} "
        f"(slope {fit.slope:.3f} in [-3.6, -2.4], rate band {band:.3f} <= 4, "
        f"{elapsed:.1f}s)"
    )
    assert -3.6 <= fit.slope <= -2.4
    assert band <= 4
    assert elapsed < 60


def test_criterion_7_incidence_rate():
    t0 = time.perf_counter()
    basis = ARITH_BASES["integers"]
    res = szt_incidence_construction(basis, 2304, 2304)
    elapsed = time.perf_counter() - t0
    p, l = len(res.points), len(res.family)
    floor_rate = 0.05 * p ** (2 / 3) * l ** (2 / 3)
    ok = res.incidences >= floor_rate and elapsed < 60
    print(
        f"criterion 7: {'PASS' if ok else 'FAIL'} "
        f"(|P|={p}, |L|={l}, incidences {res.incidences} >= "
        f"{floor_rate:.1f}, realized ratio {res.ratio_realized:.4f}, {elapsed:.1f}s)"
    )
    assert res.incidences >= floor_rate
    assert elapsed < 60


def test_criterion_8_worker_determinism(tmp_path):
    config = parse_config(SWEEP_CFG)
    csv1 = sweep_csv(sweep(config, workers=1)[0])
    csv8 = sweep_csv(sweep(config, workers=8)[0])
    # the same sweep through the CLI in fresh interpreters with different
    # str hashing, so no output may depend on the order of a set
    root = Path(__file__).resolve().parents[1]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(SWEEP_CFG))
    fresh = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"hashseed{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": "src"}
        subprocess.run(
            [sys.executable, "-m", "richlines.cli", "sweep",
             "--config", str(config_path), "--out", str(out)],
            cwd=root, env=env, check=True, capture_output=True, timeout=300,
        )
        fresh.append((out / "sweep.csv").read_bytes())
    ok = csv1 == csv8 and fresh == [csv1.encode()] * 2
    print(
        f"criterion 8: {'PASS' if ok else 'FAIL'} "
        f"(sweep CSV byte-identical for --workers 1 vs 8 and in fresh interpreters "
        f"with PYTHONHASHSEED 0 and 1, {len(csv1)} bytes)"
    )
    assert ok
