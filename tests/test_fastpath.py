"""The int64 fast path of pair grouping (geometry.group_pairs) against its
pure-Python reference, on adversarial inputs and on both sides of the bounds
that choose how keys are packed."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, prod

import numpy as np

from richlines import geometry as geo
from richlines.construction import (
    ConstructionParams,
    build_construction,
    build_pointset,
    line_richnesses,
)
from richlines.geometry import (
    CanonicalLine,
    Point,
    count_incidences,
    line_through,
    lines_to_text,
    rich_lines_bruteforce,
)
from richlines.numberfield import Element, NiceBasis

from conftest import ARITH_BASES


def grouped(basis, xs, ys):
    keys, counts, first = geo.group_pairs(basis, xs, ys)
    return (
        [tuple(k) for k in keys.tolist()],
        counts.tolist(),
        [tuple(f) for f in first.tolist()],
    )


def reference(basis, xs, ys):
    raw = geo._raw_pair_counts_loop(basis, xs, ys)
    keys = sorted(raw)
    return keys, [raw[k][0] for k in keys], [tuple(raw[k][1:]) for k in keys]


def random_coords(rng, basis, n, bound):
    d = basis.degree
    pts = set()
    while len(pts) < n:
        pts.add(
            (
                tuple(rng.randint(-bound, bound) for _ in range(d)),
                tuple(rng.randint(-bound, bound) for _ in range(d)),
            )
        )
    xs, ys = zip(*sorted(pts))
    return list(xs), list(ys)


def largest_bound(fits):
    """The largest coordinate bound m with fits(m), by bisection."""
    lo, hi = 0, 2**32
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def test_backends_agree():
    """The int64 path and the pure-Python reference agree exactly: keys,
    pair counts and first pairs, on seeded random points of every basis,
    with small coordinates and with coordinates whose keys take two or more
    int64 words."""
    rng = random.Random(3)
    for basis in ARITH_BASES:
        d = basis.degree
        large = 10 ** (6 // d)
        assert len(geo._words(geo.key_radices(basis, large, large))) > 1
        for n, bound in ((40, 3), (30, large)):
            xs, ys = random_coords(rng, basis, n, bound)
            assert geo.group_pairs(basis, xs, ys)[0].dtype.kind == "i"
            assert grouped(basis, xs, ys) == reference(basis, xs, ys)


def test_keys_are_primitive():
    """Content 1, first nonzero entry positive, and the pivot block a
    multiple of unity (only its first coordinate is nonzero)."""
    rng = random.Random(4)
    for basis in ARITH_BASES:
        d = basis.degree
        xs, ys = random_coords(rng, basis, 40, 20 // d)
        keys, _, _ = grouped(basis, xs, ys)
        for key in keys:
            g = 0
            for v in key:
                g = gcd(g, v)
            assert g == 1
            assert next(v for v in key if v) > 0
            pivot = key[:d] if any(key[:d]) else key[d : 2 * d]
            assert pivot[0] and not any(pivot[1:])


def test_keys_are_distinct_lines():
    """No two keys give equal CanonicalLines, each equals line_through of its
    first pair, and the counts add up to all pairs."""
    rng = random.Random(7)
    for basis in ARITH_BASES:
        d = basis.degree
        xs, ys = random_coords(rng, basis, 40, 6 // d)
        keys, counts, first = grouped(basis, xs, ys)
        lines = [CanonicalLine(basis, key) for key in keys]
        assert len(set(lines)) == len(keys)
        for line, (i, j) in zip(lines, first):
            p = Point(Element(basis, xs[i]), Element(basis, ys[i]))
            q = Point(Element(basis, xs[j]), Element(basis, ys[j]))
            assert line_through(p, q) == line
            assert (line.a if any(line.a.coords) else line.b) == basis.one
        assert sum(counts) == comb(40, 2)


def test_unit_multiple_raw_keys_merge():
    """Pairs of one line whose raw keys differ by units or non-rational
    multiples (differences 1, sqrt2, 1 + sqrt2, ...) give one key."""
    sqrt2 = ARITH_BASES[1]
    steps = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (3, 2), (-1, 1)]
    # y = (1 + sqrt2) x + 3 through x = e for each step e
    xs = list(steps)
    ys = [(u + 2 * v + 3, u + v) for u, v in steps]
    pts = [Point(Element(sqrt2, x), Element(sqrt2, y)) for x, y in zip(xs, ys)]
    raw = {
        geo._reduce_flat(sum((e.coords for e in geo.raw_line_coeffs(p, q)), ()))
        for p, q in combinations(pts, 2)
    }
    assert len(raw) > 3
    keys, counts, first = grouped(sqrt2, xs, ys)
    assert (counts, first) == ([comb(len(xs), 2)], [(0, 1)])
    assert (keys, counts, first) == reference(sqrt2, xs, ys)
    line = CanonicalLine(sqrt2, keys[0])
    assert [f for e in line.coeffs() for f in e.coords] == [
        Fraction(v) for v in (1, 0, 1, -1, -3, 3)
    ]


def test_richness_sums_to_incidences(integers, sqrt2):
    """The richness of each line equals its exact incidence count with the
    box by on_line: on (the first lines of) a small construction's family,
    on the oracle's rich lines of a small box of every basis, and on the
    lines through 8 random points of the 6561-point x^4 - x - 1 box."""
    cases = []
    for basis in (integers, sqrt2):
        params = ConstructionParams(basis, 400, Fraction(1, 2), 2)
        box, tuned = build_construction(params)
        cases.append((box, list(tuned.family)[:150]))
    sizes = (2304, 81, 81, 81, 1000)
    for basis, n in zip(ARITH_BASES, sizes):
        box = build_pointset(basis, n, Fraction(1, 2))
        cases.append((box, list(rich_lines_bruteforce(list(box), 3))[:150]))
    box = build_pointset(ARITH_BASES[5], 10000, Fraction(1, 2))
    assert len(box) == 6561
    sample = random.Random(9).sample(list(box), 8)
    cases.append((box, list(rich_lines_bruteforce(sample, 2))))
    for box, lines in cases:
        points = list(box)
        rich = line_richnesses(lines, box)
        assert rich == [count_incidences(points, [line]) for line in lines]
        assert max(rich) > 2


def test_text_and_order_match_fraction_reference():
    """CanonicalLine.sort_key(), coeffs(), lines_to_text and the array
    routines _coeff_pairs and canonical_order equal the coefficients
    Fraction(entry, lam), with lam the pivot block's entry at the first
    nonzero coordinate of unity over that coordinate, and the canonical
    order is the order of those (numerator, denominator) pairs."""
    # Z[sqrt2] on the basis (sqrt2, 1), whose unity is the second vector,
    # and Z on the basis (-1), whose unity has a negative coordinate
    swapped = NiceBasis([[[0, 2], [1, 0]], [[1, 0], [0, 1]]], [2**0.5, 1])
    negated = NiceBasis([[[-1]]], [-1])
    rng = random.Random(8)
    for basis in ARITH_BASES + (swapped, negated):
        d = basis.degree
        one = basis.one.coords
        k = next(i for i, f in enumerate(one) if f)
        xs, ys = random_coords(rng, basis, 30, 6 // d)
        keys, _, _ = grouped(basis, xs, ys)
        rng.shuffle(keys)
        expected = []
        for key in keys:
            pivot = key[:d] if any(key[:d]) else key[d : 2 * d]
            lam = pivot[k] / one[k]
            expected.append([Fraction(v, lam) for v in key])
        lines = [CanonicalLine(basis, key) for key in keys]
        pairs = [tuple((f.numerator, f.denominator) for f in e) for e in expected]
        assert [line.sort_key() for line in lines] == pairs
        assert [[f for e in line.coeffs() for f in e.coords] for line in lines] == expected
        assert lines_to_text(lines).splitlines() == [
            " ".join(f"{f.numerator}/{f.denominator}" for f in e) for e in expected
        ]
        by_reference = [CanonicalLine(basis, key) for _, key in sorted(zip(pairs, keys))]
        assert sorted(lines, key=CanonicalLine.sort_key) == by_reference
        # the array routines on int64 and object keys, and on keys scaled to
        # one step either side of the int64 bound max |key| * sum |c[j][0][0]|;
        # a scaled key has the same coefficients
        ref_order = sorted(range(len(keys)), key=pairs.__getitem__)
        top = max(abs(v) for key in keys for v in key)
        sc0 = sum(abs(row[0][0]) for row in basis.structure_constants)
        step = (2**63 - 1) // (top * sc0)
        rows = np.array(keys, dtype=np.int64)
        cases = [
            (rows, np.int64),
            (rows.astype(object), np.int64),
            (rows.astype(object) * step, np.int64),
            (rows.astype(object) * (step + 1), object),
        ]
        for scaled, dtype in cases:
            num, den = geo._coeff_pairs(basis, scaled)
            assert num.dtype == den.dtype == dtype
            assert [tuple(zip(*nd)) for nd in zip(num.tolist(), den.tolist())] == pairs
            assert geo.canonical_order(basis, scaled).tolist() == ref_order
    assert lines_to_text([]) == ""


def test_counts_cover_all_pairs():
    rng = random.Random(5)
    for basis in ARITH_BASES:
        xs, ys = random_coords(rng, basis, 60, 6 // basis.degree)
        _, counts, _ = grouped(basis, xs, ys)
        assert sum(counts) == comb(60, 2)


def test_collinear_run_counted_once(integers, sqrt2):
    xs = [(x,) for x in range(10)]
    ys = [(3 * x + 1,) for x in range(10)]
    assert grouped(integers, xs, ys) == ([(3, -1, 1)], [comb(10, 2)], [(0, 1)])
    # a run along y = sqrt2 * x + 1 in Z[sqrt2]
    xs = [(x, 0) for x in range(8)]
    ys = [(1, x) for x in range(8)]
    got = grouped(sqrt2, xs, ys)
    assert got[1] == [comb(8, 2)]
    assert got == reference(sqrt2, xs, ys)


def test_vertical_and_horizontal_lines(integers):
    vertical = [((5,), (y,)) for y in range(20, 30)]
    horizontal = [((x,), (-7,)) for x in range(40, 50)]
    for pts, key in ((vertical, (1, 0, -5)), (horizontal, (0, 1, 7))):
        xs, ys = map(list, zip(*pts))
        assert grouped(integers, xs, ys) == ([key], [comb(10, 2)], [(0, 1)])
    xs, ys = map(list, zip(*(vertical + horizontal)))
    got = grouped(integers, xs, ys)
    assert got == reference(integers, xs, ys)
    assert sum(got[1]) == comb(20, 2)


def test_overflow_guard():
    """Coordinates one step either side of each bound agree with the
    reference: keys packed in one int64 word, keys packed in several, and
    intermediates that could leave int64, which take the exact fallback."""
    rng = random.Random(6)
    for basis in ARITH_BASES:
        d = basis.degree
        radices = lambda m: geo.key_radices(basis, m, m)
        fits = largest_bound(lambda m: radices(m) is not None)
        one_word = largest_bound(lambda m: radices(m) is not None and prod(radices(m)) <= 2**63)
        cases = [(one_word, "i"), (one_word + 1, "i"), (fits, "i"), (fits + 1, "O")]
        for bound, kind in cases[not one_word :]:  # no bound 0: one key word needs one point
            if kind == "i":
                words = len(geo._words(radices(bound)))
                assert (words == 1) == (bound == one_word)
            xs, ys = random_coords(rng, basis, 25, bound)
            # extreme pairs: keys with entries near their radices
            top = (bound,) * d
            edge = (bound - 1,) + (bound,) * (d - 1)
            low = tuple(-v for v in top)
            for px, py in ((top, top), (low, edge), (low, top), (top, low)):
                if (px, py) not in zip(xs, ys):
                    xs.append(px)
                    ys.append(py)
            assert geo.group_pairs(basis, xs, ys)[0].dtype.kind == kind
            assert grouped(basis, xs, ys) == reference(basis, xs, ys)
