"""The vectorized pair grouping (keys.group_pairs) and the array
coefficient routines against their pure-Python references, on adversarial
inputs and one step either side of each bound that picks their dtype."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import numpy as np

from richlines import geometry as geo
from richlines.construction import (
    ConstructionParams,
    build_construction,
    build_pointset,
)
from richlines.gapset import GapSet
from richlines.geometry import CanonicalLine, Point, line_through, lines_to_text, on_line
from richlines.keys import (
    _pair_kernel,
    _primitive_key,
    _reduce_flat,
    _richness_from_pairs,
    group_pairs,
    key_bound,
    key_tuples,
    shift_keys,
)
from richlines.numberfield import Element, NiceBasis, _exact_dtype, build_quadratic_basis
from richlines.richness import _key_richnesses
from richlines.sweep import _sweep, count_rich_lines, rich_line_keys

from conftest import ARITH_BASES, DTYPE_THRESHOLDS
from reference import box_points, count_incidences, fraction_key, raw_pair_counts_loop


def grouped(basis, xs, ys):
    keys, counts, first = group_pairs(basis, xs, ys)
    return (
        [tuple(k) for k in keys.tolist()],
        counts.tolist(),
        [tuple(f) for f in first.tolist()],
    )


def reference(basis, xs, ys):
    raw = raw_pair_counts_loop(basis, xs, ys)
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
    """group_pairs and the pure-Python reference agree exactly: keys, pair
    counts and first pairs, on seeded random points of every basis with
    small and with larger coordinates, and on 0 and 1 point.  The pair
    kernel alone, on the anchor pairs (0, j) that the tuning probe keys,
    gives _primitive_key of each pair."""
    rng = random.Random(3)
    for basis in ARITH_BASES:
        d = basis.degree
        for n, bound in ((40, 3), (30, 10 ** (6 // d))):
            xs, ys = random_coords(rng, basis, n, bound)
            assert grouped(basis, xs, ys) == reference(basis, xs, ys)
            keys_of, entry = _pair_kernel(basis, xs, ys)
            j = np.arange(1, n)
            anchor = keys_of(np.zeros_like(j), j).astype(entry)
            points = [Point(Element(basis, x), Element(basis, y)) for x, y in zip(xs, ys)]
            raw = [sum((e.coords for e in geo.raw_line_coeffs(points[0], q)), ()) for q in points[1:]]
            assert [tuple(row) for row in anchor.tolist()] == [
                _primitive_key(basis, triple) for triple in raw
            ]
    # with one point at the origin only the structure constants, up to 1000
    # in Z[sqrt(1000)], set the work bound
    for basis in ARITH_BASES + (build_quadratic_basis(1000),):
        d = basis.degree
        for xs in ([], [(0,) * d]):
            keys, counts, first = group_pairs(basis, xs, xs)
            assert (keys.shape, counts.shape, first.shape) == ((0, 3 * d), (0,), (0, 2))
            assert grouped(basis, xs, xs) == reference(basis, xs, xs)


def test_keys_match_fraction_key():
    """_primitive_key, the pair kernel and group_pairs key every line as
    fraction_key does, which divides by the pivot over Fractions where they
    multiply by its adjugate: on seeded random triples, a = 0 among them,
    and on every pair of seeded random points with a horizontal and a
    vertical pair among them, of every arithmetic basis and Z[sqrt(1000)],
    with coordinates small, near int64 and past it."""
    rng = random.Random(34)
    for basis in ARITH_BASES + (build_quadratic_basis(1000),):
        d = basis.degree
        for bound in (5, 10**6, 2**62, 2**70):
            for k in range(40):
                flat = [rng.randint(-bound, bound) for _ in range(3 * d)]
                if k % 4 == 0:
                    flat[:d] = [0] * d
                flat[d] += not any(flat[: 2 * d])
                assert _primitive_key(basis, tuple(flat)) == fraction_key(basis, tuple(flat))
            xs, ys = random_coords(rng, basis, 12, bound)
            # (x_0, y_5) shares x with point 0, and (x_5, y_0) shares y with it
            points = dict.fromkeys([*zip(xs, ys), (xs[0], ys[5]), (xs[5], ys[0])])
            xs, ys = map(list, zip(*points))
            i, j = (np.array(v) for v in zip(*combinations(range(len(xs)), 2)))
            mul = basis.mul_coords
            raw = [
                tuple(u - v for u, v in zip(ys[q], ys[p]))
                + tuple(u - v for u, v in zip(xs[p], xs[q]))
                + tuple(u - v for u, v in zip(mul(ys[p], xs[q]), mul(xs[p], ys[q])))
                for p, q in zip(i.tolist(), j.tolist())
            ]
            assert any(not any(t[:d]) for t in raw) and any(not any(t[d : 2 * d]) for t in raw)
            expected = [fraction_key(basis, triple) for triple in raw]
            keys_of, entry = _pair_kernel(basis, xs, ys)
            assert list(key_tuples(keys_of(i, j).astype(entry))) == expected
            assert list(key_tuples(group_pairs(basis, xs, ys)[0])) == sorted(set(expected))


def swept(basis, xs, ys, r):
    """The sweep's rows, which come in sweep order, put in canonical order;
    no row may repeat."""
    keys, richness = rich_line_keys(basis, xs, ys, r)
    order = geo.canonical_order(basis, keys)
    rows = list(key_tuples(keys[order]))
    assert len(set(rows)) == len(rows)
    return rows, richness[order].tolist()


def swept_reference(basis, xs, ys, r):
    """The lines of the pair reference with at least C(r, 2) pairs, their
    richness from the pair count, in canonical order."""
    raw = raw_pair_counts_loop(
        basis, [x for x in xs for _ in ys], [y for _ in xs for y in ys]
    )
    keys = [key for key, (count, _, _) in raw.items() if count >= comb(r, 2)]
    rows = np.array(keys, dtype=object).reshape(-1, 3 * basis.degree)
    keys = [keys[k] for k in geo.canonical_order(basis, rows)]
    return keys, [_richness_from_pairs(raw[key][0]) for key in keys]


def test_rich_line_keys_match_pair_reference():
    """The direction sweep and the pure-Python pair reference agree
    exactly, keys and richness, once the sweep's rows are put in canonical
    order, on seeded random boxes of every basis: each axis a box of random
    radius and scale, or a random subset of one past 9 points, and r in
    {2, ..., 6}, so that the direction bound prunes on most boxes.  On the
    3x3 and 5x5 integer grids at r = 3 and r = 5 the diagonals' runs hold
    exactly r - 1 kept raw rows, the bound's edge.  Scaled boxes whose
    intercepts or packed intercepts pass int64 run in object dtype, and an r
    above every line gives a (0, 3d) key array."""
    rng = random.Random(12)
    for basis in ARITH_BASES:
        for _ in range(6):
            axes = []
            for _ in range(2):
                coords = [e.coords for e in GapSet(basis, rng.randint(1, 3), rng.randint(1, 3))]
                axes.append(coords if len(coords) <= 9 else rng.sample(coords, rng.randint(2, 9)))
            r = rng.randint(2, 6)
            assert swept(basis, *axes, r) == swept_reference(basis, *axes, r)
    for n in (3, 5):
        grid = (ARITH_BASES[0], [(v,) for v in range(n)], [(v,) for v in range(n)])
        for r in (3, 5):
            assert swept(*grid, r) == swept_reference(*grid, r)
    # intercepts past int64 in Z, and packed words past int64 in Z[sqrt2]
    for basis, radius, scale, top in (
        (ARITH_BASES[0], 2, 2**62, 2**63),
        (ARITH_BASES[1], 1, 2**31, 0),
    ):
        xs, ys = ([e.coords for e in GapSet(basis, radius, s)] for s in (scale, 3 * scale))
        keys, _ = rich_line_keys(basis, xs, ys, 3)
        assert keys.dtype == object and np.abs(keys).max() > top
        assert swept(basis, xs, ys, 3) == swept_reference(basis, xs, ys, 3)
    quartic = ARITH_BASES[5]
    xs = ys = [e.coords for e in GapSet(quartic, 1)][:3]
    keys, richness = rich_line_keys(quartic, xs, ys, 4)
    assert keys.shape == (0, 12) and richness.shape == (0,)


def counted(basis, xs, ys, r, keys):
    """count_rich_lines' (lines, rich) for the key rows keys, passed once in
    object dtype and once in the narrowest dtype that holds them; both must
    agree."""
    d = basis.degree
    rows = np.array(keys, dtype=object).reshape(-1, 3 * d)
    lines, rich = count_rich_lines(basis, xs, ys, r, rows)
    narrow = rows.astype(_exact_dtype(int(np.abs(rows).max(initial=0))))
    assert count_rich_lines(basis, xs, ys, r, narrow)[0] == lines
    assert count_rich_lines(basis, xs, ys, r, narrow)[1].tolist() == rich.tolist()
    return lines, rich.tolist()


def counted_reference(basis, xs, ys, *rs):
    """For each r, (lines, keys, rich) by the pair reference: the number of
    lines with at least C(r, 2) pairs, the keys of every line through two
    points of the box, and whether each has at least r points."""
    raw = raw_pair_counts_loop(
        basis, [x for x in xs for _ in ys], [y for _ in xs for y in ys]
    )
    keys = list(raw)
    for r in rs:
        rich = [raw[key][0] >= comb(r, 2) for key in keys]
        yield sum(rich), keys, rich


def test_count_rich_lines_match_pair_reference():
    """count_rich_lines agrees with the pure-Python pair reference on the
    boxes of test_rich_line_keys_match_pair_reference, for every line
    through two points of the box: the count of lines with at least r
    points, and the verdict on each key, rich or below r, on seeded random
    boxes of every basis and r in {2, ..., 6}.  Some keys below r have a
    direction the sweep prunes, so no run is looked up for them.  On the
    3x3 and 5x5 integer grids at r = 3 and r = 5 the diagonals' runs hold
    exactly r - 1 kept raw rows, the halved bound's edge, and the diagonals
    are found rich.  An r above every line, one-row axes and the boxes past
    int64 (object dtype) are covered too.  In degree 2, a key whose
    intercept exceeds its direction's bound cm, but whose packed word equals
    a rich line's word, reads False.  rich_line_keys returns its keys in the
    dtype of key_bound's entry bound."""
    rng = random.Random(12)
    pruned = 0
    for basis in ARITH_BASES:
        d = basis.degree
        for _ in range(4):
            axes = []
            for _ in range(2):
                coords = [e.coords for e in GapSet(basis, rng.randint(1, 3), rng.randint(1, 3))]
                axes.append(coords if len(coords) <= 9 else rng.sample(coords, rng.randint(2, 9)))
            mx, my = (max(abs(v) for row in axis for v in row) for axis in axes)
            references = counted_reference(basis, *axes, *range(2, 7))
            for r, (lines, keys, rich) in enumerate(references, 2):
                assert counted(basis, *axes, r, keys) == (lines, rich)
                swept_keys = rich_line_keys(basis, *axes, r)[0]
                assert swept_keys.dtype == _exact_dtype(key_bound(basis, mx, my)[1])
                kept = set(key_tuples(next(_sweep(basis, *axes, r))[0]))
                pruned += sum(key[: 2 * d] not in kept for key in keys)
        # one-row axes: one vertical line, or one horizontal line
        axes = [e.coords for e in GapSet(basis, 1)][:5], [(0,) * d]
        for xs, ys in (axes, axes[::-1]):
            ((lines, keys, rich),) = counted_reference(basis, xs, ys, 2)
            assert (lines, sum(rich)) == (1, 1)
            assert counted(basis, xs, ys, 2, keys) == (lines, rich)
            assert counted(basis, xs, ys, len(xs) * len(ys) + 1, keys) == (0, [False])
    assert pruned
    for n in (3, 5):
        grid = ARITH_BASES[0], [(v,) for v in range(n)], [(v,) for v in range(n)]
        for r, (lines, keys, rich) in zip((3, 5), counted_reference(*grid, 3, 5)):
            assert counted(*grid, r, keys) == (lines, rich)
        diagonals = [(1, -1, 0), (1, 1, 1 - n)]
        assert counted(*grid, n, diagonals) == (2 * n + 2, [True, True])
        assert counted(*grid, n + 1, keys) == (0, [False] * len(keys))
    # intercepts past int64 in Z, and packed words past int64 in Z[sqrt2]
    for basis, radius, scale in ((ARITH_BASES[0], 2, 2**62), (ARITH_BASES[1], 1, 2**31)):
        xs, ys = ([e.coords for e in GapSet(basis, radius, s)] for s in (scale, 3 * scale))
        ((lines, keys, rich),) = counted_reference(basis, xs, ys, 3)
        assert np.array(keys, dtype=object).dtype == object and lines
        assert counted(basis, xs, ys, 3, keys) == (lines, rich)
    # a degree-2 intercept outside cm that packs to a rich line's word
    sqrt2 = ARITH_BASES[1]
    xs = ys = [e.coords for e in GapSet(sqrt2, 1)]
    keys, _ = rich_line_keys(sqrt2, xs, ys, 3)
    ab, words, _ = next(_sweep(sqrt2, xs, ys, 3))
    *ab_key, c0, c1 = keys[0].tolist()
    assert tuple(ab_key) in key_tuples(ab)
    cm = int(words.cm)
    base = 2 * cm + 1
    alias = (*ab_key, c0 + base, c1 - 1)
    assert abs(c0 + base) > cm
    assert (c0 + base + cm) + (c1 - 1 + cm) * base == (c0 + cm) + (c1 + cm) * base
    points = [Point(Element(sqrt2, x), Element(sqrt2, y)) for x in xs for y in ys]
    assert not any(on_line(p, CanonicalLine(sqrt2, alias)) for p in points)
    assert counted(sqrt2, xs, ys, 3, [keys[0].tolist(), alias])[1] == [True, False]


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
        _reduce_flat(sum((e.coords for e in geo.raw_line_coeffs(p, q)), ()))
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
    """The richness that _key_richnesses counts for each line equals its
    exact incidence count with the box by on_line: on the first lines of a
    small construction's family, on the first lines, in canonical order, of
    the oracle's rich lines of a small box of every basis, and on the lines
    through 8 random points of the 6561-point x^4 - x - 1 box."""
    cases = []
    for basis in (integers, sqrt2):
        params = ConstructionParams(basis, 400, Fraction(1, 2), 2)
        box, tuned = build_construction(params)
        cases.append((box, tuned.family.keys[:150]))
    sizes = (2304, 81, 81, 81, 1000)
    for basis, n in zip(ARITH_BASES, sizes):
        box = build_pointset(basis, n, Fraction(1, 2))
        keys, _ = rich_line_keys(basis, box.x_set.coords(), box.y_set.coords(), 3)
        cases.append((box, keys[geo.canonical_order(basis, keys)][:150]))
    box = build_pointset(ARITH_BASES[5], 10000, Fraction(1, 2))
    assert len(box) == 6561
    sample = np.array(random.Random(9).sample(box.coords().tolist(), 8))
    cases.append((box, group_pairs(box.basis, sample[:, :4], sample[:, 4:])[0]))
    for box, keys in cases:
        points = box_points(box)
        lines = [CanonicalLine(box.basis, key) for key in key_tuples(keys)]
        rich = _key_richnesses(box.basis, keys, box).tolist()
        assert rich == [count_incidences(points, [line]) for line in lines]
        assert max(rich) > 2


def test_text_and_order_match_fraction_reference():
    """CanonicalLine.sort_key(), coeffs(), lines_to_text and the array
    routines _coeff_pairs and canonical_order equal the coefficients
    Fraction(entry, lam), with lam the pivot block's entry at the first
    nonzero coordinate of unity over that coordinate, and the canonical
    order, in which lines_to_text writes, is the order of those (numerator,
    denominator) pairs."""
    # Z[sqrt2] on the basis (sqrt2, 1), whose unity is the second vector,
    # and Z on the basis (-1), whose unity has a negative coordinate
    swapped = NiceBasis([[[0, 2], [1, 0]], [[1, 0], [0, 1]]])
    negated = NiceBasis([[[-1]]])
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
        ref_order = sorted(range(len(keys)), key=pairs.__getitem__)
        rows = np.array(keys, dtype=np.int64)
        text = [" ".join(f"{f.numerator}/{f.denominator}" for f in e) for e in expected]
        assert lines_to_text(basis, rows).splitlines() == [text[i] for i in ref_order]
        assert lines_to_text(basis, rows[:0]) == ""
        by_reference = [CanonicalLine(basis, key) for _, key in sorted(zip(pairs, keys))]
        assert sorted(lines, key=CanonicalLine.sort_key) == by_reference
        # the array routines on int64 and object keys, and on keys scaled to
        # one step either side of each _exact_dtype threshold of the bound
        # max |key| * sum |c[j][0][0]|; a scaled key has the same coefficients
        top = max(abs(v) for key in keys for v in key)
        sc0 = sum(abs(row[0][0]) for row in basis.structure_constants)
        small = _exact_dtype(top * sc0)
        cases = [(rows, small), (rows.astype(object), small)]
        for limit, below, above in DTYPE_THRESHOLDS:
            step = limit // (top * sc0)
            if step:
                cases.append((rows.astype(object) * step, below))
                cases.append((rows.astype(object) * (step + 1), above))
        assert cases[-1][1] is object
        for scaled, dtype in cases:
            num, den = geo._coeff_pairs(basis, scaled)
            assert num.dtype == den.dtype == dtype
            assert [tuple(zip(*nd)) for nd in zip(num.tolist(), den.tolist())] == pairs
            assert geo.canonical_order(basis, scaled).tolist() == ref_order


def _distinct_shuffled(rng, rows):
    """The distinct rows of a key array, in a random order."""
    distinct = list(set(key_tuples(rows)))
    rng.shuffle(distinct)
    return np.array(distinct, dtype=rows.dtype).reshape(-1, rows.shape[1])


def test_canonical_least_matches_canonical_order():
    """canonical_least(basis, keys, k) is the set of the first k rows of
    canonical_order, in ascending row order, for k in {1, 8, n - 1, n,
    n + 3}: on seeded random key arrays of every basis, the same keys moved
    past int64 (object dtype), and families whose rows tie on the leading
    columns: every line of one direction, and every line horizontal."""
    rng = random.Random(25)
    dtypes = set()
    for basis in ARITH_BASES:
        d = basis.degree
        xs, ys = random_coords(rng, basis, 25, 6 // d)
        keys = _distinct_shuffled(rng, group_pairs(basis, xs, ys)[0])
        big = [[rng.randint(-(10**19), 10**19) for _ in range(d)] for _ in range(2)]
        moved = shift_keys(basis, keys, [big[0]], [big[1]])
        unit = [1] + [0] * (d - 1)
        shifts = [[rng.randint(-40, 40) for _ in range(d)] for _ in range(60)]
        families = [keys, moved]
        # the line through two points, moved by 60 translates: one direction
        for second_y in (unit, [0] * d):  # a slanted line, a horizontal one
            line = group_pairs(basis, [[0] * d, unit], [[0] * d, second_y])[0]
            along = shift_keys(basis, line, shifts, shifts[::-1])
            families.append(_distinct_shuffled(rng, along))
        assert not families[-1][:, :d].any()
        for family in families:
            dtypes.add(family.dtype)
            n = len(family)
            assert n > 9
            order = geo.canonical_order(basis, family).tolist()
            for k in (1, 8, n - 1, n, n + 3):
                got = geo.canonical_least(basis, family, k).tolist()
                assert got == sorted(order[:k])
    assert np.dtype(object) in dtypes and len(dtypes) > 1


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


def test_exact_dtype_thresholds():
    for limit, below, above in DTYPE_THRESHOLDS:
        assert _exact_dtype(limit) == below
        assert _exact_dtype(limit + 1) == above
    assert _exact_dtype(0) == np.int8


def test_overflow_guard():
    """Coordinates one step either side of each _exact_dtype threshold of
    key_bound's entry bound, and of its work bound's int64 limit, agree with
    the reference and give keys of the dtype the entry bound picks; past
    int64 the keys are exact Python ints in object dtype.  Coordinate arrays
    with every entry negative take their bound from the largest |entry|."""
    rng = random.Random(6)
    for basis in ARITH_BASES:
        d = basis.degree
        work = lambda m: key_bound(basis, m, m)[0]
        entry = lambda m: key_bound(basis, m, m)[1]
        tops = [largest_bound(lambda m: entry(m) <= limit) for limit, _, _ in DTYPE_THRESHOLDS]
        tops.append(largest_bound(lambda m: work(m) <= 2**63 - 1))
        assert _exact_dtype(work(tops[-1])) == np.int64
        assert _exact_dtype(work(tops[-1] + 1)) == object
        for bound in sorted({m for top in tops for m in (top, top + 1)}):
            dtype = _exact_dtype(entry(bound))
            if bound == 0:  # the box holds one point
                xs = ys = [(0,) * d]
            else:
                xs, ys = random_coords(rng, basis, 25, bound)
                # extreme pairs: keys with entries near their bound
                top = (bound,) * d
                edge = (bound - 1,) + (bound,) * (d - 1)
                low = tuple(-v for v in top)
                for px, py in ((top, top), (low, edge), (low, top), (top, low)):
                    if (px, py) not in zip(xs, ys):
                        xs.append(px)
                        ys.append(py)
            assert group_pairs(basis, xs, ys)[0].dtype == dtype
            assert grouped(basis, xs, ys) == reference(basis, xs, ys)
        assert _exact_dtype(entry(tops[3] + 1)) == object
        # every coordinate negative, as arrays: the bound is the largest
        # |coordinate|, 2 * top + 1 here, not the largest coordinate
        top = tops[1]
        xs, ys = (np.array(v) - (top + 1) for v in random_coords(rng, basis, 25, top))
        assert group_pairs(basis, xs, ys)[0].dtype == _exact_dtype(entry(2 * top + 1))
        assert grouped(basis, xs, ys) == reference(basis, xs.tolist(), ys.tolist())
