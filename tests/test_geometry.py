"""Exact incidence predicates, canonical lines, the pair grouping and the
direction-sweep oracle on small point sets."""

import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from richlines import geometry as geo
from richlines.errors import DegeneratePairError, InvalidParameterError
from richlines.family import _raw_family
from richlines.geometry import (
    CanonicalLine,
    collinear,
    line_through,
    lines_to_text,
    on_line,
    points_to_text,
)
from richlines.keys import _richness_from_pairs, group_pairs, key_tuples
from richlines.sweep import rich_line_keys

from conftest import ARITH_BASES, int_point, make_point
from reference import (
    count_incidences,
    family_lines,
    lines_from_text,
    lines_text_fraction,
    point_rows,
    points_from_text,
    points_text_str,
    raw_pair_counts_loop,
)


def grid(basis, nx, ny):
    return [int_point(basis, x, y) for x in range(nx) for y in range(ny)]


def grid_axes(nx, ny):
    """The x and y axes of the integer grid {0..nx-1} x {0..ny-1}."""
    return [(x,) for x in range(nx)], [(y,) for y in range(ny)]


def pair_lines(points):
    """{CanonicalLine: pair count} of the lines through two of the points,
    from group_pairs' keys and counts."""
    basis = points[0].basis
    xs, ys = [p.x.coords for p in points], [p.y.coords for p in points]
    keys, counts, _ = group_pairs(basis, xs, ys)
    return {
        CanonicalLine(basis, key): count
        for key, count in zip(key_tuples(keys), counts.tolist())
    }


def rich_pair_lines(points, r):
    """{CanonicalLine: richness} of the lines with at least r of the points:
    the lines with at least C(r, 2) pairs, k points from C(k, 2) pairs."""
    return {
        line: _richness_from_pairs(count)
        for line, count in pair_lines(points).items()
        if count >= comb(r, 2)
    }


def random_points(rng, basis, count, bound=30):
    pts = set()
    d = basis.degree
    while len(pts) < count:
        pts.add(
            (
                tuple(rng.randint(-bound, bound) for _ in range(d)),
                tuple(rng.randint(-bound, bound) for _ in range(d)),
            )
        )
    return [make_point(basis, xc, yc) for xc, yc in sorted(pts)]


# ---------------------------------------------------------------------------
# predicates


def test_collinear_basic(integers):
    p, q, t = int_point(integers, 0, 0), int_point(integers, 1, 1), int_point(integers, 2, 2)
    assert collinear(p, q, t)
    assert not collinear(p, int_point(integers, 1, 0), int_point(integers, 0, 1))


def test_collinear_scalar_multiples_sqrt2(sqrt2):
    p = make_point(sqrt2, (0, 0), (0, 0))
    q = make_point(sqrt2, (1, 1), (2, 2))
    t = make_point(sqrt2, (2, 2), (4, 4))
    assert collinear(p, q, t)


def test_line_through_diagonal(integers):
    line = line_through(int_point(integers, 0, 0), int_point(integers, 1, 1))
    assert line.a.coords == (Fraction(1),)
    assert line.b.coords == (Fraction(-1),)
    assert line.c.coords == (Fraction(0),)


def test_line_through_vertical_and_horizontal(integers):
    vert = line_through(int_point(integers, 0, 0), int_point(integers, 0, 1))
    assert vert.a.coords == (Fraction(1),)
    assert vert.b.is_zero() and vert.c.is_zero()
    horiz = line_through(int_point(integers, 1, 2), int_point(integers, 3, 2))
    # first nonzero coefficient is unity
    assert horiz.a.is_zero()
    assert horiz.b.coords == (Fraction(1),)
    assert horiz.c.coords == (Fraction(-2),)


def test_line_through_degenerate(integers):
    p = int_point(integers, 1, 1)
    with pytest.raises(DegeneratePairError):
        line_through(p, p)


def test_on_line(integers):
    p, q = int_point(integers, 0, 0), int_point(integers, 2, 3)
    line = line_through(p, q)
    assert on_line(p, line) and on_line(q, line)
    assert not on_line(int_point(integers, 1, 0), line)


def test_line_through_symmetric_random(integers, sqrt2):
    rng = random.Random(21)
    for basis in (integers, sqrt2):
        pts = random_points(rng, basis, 30)
        for _ in range(100):
            p, q = rng.sample(pts, 2)
            assert line_through(p, q) == line_through(q, p)
            assert hash(line_through(p, q)) == hash(line_through(q, p))


def test_collinear_iff_on_line_random(sqrt2):
    rng = random.Random(22)
    pts = random_points(rng, sqrt2, 25, bound=5)
    for _ in range(300):
        p, q, t = rng.sample(pts, 3)
        assert collinear(p, q, t) == on_line(t, line_through(p, q))


def test_canonical_normalization_sqrt2(sqrt2):
    # same line reached through pairs whose differences differ by the unit
    # 1+sqrt2 must produce one canonical triple
    origin = make_point(sqrt2, (0, 0), (0, 0))
    l1 = line_through(origin, make_point(sqrt2, (1, 0), (0, 1)))
    l2 = line_through(origin, make_point(sqrt2, (0, 1), (2, 0)))
    assert l1 == l2


# ---------------------------------------------------------------------------
# oracle


def test_grid_3x3_rich_lines(integers):
    keys, richness = rich_line_keys(integers, *grid_axes(3, 3), 3)
    assert len(keys) == 8
    assert richness.tolist() == [3] * 8


def test_r_larger_than_pointset(integers):
    keys, richness = rich_line_keys(integers, *grid_axes(2, 2), 5)
    assert keys.shape == (0, 3) and richness.shape == (0,)


def test_four_collinear(integers):
    pts = [int_point(integers, i, 2 * i) for i in range(4)]
    assert list(rich_pair_lines(pts, 2).values()) == [4]


def test_rich_lines_r_validation(integers):
    with pytest.raises(InvalidParameterError):
        rich_line_keys(integers, *grid_axes(2, 2), 1)


def test_count_incidences_grid(integers):
    pts = grid(integers, 3, 3)
    keys, _ = rich_line_keys(integers, *grid_axes(3, 3), 3)
    lines = [CanonicalLine(integers, key) for key in key_tuples(keys)]
    assert count_incidences(pts, lines) == 24
    assert count_incidences(pts, []) == 0


def test_count_incidences_matches_richness_sum(sqrt2):
    rng = random.Random(31)
    pts = random_points(rng, sqrt2, 40, bound=4)
    rich = rich_pair_lines(pts, 3)
    assert rich
    assert count_incidences(pts, rich) == sum(rich.values())


def test_beck_statistic(integers):
    """(max collinear points, number of lines) from group_pairs' counts."""

    def beck(points):
        counts = pair_lines(points).values()
        return _richness_from_pairs(max(counts)), len(counts)

    assert beck(grid(integers, 3, 3)) == (3, 20)
    collin = [int_point(integers, i, i) for i in range(7)]
    assert beck(collin) == (7, 1)
    tri = [int_point(integers, 0, 0), int_point(integers, 1, 0), int_point(integers, 0, 1)]
    assert beck(tri) == (2, 3)


def test_pair_grouping_identity_random(integers, sqrt2):
    """sum over lines of C(richness, 2) == C(|P|, 2), each pair count a
    triangular number."""
    rng = random.Random(41)
    for basis in (integers, sqrt2):
        pts = random_points(rng, basis, 35)
        richness = map(_richness_from_pairs, pair_lines(pts).values())
        assert sum(comb(k, 2) for k in richness) == comb(len(pts), 2)


def test_generic_path_matches_fast_path(integers):
    """The array kernel's lines and counts must equal both the pure-Python
    reference keys and grouping every pair by line_through."""
    rng = random.Random(51)
    pts = random_points(rng, integers, 60)
    raw = raw_pair_counts_loop(
        integers, [p.x.coords for p in pts], [p.y.coords for p in pts]
    )
    reference = {
        CanonicalLine(integers, key): entry[0] for key, entry in raw.items()
    }
    generic = {}
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            line = line_through(pts[i], pts[j])
            generic[line] = generic.get(line, 0) + 1
    assert pair_lines(pts) == reference == generic


def test_dedup_key_equivalence(sqrt2):
    """Grouping by canonical triple must induce the same partition of pairs
    as grouping by the two lexicographically smallest collinear points."""
    rng = random.Random(61)
    pts = random_points(rng, sqrt2, 30, bound=4)
    by_triple = {}
    by_witness = {}
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            line = line_through(pts[i], pts[j])
            by_triple.setdefault(line, set()).add((i, j))
            members = sorted(
                k for k in range(n) if on_line(pts[k], line)
            )
            by_witness.setdefault(tuple(members[:2]), set()).add((i, j))
    assert sorted(map(sorted, by_triple.values())) == sorted(
        map(sorted, by_witness.values())
    )


def test_rich_lines_sorted_deterministically(integers):
    """canonical_order sorts the keys of the lines with 3 points as
    CanonicalLine.sort_key orders their lines."""
    rng = random.Random(71)
    pts = random_points(rng, integers, 50)
    keys = np.array([line.key for line in rich_pair_lines(pts, 3)])
    assert len(keys) > 1
    keys = keys[geo.canonical_order(integers, keys)]
    lines = [CanonicalLine(integers, key) for key in key_tuples(keys)]
    assert lines == sorted(lines, key=CanonicalLine.sort_key)


def test_raw_vec_equals_raw_loop(integers, sqrt2, cbrt2):
    """group_pairs equals its pure-Python reference: keys, pair counts and
    first pairs, on seeded random points of every basis."""
    rng = random.Random(81)
    for basis, count, bound in ((integers, 120, 1000), (sqrt2, 30, 8), (cbrt2, 30, 8)):
        pts = random_points(rng, basis, count, bound=bound)
        xs = [p.x.coords for p in pts]
        ys = [p.y.coords for p in pts]
        keys, counts, first = group_pairs(basis, xs, ys)
        raw = raw_pair_counts_loop(basis, xs, ys)
        assert {
            tuple(k): [c, i, j]
            for k, c, (i, j) in zip(keys.tolist(), counts.tolist(), first.tolist())
        } == raw
        assert [tuple(k) for k in keys.tolist()] == sorted(raw)
        assert counts.sum() == comb(count, 2)


def test_merged_counts_sum_to_all_pairs(cbrt2):
    rng = random.Random(91)
    pts = random_points(rng, cbrt2, 25, bound=3)
    assert sum(pair_lines(pts).values()) == comb(len(pts), 2)


# ---------------------------------------------------------------------------
# serialization


def test_points_round_trip(sqrt2):
    rng = random.Random(101)
    pts = random_points(rng, sqrt2, 20)
    text = points_to_text(point_rows(pts))
    assert points_from_text(text, sqrt2) == pts
    assert points_to_text(np.array(point_rows(pts))) == text
    assert points_to_text([]) == ""


def test_lines_round_trip():
    """Every line spanned by random points of every basis survives
    lines_to_text and lines_from_text, in canonical order."""
    rng = random.Random(102)
    for basis in ARITH_BASES:
        pts = random_points(rng, basis, 20, bound=30 // basis.degree)
        lines = list(pair_lines(pts))
        assert len(lines) > 100
        keys = np.array([line.key for line in lines])
        back = lines_from_text(lines_to_text(basis, keys), basis)
        assert back == sorted(lines, key=CanonicalLine.sort_key)


def edge_entries(low, high):
    """low, high, 0, +-1 and +-(10^k - 1), +-10^k, +-(10^k + 1), those
    within [low, high]."""
    mags = {1} | {10**k + e for k in range(1, 40) for e in (-1, 0, 1)}
    return [low, high, 0] + [s * m for m in sorted(mags) for s in (1, -1) if low <= s * m <= high]


def test_points_to_text_matches_str_reference():
    """points_to_text writes rows of every integer dtype, and object rows
    past int64, as str does: edge entries mixed with random ones of every
    length, on no rows, one row and row counts on both sides of the
    renderer's block boundaries.  19-digit entries enter an int64 array
    from exact Python ints, with no promotion of a Python int past int64."""
    rng = random.Random(19)
    assert points_to_text([]) == points_to_text(np.empty((0, 4), dtype=np.int64)) == ""
    for dtype in (np.int8, np.int16, np.int32, np.int64, object):
        if dtype is object:
            low, high = -(10**30), 10**30
        else:
            low, high = (int(v) for v in (np.iinfo(dtype).min, np.iinfo(dtype).max))
        edges = edge_entries(low, high)
        for cols in (1, 2, 4, 6):
            step = geo._RENDER_ENTRIES // cols
            for n in (1, 2, step - 1, step, step + 1, 2 * step + 1):
                vals = [
                    rng.choice(edges) if rng.random() < 0.5
                    else rng.randint(low, high) >> rng.randrange(high.bit_length())
                    for _ in range(n * cols)
                ]
                if dtype is object:
                    vals[rng.randrange(len(vals))] = rng.choice((-1, 1)) * 2**63
                rows = np.array(vals, dtype=dtype).reshape(n, cols)
                text = points_to_text(rows)
                assert text == points_text_str(rows.tolist()), (dtype, cols, n)
                assert len(text.splitlines()) == n


def test_lines_to_text_matches_fraction_reference():
    """lines_to_text writes the key arrays of the families of random cells
    and translates of every basis, in canonical order, as the Fraction
    reference writes their CanonicalLines sorted by sort_key: coefficients
    in every dtype _coeff_pairs picks, keys past int64 included, families
    larger than one block of the renderer, and no keys."""
    rng = random.Random(20)
    dtypes, longest = set(), 0
    for basis in ARITH_BASES:
        d = basis.degree
        for bound in (2, 30, 3000, 10**6, 10**12):
            points = {tuple(rng.randint(-bound, bound) for _ in range(2 * d)) for _ in range(30)}
            cell = np.array(sorted(points), dtype=object)
            translates = np.array(
                [[rng.randint(-bound, bound) for _ in range(2 * d)] for _ in range(2)], dtype=object
            )
            family = _raw_family(basis, cell, translates)
            dtypes.add(geo._coeff_pairs(basis, family.keys)[0].dtype)
            longest = max(longest, len(family) * 6 * d)
            lines = sorted(family_lines(family), key=CanonicalLine.sort_key)
            assert lines_to_text(basis, family.keys) == lines_text_fraction(lines)
        assert lines_to_text(basis, family.keys[:0]) == ""
    assert dtypes == {np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64, object)}
    assert longest > 2 * geo._RENDER_ENTRIES
