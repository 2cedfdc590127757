"""Exact incidence predicates, canonical lines, and the brute-force oracle."""

import random
from fractions import Fraction
from math import comb

import pytest

from richlines import geometry as geo
from richlines.errors import DegeneratePairError, InvalidParameterError
from richlines.geometry import (
    CanonicalLine,
    beck_statistic,
    collinear,
    count_incidences,
    line_pair_counts,
    line_through,
    lines_from_text,
    lines_to_text,
    on_line,
    pair_grouping_identity,
    points_from_text,
    points_to_text,
    rich_lines_bruteforce,
)

from conftest import ARITH_BASES, int_point, make_point


def grid(basis, nx, ny):
    return [int_point(basis, x, y) for x in range(nx) for y in range(ny)]


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
    rich = rich_lines_bruteforce(grid(integers, 3, 3), 3)
    assert len(rich) == 8
    assert all(k == 3 for k in rich.values())


def test_r_larger_than_pointset(integers):
    assert rich_lines_bruteforce(grid(integers, 2, 2), 5) == {}


def test_four_collinear(integers):
    pts = [int_point(integers, i, 2 * i) for i in range(4)]
    rich = rich_lines_bruteforce(pts, 2)
    assert len(rich) == 1
    assert list(rich.values()) == [4]


def test_duplicate_points_rejected(integers):
    pts = [int_point(integers, 0, 0), int_point(integers, 0, 0)]
    with pytest.raises(InvalidParameterError):
        rich_lines_bruteforce(pts, 2)


def test_rich_lines_r_validation(integers):
    with pytest.raises(InvalidParameterError):
        rich_lines_bruteforce(grid(integers, 2, 2), 1)


def test_count_incidences_grid(integers):
    pts = grid(integers, 3, 3)
    rich = rich_lines_bruteforce(pts, 3)
    assert count_incidences(pts, rich.keys()) == 24
    assert count_incidences(pts, []) == 0


def test_count_incidences_matches_richness_sum(sqrt2):
    rng = random.Random(31)
    pts = random_points(rng, sqrt2, 40, bound=4)
    rich = rich_lines_bruteforce(pts, 3)
    assert count_incidences(pts, rich.keys()) == sum(rich.values())


def test_beck_statistic(integers):
    assert beck_statistic(grid(integers, 3, 3)) == (3, 20)
    collin = [int_point(integers, i, i) for i in range(7)]
    assert beck_statistic(collin) == (7, 1)
    tri = [int_point(integers, 0, 0), int_point(integers, 1, 0), int_point(integers, 0, 1)]
    assert beck_statistic(tri) == (2, 3)


def test_pair_grouping_identity_random(integers, sqrt2):
    rng = random.Random(41)
    for basis in (integers, sqrt2):
        pts = random_points(rng, basis, 35)
        assert pair_grouping_identity(pts)


def test_generic_path_matches_fast_path(integers):
    """The int64 kernel's lines and counts must equal both the pure-Python
    reference keys and grouping every pair by line_through."""
    rng = random.Random(51)
    pts = random_points(rng, integers, 60)
    raw = geo._raw_pair_counts_loop(
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
    assert line_pair_counts(pts) == reference == generic


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
    rng = random.Random(71)
    pts = random_points(rng, integers, 50)
    rich = rich_lines_bruteforce(pts, 3)
    keys = list(rich)
    assert keys == sorted(keys, key=CanonicalLine.sort_key)


def test_raw_vec_equals_raw_loop(integers, sqrt2, cbrt2):
    """group_pairs equals its pure-Python reference: keys, pair counts and
    first pairs, on seeded random points of every basis."""
    rng = random.Random(81)
    for basis, count, bound in ((integers, 120, 1000), (sqrt2, 30, 8), (cbrt2, 30, 8)):
        pts = random_points(rng, basis, count, bound=bound)
        xs = [p.x.coords for p in pts]
        ys = [p.y.coords for p in pts]
        keys, counts, first = geo.group_pairs(basis, xs, ys)
        raw = geo._raw_pair_counts_loop(basis, xs, ys)
        assert {
            tuple(k): [c, i, j]
            for k, c, (i, j) in zip(keys.tolist(), counts.tolist(), first.tolist())
        } == raw
        assert [tuple(k) for k in keys.tolist()] == sorted(raw)
        assert counts.sum() == comb(count, 2)


def test_merged_counts_sum_to_all_pairs(cbrt2):
    rng = random.Random(91)
    pts = random_points(rng, cbrt2, 25, bound=3)
    merged = line_pair_counts(pts)
    assert sum(merged.values()) == comb(len(pts), 2)


# ---------------------------------------------------------------------------
# serialization


def test_points_round_trip(sqrt2):
    rng = random.Random(101)
    pts = random_points(rng, sqrt2, 20)
    text = points_to_text(pts)
    back = points_from_text(text, sqrt2)
    assert back == pts


def test_lines_round_trip():
    """Every line spanned by random points of every basis survives
    lines_to_text and lines_from_text."""
    rng = random.Random(102)
    for basis in ARITH_BASES:
        pts = random_points(rng, basis, 20, bound=30 // basis.degree)
        lines = list(rich_lines_bruteforce(pts, 2))
        assert len(lines) > 100
        back = lines_from_text(lines_to_text(lines), basis)
        assert back == lines


def test_points_from_text_validates(integers):
    with pytest.raises(InvalidParameterError):
        points_from_text("1 2 3\n", integers)
