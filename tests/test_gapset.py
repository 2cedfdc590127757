"""Boxes A_m(Lambda), scaled copies, and the closure bounds."""

import random
from fractions import Fraction

import numpy as np
import pytest

import richlines as rl
from richlines.errors import InvalidParameterError
from richlines.gapset import (
    GapSet,
    floor_scaled_root,
    gap_radius,
    gap_set,
    gap_set_power,
    iroot,
    product_bound,
    sum_bound,
)
from richlines.numberfield import Element

from conftest import ARITH_BASES, DTYPE_THRESHOLDS


def test_gap_radius_examples():
    assert gap_radius(9, 1) == 3
    assert gap_radius(27, 3) == 1
    assert gap_radius(8, 1) == 2
    with pytest.raises(InvalidParameterError):
        gap_radius(0, 1)
    with pytest.raises(InvalidParameterError):
        gap_radius(-3, 2)


def test_coords_match_iteration():
    """GapSet.coords() holds the coordinates of the iterated Elements, in
    order, in the dtype _exact_dtype picks for radius * scale: one step
    either side of each threshold, and for a zero radius with a scale past
    every threshold."""
    for basis in ARITH_BASES:
        d = basis.degree
        for radius, scale in ((0, 1), (0, 2**70), (1, 1), (2, 3)):
            box = GapSet(basis, radius, scale)
            coords = box.coords()
            assert coords.shape == (box.size, d) and coords.dtype == np.int8
            assert coords.tolist() == [list(e.coords) for e in box]
        for limit, below, above in DTYPE_THRESHOLDS:
            for scale, dtype in ((limit, below), (limit + 1, above)):
                box = GapSet(basis, 1, scale)
                assert box.coords().dtype == dtype
                assert box.coords().tolist() == [list(e.coords) for e in box]


def test_contains_rows_matches_contains():
    """GapSet.contains_rows agrees with contains on seeded random rows of
    multiples of the scale at and past the radius, and of non-multiples: at
    scale 1, at scales near and past int64 (object rows), and on int8 rows
    against a box whose radius * scale needs a wider dtype."""
    rng = random.Random(17)
    for basis in ARITH_BASES:
        d = basis.degree
        for radius, scale, dtype in (
            (2, 1, np.int8),
            (1, 3, np.int8),
            (1, 1000, np.int8),
            (100, 2, np.int8),
            (2, 2**61, np.int64),
            (1, 2**70, object),
        ):
            box = GapSet(basis, radius, scale)
            inside = [k * scale for k in range(-radius, radius + 1)]
            outside = [(radius + 1) * scale, -(radius + 1) * scale, 1, -1, scale + 1]
            if dtype is not object:
                top = np.iinfo(dtype).max
                inside, outside = ([v for v in vs if abs(v) <= top] for vs in (inside, outside))
            rows = []
            for _ in range(60):
                row = [rng.choice(inside) for _ in range(d)]
                if rng.random() < 0.5:
                    row[rng.randrange(d)] = rng.choice(outside)
                rows.append(row)
            got = box.contains_rows(np.array(rows, dtype=dtype)).tolist()
            assert got == [box.contains(Element(basis, row)) for row in rows]
            assert True in got and False in got


def test_generate_integers(integers):
    s = gap_set(integers, 9)
    vals = sorted(e.coords[0] for e in s)
    assert vals == [-3, -2, -1, 0, 1, 2, 3]
    assert len(s) == 7


def test_generate_sqrt2(sqrt2):
    s = gap_set(sqrt2, 36)
    assert s.radius == 2
    assert len(s) == 25


def test_generate_scaled(integers):
    s = gap_set(integers, 9, scale=5)
    vals = sorted(e.coords[0] for e in s)
    assert vals == [-15, -10, -5, 0, 5, 10, 15]


def test_contains(integers):
    assert gap_set(integers, 9).contains(Element(integers, (3,)))
    assert not gap_set(integers, 9).contains(Element(integers, (4,)))
    assert gap_set(integers, 9, scale=5).contains(Element(integers, (10,)))
    assert not gap_set(integers, 9, scale=5).contains(Element(integers, (7,)))
    assert gap_set(integers, 9, scale=5).contains(Element(integers, (0,)))


def test_generated_elements_satisfy_contains(sqrt2):
    s = gap_set(sqrt2, 100, scale=3)
    for e in s:
        assert s.contains(e)
    bad = Element(sqrt2, (3 * (s.radius + 1), 0))
    assert not s.contains(bad)


def test_scaled_set_is_elementwise_scaling(cbrt2):
    base = {e.coords for e in gap_set(cbrt2, 50)}
    scaled = {e.coords for e in gap_set(cbrt2, 50, scale=7)}
    assert scaled == {tuple(7 * c for c in coords) for coords in base}


def test_sum_product_bounds():
    assert sum_bound(9, 12, 1) == 24
    assert product_bound(9, 9, 2, 2) == 5184
    assert product_bound(1, 1, 1, 1) == 1
    with pytest.raises(InvalidParameterError):
        sum_bound(Fraction(1, 2), 3, 1)
    with pytest.raises(InvalidParameterError):
        product_bound(2, Fraction(1, 3), 1, 1)


def test_closure_random(integers, sqrt2, cbrt2):
    rng = random.Random(9)
    for basis in (integers, sqrt2, cbrt2):
        d = basis.degree
        for _ in range(200):
            m = Fraction(rng.randint(1, 2000))
            mp = Fraction(rng.randint(1, 2000))
            sa, sb = gap_set(basis, m), gap_set(basis, mp)
            a = Element(basis, [rng.randint(-sa.radius, sa.radius) for _ in range(d)])
            b = Element(basis, [rng.randint(-sb.radius, sb.radius) for _ in range(d)])
            box_sum = gap_set(basis, sum_bound(m, mp, d))
            assert box_sum.contains(a + b)
            assert box_sum.contains(a - b)
            box_prod = gap_set(basis, product_bound(m, mp, d, basis.c_lambda))
            assert box_prod.contains(a * b)


def test_cardinality_at_most_m_degree_one(integers):
    # |A_m| <= m holds whenever the box is nondegenerate for d = 1
    for m in range(9, 400):
        s = gap_set(integers, m)
        if s.radius >= 1:
            assert len(s) <= m


def test_cardinality_monotone(sqrt2):
    prev = 0
    for m in range(1, 300):
        card = len(gap_set(sqrt2, m))
        assert card >= prev
        prev = card


def test_multiplier_box_large_enough(integers, sqrt2, cbrt2):
    # |A_{3^d r}(Lambda)| >= r, the counting fact behind the richness claim
    for basis in (integers, sqrt2, cbrt2):
        d = basis.degree
        for r in list(range(1, 200)) + [999, 5000, 10_000]:
            assert len(gap_set(basis, Fraction(3**d * r))) >= r


def test_floor_scaled_root_exact():
    # t = floor((coeff * n^alpha)^(1/d)) against the defining inequalities
    cases = [
        (Fraction(1), 8100, Fraction(1, 2), 1, 90),
        (Fraction(1, 5), 8100, Fraction(1, 2), 1, 18),
        (Fraction(1), 81, Fraction(1, 2), 2, 3),
        (Fraction(2, 3), 1000, Fraction(1, 3), 1, 6),
    ]
    for coeff, n, alpha, d, expect in cases:
        assert floor_scaled_root(coeff, n, alpha, d) == expect


def test_iroot():
    # t = iroot(x, k) against t^k <= x < (t + 1)^k
    rng = random.Random(21)
    xs = [0, 1] + list(range(2, 3000))
    xs += [2**e + s for e in range(1, 401) for s in (-1, 0, 1)]
    xs += [rng.randrange(10**80) for _ in range(300)]
    for k in range(1, 9):
        for x in xs:
            t = iroot(x, k)
            assert t**k <= x < (t + 1) ** k, (x, k)
    assert iroot(10**400, 2) == 10**200
    assert iroot(27**40 - 1, 40) == 26 and iroot(27**40, 40) == 27


def test_floor_scaled_root_random_and_huge(integers):
    rng = random.Random(13)
    for n_max in (10**6, 10**60):
        for _ in range(200):
            coeff = Fraction(rng.randint(1, 50), rng.randint(1, 50))
            n = rng.randint(2, n_max)
            alpha = Fraction(rng.randint(1, 3), rng.randint(3, 7))
            d = rng.randint(1, 4)
            t = floor_scaled_root(coeff, n, alpha, d)
            p, q = alpha.numerator, alpha.denominator
            u, v = coeff.numerator, coeff.denominator
            assert t ** (d * q) * v**q <= u**q * n**p
            assert (t + 1) ** (d * q) * v**q > u**q * n**p
    # roots far beyond 2^53, where a root seeded from a float is off by
    # more than a few steps
    big = floor_scaled_root(Fraction(1), 10**400, Fraction(1, 2), 1)
    assert big == 10**200
    assert floor_scaled_root(1, 2**100 + 2**45, 1, 1) == 2**100 + 2**45
    n, alpha = 2**200, Fraction(1, 2)
    box = rl.build_pointset(integers, n, alpha)
    for gap, a in ((box.x_set, alpha), (box.y_set, 1 - alpha)):
        # (3t)^d <= n^a < (3t + 3)^d, raised to the power q of a = p/q
        p, q, t, d = a.numerator, a.denominator, gap.radius, integers.degree
        assert (3 * t) ** (d * q) <= n**p < (3 * t + 3) ** (d * q)


def test_gapset_validation(integers):
    with pytest.raises(InvalidParameterError):
        GapSet(integers, -1)
    with pytest.raises(InvalidParameterError):
        GapSet(integers, 2, scale=0)


def test_measured_density_reported(sqrt2):
    # the |A_m|/m ratio stays bounded at desk scale (loose sanity check
    # for the Theta_d(m) cardinality statement)
    for m in (100, 1000, 10_000):
        s = gap_set(sqrt2, m)
        assert 0 < len(s) / m < 2


def test_gap_set_power_matches_rational_bound(integers):
    # when n^alpha is an integer power the two constructors agree
    a = gap_set_power(integers, 1, 81, Fraction(1, 2))
    b = gap_set(integers, 9)
    assert a.radius == b.radius
