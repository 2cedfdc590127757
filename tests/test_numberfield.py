"""Ring and field arithmetic over structure-constant presentations."""

import random
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest

import richlines as rl
from richlines.errors import (
    BasisMismatchError,
    InvalidParameterError,
    InvalidPolynomialError,
    ZeroDivisorError,
)
from richlines.numberfield import (
    Element,
    NiceBasis,
    RationalElement,
    _mul_rows,
    basis_from_spec,
    basis_vector,
    divide,
    integer_inverse,
    product_bounds,
)

from conftest import ARITH_BASES, DTYPE_THRESHOLDS
from reference import fraction_solve


def rand_element(rng, basis, bound=50):
    return Element(basis, [rng.randint(-bound, bound) for _ in range(basis.degree)])


# ---------------------------------------------------------------------------
# basis construction


def test_power_basis_x2_minus_2(sqrt2):
    assert sqrt2.degree == 2
    # theta^2 = 2, so l2*l2 = 2*l1
    assert sqrt2.structure_constants[1][1] == (2, 0)
    assert sqrt2.c_lambda == 2


def test_power_basis_x3_minus_2(cbrt2):
    assert cbrt2.degree == 3
    # x^4 reduces to 2x: l3*l3 = 2*l2
    assert cbrt2.structure_constants[2][2] == (0, 2, 0)
    assert cbrt2.c_lambda == 2


def test_integers_basis(integers):
    assert integers.degree == 1
    assert integers.structure_constants == (((1,),),)
    assert integers.c_lambda == 1


def test_quadratic_variants():
    k5 = rl.build_quadratic_basis(5)
    assert k5.structure_constants[1][1] == (5, 0)
    assert k5.c_lambda == 5
    gauss = rl.build_quadratic_basis(-1)
    assert gauss.structure_constants[1][1] == (-1, 0)


def test_quadratic_rejects_degenerate_k():
    # perfect squares make x^2 - k reducible; k must be an int, not a bool
    for k in (0, 1, 4, 9, 2.5, "3", True):
        with pytest.raises(InvalidParameterError):
            rl.build_quadratic_basis(k)


def test_power_basis_descriptions():
    """A linear term is written x, or k*x, never x^1."""
    for minpoly, text in (
        ([1, 1, 0], "x^3 + x + 1"),
        ([-1, -1, 0, 0], "x^4 - x - 1"),
        ([3, -2, 0], "x^3 - 2*x + 3"),
        ([-2, 0, 0], "x^3 - 2"),
    ):
        assert rl.build_power_basis(minpoly).description == f"power basis of {text}"


def test_nice_basis_refusals():
    """The constructor's checks: a positive degree, d x d x d constants,
    commutativity and associativity; the description is keyword-only."""
    for sc, message in (
        ([], "degree must be positive"),
        ([[[1, 0], [0, 1]], [[0, 1]]], "d x d x d"),
        ([[[1, 0], [0, 1]], [[0, 0], [0, 1]]], "not commutative"),
        ([[[0, 1], [1, 0]], [[1, 0], [0, 0]]], "not associative"),
    ):
        with pytest.raises(InvalidParameterError, match=message):
            NiceBasis(sc)
    with pytest.raises(TypeError):
        NiceBasis([[[1]]], [1.0])
    assert NiceBasis([[[1]]], description="Z").description == "Z"


def test_exact_ring_with_a_huge_root():
    """x^3 - 2*10^30 presents an exact ring: theta^3 = 2*10^30, and
    divide inverts multiplication."""
    basis = basis_from_spec({"type": "power", "minpoly": [-2 * 10**30, 0, 0]})
    theta = basis_vector(basis, 1)
    assert (theta * theta * theta).coords == (2 * 10**30, 0, 0)
    rng = random.Random(30)
    for _ in range(20):
        a, b = rand_element(rng, basis, 10**6), rand_element(rng, basis, 10**6)
        if not b.is_zero():
            assert divide(a, b) * b == a.to_rational()


def test_power_basis_rejects_bad_polynomials():
    with pytest.raises(InvalidPolynomialError):
        rl.build_power_basis([])
    with pytest.raises(InvalidPolynomialError):
        rl.build_power_basis([1.5, 0])
    with pytest.raises(InvalidPolynomialError):
        rl.build_power_basis([True, 0])


def test_power_basis_products_match_polynomial_reduction():
    # independent check: reduce x^(i+j) mod x^4 - x - 1 by long division
    p = [-1, -1, 0, 0]
    basis = rl.build_power_basis(p)
    d = 4

    def reduce_power(k):
        poly = [0] * (k + 1)
        poly[k] = 1
        while len(poly) > d:
            lead = poly.pop()
            if lead:
                for i in range(d):
                    poly[len(poly) - d + i] -= lead * p[i]
        poly += [0] * (d - len(poly))
        return tuple(poly)

    for i in range(d):
        for j in range(d):
            prod = basis_vector(basis, i) * basis_vector(basis, j)
            assert prod.coords == reduce_power(i + j)


# ---------------------------------------------------------------------------
# element arithmetic


def test_add_sub_neg(sqrt2):
    a = Element(sqrt2, (1, 2))
    b = Element(sqrt2, (3, -1))
    assert (a + b).coords == (4, 1)
    assert (a + (-a)).coords == (0, 0)
    assert (a - a).is_zero()


def test_mul_examples(sqrt2, cbrt2):
    one_plus_rt2 = Element(sqrt2, (1, 1))
    assert (one_plus_rt2 * one_plus_rt2).coords == (3, 2)
    assert (one_plus_rt2 * Element(sqrt2, (0, 0))).is_zero()
    theta = Element(cbrt2, (0, 1, 0))
    theta2 = Element(cbrt2, (0, 0, 1))
    assert (theta * theta2).coords == (2, 0, 0)


def test_basis_mismatch(sqrt2, integers):
    with pytest.raises(BasisMismatchError):
        Element(sqrt2, (1, 0)) + Element(integers, (1,))


def test_divide_self_gives_unity(sqrt2, cbrt2):
    for basis in (sqrt2, cbrt2):
        a = Element(basis, [3] + [1] * (basis.degree - 1))
        one = divide(a, a)
        assert one.coords[0] == 1
        assert all(c == 0 for c in one.coords[1:])


def test_divide_example_sqrt2(sqrt2):
    # 1/(1+sqrt2) = -1+sqrt2
    q = divide(Element(sqrt2, (1, 0)), Element(sqrt2, (1, 1)))
    assert q.coords == (Fraction(-1), Fraction(1))
    assert (q * Element(sqrt2, (1, 1))).coords == (Fraction(1), Fraction(0))


def test_divide_zero_numerator(sqrt2):
    q = divide(Element(sqrt2, (0, 0)), Element(sqrt2, (2, 3)))
    assert q.is_zero()


def test_divide_by_zero(sqrt2):
    with pytest.raises(ZeroDivisionError):
        divide(Element(sqrt2, (1, 0)), Element(sqrt2, (0, 0)))


def test_reducible_polynomial_surfaces_as_zero_divisor():
    # x^2 - 1 is reducible; 1 + theta is a zero divisor
    basis = rl.build_power_basis([-1, 0])
    with pytest.raises(ZeroDivisorError):
        divide(Element(basis, (1, 0)), Element(basis, (1, 1)))


def test_integer_inverse_cached(sqrt2):
    q, delta = integer_inverse(sqrt2, (1, 1))
    # (1+sqrt2)^-1 = -1+sqrt2, already integral
    assert (q, delta) == ((-1, 1), 1)
    assert sqrt2.mul_coords(q, (1, 1)) == (delta, 0)
    # nothing is cached: a second call computes the same answer again
    assert integer_inverse(sqrt2, (1, 1)) == (q, delta)
    assert not hasattr(sqrt2, "_inv_cache")


def test_inverse_divide_and_one_match_fraction_reference():
    """integer_inverse, divide and basis.one equal Gaussian elimination over
    Fractions on every arithmetic basis, on Z[sqrt2] over the basis
    (sqrt2, 1), whose unity is the second vector, and on Z over the basis
    (-1), whose unity has a negative coordinate."""
    swapped = NiceBasis([[[0, 2], [1, 0]], [[1, 0], [0, 1]]])
    negated = NiceBasis([[[-1]]])
    rng = random.Random(12)
    for basis in ARITH_BASES + (swapped, negated):
        d = basis.degree
        e = basis_vector(basis, 0).coords
        one = fraction_solve(basis, e, e)
        assert list(basis.one.coords) == one
        for i in range(d):
            unit = basis_vector(basis, i).coords
            assert basis.mul_coords(one, unit) == unit
        for bound in (3, 10**6):
            for _ in range(40):
                a = rand_element(rng, basis, bound)
                b = rand_element(rng, basis, bound)
                if b.is_zero():
                    continue
                q, delta = integer_inverse(basis, b.coords)
                assert delta > 0 and gcd(*q, delta) == 1
                assert [Fraction(v, delta) for v in q] == fraction_solve(basis, b.coords, one)
                assert list(divide(a, b).coords) == fraction_solve(basis, b.coords, a.coords)
    # x^2 - 1 is reducible: M_(1 + theta) is singular
    reducible = rl.build_power_basis([-1, 0])
    assert fraction_solve(reducible, (1, 1), (1, 0)) is None
    with pytest.raises(ZeroDivisorError):
        integer_inverse(reducible, (1, 1))
    assert integer_inverse(reducible, (2, 1)) == ((2, -1), 3)


def test_rational_element_normalization(sqrt2):
    a = RationalElement(sqrt2, (Fraction(2, 4), Fraction(3)))
    assert a.coords == (Fraction(1, 2), Fraction(3))
    assert not a.is_integral()
    with pytest.raises(InvalidParameterError):
        a.to_element()
    # a Fraction coordinate is kept, not built again; an int becomes one
    half = Fraction(1, 2)
    b = RationalElement(sqrt2, (half, 3))
    assert b.coords[0] is half and b.coords[1] == Fraction(3)
    assert type(b.coords[1]) is Fraction


# ---------------------------------------------------------------------------
# randomized algebra properties (full-depth versions live in the acceptance
# suite; these are quick regressions)


def _random_rows(rng, shape, d, m, dtype):
    """An array of the given shape and a last axis of d coordinates, with
    seeded random entries in [-m, m], in dtype."""
    entries = [rng.randint(-m, m) for _ in range(int(np.prod(shape)) * d)]
    return np.array(entries, dtype=object).reshape(*shape, d).astype(dtype)


def test_mul_rows_matches_mul_coords():
    """_mul_rows equals NiceBasis.mul_coords element by element on seeded
    random arrays of every basis, in the (u, v) shapes of each caller: the
    pair kernel, shift_keys, the mechanism's two products and the intercept
    words' product with the unit vectors.  Operands are int8 through int64,
    as large as each dtype allows under product_bounds <= top, and object,
    with products past int64; the result keeps the operands' dtype."""
    rng = random.Random(27)
    for basis in ARITH_BASES:
        d = basis.degree
        s = max(product_bounds(basis, 1, 1))
        for top, dtype in [t[:2] for t in DTYPE_THRESHOLDS] + [(2**90, object)]:
            m = isqrt(top // s)
            widest = 0
            for shapes in (
                ((5,), (5,)),
                ((1, 4), (3, 1)),
                ((6,), (2, 1)),
                ((2, 6), (2, 1)),
                ((2, 7), (d, 1, 1)),
            ):
                u, v = (_random_rows(rng, shape, d, m, dtype) for shape in shapes)
                got = _mul_rows(basis, u, v)
                bu, bv = np.broadcast_arrays(u, v)
                assert got.dtype == np.dtype(dtype) and got.shape == bu.shape
                expected = [
                    basis.mul_coords(a, b)
                    for a, b in zip(bu.reshape(-1, d).tolist(), bv.reshape(-1, d).tolist())
                ]
                assert list(map(tuple, got.reshape(-1, d).tolist())) == expected
                widest = max(widest, *(abs(c) for row in expected for c in row))
            assert (widest > 2**63) == (dtype is object)


def test_ring_axioms_random(integers, sqrt2, cbrt2):
    rng = random.Random(5)
    for basis in (integers, sqrt2, cbrt2):
        for _ in range(150):
            a, b, c = (rand_element(rng, basis) for _ in range(3))
            assert (a * b).coords == (b * a).coords
            assert ((a * b) * c).coords == (a * (b * c)).coords
            assert (a * (b + c)).coords == (a * b + a * c).coords


def test_divide_mul_roundtrip_random(sqrt2, cbrt2):
    rng = random.Random(6)
    for basis in (sqrt2, cbrt2):
        for _ in range(150):
            a = rand_element(rng, basis)
            b = rand_element(rng, basis)
            if b.is_zero():
                continue
            q = divide(a, b)
            assert (q * b).coords == a.to_rational().coords


# ---------------------------------------------------------------------------
# spec plumbing


def test_basis_from_spec():
    assert basis_from_spec({"type": "integers"}).degree == 1
    assert basis_from_spec({"type": "quadratic", "k": 2}).c_lambda == 2
    assert basis_from_spec({"type": "power", "minpoly": [-2, 0, 0]}).degree == 3
    with pytest.raises(InvalidParameterError):
        basis_from_spec({"type": "weird"})
    with pytest.raises(InvalidParameterError):
        basis_from_spec({"minpoly": [1]})
