"""Exact arithmetic in rings presented by integer structure constants.

A basis Lambda = {l_1, ..., l_d} is "nice" when every product l_i * l_j is an
integer combination sum_k c[i][j][k] * l_k.  The d^3 integers c[i][j][k] fully
determine the ring, so all arithmetic here is exact (Python ints, Fractions,
and integer or object numpy arrays); nothing here uses floating point.
Every array kernel of the package takes its dtype from _exact_dtype of a
bound it proves first, most bounds through product_bounds.
"""

from fractions import Fraction
from math import gcd, isqrt
from numbers import Integral

import numpy as np

from .errors import (
    BasisMismatchError,
    InvalidParameterError,
    InvalidPolynomialError,
    ZeroDivisorError,
)


class NiceBasis:
    """Degree-d ring presentation by structure constants.

    structure_constants[i][j][k] is the coefficient of l_k in l_i * l_j.
    The constructor checks their shape, commutativity and associativity,
    exactly; the ring is given by the constants alone.
    """

    def __init__(self, structure_constants, *, description=""):
        sc = tuple(
            tuple(tuple(int(c) for c in row) for row in plane)
            for plane in structure_constants
        )
        d = len(sc)
        if d == 0:
            raise InvalidParameterError("basis degree must be positive")
        for plane in sc:
            if len(plane) != d or any(len(row) != d for row in plane):
                raise InvalidParameterError("structure constants must be d x d x d")
        self.degree = d
        self.structure_constants = sc
        self.c_lambda = max(abs(c) for plane in sc for row in plane for c in row)
        self.description = description
        self._check_commutative()
        self._check_associative()
        self._unity = None
        self._permanents = None  # _cofactor_bound's, at p = 1

    def _check_commutative(self):
        sc = self.structure_constants
        d = self.degree
        for i in range(d):
            for j in range(i):
                if sc[i][j] != sc[j][i]:
                    raise InvalidParameterError(
                        f"structure constants not commutative at ({i},{j})"
                    )

    def _check_associative(self):
        # (l_i l_j) l_k == l_i (l_j l_k), expanded through the table.
        d = self.degree
        for i in range(d):
            ei = basis_vector(self, i).coords
            for j in range(d):
                ej = basis_vector(self, j).coords
                ij = self.mul_coords(ei, ej)
                for k in range(d):
                    ek = basis_vector(self, k).coords
                    left = self.mul_coords(ij, ek)
                    right = self.mul_coords(ei, self.mul_coords(ej, ek))
                    if left != right:
                        raise InvalidParameterError(
                            f"structure constants not associative at ({i},{j},{k})"
                        )

    def mul_coords(self, a, b):
        """Coordinates of the product of two coordinate vectors (exact ints)."""
        d = self.degree
        sc = self.structure_constants
        out = [0] * d
        for i in range(d):
            ai = a[i]
            if not ai:
                continue
            sci = sc[i]
            for j in range(d):
                bj = b[j]
                if not bj:
                    continue
                f = ai * bj
                cij = sci[j]
                for k in range(d):
                    c = cij[k]
                    if c:
                        out[k] += f * c
        return tuple(out)

    @property
    def unity(self):
        """(u, den) with Element(u) / den the ring's unity, l_1 / l_1."""
        if self._unity is None:
            e = basis_vector(self, 0).coords
            (u,), det = _cofactor_solve(self, e, e)
            self._unity = u, det
        return self._unity

    @property
    def one(self):
        """Canonical representation of the ring's unity, as a RationalElement."""
        u, den = self.unity
        return RationalElement(self, [Fraction(v, den) for v in u])

    def __eq__(self, other):
        return (
            isinstance(other, NiceBasis)
            and self.structure_constants == other.structure_constants
        )

    def __hash__(self):
        return hash(self.structure_constants)

    def __repr__(self):
        return f"NiceBasis(d={self.degree}, {self.description!r})"


class _Element:
    """The one arithmetic of Element and RationalElement: sum_i coords[i] *
    l_i, with coordinates by the subclass's rule, _coordinate.

    A sum, difference or product is a RationalElement when either operand
    is one and an Element otherwise, with the exact coordinates either way;
    the other operand must be an element (TypeError) of the same basis
    (BasisMismatchError).  Equality is class-strict: an Element never
    equals a RationalElement.
    """

    __slots__ = ("basis", "coords")

    def __init__(self, basis, coords):
        coords = tuple(map(self._coordinate, coords))
        if len(coords) != basis.degree:
            raise InvalidParameterError(f"expected {basis.degree} coordinates, got {len(coords)}")
        self.basis = basis
        self.coords = coords

    def is_zero(self):
        return not any(self.coords)

    def _result(self, other):
        """The class of self op other, once other is checked."""
        if not isinstance(other, _Element):
            raise TypeError(f"cannot combine {type(other).__name__} with a ring element")
        if other.basis != self.basis:
            raise BasisMismatchError("elements come from different bases")
        return RationalElement if isinstance(other, RationalElement) else type(self)

    def __add__(self, other):
        cls = self._result(other)
        return cls(self.basis, [x + y for x, y in zip(self.coords, other.coords)])

    def __sub__(self, other):
        cls = self._result(other)
        return cls(self.basis, [x - y for x, y in zip(self.coords, other.coords)])

    def __mul__(self, other):
        cls = self._result(other)
        return cls(self.basis, self.basis.mul_coords(self.coords, other.coords))

    def __neg__(self):
        return type(self)(self.basis, [-x for x in self.coords])

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.basis == other.basis
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(self.coords)


class Element(_Element):
    """A ring element with unbounded integer coordinates.

    It shares one arithmetic with RationalElement (_Element): with an
    Element the result is an Element, and with a RationalElement, in either
    order, the RationalElement with the exact coordinates.  Each coordinate
    must be an integer, a Python or NumPy int or an integral Fraction, and
    is stored as a Python int; any other value, such as a float or the
    Fraction 1/2, raises InvalidParameterError instead of being truncated.
    """

    __slots__ = ()

    @staticmethod
    def _coordinate(c):
        if isinstance(c, Integral) or isinstance(c, Fraction) and c.denominator == 1:
            return int(c)
        raise InvalidParameterError(f"Element coordinates must be integers, got {c!r}")

    def to_rational(self):
        return RationalElement(self.basis, self.coords)

    def __repr__(self):
        return f"Element{self.coords}"


class RationalElement(_Element):
    """An element of the fraction field, with exact Fraction coordinates.

    Fraction keeps every coordinate in lowest terms with positive denominator,
    so equal field elements have identical coordinate vectors.  It shares
    one arithmetic with Element (_Element): a sum, difference or product
    with a RationalElement on either side is a RationalElement.
    """

    __slots__ = ()

    @staticmethod
    def _coordinate(c):
        # a Fraction is immutable and already in lowest terms: keep it
        return c if isinstance(c, Fraction) else Fraction(c)

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coords)

    def to_element(self):
        """This element as an Element; InvalidParameterError unless integral."""
        return Element(self.basis, self.coords)

    def __repr__(self):
        return f"RationalElement({', '.join(str(c) for c in self.coords)})"


def basis_vector(basis, i):
    coords = [0] * basis.degree
    coords[i] = 1
    return Element(basis, coords)


def divide(a, b):
    """The unique q in the fraction field with q * b == a: a * b^-1, with
    b^-1 from integer_inverse."""
    basis = b.basis
    if a.basis != basis:
        raise BasisMismatchError("elements come from different bases")
    q, delta = integer_inverse(basis, b.coords)
    return RationalElement(
        basis, [Fraction(v) / delta for v in basis.mul_coords(a.coords, q)]
    )


def integer_inverse(basis, coords):
    """(q, delta) with Element(q) / delta the inverse of the integer element
    b with the given coords, in lowest terms with delta > 0: adj(M_b) u over
    det(M_b), for the unity u, by integer cofactor expansion."""
    if not any(coords):
        raise ZeroDivisionError("division by the zero element")
    u, den = basis.unity
    (q,), delta = _cofactor_solve(basis, coords, u)
    g = gcd(*q, delta * den) * (1 if delta * den > 0 else -1)
    return tuple(v // g for v in q), delta * den // g


def _mul_matrix(basis, b):
    """M_b, the multiplication-by-b matrix, as a nested list: M_b[k][i] is
    the l_k coordinate of l_i * b.  Here and in _det, _adjugate and
    _cofactor_solve, entries may be Python ints or numpy arrays of
    broadcastable shapes, one matrix per array element, and results are
    exact in the entries' type."""
    d = basis.degree
    sc = basis.structure_constants
    return [
        [sum(b[j] * sc[i][j][k] for j in range(d) if sc[i][j][k]) for i in range(d)]
        for k in range(d)
    ]


def product_bounds(basis, u, v):
    """Per coordinate k, the largest |(x * y)_k| over coordinate vectors with
    |x_i| <= u and |y_j| <= v: u v sum_ij |c_ijk|."""
    rows = [row for plane in basis.structure_constants for row in plane]
    return [u * v * sum(map(abs, column)) for column in zip(*rows)]


# each integer dtype _exact_dtype picks from, and its largest value
_INT_TOPS = tuple(
    (np.dtype(t), int(np.iinfo(t).max)) for t in (np.int8, np.int16, np.int32, np.int64)
)


def _exact_dtype(bound):
    """The narrowest of int8, int16, int32 and int64 that holds every
    integer v with |v| <= bound, or object (exact Python ints) past int64.

    Every Python int that meets an array of this dtype must also lie within
    the bound: NumPy raises on a Python int outside the dtype, and array
    arithmetic that leaves it wraps silently."""
    for t, top in _INT_TOPS:
        if bound <= top:
            return t
    return np.dtype(object)


def _mul_rows(basis, u, v):
    """The coordinates of u * v for integer arrays whose last axis holds d
    coordinates, broadcast over the others: sum c[i][j][k] u_i v_j over the
    nonzero c[i][j][k], in the operands' dtype, which must hold every partial
    sum (within product_bounds) and every |c[i][j][k]| (c_lambda)."""
    out = [0] * basis.degree
    for i, plane in enumerate(basis.structure_constants):
        for j, row in enumerate(plane):
            f = u[..., i] * v[..., j]
            for k, c in enumerate(row):
                if c:
                    out[k] += f if c == 1 else c * f
    return np.stack(out, axis=-1)


def _det(m, sign=-1):
    """Determinant (sign -1) or permanent (sign 1) of the square nested list
    m, by cofactor expansion along the first row."""
    if not m:
        return 1
    total = 0
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total = total + sign**j * m[0][j] * _det(minor, sign)
    return total


def _adjugate(m, sign=-1):
    """The adjugate of the square nested list m, adj[k][i] the signed
    cofactor of m[i][k] (with sign 1, the permanents of the same minors,
    which bound the adjugate's entries)."""
    d = len(m)
    return [
        [
            sign ** (i + k)
            * _det([row[:k] + row[k + 1 :] for row in m[:i] + m[i + 1 :]], sign)
            for i in range(d)
        ]
        for k in range(d)
    ]


def _cofactor_solve(basis, b, *rhs):
    """([adj(M_b) a for a in rhs], det(M_b)): each a / b is adj(M_b) a over
    det(M_b).  A singular M_b with b != 0 means the presented ring has zero
    divisors (e.g. the supplied minimal polynomial was reducible); that is
    reported as a basis-validity failure rather than a numeric error."""
    m = _mul_matrix(basis, b)
    adj = _adjugate(m)
    det = sum(m[0][i] * adj[i][0] for i in range(len(m)))
    if np.any(det == 0):
        raise ZeroDivisorError(
            "multiplication matrix is singular for a nonzero element; "
            "the presented basis is not a domain (reducible minimal polynomial?)"
        )
    return [[sum(r[i] * a[i] for i in range(len(a))) for r in adj] for a in rhs], det


def _cofactor_bound(basis, p, *rhs):
    """(solved, det, work) for _cofactor_solve(basis, b, *rhs) over every b
    with |b_j| <= p, each rhs giving bounds a_i on the coordinates of its
    vector: solved[n][k] bounds (adj(M_b) a)_k for the n-th rhs, det bounds
    det(M_b), and work bounds every entry and partial sum that the solve
    and _mul_matrix form, b and the structure constants.

    |M_b[k][i]| <= p U[k][i] for U[k][i] = sum_j |c_ijk|.  A minor of order
    e of M_b is a signed sum of products of e entries, so p^e times the
    permanent of the same minor of U bounds it and every partial sum of its
    cofactor expansion.  So p^(d-1) times the permanents of U's minors bound
    adj(M_b), p^d perm(U) bounds det(M_b), and solved[n][k] = sum_i
    adj_bound[k][i] a_i bounds the solve's products and partial sums.  In a
    domain multiplication by l_i is invertible, so no entry of U is 0: each
    permanent bounds those of its minors, which _det's recursion forms, and
    p max U bounds b, M_b and _mul_matrix's partial sums.  U and its
    permanents are computed once per basis.  The adjugate bounds matter in
    work only for a zero rhs bound: when every rhs bound is at least 1,
    solved covers them."""
    d = basis.degree
    if basis._permanents is None:
        sc = basis.structure_constants
        unit = [[sum(abs(sc[i][j][k]) for j in range(d)) for i in range(d)] for k in range(d)]
        basis._permanents = unit, _adjugate(unit, sign=1), _det(unit, sign=1)
    unit, adj, det = basis._permanents
    adj = [[p ** (d - 1) * v for v in row] for row in adj]
    solved = [[sum(r[i] * a[i] for i in range(d)) for r in adj] for a in rhs]
    det *= p**d
    return solved, det, max(p * max(sum(unit, [])), *sum(adj + solved, []), det, basis.c_lambda)


def _is_int(v):
    """v is an int and not a bool (JSON true and false parse as bools)."""
    return isinstance(v, int) and not isinstance(v, bool)


def build_power_basis(minpoly, description=None):
    """Nice basis {1, t, ..., t^(d-1)} for a root t of a monic polynomial.

    minpoly lists p_0 .. p_{d-1} of x^d + p_{d-1} x^(d-1) + ... + p_0.  The
    caller asserts irreducibility over Q; a reducible polynomial is only
    detected later, as a zero-divisor error in divide().
    """
    p = list(minpoly)
    if not all(map(_is_int, p)):
        raise InvalidPolynomialError("minimal polynomial needs integer coefficients")
    d = len(p)
    if d == 0:
        raise InvalidPolynomialError("empty minimal polynomial")
    # Coordinates of t^k for k = 0 .. 2d-2, reduced modulo the polynomial.
    powers = []
    cur = [0] * d
    cur[0] = 1
    for _ in range(2 * d - 1):
        powers.append(tuple(cur))
        lead = cur[d - 1]
        nxt = [0] * d
        for i in range(d - 1):
            nxt[i + 1] = cur[i]
        if lead:
            for i in range(d):
                nxt[i] -= lead * p[i]
        cur = nxt
    sc = [[powers[i + j] for j in range(d)] for i in range(d)]
    if description is None:
        description = f"power basis of {_poly_str(p)}"
    return NiceBasis(sc, description=description)


def _poly_str(p):
    """The monic x^d + p_{d-1} x^(d-1) + ... + p_0 as text: "x^3 + 2*x - 1"."""

    def power(i):
        return "x" if i == 1 else f"x^{i}"

    d = len(p)
    parts = [power(d)]
    for i in range(d - 1, -1, -1):
        c = p[i]
        if c:
            term = f"{abs(c)}" if i == 0 else (f"{abs(c)}*{power(i)}" if abs(c) != 1 else power(i))
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts)


def build_quadratic_basis(k):
    """The basis {1, sqrt(k)} for an integer k that is not a perfect square,
    so that x^2 - k is irreducible."""
    if not _is_int(k):
        raise InvalidParameterError(f"k must be an integer, got {k!r}")
    if k >= 0 and isqrt(k) ** 2 == k:
        raise InvalidParameterError(f"k={k} is a perfect square: x^2 - k is reducible")
    return build_power_basis([-k, 0], description=f"quadratic basis {{1, sqrt({k})}}")


def build_integers_basis():
    """The degree-1 basis {1}: plain integers."""
    return build_power_basis([-1], description="integers")


def basis_from_spec(spec):
    """Build a basis from its JSON description.

    {"type": "integers"} | {"type": "quadratic", "k": int}
    | {"type": "power", "minpoly": [p0, ..., p_{d-1}]}
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise InvalidParameterError("basis spec must be an object with a 'type' key")
    kind = spec["type"]
    if kind == "integers":
        return build_integers_basis()
    if kind == "quadratic":
        if "k" not in spec:
            raise InvalidParameterError("quadratic basis spec needs 'k'")
        return build_quadratic_basis(spec["k"])
    if kind == "power":
        if not isinstance(spec.get("minpoly"), list):
            raise InvalidPolynomialError("power basis spec needs a 'minpoly' list")
        return build_power_basis(spec["minpoly"])
    raise InvalidParameterError(f"unknown basis type {kind!r}")
