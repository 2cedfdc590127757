"""Exact arithmetic in rings presented by integer structure constants.

A basis Lambda = {l_1, ..., l_d} is "nice" when every product l_i * l_j is an
integer combination sum_k c[i][j][k] * l_k.  The d^3 integers c[i][j][k] fully
determine the ring, so all arithmetic here is exact (Python ints / Fractions);
floating point appears only in the diagnostic complex embedding.
"""

from fractions import Fraction

import numpy as np

from .errors import (
    BasisMismatchError,
    InvalidParameterError,
    InvalidPolynomialError,
    ZeroDivisorError,
)

EMBED_TOL = 1e-6


class NiceBasis:
    """Degree-d ring presentation by structure constants.

    structure_constants[i][j][k] is the coefficient of l_k in l_i * l_j.
    The embedding gives approximate complex values for the basis vectors and
    is diagnostic only: nothing exactness-critical reads it.
    """

    def __init__(self, structure_constants, embedding, description=""):
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
        self.embedding = tuple(complex(z) for z in embedding)
        if len(self.embedding) != d:
            raise InvalidParameterError("embedding must have one value per basis vector")
        self.description = description
        self._check_commutative()
        self._check_associative()
        self._check_embedding()
        self._one = None
        self._line_cache = {}
        self._inv_cache = {}

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

    def _check_embedding(self):
        d = self.degree
        emb = self.embedding
        tol = EMBED_TOL * (1 + self.c_lambda)
        for i in range(d):
            for j in range(d):
                approx = sum(
                    self.structure_constants[i][j][k] * emb[k] for k in range(d)
                )
                if abs(emb[i] * emb[j] - approx) >= tol:
                    raise InvalidParameterError(
                        f"embedding violates the product identity at ({i},{j})"
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
    def one(self):
        """Canonical representation of the ring's unity, as a RationalElement."""
        if self._one is None:
            last_err = None
            for i in range(self.degree):
                e = basis_vector(self, i)
                try:
                    self._one = divide(e, e)
                    break
                except ZeroDivisorError as err:
                    last_err = err
            else:
                raise last_err
        return self._one

    def __eq__(self, other):
        return (
            isinstance(other, NiceBasis)
            and self.structure_constants == other.structure_constants
        )

    def __hash__(self):
        return hash(self.structure_constants)

    def __repr__(self):
        return f"NiceBasis(d={self.degree}, {self.description!r})"


class Element:
    """A ring element sum_i coords[i] * l_i with unbounded integer coords."""

    __slots__ = ("basis", "coords")

    def __init__(self, basis, coords):
        coords = tuple(int(c) for c in coords)
        if len(coords) != basis.degree:
            raise InvalidParameterError(
                f"expected {basis.degree} coordinates, got {len(coords)}"
            )
        self.basis = basis
        self.coords = coords

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __add__(self, other):
        _same_basis(self, other)
        return Element(self.basis, tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other):
        _same_basis(self, other)
        return Element(self.basis, tuple(x - y for x, y in zip(self.coords, other.coords)))

    def __neg__(self):
        return Element(self.basis, tuple(-x for x in self.coords))

    def __mul__(self, other):
        _same_basis(self, other)
        return Element(self.basis, self.basis.mul_coords(self.coords, other.coords))

    def to_rational(self):
        return RationalElement(self.basis, tuple(Fraction(c) for c in self.coords))

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.basis == other.basis
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Element{self.coords}"


class RationalElement:
    """An element of the fraction field, with exact Fraction coordinates.

    Fraction keeps every coordinate in lowest terms with positive denominator,
    so equal field elements have identical coordinate vectors.
    """

    __slots__ = ("basis", "coords")

    def __init__(self, basis, coords):
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != basis.degree:
            raise InvalidParameterError(
                f"expected {basis.degree} coordinates, got {len(coords)}"
            )
        self.basis = basis
        self.coords = coords

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coords)

    def to_element(self):
        if not self.is_integral():
            raise InvalidParameterError(f"{self!r} has non-integer coordinates")
        return Element(self.basis, tuple(int(c) for c in self.coords))

    def __add__(self, other):
        other = _as_rational(self.basis, other)
        return RationalElement(
            self.basis, tuple(x + y for x, y in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        other = _as_rational(self.basis, other)
        return RationalElement(
            self.basis, tuple(x - y for x, y in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return RationalElement(self.basis, tuple(-x for x in self.coords))

    def __mul__(self, other):
        other = _as_rational(self.basis, other)
        return RationalElement(
            self.basis, self.basis.mul_coords(self.coords, other.coords)
        )

    def __eq__(self, other):
        return (
            isinstance(other, RationalElement)
            and self.basis == other.basis
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"RationalElement({', '.join(str(c) for c in self.coords)})"


def _same_basis(a, b):
    if a.basis != b.basis:
        raise BasisMismatchError("elements come from different bases")


def _as_rational(basis, x):
    if isinstance(x, Element):
        if x.basis != basis:
            raise BasisMismatchError("elements come from different bases")
        return x.to_rational()
    if isinstance(x, RationalElement):
        if x.basis != basis:
            raise BasisMismatchError("elements come from different bases")
        return x
    raise TypeError(f"cannot combine {type(x).__name__} with a field element")


def zero(basis):
    return Element(basis, (0,) * basis.degree)


def basis_vector(basis, i):
    coords = [0] * basis.degree
    coords[i] = 1
    return Element(basis, coords)


def divide(a, b):
    """The unique q in the fraction field with q * b == a.

    Solves the d x d rational system M_b q = a, where M_b is the
    multiplication-by-b matrix read off the structure constants.  A singular
    M_b with b != 0 means the presented ring has zero divisors (e.g. the
    supplied minimal polynomial was reducible); that is reported as a
    basis-validity failure rather than a numeric error.
    """
    basis = b.basis
    if isinstance(a, Element):
        a = _as_rational(basis, a)
    elif a.basis != basis:
        raise BasisMismatchError("elements come from different bases")
    if b.is_zero():
        raise ZeroDivisionError("division by the zero element")
    d = basis.degree
    sc = basis.structure_constants
    bc = b.coords
    # M[k][i] = coefficient of l_k in l_i * b
    mat = [
        [Fraction(sum(bc[j] * sc[i][j][k] for j in range(d))) for i in range(d)]
        for k in range(d)
    ]
    rhs = list(a.coords)
    q = _solve_linear(mat, rhs)
    if q is None:
        raise ZeroDivisorError(
            "multiplication matrix is singular for a nonzero element; "
            "the presented basis is not a domain (reducible minimal polynomial?)"
        )
    return RationalElement(basis, q)


def _solve_linear(mat, rhs):
    """Gaussian elimination over Fractions; None when the matrix is singular."""
    d = len(mat)
    m = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(d):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[i][d] for i in range(d)]


def integer_inverse(basis, coords):
    """(q, delta) with Element(q)/delta the inverse of the integer element
    with the given coords.  Cached per basis: line canonicalization and
    per-line richness counting hit the same pivots over and over."""
    cached = basis._inv_cache.get(coords)
    if cached is None:
        from math import gcd

        inv = divide(basis.one, Element(basis, coords))
        delta = 1
        for f in inv.coords:
            delta = delta * f.denominator // gcd(delta, f.denominator)
        cached = (tuple(int(f * delta) for f in inv.coords), delta)
        basis._inv_cache[coords] = cached
    return cached


def embed(a):
    """Approximate complex value of an element; diagnostic only."""
    return sum(
        (float(c) * z for c, z in zip(a.coords, a.basis.embedding)), 0j
    )


def build_power_basis(minpoly, description=None):
    """Nice basis {1, t, ..., t^(d-1)} for a root t of a monic polynomial.

    minpoly lists p_0 .. p_{d-1} of x^d + p_{d-1} x^(d-1) + ... + p_0.  The
    caller asserts irreducibility over Q; a reducible polynomial is only
    detected later, as a zero-divisor error in divide().
    """
    p = list(minpoly)
    if any(not isinstance(c, int) for c in p):
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
    theta = _locate_root(p)
    embedding = [theta ** k for k in range(d)]
    if description is None:
        description = f"power basis of {_poly_str(p)}"
    return NiceBasis(sc, embedding, description)


def _locate_root(p):
    """One numeric root of the monic polynomial: the largest-modulus real root
    when a real root exists, otherwise any root."""
    d = len(p)
    coeffs = [1.0] + [float(p[d - 1 - i]) for i in range(d)]
    roots = np.roots(coeffs)
    real = [z for z in roots if abs(z.imag) < 1e-9 * (1 + abs(z))]
    if real:
        # ties on modulus (e.g. +/- sqrt(k)) resolve to the positive root;
        # np.roots can split a tie by one ulp, so compare with slack
        top = max(abs(z.real) for z in real)
        near = [z for z in real if abs(z.real) >= top * (1 - 1e-9)]
        return complex(max(z.real for z in near))
    return complex(roots[0])


def _poly_str(p):
    d = len(p)
    parts = [f"x^{d}"]
    for i in range(d - 1, -1, -1):
        c = p[i]
        if c:
            term = f"{abs(c)}" if i == 0 else (f"{abs(c)}*x^{i}" if abs(c) != 1 else f"x^{i}")
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts)


def build_quadratic_basis(k):
    """The basis {1, sqrt(k)} for square-free k not in {0, 1}."""
    k = int(k)
    if k in (0, 1):
        raise InvalidParameterError("k must be square-free and not 0 or 1")
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
        if "minpoly" not in spec:
            raise InvalidParameterError("power basis spec needs 'minpoly'")
        return build_power_basis(spec["minpoly"])
    raise InvalidParameterError(f"unknown basis type {kind!r}")
