"""Symmetric GAP boxes A_m(Lambda) and their closure bounds.

A_m(Lambda) collects the elements sum a_i l_i with |a_i| <= m^(1/d)/3.  Every
box radius and translate step comes from one integer root, iroot, so
membership stays exact even when m is an irrational power like n^(1/3): a
bound coeff * n^alpha with rational coeff = u/v and alpha = p/q has the
floor root iroot(u^q n^p // v^q, d q), and the radius is that root // 3.
"""

import itertools
from fractions import Fraction

import numpy as np

from .errors import InvalidParameterError
from .numberfield import Element, _exact_dtype


def iroot(x, k):
    """floor(x^(1/k)) for integers x >= 0 and k >= 1, by integer Newton
    steps from 2^ceil(bits/k), which lies above the root: the steps decrease
    until they stop at the floor."""
    if x < 2:
        return x
    t = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * t + x // t ** (k - 1)) // k
        if s >= t:
            return t
        t = s


def floor_scaled_root(coeff, n, alpha, d):
    """floor((coeff * n^alpha)^(1/d)) for a positive rational coeff = u/v,
    a positive int n and a rational alpha = p/q, exactly: t^(dq) v^q <= u^q
    n^p holds exactly when t^(dq) <= floor(u^q n^p / v^q)."""
    coeff = Fraction(coeff)
    alpha = Fraction(alpha)
    if coeff <= 0 or n <= 0:
        raise InvalidParameterError("bound must be positive")
    p, q = alpha.numerator, alpha.denominator
    u, v = coeff.numerator, coeff.denominator
    return iroot(u**q * n**p // v**q, d * q)


def gap_radius(m, d):
    """floor(m^(1/d) / 3) for a positive rational m: the largest t with
    (3t)^d <= m, which is floor(floor(m^(1/d)) / 3)."""
    m = Fraction(m)
    if m <= 0:
        raise InvalidParameterError("m must be positive")
    if d < 1:
        raise InvalidParameterError("d must be a positive integer")
    return floor_scaled_root(m, 1, 0, d) // 3


class GapSet:
    """The box A_m(s * Lambda): coordinates s*a with |a| <= radius.

    Iteration is lexicographic over the underlying integer box, which keeps
    every construction downstream deterministic.
    """

    def __init__(self, basis, radius, scale=1):
        if radius < 0:
            raise InvalidParameterError("radius must be nonnegative")
        if scale < 1:
            raise InvalidParameterError("scale must be a positive integer")
        self.basis = basis
        self.radius = int(radius)
        self.scale = int(scale)
        self._coords = None

    @property
    def size(self):
        """The number of elements, also past sys.maxsize, where len fails."""
        return (2 * self.radius + 1) ** self.basis.degree

    def __len__(self):
        return self.size

    def __iter__(self):
        rng = range(-self.radius, self.radius + 1)
        s = self.scale
        for coords in itertools.product(rng, repeat=self.basis.degree):
            yield Element(self.basis, tuple(s * c for c in coords))

    def coords(self):
        """The (size, d) array of element coordinates in iteration order, in
        the dtype _exact_dtype picks for radius * scale.  It is built on the
        first call and read-only."""
        if self._coords is None:
            d = self.basis.degree
            axis = [self.scale * c for c in range(-self.radius, self.radius + 1)]
            axis = np.array(axis, dtype=_exact_dtype(self.radius * self.scale))
            self._coords = axis[np.indices((len(axis),) * d).reshape(d, -1).T]
            self._coords.flags.writeable = False
        return self._coords

    def contains_rows(self, coords):
        """Membership of each coordinate row, the last axis of the integer
        array coords: a multiple of scale of absolute value at most
        radius * scale in every coordinate."""
        s = self.scale
        coords = coords.astype(np.result_type(coords, _exact_dtype((self.radius + 1) * s)))
        return ((coords % s == 0) & (np.abs(coords) <= self.radius * s)).all(axis=-1)

    def contains(self, e):
        if e.basis != self.basis:
            return False
        s = self.scale
        for c in e.coords:
            if c % s != 0 or abs(c // s) > self.radius:
                return False
        return True

    def __contains__(self, e):
        return self.contains(e)

    def __repr__(self):
        return (
            f"GapSet(radius={self.radius}, scale={self.scale}, "
            f"d={self.basis.degree})"
        )


def gap_set(basis, m, scale=1):
    """A_m(scale * Lambda) for a positive rational bound m."""
    return GapSet(basis, gap_radius(m, basis.degree), scale)


def gap_set_power(basis, coeff, n, alpha):
    """A_m(Lambda) for the bound m = coeff * n^alpha, exactly."""
    return GapSet(basis, floor_scaled_root(coeff, n, alpha, basis.degree) // 3)


def sum_bound(m, m_prime, d):
    """Bound m'' with a +/- a' in A_m''(Lambda) for a in A_m, a' in A_m'."""
    m, m_prime = Fraction(m), Fraction(m_prime)
    if m < 1 or m_prime < 1:
        raise InvalidParameterError("bounds must be at least 1")
    return 2**d * max(m, m_prime)


def product_bound(m, m_prime, d, c_lambda):
    """Bound m'' with a * a' in A_m''(Lambda) for a in A_m, a' in A_m'."""
    m, m_prime = Fraction(m), Fraction(m_prime)
    if m < 1 or m_prime < 1:
        raise InvalidParameterError("bounds must be at least 1")
    return (d**2 * c_lambda) ** d * m * m_prime
