"""Exact incidence geometry over a nice-basis field: scalar points and
lines, the canonical order of lines, and the text dumps.

A CanonicalLine is just its basis and its primitive key (see keys); the
coefficients with the pivot equal to unity are built from the key on
demand, as integer (numerator, denominator) pairs for ordering and text
output and as Fraction-based RationalElements only when coeffs() is called.
Those pairs, entry by entry, define the canonical order of lines, and
only output reads it: canonical_order gives the permutation of a whole key
array, lines_to_text writes a key array in that order, and canonical_least
picks the few rows first in it without sorting the rest.  Point,
line_through, collinear and on_line are the scalar API for single points
and lines; the kernels take coordinate rows.

points_to_text and lines_to_text write the point and line dumps, from
coordinate rows and from a key array, sorted as it is written.  Both write
their integers through one renderer, _render, which builds the text's bytes
from the array in numpy; only entries past int64 go through str.
"""

from fractions import Fraction

import numpy as np

from .errors import DegeneratePairError
from .keys import _primitive_key
from .numberfield import BasisMismatchError, RationalElement, _exact_dtype


class Point:
    """A plane point with coordinates in the ring of a shared nice basis."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        if x.basis != y.basis:
            raise BasisMismatchError("point coordinates from different bases")
        self.x = x
        self.y = y

    @property
    def basis(self):
        return self.x.basis

    def __eq__(self, other):
        return isinstance(other, Point) and self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x.coords, self.y.coords))

    def __repr__(self):
        return f"Point({self.x.coords}, {self.y.coords})"


class CanonicalLine:
    """The line with primitive key `key`, as A*X + B*Y + C = 0 with
    rational coefficients whose pivot (A, or B when A = 0) is unity.

    Only the basis and the key are stored; sort_key() and coeffs() build the
    coefficients from the key when called.
    """

    __slots__ = ("basis", "key")

    def __init__(self, basis, key):
        self.basis = basis
        self.key = key

    def sort_key(self):
        """The coefficient coordinates of A, B, C in order, as reduced
        (numerator, denominator) pairs with positive denominators."""
        num, den = _coeff_pairs(self.basis, np.array([self.key], dtype=object))
        return tuple(zip(num[0].tolist(), den[0].tolist()))

    def coeffs(self):
        d = self.basis.degree
        pairs = self.sort_key()
        return tuple(
            RationalElement(self.basis, [Fraction(*f) for f in pairs[i : i + d]])
            for i in (0, d, 2 * d)
        )

    a = property(lambda self: self.coeffs()[0])
    b = property(lambda self: self.coeffs()[1])
    c = property(lambda self: self.coeffs()[2])

    def __eq__(self, other):
        return (
            isinstance(other, CanonicalLine)
            and self.basis == other.basis
            and self.key == other.key
        )

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "CanonicalLine(a={!r}, b={!r}, c={!r})".format(*self.coeffs())


def _coeff_pairs(basis, keys):
    """Each entry of the primitive key rows over its row's lam, as reduced
    numerator and denominator arrays with positive denominators, in the
    dtype of _lam_rows."""
    keys, lam = _lam_rows(basis, keys)
    lam = lam[:, None]
    # the gcd carries lam's sign, so every denominator comes out positive
    g = np.gcd(keys, lam) * np.sign(lam)
    return keys // g, lam // g


def _lam_rows(basis, keys):
    """(keys, lam): the primitive key rows and each row's lam, in the dtype
    _exact_dtype picks for max(1, max |key|) * sum_j |c[j][0][0]|.

    The pivot block of a primitive key is lam * unity for an integer lam:
    pivot * l_1 = lam * l_1, and the first coordinate of pivot * l_1 is
    sum_j pivot[j] c[j][0][0]."""
    d = basis.degree
    sc0 = [row[0][0] for row in basis.structure_constants]
    dtype = _exact_dtype(int(np.abs(keys).max(initial=1)) * sum(map(abs, sc0)))
    keys = keys.astype(dtype, copy=False)
    pivot = np.where(keys[:, :d].any(axis=1)[:, None], keys[:, :d], keys[:, d : 2 * d])
    # own column sum: _mul_rows would form all d coordinates and need a dtype holding c_lambda
    lam = pivot[:, 0] * sc0[0]
    for j in range(1, d):
        lam += pivot[:, j] * sc0[j]
    return keys, lam


def canonical_order(basis, keys):
    """The permutation that puts primitive key rows in canonical order: by
    their coefficients' (numerator, denominator) pairs, compared entry by
    entry as CanonicalLine.sort_key() gives them."""
    return _pair_order(*_coeff_pairs(basis, keys))


def _pair_order(num, den):
    """The canonical order of the rows of _coeff_pairs' arrays."""
    # np.lexsort sorts by its last column first
    return np.lexsort([m[:, k] for k in range(num.shape[1] - 1, -1, -1) for m in (den, num)])


def canonical_least(basis, keys, k):
    """The ascending indices of the k >= 0 key rows first in canonical
    order (of every row when k >= len(keys)), without sorting the rest.

    The canonical columns, the numerator and then the denominator of each
    entry, are walked in order, and each is computed only for the rows
    still tied with the k-th least: with need rows still to pick, the rows
    below the column's need-th smallest value are taken, the rows above it
    dropped, and the rows equal to it go on to the next column.  Values are
    compared by np.partition, in the dtype _coeff_pairs computes them in
    (object past int64).  Rows equal in every column are taken in row
    order; distinct primitive keys never are."""
    keys, lam = _lam_rows(basis, keys)
    rows, need, least = np.arange(len(keys)), min(k, len(keys)), []
    for c in range(2 * keys.shape[1]):
        if not 0 < need < len(rows):
            break
        entry = keys[:, c // 2]
        value = (lam if c % 2 else entry) // (np.gcd(entry, lam) * np.sign(lam))
        cut = np.partition(value, need - 1)[need - 1]
        least.append(rows[value < cut])
        need -= len(least[-1])
        # keys and lam keep only the tied rows
        tie = value == cut
        rows, keys, lam = rows[tie], keys[tie], lam[tie]
    return np.sort(np.concatenate([*least, rows[:need]]))


def collinear(p, q, t):
    """Exact collinearity of three points: vanishing of the field determinant
    (q.x - p.x)(t.y - p.y) - (q.y - p.y)(t.x - p.x)."""
    for other in (q, t):
        if other.basis != p.basis:
            raise BasisMismatchError("points from different bases")
    det = (q.x - p.x) * (t.y - p.y) - (q.y - p.y) * (t.x - p.x)
    return det.is_zero()


def raw_line_coeffs(p, q):
    """Unnormalized integer coefficient triple of the line through p and q."""
    a = q.y - p.y
    b = p.x - q.x
    c = p.y * q.x - p.x * q.y
    return a, b, c


def line_through(p, q):
    """CanonicalLine through two distinct points; both satisfy it exactly."""
    if p.basis != q.basis:
        raise BasisMismatchError("points from different bases")
    if p == q:
        raise DegeneratePairError("need two distinct points")
    a, b, c = raw_line_coeffs(p, q)
    return CanonicalLine(p.basis, _primitive_key(p.basis, a.coords + b.coords + c.coords))


def on_line(p, line):
    """Exact incidence test A*p.x + B*p.y + C == 0."""
    if p.basis != line.basis:
        raise BasisMismatchError("point and line from different bases")
    # the key is a nonzero rational multiple of (A, B, C)
    d = p.basis.degree
    key, mul = line.key, p.basis.mul_coords
    ax, by = mul(key[:d], p.x.coords), mul(key[d : 2 * d], p.y.coords)
    return not any(u + v + w for u, v, w in zip(ax, by, key[2 * d :]))



# ---------------------------------------------------------------------------
# Line-oriented text interchange: one point per row as 2d integers, one line
# per row as 3d rationals "num/den".

# Entries per block of _render: its largest temporaries, the byte buffer and
# its mask at 22 bytes an entry for 20-digit entries, stay below glibc's
# 128 KB mmap threshold.
_RENDER_ENTRIES = 1 << 12

# 10^k for k = 0..19, every power of ten a uint64 holds
_POW10 = 10 ** np.arange(20, dtype=np.uint64)


def points_to_text(rows):
    """One point per line: the 2d integers of each coordinate row (x, then
    y), as PointBox.coords() gives them."""
    rows = np.asarray(rows)
    if not rows.size:
        return ""
    return _render(rows, " " * (rows.shape[1] - 1) + "\n")


def lines_to_text(basis, keys):
    """One line per primitive key row of keys, in canonical order: its 3d
    coefficient coordinates "num/den", reduced with positive denominators,
    with the pivot (A, or B when A = 0) unity.  The coefficient pairs are
    computed once, then sorted."""
    num, den = _coeff_pairs(basis, keys)
    order = _pair_order(num, den)
    pairs = np.empty((len(num), 2 * num.shape[1]), dtype=num.dtype)
    pairs[:, 0::2], pairs[:, 1::2] = num[order], den[order]
    return _render(pairs, "/ " * (num.shape[1] - 1) + "/\n")


def _render(values, seps):
    """The text of the integer matrix values: each entry in decimal followed
    by its column's separator, the one character seps[column].

    Integer dtypes are written a block of rows at a time: the digit count of
    each |entry| by comparisons with powers of ten, its digits by repeated
    % 10 into a byte buffer with one slot before them for the sign and one
    after them for the separator, and the bytes a mask keeps, in order.
    Other dtypes (object past int64) go through str."""
    if values.dtype.kind not in "iu":
        return "".join(f"{v}{s}" for row in values.tolist() for v, s in zip(row, seps))
    cols = values.shape[1]
    unsigned = np.dtype(f"u{values.dtype.itemsize}")
    sep = np.frombuffer(seps.encode("ascii"), dtype=np.uint8)
    step = max(1, _RENDER_ENTRIES // cols)
    out = []
    for r0 in range(0, len(values), step):
        block = values[r0 : r0 + step]
        neg = block < 0
        # |entry| in the unsigned type of the same size, exact also for the
        # most negative entry
        mag = np.array(block, order="C").view(unsigned)
        np.negative(mag, out=mag, where=neg)
        width = len(str(mag.max()))
        digits = np.ones(mag.shape, dtype=np.uint8)
        for p in _POW10[1:width].astype(unsigned):
            digits += mag >= p
        buf = np.empty(mag.shape + (width + 2,), dtype=np.uint8)
        buf[..., 0] = ord("-")
        buf[..., width + 1] = sep
        for k in range(width, 0, -1):
            buf[..., k] = mag % 10
            mag //= 10
        buf[..., 1 : width + 1] += ord("0")
        keep = np.empty(buf.shape, dtype=bool)
        keep[..., 0] = neg
        keep[..., 1 : width + 1] = np.arange(width, 0, -1) <= digits[..., None]
        keep[..., width + 1] = True
        out.append(buf[keep].tobytes())
    return b"".join(out).decode("ascii")
