"""Exact incidence geometry over a nice-basis field.

A line A*X + B*Y + C = 0 is identified by its primitive key: the flat
integer triple (A, B, C) scaled so that the pivot (A, or B when A = 0) is an
integer multiple of the field's unity, content-reduced, with its first
nonzero entry positive.  Two triples give the same line exactly when their
primitive keys are equal, so the keys are the dedup identity from the pair
kernel through to output.  A CanonicalLine is just its basis and key; the
coefficients with the pivot equal to unity are built from the key on
demand, as integer (numerator, denominator) pairs for ordering and text
output and as Fraction-based RationalElements only when coeffs() is called.
Those pairs, entry by entry, define the canonical order of lines, and
only output reads it: canonical_order gives the permutation of a whole key
array, lines_to_text writes a key array in that order, and canonical_least
picks the few rows first in it without sorting the rest.

Points enter the kernels as integer coordinate rows, never as Point
objects: Point, line_through, collinear and on_line are the scalar API for
single points and lines.  Two exact kernels find lines.  group_pairs keys
every pair of an arbitrary list of points, given by their x and y rows; the
construction builds its family with it.  The direction sweep, _sweep, works
on a box X x Y instead: it groups the box's points by packed intercept, one
direction at a time, and finds the runs of at least r equal intercepts by
one window compare.  It keeps one raw normal (dy, -dx) of each pair +-v
over the axis differences, and sweeps only the directions with at least
r - 1 of them: a line with k points of P gives k - 1 differences from its
smallest point, no two of them opposite, each one kept raw row of its
direction.  rich_line_keys keys the sweep's lines, in sweep order, by
direction and then by intercept; callers that compare them as lists sort
with canonical_order.  count_rich_lines only counts them, and looks given
key rows up in the sweep's own runs.  The oracle uses count_rich_lines, so
its check of the family shares no grouping step with the family's own
kernel, and writes no key row for a rich line.

points_to_text and lines_to_text write the point and line dumps, from
coordinate rows and from a key array, sorted as it is written.  Both write
their integers through one renderer, _render, which builds the text's bytes
from the array in numpy; only entries past int64 go through str.
"""

from fractions import Fraction
from functools import reduce
from math import gcd, isqrt

import numpy as np

from .errors import DegeneratePairError, InvalidParameterError
from .numberfield import (
    BasisMismatchError,
    RationalElement,
    _adjugate,
    _cofactor_solve,
    _mul_rows,
)


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


def _richness_from_pairs(pair_count):
    """Invert pair_count = k*(k-1)/2 to the number k of points on the line."""
    k = (1 + isqrt(1 + 8 * pair_count)) // 2
    if k * (k - 1) // 2 != pair_count:
        raise AssertionError(
            f"pair count {pair_count} is not triangular; duplicate points?"
        )
    return k


def _reduce_flat(flat):
    """Content-reduce a flat integer triple and fix the overall sign."""
    g = gcd(*flat) or 1
    if next((v for v in flat if v), 0) < 0:
        g = -g
    return tuple(v // g for v in flat)


def _primitive_key(basis, flat):
    """The primitive key of the flat integer triple (a, b, c): the triple
    times the adjugate of its pivot's multiplication matrix (pivot a, or b
    when a = 0), content-reduced with its first nonzero entry made positive,
    as group_pairs computes it."""
    d = basis.degree
    pivot = flat[:d] if any(flat[:d]) else flat[d : 2 * d]
    if not any(pivot):
        raise DegeneratePairError("degenerate line: A and B both zero")
    solved, _ = _cofactor_solve(basis, pivot, flat[:d], flat[d : 2 * d], flat[2 * d :])
    return _reduce_flat(sum(solved, []))


# Pairs, key rows, (direction, point) or (key, box column) pairs per chunk;
# bounds group_pairs, key_tuples, rich_line_keys and the blocks that
# richness._blocks cuts for the richness counter and the tuning gate.
_CHUNK_PAIRS = 1 << 16


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


def key_bound(basis, mx, my):
    """(work, entry) for coordinates bounded by mx (x) and my (y): bounds on
    the absolute value of every intermediate of group_pairs, and of every
    entry of its primitive keys.

    A raw key has |a| <= 2 my, |b| <= 2 mx and |c_k| <= 2 product_bound_k.
    Its pivot has entries at most p = 2 max(mx, my), so the multiplication
    matrix M has |M[k][i]| <= p sum_j |c_ijk|, the permanents of its minors
    bound adj(M) and the permanent of M bounds det(M), and adj(M) times the
    raw bounds bounds the primitive key.  The structure constants meet the
    arrays too.
    """
    d = basis.degree
    sc = basis.structure_constants
    raw = [2 * my] * d + [2 * mx] * d + [2 * m for m in product_bounds(basis, mx, my)]
    p = 2 * max(mx, my)
    mul = [[p * sum(abs(sc[i][j][k]) for j in range(d)) for i in range(d)] for k in range(d)]
    adj = _adjugate(mul, sign=1)
    det = sum(mul[0][i] * adj[i][0] for i in range(d))
    entry = max(
        sum(adj[k][i] * raw[block + i] for i in range(d))
        for block in (0, d, 2 * d)
        for k in range(d)
    )
    work = max(raw + sum(mul, []) + sum(adj, []) + [det, entry, basis.c_lambda])
    return work, entry


def group_pairs(basis, xs, ys):
    """Group the point pairs i < j by the line they span.

    xs, ys: the x and y coordinate vectors of n distinct points.  Returns
    (keys, counts, first): the distinct primitive keys (as _pair_kernel
    gives them) as rows in lexicographic order, the number of pairs on each
    line, and the (i, j) of the first such pair in row-major order.

    Pairs are keyed in chunks by _pair_kernel; the keys are stored as the
    columns of one array in the dtype _exact_dtype picks for key_bound's
    entry bound and grouped by one stable lexicographic sort.  Desk-scale
    boxes and cells give int8 or int16 entries, which NumPy sorts by radix
    sort; past int64 the same code runs on exact Python ints in object
    dtype.
    """
    n = len(xs)
    keys_of, entry = _pair_kernel(basis, xs, ys)
    anchors = np.arange(n, dtype=np.int64)
    # index of pair (i, i + 1) in row-major order
    start = anchors * (n - 1) - anchors * (anchors - 1) // 2
    total = n * (n - 1) // 2
    cols = np.empty((3 * basis.degree, total), dtype=entry)
    for p0 in range(0, total, _CHUNK_PAIRS):
        rows = keys_of(*_pairs_at(start, np.arange(p0, min(p0 + _CHUNK_PAIRS, total))))
        cols[:, p0 : p0 + len(rows)] = rows.T
    # a stable sort puts each key's first pair at the head of its run
    order, heads = _sorted_runs(cols)
    counts = np.diff(heads, append=total)
    first = order[heads]
    keys = cols.T[first]
    del order, cols
    return keys, counts, np.stack(_pairs_at(start, first), axis=1)


def _pair_kernel(basis, xs, ys):
    """(keys_of, entry) for the points with coordinate vectors xs, ys:
    keys_of maps pair index arrays (i, j) to the primitive key rows of the
    pairs (i[k], j[k]), and entry is the dtype _exact_dtype picks for
    key_bound's entry bound, which holds every entry of those rows.

    The raw key of a pair is the flat integer triple (a, b, c) = (y_j - y_i,
    x_i - x_j, y_i x_j - x_i y_j), c by _mul_rows; its primitive key is the
    raw key times adj(M_p), M_p the multiplication-by-pivot matrix,
    content-reduced with its first nonzero entry made positive, as
    _primitive_key gives it.  The rows are computed in the dtype
    _exact_dtype picks for key_bound's work bound, which covers c_lambda.
    """
    x, y, entry = _work_rows(basis, xs, ys)[:3]

    def keys_of(i, j):
        xi, xj, yi, yj = x[i], x[j], y[i], y[j]
        c = _mul_rows(basis, yi, xj) - _mul_rows(basis, xi, yj)
        return _primitive_rows(basis, (yj - yi, xi - xj, c))

    return keys_of, entry


def _work_rows(basis, xs, ys):
    """(x, y, entry, mx, my): the coordinate rows xs and ys (arrays, or
    sequences of rows) as (n, d) arrays in the dtype _exact_dtype picks for
    key_bound's work bound, the dtype it picks for the entry bound, and the
    largest |coordinate| mx of x and my of y, one array max each."""
    d = basis.degree
    x, y = (
        (v if isinstance(v, np.ndarray) else np.array(v, dtype=object)).reshape(-1, d)
        for v in (xs, ys)
    )
    mx, my = (int(np.abs(v).max(initial=0)) for v in (x, y))
    work, entry = map(_exact_dtype, key_bound(basis, mx, my))
    return x.astype(work), y.astype(work), entry, mx, my


def _primitive_rows(basis, blocks):
    """The cofactor step of _pair_kernel: the rows of the coordinate blocks
    (a, b, ...), stacked side by side, times adj(M_p) for M_p the
    multiplication-by-pivot matrix (pivot a, or b where a = 0),
    content-reduced with their first nonzero entry made positive.  No row may
    have a = b = 0; the result has the blocks' dtype."""
    pivot = np.where(blocks[0].any(axis=1)[:, None], blocks[0], blocks[1])
    solved, _ = _cofactor_solve(basis, list(pivot.T), *(list(m.T) for m in blocks))
    rows = np.stack(sum(solved, []), axis=1)
    # a column-by-column gcd chain: faster than np.gcd.reduce along rows
    rows //= reduce(np.gcd, rows.T)[:, None]
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
    rows[lead < 0] *= -1
    return rows


def _sorted_runs(cols):
    """Stable lexicographic sort of the columns of cols, first row most
    significant: the permutation, and the positions in sorted order where
    each run of equal columns starts (at the run's first input column)."""
    order = np.lexsort(cols[::-1])
    head = np.zeros(len(order), dtype=bool)
    head[:1] = True
    for row in cols:  # a row at a time: no sorted copy of cols
        row = row[order]
        head[1:] |= row[1:] != row[:-1]
    return order, np.flatnonzero(head)


def shift_keys(basis, keys, tx, ty):
    """The key rows (a, b, c) of lines moved by each translate (tx[t], ty[t]):
    (a, b, c - a*tx[t] - b*ty[t]), stacked in (translate, key) order as one
    array.  tx and ty are the translates' coordinate rows.

    c moves by integer combinations of the coordinates of a and b, which
    stay, so a primitive key stays primitive.  Keys and translates are cast
    once to the dtype _exact_dtype picks for c_lambda and the largest entry
    product_bounds allow; _mul_rows takes a*tx and b*ty over (translate, key).
    """
    d = basis.degree
    tx, ty = (np.array(t, dtype=object).reshape(-1, d) for t in (tx, ty))
    shift = int(max(np.abs(tx).max(initial=0), np.abs(ty).max(initial=0)))
    coeff = int(np.abs(keys[:, : 2 * d]).max(initial=1))
    const = int(np.abs(keys[:, 2 * d :]).max(initial=0))
    bound = max(coeff, const + 2 * max(product_bounds(basis, coeff, shift)), basis.c_lambda)
    keys, tx, ty = (m.astype(_exact_dtype(bound)) for m in (keys, tx, ty))
    moved = np.repeat(keys[None], len(tx), axis=0)
    a, b = keys[None, :, :d], keys[None, :, d : 2 * d]
    moved[:, :, 2 * d :] -= _mul_rows(basis, a, tx[:, None]) + _mul_rows(basis, b, ty[:, None])
    return moved.reshape(-1, 3 * d)


def key_tuples(keys):
    """The rows of a key array as tuples of Python ints, converted a block
    of rows at a time to bound the intermediate lists."""
    for b in range(0, len(keys), _CHUNK_PAIRS):
        yield from zip(*keys[b : b + _CHUNK_PAIRS].T.tolist())


def _pairs_at(start, p):
    """(i, j) of the pairs with row-major indices p."""
    i = np.searchsorted(start, p, side="right") - 1
    return i, p - start[i] + i + 1


class _InterceptWords:
    """The packed intercepts of the lines with the direction rows ab, each
    (a, b) of 2d entries, through the points of a box X x Y whose largest
    |coordinate| is mx on X and my on Y, both read as at least 1.

    Every direction packs its intercepts in one base.  Every coordinate of
    a_w x + b_w y over the box is at most cm = max_w (max |a_w| mx + max
    |b_w| my) s, s the largest product_bounds(1, 1) entry.  An intercept c,
    |c_k| <= cm, has the word sum_k (c_k + cm) base^k in base = 2 cm + 1:
    words lie in [0, bins), bins = base^d, and two such intercepts have
    equal words exactly when they are equal.  The word is linear in c, so
    the line of direction w through a box point (x, y), c = -(a_w x + b_w
    y), has the word zero - x . pa_w - y . pb_w: zero = cm sum_k base^k =
    (bins - 1) / 2 is the word of c = 0, and pa_w[i] is the word of a_w
    l_i, taken by _mul_rows, so that x . pa_w = sum_k (a_w x)_k base^k.

    The arrays take the dtype _exact_dtype picks for max(bins, mx, my),
    fixed before any word is built.  Proof: |(a_w l_i)_k| <= max |a_w| s <=
    cm, and the same holds for b_w, so every entry of pa and pb and every
    partial sum of a word lies within (bins - 1) / 2 (a partial sum of x .
    pa_w is x . pa_w for x with some entries zeroed), and zero - x . pa_w
    lies in [0, bins).  _mul_rows also meets c_lambda <= s <= cm; s enters
    the max for an ab with no rows.
    """

    def __init__(self, basis, ab, mx, my):
        d = basis.degree
        s = max(product_bounds(basis, 1, 1))
        mx, my = max(mx, 1), max(my, 1)
        m = np.abs(ab)
        ma, mb = (int(m[:, k * d : (k + 1) * d].max(initial=0)) for k in (0, 1))
        # each row's bound over s, in a dtype that holds it, mx and my
        m = m.astype(_exact_dtype(max(ma * mx + mb * my, mx, my)))
        per_row = m[:, :d].max(axis=1, initial=0) * mx + m[:, d:].max(axis=1, initial=0) * my
        self.degree = d
        self.cm = int(per_row.max(initial=0)) * s
        self.base = 2 * self.cm + 1
        self.bins = self.base**d
        self.zero = (self.bins - 1) // 2
        self.dtype = _exact_dtype(max(self.bins, mx, my, s))
        unit = np.eye(d, dtype=self.dtype)[:, None, None]
        # l_i a_w and l_i b_w as [i, a or b, w, coordinate], then their words as [a or b, w, i]
        prod = _mul_rows(basis, ab.astype(self.dtype).reshape(-1, 2, d).transpose(1, 0, 2), unit)
        words = sum(prod[..., k] * self.base**k for k in range(d)).transpose(1, 2, 0)
        self.pa, self.pb = (np.ascontiguousarray(w) for w in words)

    def of_points(self, rows, x, y):
        """The (rows, |X| |Y|) words of the lines through the box points,
        x-major, for the rows (a slice or index array) of ab and the
        coordinate rows x of X and y of Y in self.dtype."""
        wx = self.zero - self.pa[rows] @ x.T
        wy = self.pb[rows] @ y.T
        return (wx[:, :, None] - wy[:, None, :]).reshape(len(wx), -1)

    def of_intercepts(self, c):
        """(inside, words) for the intercept rows c, (n, d) in any integer
        dtype: whether every |c_k| <= cm, and the word of each such
        intercept (zero's word where not inside).  An intercept outside cm
        has no word: its packing could equal another intercept's."""
        inside = ((c <= self.cm) & (c >= -self.cm)).all(axis=1)
        c = np.where(inside[:, None], c, 0).astype(self.dtype)
        return inside, self.zero + sum(c[:, k] * self.base**k for k in range(self.degree))

    def intercepts(self, words):
        """The d coordinate columns of the intercepts of the words."""
        c = []
        for _ in range(self.degree):
            c.append(words % self.base - self.cm)
            words = words // self.base
        return c


def _sweep(basis, xs, ys, r):
    """The direction sweep of the box P = X x Y, for rich_line_keys and
    count_rich_lines.  It yields (ab, words, entry) first: the kept direction
    rows in lexicographic order, their _InterceptWords, and the dtype
    _exact_dtype picks for key_bound's entry bound.  Then, for each block of
    about _CHUNK_PAIRS (direction, point) entries, it yields (rows, word,
    size) for the block's lines with at least r points of P, in order of
    row and then of word: each line's row of ab, its packed intercept and
    its number of points.

    xs, ys: the distinct coordinate rows of the axes X and Y.  The raw rows
    (a, b) = (dy, -dx) for dx in X - X and dy in Y - Y, not both zero, are
    the normals of the pair differences of P.  X - X and Y - Y are closed
    under negation, so the raw rows come in pairs +-v of one direction; only
    the row of each pair whose first nonzero entry is positive is kept.  The
    kept rows are made primitive by _pair_kernel's cofactor step, so that
    (a, b) and every field multiple of it give one direction, and grouped
    into one run per direction.  A direction is swept only if its run has
    at least r - 1 rows.  Proof: let a line of direction w hold k points of
    P, and let p_1 be the lexicographically smallest of them as a vector in
    Z^{2d}.  The k - 1 differences p_i - p_1 are distinct, nonzero,
    lex-positive, parallel to w and in (X - X) x (Y - Y), and no two are
    negatives of each other.  The raw rows are the product of the distinct
    axis differences, so each difference and its negative give one +-
    pair of raw rows, of which one is kept: k - 1 distinct rows of w's run.
    Hence a run of fewer than r - 1 rows holds no line with r points.  This
    holds for any axes and every basis; at r = 2 it prunes nothing, and on
    an integer grid it is tight.

    Then, for a block of directions at a time, every point's intercept c =
    -(a x + b y) is packed into one word by _InterceptWords, and each
    direction's words are sorted.  In a sorted row w, a run of at least r
    equal words starts at i exactly when w[i] == w[i + r - 1] and, for i > 0,
    w[i - 1] != w[i].  So one window compare marks the windows i with w[i]
    == w[i + r - 1]: a run of k >= r words marks k - r + 1 adjacent ones,
    starting at its first word, and r - 1 >= 1 unmarked windows separate two
    runs.  So the runs are the stretches of marked windows, found from where
    the marks change.  Memory is one block plus the kept directions.
    """
    if r < 2:
        raise InvalidParameterError("r must be at least 2")
    d = basis.degree
    x, y, entry, mx, my = _work_rows(basis, xs, ys)
    dx, dy = _differences(x), _differences(y)
    # of each pair +-v, the row whose first nonzero entry is positive: dy
    # lex-positive with any dx, or dy = 0 with -dx lex-positive
    px, py = _lex_positive(dx), _lex_positive(dy)
    ab = np.concatenate(
        [
            np.concatenate([np.tile(py, (len(dx), 1)), -np.repeat(dx, len(py), axis=0)], axis=1),
            np.concatenate([np.zeros_like(px), px], axis=1),
        ]
    )
    ab = _primitive_rows(basis, (ab[:, :d], ab[:, d:])).astype(entry)
    order, heads = _sorted_runs(ab.T)
    # only a run of at least r - 1 rows can hold a line with r points
    ab = ab[order[heads[np.diff(heads, append=len(ab)) >= r - 1]]]
    words = _InterceptWords(basis, ab, mx, my)
    yield ab, words, entry

    x, y = x.astype(words.dtype), y.astype(words.dtype)
    points = len(x) * len(y)
    if points < r:
        return
    step, width = max(1, _CHUNK_PAIRS // points), points - r + 1
    for b0 in range(0, len(ab), step):
        packed = words.of_points(slice(b0, b0 + step), x, y)
        packed.sort(axis=1)
        # mark[1 + k] marks the window at flat index k of packed; the r - 1
        # columns past a row's last window, and mark[0], stay False
        mark = np.zeros(packed.size + 1, dtype=bool)
        windows = mark[1:].reshape(packed.shape)[:, :width]
        np.equal(packed[:, r - 1 :], packed[:, :width], out=windows)
        # a stretch of marked windows rises at its run's first word k and
        # falls at k + size - r + 1
        edge = np.flatnonzero(mark[1:] != mark[:-1])
        del mark
        start = edge[0::2]
        size = edge[1::2] - start
        size += r - 1
        row = start // points
        row += b0
        yield row, packed.reshape(-1)[start], size


def rich_line_keys(basis, xs, ys, r):
    """The lines with at least r points in the box P = X x Y, by direction
    sweep (_sweep): (keys, richness), the primitive keys of those lines as
    rows in the dtype _exact_dtype picks for key_bound's entry bound, and
    the number of points of P on each, as int64.  The rows come in sweep
    order, by direction and then by packed intercept, which is
    deterministic but not canonical: callers that compare or print rows
    sort them with canonical_order.

    A line's (a, b, c) is its primitive key: (a, b) is primitive with
    content 1, so (a, b, c) is too.  Memory is one block of the sweep plus
    the kept directions and the output.
    """
    d = basis.degree
    sweep = _sweep(basis, xs, ys, r)
    ab, words, entry = next(sweep)
    keys = [np.empty((0, 3 * d), dtype=entry)]
    richness = [np.empty(0, dtype=np.int64)]
    for rows, word, size in sweep:
        c = words.intercepts(word)
        keys.append(np.column_stack([ab[rows], *c]).astype(entry, copy=False))
        richness.append(size.astype(np.int64, copy=False))
    return np.concatenate(keys), np.concatenate(richness)


def count_rich_lines(basis, xs, ys, r, keys):
    """(lines, rich) for the box P = X x Y, by the direction sweep of
    rich_line_keys (_sweep): lines, the number of lines with at least r
    points of P, and rich, a bool array that says for each primitive key
    row of keys (an (n, 3d) integer array) whether its line is one of them.

    No key row is built for a rich line.  Each key's direction is found
    among the kept directions by one stable sort of both (_table_rows): a
    key whose direction was pruned, or whose direction is no primitive
    direction of P, holds fewer than r points.  Its intercept is packed by
    _InterceptWords.of_intercepts; one outside the bound cm holds no
    point of P.  Each block's runs are in order of (row, word), so
    the keys of the block's directions are found among them by one
    searchsorted of (row, word) packed as row * bins + word, rows counted
    from the block's first run, in the dtype _exact_dtype picks for that
    bound.  Memory is one block of the sweep plus O(runs + keys).
    """
    d = basis.degree
    sweep = _sweep(basis, xs, ys, r)
    ab, words, _ = next(sweep)
    row = _table_rows(ab, keys[:, : 2 * d])
    inside, word = words.of_intercepts(keys[:, 2 * d :])
    known = np.flatnonzero((row >= 0) & inside)
    known = known[np.argsort(row[known], kind="stable")]
    word, known_row = word[known], row[known]
    rich = np.zeros(len(keys), dtype=bool)
    lines = 0
    for rows, run_word, size in sweep:
        lines += len(size)
        if not len(size):
            continue
        lo, hi = np.searchsorted(known_row, [rows[0], rows[-1] + 1])
        # (row, word) as one integer, rows counted from the block's first run
        dtype = _exact_dtype((int(rows[-1] - rows[0]) + 1) * words.bins)
        runs, probe = (
            (r_ - rows[0]).astype(dtype) * words.bins + w.astype(dtype)
            for r_, w in ((rows, run_word), (known_row[lo:hi], word[lo:hi]))
        )
        at = np.minimum(np.searchsorted(runs, probe), len(runs) - 1)
        rich[known[lo:hi]] = runs[at] == probe
    return lines, rich


def _table_rows(table, rows):
    """For each row of rows, the index of the equal row of table, whose
    rows are distinct, or -1 where none is equal: one stable sort of
    both."""
    both = np.concatenate([table, rows])
    order, heads = _sorted_runs(both.T)
    # the stable sort puts a table row at the head of its run
    first = order[heads]
    found = np.where(first < len(table), first, -1)
    index = np.empty(len(both), dtype=np.intp)
    index[order] = np.repeat(found, np.diff(heads, append=len(both)))
    return index[len(table) :]


def _lex_positive(rows):
    """The rows whose first nonzero entry is positive."""
    return rows[rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)] > 0]


def _differences(rows):
    """The distinct rows u - v for u, v in rows (an integer array whose
    dtype holds twice its largest entry), for a block of rows u at a time:
    each block's differences are merged into the distinct rows so far by
    one stable sort."""
    n, d = rows.shape
    out = rows[:0]
    step = max(1, _CHUNK_PAIRS // max(n, 1))
    for b0 in range(0, n, step):
        diff = (rows[b0 : b0 + step, None, :] - rows[None, :, :]).reshape(-1, d)
        both = np.concatenate([out, diff])
        order, heads = _sorted_runs(both.T)
        out = both[order[heads]]
    return out


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
