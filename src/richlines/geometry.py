"""Exact incidence geometry over a nice-basis field.

Lines are stored as coefficient triples A*X + B*Y + C = 0 over the fraction
field, normalized so the first nonzero coefficient (in the order A, B, C) is
the field's unity.  Two CanonicalLines are then equal as lines exactly when
their coordinate triples are identical, which makes them hashable dedup keys.
"""

from fractions import Fraction
from math import comb, gcd, isqrt, prod

import numpy as np

from .errors import DegeneratePairError, InvalidParameterError
from .numberfield import (
    BasisMismatchError,
    Element,
    RationalElement,
    divide,
    integer_inverse,
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

    def sort_key(self):
        return (self.x.coords, self.y.coords)

    def __eq__(self, other):
        return isinstance(other, Point) and self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x.coords, self.y.coords))

    def __repr__(self):
        return f"Point({self.x.coords}, {self.y.coords})"


class CanonicalLine:
    """A line A*X + B*Y + C = 0 with RationalElement coefficients, normalized
    so the first nonzero coefficient is unity."""

    __slots__ = ("basis", "a", "b", "c", "_hash")

    def __init__(self, basis, a, b, c):
        self.basis = basis
        self.a = a
        self.b = b
        self.c = c
        self._hash = hash((a.coords, b.coords, c.coords))

    def coeffs(self):
        return (self.a, self.b, self.c)

    def sort_key(self):
        out = []
        for coeff in (self.a, self.b, self.c):
            for f in coeff.coords:
                out.append((f.numerator, f.denominator))
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, CanonicalLine)
            and self.basis == other.basis
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"CanonicalLine(a={self.a!r}, b={self.b!r}, c={self.c!r})"


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


def canonicalize_triple(basis, a, b, c):
    """Normalize an integer coefficient triple to a CanonicalLine.

    Repeated triples are common (every pair on a line reproduces one of a few
    integer triples), so results are cached per basis keyed on the
    content-reduced triple.
    """
    if a.is_zero() and b.is_zero():
        raise DegeneratePairError("degenerate line: A and B both zero")
    flat = list(a.coords) + list(b.coords) + list(c.coords)
    g = 0
    for v in flat:
        g = gcd(g, abs(v))
    if g > 1:
        flat = [v // g for v in flat]
    for v in flat:
        if v:
            if v < 0:
                flat = [-w for w in flat]
            break
    key = tuple(flat)
    cache = basis._line_cache
    line = cache.get(key)
    if line is None and basis.degree == 1:
        ka, kb, kc = key
        pivot = ka if ka else kb
        line = CanonicalLine(
            basis,
            RationalElement(basis, (Fraction(ka, pivot),)),
            RationalElement(basis, (Fraction(kb, pivot),)),
            RationalElement(basis, (Fraction(kc, pivot),)),
        )
        cache[key] = line
    if line is None:
        d = basis.degree
        pivot = key[:d] if any(key[:d]) else key[d : 2 * d]
        q, delta = integer_inverse(basis, pivot)
        mul = basis.mul_coords
        coeffs = [
            RationalElement(
                basis, tuple(Fraction(v, delta) for v in mul(part, q))
            )
            for part in (key[:d], key[d : 2 * d], key[2 * d :])
        ]
        line = CanonicalLine(basis, *coeffs)
        cache[key] = line
    return line


def line_through(p, q):
    """CanonicalLine through two distinct points; both satisfy it exactly."""
    if p.basis != q.basis:
        raise BasisMismatchError("points from different bases")
    if p == q:
        raise DegeneratePairError("need two distinct points")
    a, b, c = raw_line_coeffs(p, q)
    return canonicalize_triple(p.basis, a, b, c)


def on_line(p, line):
    """Exact incidence test A*p.x + B*p.y + C == 0."""
    if p.basis != line.basis:
        raise BasisMismatchError("point and line from different bases")
    val = line.a * p.x + line.b * p.y + line.c
    return val.is_zero()


def _richness_from_pairs(pair_count):
    """Invert pair_count = k*(k-1)/2 to the number k of points on the line."""
    k = (1 + isqrt(1 + 8 * pair_count)) // 2
    if k * (k - 1) // 2 != pair_count:
        raise AssertionError(
            f"pair count {pair_count} is not triangular; duplicate points?"
        )
    return k


def _check_distinct(points):
    seen = set()
    for p in points:
        key = (p.x.coords, p.y.coords)
        if key in seen:
            raise InvalidParameterError(f"duplicate point {p!r}")
        seen.add(key)


def _reduce_flat(flat):
    """Content-reduce a flat integer triple and fix the overall sign."""
    flat = tuple(flat)
    g = 0
    for v in flat:
        g = gcd(g, v if v >= 0 else -v)
    if g > 1:
        flat = tuple(v // g for v in flat)
    for v in flat:
        if v:
            if v < 0:
                flat = tuple(-w for w in flat)
            break
    return flat


def _raw_pair_counts_loop(basis, xs, ys):
    """Pure-Python reference of group_pairs: {reduced raw key: [pair count,
    i, j]} with (i, j) the first pair, in row-major order, giving the key."""
    mul = basis.mul_coords
    raw = {}
    n = len(xs)
    for i in range(n):
        px, py = xs[i], ys[i]
        for j in range(i + 1, n):
            qx, qy = xs[j], ys[j]
            a = tuple(u - v for u, v in zip(qy, py))
            b = tuple(u - v for u, v in zip(px, qx))
            c = tuple(u - v for u, v in zip(mul(py, qx), mul(px, qy)))
            key = _reduce_flat(a + b + c)
            entry = raw.get(key)
            if entry is None:
                raw[key] = [1, i, j]
            else:
                entry[0] += 1
    return raw


# Pairs (or key rows) per chunk; bounds the temporaries of group_pairs,
# shift_keys and key_tuples.
_CHUNK_PAIRS = 1 << 14


def product_bounds(basis, u, v):
    """Per coordinate k, the largest |(x * y)_k| over coordinate vectors with
    |x_i| <= u and |y_j| <= v: u v sum_ij |c_ijk|."""
    d = basis.degree
    sc = basis.structure_constants
    return [
        u * v * sum(abs(sc[i][j][k]) for i in range(d) for j in range(d))
        for k in range(d)
    ]


def key_radices(basis, mx, my):
    """Per-entry radix of a packed raw key for coordinates bounded by mx
    (x) and my (y): |a| <= 2 my, |b| <= 2 mx, |c_k| <= 2 product_bound_k.
    Every intermediate of group_pairs stays below its entry's bound."""
    d = basis.degree
    return (
        [4 * my + 1] * d
        + [4 * mx + 1] * d
        + [4 * m + 1 for m in product_bounds(basis, mx, my)]
    )


def _words(radices):
    """Split the key entries into consecutive runs (start, stop) whose radix
    product fits in int64, greedily from the first entry."""
    words, start, size = [], 0, 1
    for k, radix in enumerate(radices):
        if size * radix > 2**63:
            words.append((start, k))
            start, size = k, 1
        size *= radix
    words.append((start, len(radices)))
    return words


def group_pairs(basis, xs, ys):
    """Group the point pairs i < j by the line they span.

    xs, ys: the x and y coordinate vectors of n distinct points.  The key of
    a pair is the flat integer triple (a, b, c) = (y_j - y_i, x_i - x_j,
    y_i x_j - x_i y_j), content-reduced with its first nonzero entry made
    positive, as _reduce_flat gives it.  Returns (keys, counts, first): the
    distinct keys as rows in lexicographic order, the number of pairs giving
    each, and the (i, j) of the first such pair in row-major order.

    Keys are packed by mixed radix into as few int64 words as key_radices
    allows (one for desk-scale boxes and cells)
    and grouped by one stable sort.  Only when a single key entry could
    leave int64 does the exact pure-Python loop answer instead, with keys as
    an object array of Python ints.
    """
    d = basis.degree
    n = len(xs)
    mx = max((abs(int(v)) for row in xs for v in row), default=0)
    my = max((abs(int(v)) for row in ys for v in row), default=0)
    radices = key_radices(basis, mx, my)
    if max(radices) > 2**63:
        xs = [tuple(map(int, row)) for row in xs]
        ys = [tuple(map(int, row)) for row in ys]
        raw = _raw_pair_counts_loop(basis, xs, ys)
        keys = sorted(raw)
        return (
            np.array(keys, dtype=object).reshape(len(keys), 3 * d),
            np.array([raw[k][0] for k in keys], dtype=np.int64),
            np.array([raw[k][1:] for k in keys], dtype=np.int64).reshape(-1, 2),
        )
    x = np.array(xs, dtype=np.int64).reshape(n, d)
    y = np.array(ys, dtype=np.int64).reshape(n, d)
    sc = np.array(basis.structure_constants, dtype=np.int64).reshape(d * d, d)
    words = _words(radices)
    offset = np.array([r // 2 for r in radices], dtype=np.int64)
    # weight of each entry inside its word
    weight = np.array(
        [prod(radices[k + 1 : b]) for a, b in words for k in range(a, b)],
        dtype=np.int64,
    )
    anchors = np.arange(n, dtype=np.int64)
    # index of pair (i, i + 1) in row-major order
    start = anchors * (n - 1) - anchors * (anchors - 1) // 2
    total = n * (n - 1) // 2
    packed = np.empty((len(words), total), dtype=np.int64)
    for p0 in range(0, total, _CHUNK_PAIRS):
        i, j = _pairs_at(start, np.arange(p0, min(p0 + _CHUNK_PAIRS, total)))
        xi, xj, yi, yj = x[i], x[j], y[i], y[j]
        c = (
            yi[:, :, None] * xj[:, None, :] - xi[:, :, None] * yj[:, None, :]
        ).reshape(-1, d * d) @ sc
        rows = np.concatenate([yj - yi, xi - xj, c], axis=1)
        rows //= np.gcd.reduce(rows, axis=1)[:, None]
        lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
        rows[lead < 0] *= -1
        rows += offset
        for w, (a, b) in enumerate(words):
            packed[w, p0 : p0 + len(rows)] = rows[:, a:b] @ weight[a:b]
    # a stable sort puts each key's first pair at the head of its run
    order = np.lexsort(packed[::-1])
    packed = packed[:, order]
    head = np.ones(total, dtype=bool)
    head[1:] = (packed[:, 1:] != packed[:, :-1]).any(axis=0)
    heads = np.flatnonzero(head)
    counts = np.diff(heads, append=total)
    first = order[heads]
    uniq = packed[:, heads]
    del order, packed, head
    # the narrowest signed type that holds every key entry
    dtype = next(
        t for t in (np.int8, np.int16, np.int32, np.int64)
        if max(radices) // 2 <= np.iinfo(t).max
    )
    keys = np.empty((len(heads), 3 * d), dtype=dtype)
    for w, (a, b) in enumerate(words):  # column by column keeps the temporaries small
        for k in range(a, b):
            keys[:, k] = uniq[w] // weight[k] % radices[k] - offset[k]
    return keys, counts, np.stack(_pairs_at(start, first), axis=1)


def shift_keys(basis, keys, tx, ty):
    """The key rows (a, b, c) of lines moved by the translate (tx, ty):
    (a, b, c - a*tx - b*ty), as tuples of Python ints.

    The coordinates of a*tx + b*ty are integer combinations of those of a
    and b, so a reduced, sign-fixed key stays reduced and sign-fixed.  Each
    block of rows is shifted in int64 when product_bounds keep every entry
    inside it, and in exact Python ints otherwise.
    """
    d = basis.degree
    shift = max(abs(v) for v in tx + ty)
    for b0 in range(0, len(keys), _CHUNK_PAIRS):
        block = keys[b0 : b0 + _CHUNK_PAIRS]
        coeff = int(np.abs(block[:, : 2 * d]).max(initial=0))
        bound = int(np.abs(block[:, 2 * d :]).max(initial=0)) + 2 * max(
            product_bounds(basis, coeff, shift)
        )
        dtype = np.int64 if bound < 2**63 else object
        block = block.astype(dtype)
        # u @ tx_m gives the coordinates of u * tx for coordinate rows u
        sc = np.array(basis.structure_constants, dtype=dtype)
        tx_m, ty_m = (
            np.tensordot(sc, np.array(t, dtype=dtype), axes=([1], [0]))
            for t in (tx, ty)
        )
        block[:, 2 * d :] -= block[:, :d] @ tx_m + block[:, d : 2 * d] @ ty_m
        yield from key_tuples(block)


def key_tuples(keys):
    """The rows of a key array as tuples of Python ints, converted a block
    of rows at a time to bound the intermediate lists."""
    for b in range(0, len(keys), _CHUNK_PAIRS):
        yield from zip(*keys[b : b + _CHUNK_PAIRS].T.tolist())


def _pairs_at(start, p):
    """(i, j) of the pairs with row-major indices p."""
    i = np.searchsorted(start, p, side="right") - 1
    return i, p - start[i] + i + 1


def _raw_counts(points, threshold=1):
    """{reduced raw key: pair count} for the keys of at least threshold pairs."""
    keys, counts, _ = group_pairs(
        points[0].basis, [p.x.coords for p in points], [p.y.coords for p in points]
    )
    if threshold > 1:
        keep = counts >= threshold
        keys, counts = keys[keep], counts[keep]
    return dict(zip(key_tuples(keys), counts.tolist()))


def _line_counts(points):
    """{line key: pair count}.  Degree-1 primitive triples are already unique
    per line over Q; higher degrees merge unit multiples first."""
    basis = points[0].basis
    raw = _raw_counts(points)
    if basis.degree == 1:
        return raw
    return _merge_raw_by_line(basis, raw)


def _merge_raw_by_line(basis, raw):
    """Merge reduced raw keys that are unit multiples of the same line.

    Multiplying a key by the inverse of its pivot and content-reducing gives
    a primitive integer representative of the canonical triple, so two raw
    keys map together exactly when they denote the same line.  Everything
    stays in integer arithmetic; CanonicalLine objects are only built later
    for the keys a caller actually reports.
    """
    d = basis.degree
    mul = basis.mul_coords
    out = {}
    for key, cnt in raw.items():
        pivot = key[:d] if any(key[:d]) else key[d : 2 * d]
        q, _ = integer_inverse(basis, pivot)
        ck = _reduce_flat(
            mul(key[:d], q) + mul(key[d : 2 * d], q) + mul(key[2 * d :], q)
        )
        out[ck] = out.get(ck, 0) + cnt
    return out


def _canonical_from_key(basis, key):
    d = basis.degree
    return canonicalize_triple(
        basis,
        Element(basis, key[:d]),
        Element(basis, key[d : 2 * d]),
        Element(basis, key[2 * d :]),
    )


def line_pair_counts(points):
    """Map each spanned line to its number of unordered point pairs."""
    points = list(points)
    if len(points) < 2:
        return {}
    _check_distinct(points)
    basis = points[0].basis
    return {
        _canonical_from_key(basis, key): cnt
        for key, cnt in _line_counts(points).items()
    }


def rich_lines_bruteforce(points, r):
    """All lines containing at least r points of P, with exact richness.

    The O(n^2) pair-grouping oracle: deterministic output, keys sorted by
    canonical triple.
    """
    if r < 2:
        raise InvalidParameterError("r must be at least 2")
    points = list(points)
    if len(points) < 2:
        return {}
    _check_distinct(points)
    basis = points[0].basis
    threshold = comb(r, 2)
    if basis.degree == 1:
        counts = _raw_counts(points, threshold)
    else:
        counts = {
            key: cnt
            for key, cnt in _line_counts(points).items()
            if cnt >= threshold
        }
    lines = {_canonical_from_key(basis, key): cnt for key, cnt in counts.items()}
    return {
        line: _richness_from_pairs(lines[line])
        for line in sorted(lines, key=CanonicalLine.sort_key)
    }


def count_incidences(points, lines):
    """Exact number of (point, line) incidences."""
    total = 0
    for line in lines:
        for p in points:
            if on_line(p, line):
                total += 1
    return total


def beck_statistic(points):
    """(max collinear points, number of distinct 2-rich lines), exactly."""
    points = list(points)
    if len(points) < 2:
        raise InvalidParameterError("need at least 2 points")
    _check_distinct(points)
    counts = _line_counts(points)
    max_collinear = max(_richness_from_pairs(c) for c in counts.values())
    return max_collinear, len(counts)


def pair_grouping_identity(points):
    """sum over lines of C(richness, 2) == C(|P|, 2); exact sanity identity."""
    points = list(points)
    counts = line_pair_counts(points)
    lhs = sum(comb(_richness_from_pairs(c), 2) for c in counts.values())
    return lhs == comb(len(points), 2)


# ---------------------------------------------------------------------------
# Line-oriented text interchange: one point per row as 2d integers, one line
# per row as 3d rationals "num/den".


def points_to_text(points):
    rows = []
    for p in points:
        rows.append(" ".join(str(c) for c in (*p.x.coords, *p.y.coords)))
    return "\n".join(rows) + ("\n" if rows else "")


def points_from_text(text, basis):
    d = basis.degree
    points = []
    for row in text.splitlines():
        row = row.strip()
        if not row:
            continue
        vals = [int(v) for v in row.split()]
        if len(vals) != 2 * d:
            raise InvalidParameterError(
                f"point row needs {2 * d} integers, got {len(vals)}"
            )
        points.append(Point(Element(basis, vals[:d]), Element(basis, vals[d:])))
    return points


def lines_to_text(lines):
    rows = []
    for line in lines:
        parts = []
        for coeff in line.coeffs():
            for f in coeff.coords:
                parts.append(f"{f.numerator}/{f.denominator}")
        rows.append(" ".join(parts))
    return "\n".join(rows) + ("\n" if rows else "")


def lines_from_text(text, basis):
    d = basis.degree
    lines = []
    for row in text.splitlines():
        row = row.strip()
        if not row:
            continue
        vals = [Fraction(v) for v in row.split()]
        if len(vals) != 3 * d:
            raise InvalidParameterError(
                f"line row needs {3 * d} rationals, got {len(vals)}"
            )
        lines.append(
            CanonicalLine(
                basis,
                RationalElement(basis, vals[:d]),
                RationalElement(basis, vals[d : 2 * d]),
                RationalElement(basis, vals[2 * d :]),
            )
        )
    return lines
