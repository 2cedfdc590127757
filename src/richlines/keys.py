"""The primitive key of a line, and the pair kernel that keys point pairs.

A line A*X + B*Y + C = 0 is identified by its primitive key: the flat
integer triple (A, B, C) scaled so that the pivot (A, or B when A = 0) is an
integer multiple of the field's unity, content-reduced, with its first
nonzero entry positive.  Two triples give the same line exactly when their
primitive keys are equal, so the keys are the dedup identity from the pair
kernel through to output.  _primitive_key keys one triple, and the
cofactor step _primitive_rows keys an array of them.

Points enter the kernels as integer coordinate rows.  group_pairs keys
every pair of an arbitrary list of points, given by their x and y rows, in
chunks of _CHUNK_PAIRS pairs, and groups the keys by one stable sort,
_sorted_runs; the construction builds its family with it, and shift_keys
moves its key rows to the translates.  Each kernel computes in the dtype
_exact_dtype picks for a bound it proves first: key_bound for the pair
kernel.
"""

from functools import reduce
from math import gcd, isqrt

import numpy as np

from .errors import DegeneratePairError
from .numberfield import _adjugate, _cofactor_solve, _exact_dtype, _mul_rows, product_bounds


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
    once to the dtype _exact_dtype picks for _shift_bound; _mul_rows takes
    a*tx and b*ty over (translate, key).
    """
    d = basis.degree
    tx, ty = (np.array(t, dtype=object).reshape(-1, d) for t in (tx, ty))
    shift = int(max(np.abs(tx).max(initial=0), np.abs(ty).max(initial=0)))
    coeff = int(np.abs(keys[:, : 2 * d]).max(initial=1))
    const = int(np.abs(keys[:, 2 * d :]).max(initial=0))
    dtype = _exact_dtype(_shift_bound(basis, coeff, const, shift))
    keys, tx, ty = (m.astype(dtype) for m in (keys, tx, ty))
    moved = np.repeat(keys[None], len(tx), axis=0)
    a, b = keys[None, :, :d], keys[None, :, d : 2 * d]
    moved[:, :, 2 * d :] -= _mul_rows(basis, a, tx[:, None]) + _mul_rows(basis, b, ty[:, None])
    return moved.reshape(-1, 3 * d)


def _shift_bound(basis, coeff, const, shift):
    """The bound shift_keys picks its dtype for, given keys whose a and b
    entries are at most coeff and whose c entries are at most const, and
    translates whose coordinates are at most shift: a moved c_k is c_k -
    (a tx)_k - (b ty)_k, so every partial sum lies within const + 2 max
    product_bounds(coeff, shift), and _mul_rows meets c_lambda."""
    return max(coeff, const + 2 * max(product_bounds(basis, coeff, shift)), basis.c_lambda)


def key_tuples(keys):
    """The rows of a key array as tuples of Python ints, converted a block
    of rows at a time to bound the intermediate lists."""
    for b in range(0, len(keys), _CHUNK_PAIRS):
        yield from zip(*keys[b : b + _CHUNK_PAIRS].T.tolist())


def _pairs_at(start, p):
    """(i, j) of the pairs with row-major indices p."""
    i = np.searchsorted(start, p, side="right") - 1
    return i, p - start[i] + i + 1
