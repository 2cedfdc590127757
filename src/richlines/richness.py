"""Exact richness of key rows against the box point set.

One batched counter, _key_richnesses, counts every richness in blocks
(_blocks), by one rule per degree: in degree 1 in closed form, O(1) per
line (a residue class inside an interval), and in every higher degree by
keys x box columns.  Each rule computes in the dtype _exact_dtype picks for
its bound (_closed_form_bound, _block_bound), object past int64.

Given r > 0, the counter is the tuning gate: it counts the keys in the
order given, one block at a time, and stops at the first block that holds
a line below r.  Either way it cuts a key array into blocks once.
"""

import numpy as np

from .keys import _CHUNK_PAIRS, _cost_blocks
from .numberfield import (
    _cofactor_bound, _cofactor_solve, _exact_dtype, _mul_matrix, product_bounds
)


def _key_richnesses(basis, keys, box, r=0):
    """Exact richness of each key row (a, b, c) in the box, as an int64
    array, one block of _blocks at a time: in closed form in degree 1
    (_by_closed_form), and by columns (_by_columns) in higher degrees.
    Counting stops after the first block that holds a key below r, and the
    keys past that block read -1; at r = 0 every key is counted."""
    d = basis.degree
    keys = np.reshape(keys, (len(keys), 3 * d))
    out = np.full(len(keys), -1, dtype=np.int64)
    count = _by_closed_form if d == 1 else _by_columns
    for block in _blocks(basis, keys, box):
        count(basis, keys[block], box, out[block])
        if (out[block] < r).any():
            break
    return out


def _blocks(basis, keys, box):
    """The slices of key rows _key_richnesses counts at once.  A key costs
    its (key, column) pairs: one in closed form (degree 1), else the columns
    of the axis _by_columns solves it along, |Y| if b = 0, else |X|.
    keys._cost_blocks cuts blocks of budget _CHUNK_PAIRS; in degree 1,
    where every cost is 1, its slices are cut in closed form, with no cost
    array."""
    d = basis.degree
    if d == 1:
        return [slice(k, k + _CHUNK_PAIRS) for k in range(0, len(keys), _CHUNK_PAIRS)]
    cost = np.where((keys[:, d : 2 * d] != 0).any(axis=1), len(box.x_set), len(box.y_set))
    return _cost_blocks(cost, _CHUNK_PAIRS)


def _by_closed_form(basis, keys, box, out):
    """Count into out the richness of each degree-1 key row (a, b, c), O(1)
    per key.

    With l the basis vector and l l = k l, the box points are (sx i, sy j)
    for |i| <= Rx and |j| <= Ry, and one lies on the line when A i + B j + c
    = 0 for A = k a sx and B = k b sy.  The box is symmetric, so i -> -i and
    j -> -j take A and B to |A| and |B| without changing the count; let A,
    B >= 0, and g = gcd(A, B).  No point lies on the line unless g divides
    c.  A line with B = 0 then holds 2 Ry + 1 points if |c| / g <= Rx, and
    one with A = 0 holds 2 Rx + 1 if |c| / g <= Ry.  Otherwise j is an
    integer exactly when i = i0 mod m, for m = B / g and i0 = -(c / g) inv
    mod m, with inv the inverse of A / g mod m; and |j| <= Ry exactly when
    -(B Ry + c) / A <= i <= (B Ry - c) / A.  Floor divisions count the class
    inside that interval cut to |i| <= Rx.

    g, m and inv are computed once per run of consecutive keys with one
    direction (a, b), and hold for every key of the run.  Keys in any order
    are counted; a family's and a probe's, in lexicographic order, hold each
    direction in one run, so nothing sorts them.  Every array takes the
    dtype _exact_dtype picks for _closed_form_bound, object (exact Python
    ints) past int64."""
    (rx, sx), (ry, sy) = ((s.radius, s.scale) for s in (box.x_set, box.y_set))
    k = abs(basis.structure_constants[0][0][0])
    dtype = _exact_dtype(_closed_form_bound(basis, keys, box))
    # the runs of consecutive keys with one direction, and each key's run
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[1:, 0] != keys[:-1, 0]) | (keys[1:, 1] != keys[:-1, 1])
    heads, which = np.flatnonzero(new), np.cumsum(new) - 1
    ab = np.abs(keys[heads, :2].astype(dtype))
    a, b = ab[:, 0] * (k * sx), ab[:, 1] * (k * sy)
    g = np.gcd(a, b)
    m = np.where(b == 0, 1, b // g)
    inv = [pow(u, -1, v) for u, v in zip((a // g).tolist(), m.tolist())]
    a, b, g, m, inv = (v[which] for v in (a, b, g, m, np.array(inv, dtype=dtype)))
    c = keys[:, 2].astype(dtype)
    q = c // g
    i0 = (-q % m) * inv % m
    safe = np.where(a == 0, 1, a)
    lo = np.maximum(-((b * ry + c) // safe), -rx)
    hi = np.minimum((b * ry - c) // safe, rx)
    count = np.maximum((hi - i0) // m - (lo - 1 - i0) // m, 0)
    vertical, flat = b == 0, a == 0
    count[vertical] = (2 * ry + 1) * (np.abs(q[vertical]) <= rx)
    count[flat] = (2 * rx + 1) * (np.abs(q[flat]) <= ry)
    count *= q * g == c
    out[:] = count


def _closed_form_bound(basis, keys, box):
    """A bound on every intermediate of _by_closed_form: with A and B the
    largest |k a sx| and |k b sy| and C the largest |c|, (-c / g mod m) inv
    is below B^2, (c // g) g lies within C + A + B, and the interval ends,
    cut or not, and their floor quotients by m lie within B (Ry + 1) + C + R
    + 1 for R the larger radius, so their differences lie within twice
    that."""
    (rx, sx), (ry, sy) = ((s.radius, s.scale) for s in (box.x_set, box.y_set))
    k = abs(basis.structure_constants[0][0][0])
    ma, mb, mc = (int(np.abs(keys[:, i]).max(initial=0)) for i in range(3))
    big_a, big_b = k * ma * sx, k * mb * sy
    return max(
        k * max(sx, sy),
        big_b**2,
        big_a + 2 * (big_b * (ry + 1) + mc + max(rx, ry) + 1),
    )


def _by_columns(basis, keys, box, out):
    """Count into out the richness of each key row by columns.  Each line is
    solved for its pivot's axis (y, or x when b = 0) along every column u
    of the other axis: the solution is -v / det for v = adj(M)(c + other*u)
    and M the pivot's multiplication matrix, so it lies in the box exactly
    when every coordinate of v is divisible by scale*det and at most
    radius*scale*|det|.  It takes one block of _blocks, in the dtype
    _exact_dtype picks for _block_bound, object past int64."""
    d = basis.degree
    vertical = ~(keys[:, d : 2 * d] != 0).any(axis=1)
    for idx, blocks, columns, target in (
        (np.flatnonzero(~vertical), (1, 0, 2), box.x_set, box.y_set),
        (np.flatnonzero(vertical), (0, 1, 2), box.y_set, box.x_set),
    ):
        if not len(idx):
            continue
        cols = columns.coords()
        pivot, other, c = (keys[idx, k * d : (k + 1) * d] for k in blocks)
        dtype = _exact_dtype(_block_bound(basis, pivot, other, c, cols, target))
        # key coordinates as (keys, 1) arrays, column coordinates as (1, columns)
        pivot, other, c = (list(m.astype(dtype).T[:, :, None]) for m in (pivot, other, c))
        # adj(M) c, and adj(M) (other * l_j) for each basis vector l_j
        (v, *other_l), det = _cofactor_solve(basis, pivot, c, *zip(*_mul_matrix(basis, other)))
        for ol, u in zip(other_l, cols.astype(dtype).T[:, None, :]):
            v = [vk + olk * u for vk, olk in zip(v, ol)]
        step = target.scale * det
        hit = [(vk % step == 0) & (np.abs(vk) <= target.radius * np.abs(step)) for vk in v]
        out[idx] = np.all(hit, axis=0).sum(axis=1)


def _block_bound(basis, pivot, other, c, cols, target):
    """A bound on every intermediate of _by_columns on one block, and on the
    column coordinates x: with p, o and C the largest |pivot|, |other| and
    |c| entries, every coordinate of c, of each column other * l_j of
    M_other, and of every partial sum of c + other * u lies within the
    column bound C + product_bounds(o, max(x, 1)).  _cofactor_bound for
    pivots at most p over the column bound then bounds adj(M_pivot) times
    each of them, so every partial sum of v = adj(M_pivot) (c + other * u)
    as _by_columns adds it up, and det(M_pivot).  step = scale * det, v %
    step and radius * |step| lie within max(radius, 1) * scale times its
    det bound."""
    p, o, cc, x = (int(np.abs(m).max(initial=0)) for m in (pivot, other, c, cols))
    column = [cc + v for v in product_bounds(basis, o, max(x, 1))]
    _, det, work = _cofactor_bound(basis, p, column)
    return max(x, *column, work, max(target.radius, 1) * target.scale * det)
