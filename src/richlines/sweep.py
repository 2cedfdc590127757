"""The oracle's direction sweep over a box X x Y.

_sweep groups the box's points by packed intercept (_InterceptWords), one
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
"""

import numpy as np

from .errors import InvalidParameterError
from .keys import _CHUNK_PAIRS, _primitive_rows, _sorted_runs, _work_rows
from .numberfield import _exact_dtype, _mul_rows, product_bounds


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
