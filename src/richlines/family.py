"""The line family: every line through two points of one translated cell,
as one integer array of primitive keys.

The family is an integer array of primitive keys from translation to
output, in the narrowest integer type that holds them (object past int64),
in raw order: lexicographic in (a, b, c).  Only output sorts it
canonically: lines_to_text when it writes lines.txt, and canonical_least
for the few lines a report names or replays.  CanonicalLines are built
only for lines that are output.

One rule per degree builds it (_family).  In degree 1 the construction's
cell is a grid of consecutive integers, and _grid_lines takes the family in
closed form, one direction at a time: each primitive direction's cell
lines start at the cell points p with p + u in the cell and p - u not, u
the direction's step, and each translate moves a line's intercept by an
amount its direction fixes, so one mask per direction deduplicates the
moved intercepts in order.  No pair is keyed and nothing is sorted but the
cell lines of a block of directions.  The pair route, _raw_family, groups
the cell's pairs once (group_pairs) and moves each cell key to every
translate (_spread); it builds every other family, degree 2 and up and the
tests' arbitrary cells, and it is the reference _grid_lines is pinned to.

No witness is kept as points: LineFamily stores each line's witness as two
index arrays, origin and first, and derives its (translate index, i, j)
rows on demand.
"""

from dataclasses import dataclass

import numpy as np

from .keys import _CHUNK_PAIRS, _pair_kernel, _shift_bound, _sorted_runs, group_pairs, shift_keys
from .numberfield import NiceBasis, _exact_dtype

# Mask slots and cell starts, or moved (line, translate) entries, that
# _grid_lines takes at once: the size of its blocks and chunks.
_GRID_BLOCK = 16 * _CHUNK_PAIRS


@dataclass
class LineFamily:
    """Globally deduplicated lines as an (n, 3d) array of primitive keys in
    raw order (in the narrowest integer type that holds every entry, or
    object past int64): lexicographic, the order _spread leaves them in,
    not canonical.

    A line's smallest witness is (translate index, i, j): the cell points i
    and j moved by that translate.  It is stored as the line's origin, its
    row in the cell's keys moved to every translate and stacked in
    (translate, cell line) order, and the cell's first pair (i, j) on each
    of its lines, first; witness_rows derives the (n, 3) rows asked for.
    The cell and the translates are (points, 2d) coordinate rows, x then y.
    """

    basis: NiceBasis
    keys: np.ndarray
    origin: np.ndarray
    first: np.ndarray
    cell: np.ndarray
    translates: np.ndarray

    def __len__(self):
        return len(self.keys)

    @property
    def cell_lines(self):
        """The number of lines the untranslated cell spans."""
        return len(self.first)

    def witness_rows(self, index):
        """The (translate index, i, j) rows of the lines `index` (an index
        array or slice)."""
        t_idx, line = np.divmod(self.origin[index], len(self.first))
        return np.column_stack([t_idx, self.first[line]])


def _family(basis, cell, translates, grid=None):
    """The LineFamily of a cell and its translates, given as coordinate
    rows: in closed form (_grid_lines) in degree 1 when grid = (w, h) says
    the cell is a w x h grid, else by the pair route (_raw_family)."""
    if grid is not None and basis.degree == 1:
        return LineFamily(basis, *_grid_lines(basis, cell, translates, grid), cell, translates)
    return _raw_family(basis, cell, translates)


def _probe(basis, cell, translates, grid=None):
    """The key rows of the tuning gate's probe, as _corner_keys gives them:
    in closed form (_grid_lines) in degree 1 when grid = (w, h) says the
    cell is a w x h grid, else by _corner_keys."""
    if grid is not None and basis.degree == 1:
        return _grid_lines(basis, cell, translates, grid, corner=True)[0]
    return _corner_keys(basis, cell, translates)


def _raw_family(basis, cell, translates):
    """The LineFamily of a cell and its translates, both given as coordinate
    rows, in raw order.

    The cell's pairs are grouped once and each cell key is moved to every
    translate by _spread; a moved key keeps the cell's first pair on its
    line as its first witness.
    """
    d = basis.degree
    keys, _, first = group_pairs(basis, cell[:, :d], cell[:, d:])
    moved, origin = _spread(basis, keys, translates)
    return LineFamily(basis, moved, origin, first, cell, translates)


def _spread(basis, keys, translates):
    """Key rows of distinct lines, in lexicographic order, moved to every
    translate by one shift_keys broadcast over the translates' coordinate
    rows, deduplicated: the distinct moved rows, and the position of each
    in the moved keys stacked in (translate, key) order.

    A stable sort makes the first translate that reaches a line the head of
    its run.  It keeps one translate's keys, distinct and lexicographic, in
    their order: a shift moves c by an amount that (a, b) fixes.  So one
    translate needs no sort, and each key is its own origin.
    """
    d = basis.degree
    moved = shift_keys(basis, keys, translates[:, :d], translates[:, d:])
    if len(translates) == 1:
        return moved, np.arange(len(moved))
    order, heads = _sorted_runs(moved.T)
    rows = order[heads]
    return moved[rows], rows


def _corner_keys(basis, cell, translates):
    """The probe of the tuning gate: the distinct key rows of the lines
    through the cell's corner (row 0 of the cell, every coordinate at
    -radius) and each other cell point, moved to every translate.

    These are the lines of the cell's first n - 1 pairs in row-major order,
    (0, j), keyed by the kernel of group_pairs.  Each passes through two
    points of one translated cell, so each is a family line.  Several pairs
    can key one line, so the anchor keys are deduplicated before they move.
    _spread's sort would deduplicate them too, but it costs anchor rows x
    translates: at integers n=10^8, alpha=1/2, r=1000 the 48 anchor rows
    hold 25 lines, and moving all 48 to the 444,889 translates doubles the
    probe's memory.
    """
    d = basis.degree
    keys_of, entry = _pair_kernel(basis, cell[:, :d], cell[:, d:])
    j = np.arange(1, len(cell))
    anchor = keys_of(np.zeros_like(j), j).astype(entry)
    order, heads = _sorted_runs(anchor.T)
    return _spread(basis, anchor[order[heads]], translates)[0]


def _grid_lines(basis, cell, translates, grid, corner=False):
    """(keys, origin, first) of the degree-1 family of a grid cell, equal to
    _raw_family's; with corner, the lines through the cell's corner alone,
    whose keys equal _corner_keys'.

    grid = (w, h): the cell rows are the points (x0 + i, y0 + j), 0 <= i <
    w and 0 <= j < h, x-major, as PointBox.coords() gives a degree-1 cell
    (its axes have scale 1).  The translates are any coordinate rows.

    The lines.  With l l = k l, the line through cell points p and q has
    the primitive key (a, b, c) with (a, b) the primitive normal of q - p,
    made lex-positive, and c = -k (a x + b y) for any (x, y) on it.  So the
    directions are the primitive (a, b), a > 0 or a = 0 < b, with a < h and
    |b| < w, in lexicographic order; u = +-(-b, a), the one with ux > 0 or
    ux = 0 < uy, is the step along the line in x-major order.  A line of
    direction u through the cell meets it in a run p0, p0 + u, ..., and it
    spans a pair when p0 + u is in the cell.  So the cell lines of u are
    the starts p with p + u in the cell and p - u not, each the least point
    p0 of its run: p0 + u is the next, and (p0, p0 + u) is the line's first
    pair in row-major order.  The starts are S \\ (S + u) for the box S of
    the points p with p + u in the cell, (w - ux) x (h - |uy|) points; S +
    u meets S in (w - 2 ux)+ x (h - 2 |uy|)+ points, so the count of u's
    cell lines is known before any is built, and with it every line's index
    in the cell's lexicographic keys.  With corner the only start is the
    corner (x0, y0), a start exactly when uy >= 0.  The intercepts of a
    line's points are equal, so the largest |c| of u's cell lines is at a
    corner of S, or at the corner itself: the keys take the dtype
    _shift_bound picks, as shift_keys' do on the cell keys.

    The moves.  A translate (tx, ty) moves c to c - k (a tx + b ty).  With
    z = -sign(k) (a x + b y), c = |k| z, and the moved line has z' = z -
    sign(k) (a tx + b ty), |z'| <= half = a (mx + mtx) + |b| (my + mty) for
    mx, my the largest |cell coordinate| and mtx, mty the largest
    |translate coordinate| on each axis.  So each direction owns a mask of
    2 half + 1 slots, z' + half, in which ascending slots are ascending c.
    Directions go in blocks, their masks side by side: np.minimum.at
    writes t L + l, the index of the cell line l moved by the translate t
    in the stacked order of _spread (L cell lines), into the slot of every
    moved line.  As l < L, the least index is the least (t, l), the row
    that heads the line's run in _spread's stable sort, so the written
    slots in order are the block's lines in lexicographic order with the
    origins _spread gives them.

    Memory.  A direction costs max(2 half + 1, starts): its slots, and the
    start points tested for it (w h, or 1 with corner).  A block is the
    directions whose preceding costs sum into one multiple of _GRID_BLOCK,
    so a block costs less than _GRID_BLOCK + the largest cost, and its
    lines, at most one a slot, come in chunks of translates of at most
    max(_GRID_BLOCK, lines) entries.  So beyond the output, the translate
    rows and the direction arrays (at most h (2 w - 1) entries), the
    working arrays hold O(_GRID_BLOCK + largest cost) entries.

    The slots and origins take the dtype _exact_dtype picks for
    _grid_bound, the keys the one it picks for _shift_bound, and the mask
    indices and first intp.
    """
    k = basis.structure_constants[0][0][0]
    sign = 1 if k > 0 else -1
    w, h = grid
    # the directions (a, b) in lexicographic order, and their steps u
    a, b = np.repeat(np.arange(h), 2 * w - 1), np.tile(np.arange(1 - w, w), h)
    ux, uy = np.abs(b), np.where(b > 0, -a, a)
    keep = (np.gcd(a, b) == 1) & ((a > 0) | (b > 0))
    if corner:
        keep &= uy >= 0
    a, b, ux, uy = (v[keep] for v in (a, b, ux, uy))
    # the start box S of each direction, (w - ux) x (h - |uy|) from (x0, y0 + ylo)
    ylo, yhi = np.maximum(-uy, 0), h - 1 - np.maximum(uy, 0)
    if corner:
        xhi, yhi, starts = np.zeros_like(ux), ylo, (1, 1)
        count = np.ones_like(ux)
    else:
        xhi, starts = w - 1 - ux, (w, h)
        width, height = w - ux, h - np.abs(uy)
        count = width * height - np.maximum(width - ux, 0) * np.maximum(height - np.abs(uy), 0)
    lines = int(count.sum())

    x, y = cell[::h, 0], cell[:h, 1]
    tx, ty = translates[:, 0], translates[:, 1]
    mx, my, mtx, mty = (int(np.abs(v).max(initial=0)) for v in (x, y, tx, ty))
    bound = _grid_bound(grid, mx + mtx, my + mty, starts, len(a), lines, len(tx))
    work = _exact_dtype(bound)
    x, y, tx, ty, a, b = (v.astype(work) for v in (x, y, tx, ty, a, b))
    # the largest |a x + b y| of a cell line is at a corner of S
    cx, cy = x[0] + np.stack([np.zeros_like(xhi), xhi]), y[0] + np.stack([ylo, yhi])
    corners = a * cx[:, None] + b * cy
    const = abs(k) * int(np.abs(corners).max(initial=0))
    coeff = max(int(a.max(initial=1)), int(np.abs(b).max(initial=1)))
    entry = _exact_dtype(_shift_bound(basis, coeff, const, max(mtx, mty)))

    half = a * (mx + mtx) + np.abs(b) * (my + mty)
    slots = 2 * half + 1
    cost = np.maximum(slots, starts[0] * starts[1])
    group = (np.cumsum(cost) - cost) // _GRID_BLOCK
    heads = np.flatnonzero(group[1:] != group[:-1]) + 1
    cuts = [0, *heads.tolist(), len(a)] if len(a) else []
    line0 = np.cumsum(count) - count  # each direction's first cell line
    a_key, b_key = a.astype(entry), b.astype(entry)
    keys, origin, first = [], [], []
    si, sj = np.arange(starts[0])[:, None], np.arange(starts[1])
    top = lines * len(tx)  # past every t L + l
    for d0, d1 in zip(cuts, cuts[1:]):
        block = slice(d0, d1)
        # the starts (direction, i, j): p + u in the cell, p - u not
        u, v = ux[block, None, None], uy[block, None, None]
        start = (si < w - u) & (sj + v >= 0) & (sj + v < h)
        start &= (si < u) | (sj < v) | (sj >= h + v)
        row, i = np.divmod(np.flatnonzero(start), starts[0] * starts[1])
        i, j = np.divmod(i, starts[1])
        offset = np.cumsum(slots[block]) - slots[block]
        base = offset + half[block]
        # each cell line's slot, unmoved: the block's lines in key order
        slot = base[row] - sign * (a[block][row] * x[i] + b[block][row] * y[j])
        order = np.argsort(slot)
        slot, i, j = slot[order].astype(np.intp), i[order], j[order]
        # in key order the block's lines go direction by direction
        per = count[block]
        step_x, step_y = np.repeat(ux[block], per), np.repeat(uy[block], per)
        first.append(np.column_stack([i * h + j, (i + step_x) * h + j + step_y]))
        line = np.arange(len(slot), dtype=work) + int(line0[d0])
        mask = np.full(int(offset[-1] + slots[d1 - 1]), top, dtype=work)
        step = max(1, _GRID_BLOCK // len(slot))
        for t0 in range(0, len(tx), step):
            t = slice(t0, t0 + step)
            # (translate, direction), then (translate, line)
            shift = -sign * (tx[t, None] * a[block] + ty[t, None] * b[block])
            moved = np.repeat(shift.astype(np.intp), per, axis=1)
            moved += slot
            index = line + np.arange(t0, t0 + len(shift), dtype=work)[:, None] * lines
            np.minimum.at(mask, moved.ravel(), index.ravel())
            del moved, index  # freed before the next arrays: a smaller heap is faster
        hit = np.flatnonzero(mask < top)
        origin.append(mask[hit].astype(np.intp))
        del mask
        # each direction's slots are consecutive: its hits are one run
        runs = np.diff(np.searchsorted(hit, offset), append=len(hit))
        block_keys = np.empty((len(hit), 3), dtype=entry)
        block_keys[:, 0] = np.repeat(a_key[block], runs)
        block_keys[:, 1] = np.repeat(b_key[block], runs)
        # the cast is exact: |z'| <= |c|, within the keys' bound
        np.subtract(hit, np.repeat(base, runs), out=block_keys[:, 2], casting="unsafe")
        block_keys[:, 2] *= abs(k)
        keys.append(block_keys)
    if len(keys) == 1:
        return keys[0], origin[0], first[0]
    if not keys:
        return np.empty((0, 3), entry), np.empty(0, np.intp), np.empty((0, 2), np.intp)
    return np.concatenate(keys), np.concatenate(origin), np.concatenate(first)


def _grid_bound(grid, sx, sy, starts, directions, lines, translates):
    """A bound on every intermediate _grid_lines computes in its work dtype,
    for a w x h grid cell with sx = mx + mtx and sy = my + mty (see
    _grid_lines), starts = (w, h) or (1, 1) the start box tested per
    direction: every coordinate is at most sx or sy, and every half at most
    H = (h - 1) sx + (w - 1) sy, as a < h and |b| < w.  a x + b y, a tx +
    b ty and their sum lie within half; a slot, moved or not, and every
    cumulative cost lie within directions (2 H + 1 + w h); a cell line
    index is below lines, and t L + l below lines x translates, the mask's
    empty value."""
    w, h = grid
    big_h = (h - 1) * sx + (w - 1) * sy
    return max(sx, sy, directions * (2 * big_h + 1 + starts[0] * starts[1]), lines * translates)
