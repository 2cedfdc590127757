"""The line family: every line through two points of one translated cell,
as one integer array of primitive keys.

The family is an integer array of primitive keys from translation to
output, in the narrowest integer type that holds them (object past int64):
one broadcast moves the cell's keys to every translate and one sort
deduplicates them.  The family stays in that raw order.  Only output sorts
it: lines_to_text when it writes lines.txt, and canonical_least for the few
lines a report names or replays.  CanonicalLines are built only for lines
that are output.

No witness is kept as points: LineFamily stores each line's witness as two
index arrays, origin and first, and derives its (translate index, i, j)
rows on demand.
"""

from dataclasses import dataclass

import numpy as np

from .keys import _pair_kernel, _sorted_runs, group_pairs, shift_keys
from .numberfield import NiceBasis


@dataclass
class LineFamily:
    """Globally deduplicated lines as an (n, 3d) array of primitive keys in
    raw order (in the narrowest integer type that holds every entry, or
    object past int64): the order _spread leaves them in, not canonical.

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
    """Key rows of distinct lines moved to every translate by one
    shift_keys broadcast over the translates' coordinate rows, deduplicated:
    the distinct moved rows, and the position of each in the moved keys
    stacked in (translate, key) order.

    A stable sort makes the first translate that reaches a line the head of
    its run.  It keeps one translate's keys, distinct and lexicographic, in
    their order: a shift moves c by an amount that (a, b) fixes.
    """
    d = basis.degree
    moved = shift_keys(basis, keys, translates[:, :d], translates[:, d:])
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
