"""The translate construction: point set, cell, translate lattice, line
family, and exact verifiers for its claimed statistics.

The pipeline takes P = A_{n^a}(Lambda) x A_{n^(1-a)}(Lambda), carves out the
much smaller cell P' = A_{C1 n^a / r} x A_{C1 n^(1-a) / r}, translates it by
the lattice A_r(s Lambda) x A_r(s' Lambda), and collects every line spanned
by two points of a translated cell.  With a small enough cell constant C1,
every collected line is r-rich in P; the verifiers check that and the rate
statistics by exact counting.

Points are integer coordinate rows throughout: PointBox.coords() gives the
box, the cell PointBox(cell_x, cell_y) and the translates PointBox(trans_x,
trans_y) as (size, 2d) arrays, x then y.  The family is an integer array of
primitive keys from translation to output, in the narrowest integer type
that holds them (object past int64): one broadcast moves the cell's keys to
every translate, one sort deduplicates them, another puts them in canonical
order, and CanonicalLines are built only for lines that are output.  One
batched counter, _key_richnesses, counts every richness, by one rule per
degree: in degree 1 in closed form, O(1) per line (a residue class inside
an interval), and in every higher degree by keys x box columns.  A build
only builds, and keeps the tuning gate's counts;
verify_claim2 counts the lines of a fixed-c1 build, so each family key is
counted once, and replays the multiplier mechanism in one array computation.
A run builds no Point or Element and one CanonicalLine, the failing line it
reports; LineFamily.witness_points builds Points on demand.

Each auto-tuning attempt gates a probe first: the lines through the cell's
corner and each other cell point, moved to every translate.  A probe line
passes through two points of one translated cell, so it is a family line,
and one below r rejects the attempt exactly as the full gate would.  The
cell's pairs are grouped only when the probe passes, so the verdict, the
accepted c1 and the family are the full gate's.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, floor

import numpy as np

from .errors import InvalidParameterError, RichlinesError, RTooLargeError
from .gapset import (
    GapSet,
    floor_scaled_root,
    gap_set,
    gap_set_power,
    iroot,
    scaled_power_le,
)
from .geometry import (
    _CHUNK_PAIRS,
    CanonicalLine,
    Point,
    _exact_dtype,
    _pair_kernel,
    _sorted_runs,
    canonical_order,
    group_pairs,
    key_tuples,
    lines_to_text,
    product_bounds,
    shift_keys,
)
from .numberfield import Element, NiceBasis, _cofactor_solve, _mul_matrix

ALPHA_GRID = (
    Fraction(1, 5),
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(2, 5),
    Fraction(1, 2),
)

# The most points one exact pass takes: the cell a family is built from,
# whose pairs are grouped in memory, and the box the oracle sweeps.
POINT_CAP = 50_000


class AutoTuneError(RichlinesError, RuntimeError):
    """No halving of the cell constant made every line r-rich (the only
    test: translates are disjoint by construction, step > 2 (step // 3))."""


@dataclass(frozen=True)
class ConstructionParams:
    basis: NiceBasis
    n: int
    alpha: Fraction
    r: int
    c1: Fraction = Fraction(1)
    auto_tune: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "c1", Fraction(self.c1))
        if self.n < 2:
            raise InvalidParameterError("n must be at least 2")
        if not (0 < self.alpha <= Fraction(1, 2)):
            raise InvalidParameterError("alpha must lie in (0, 1/2]")
        if self.r < 2:
            raise InvalidParameterError("r must be at least 2")
        # r <= n^alpha, decided exactly: r^q <= n^p for alpha = p/q.
        p, q = self.alpha.numerator, self.alpha.denominator
        if self.r**q > self.n**p:
            raise InvalidParameterError(
                f"r={self.r} exceeds n^alpha for n={self.n}, alpha={self.alpha}"
            )
        if not (0 < self.c1 <= 1):
            raise InvalidParameterError("c1 must lie in (0, 1]")

    def with_c1(self, c1):
        return ConstructionParams(
            self.basis, self.n, self.alpha, self.r, Fraction(c1), self.auto_tune
        )


class PointBox:
    """The Cartesian product of two GAP boxes, as a deterministic point
    sequence with O(1) membership.  The pipeline reads its coordinate rows,
    coords(); iteration yields Points."""

    def __init__(self, x_set, y_set):
        self.x_set = x_set
        self.y_set = y_set
        self.basis = x_set.basis

    @property
    def size(self):
        return self.x_set.size * self.y_set.size

    def __len__(self):
        return self.size

    def __iter__(self):
        ys = list(self.y_set)
        for x in self.x_set:
            for y in ys:
                yield Point(x, y)

    def coords(self):
        """The (size, 2d) array of point coordinates, x then y, in iteration
        order (x-major), in the wider dtype of the two axes' coords()."""
        x, y = self.x_set.coords(), self.y_set.coords()
        return np.concatenate([np.repeat(x, len(y), axis=0), np.tile(y, (len(x), 1))], axis=1)

    def contains(self, p):
        return self.x_set.contains(p.x) and self.y_set.contains(p.y)

    def __contains__(self, p):
        return self.contains(p)


def build_pointset(basis, n, alpha):
    """P = A_{n^alpha}(Lambda) x A_{n^(1-alpha)}(Lambda), exact radii."""
    alpha = Fraction(alpha)
    if not (0 < alpha <= Fraction(1, 2)):
        raise InvalidParameterError("alpha must lie in (0, 1/2]")
    if n < 2:
        raise InvalidParameterError("n must be at least 2")
    x_set = gap_set_power(basis, 1, n, alpha)
    y_set = gap_set_power(basis, 1, n, 1 - alpha)
    return PointBox(x_set, y_set)


@dataclass
class CellGeometry:
    params: ConstructionParams
    cell_x: GapSet
    cell_y: GapSet
    s: int
    s_prime: int
    trans_x: GapSet
    trans_y: GapSet
    disjoint_sufficient: bool = field(default=False)

    @property
    def basis(self):
        return self.params.basis


def build_cell_geometry(params):
    """Cell P', step sizes s, s', and the translate lattice boxes.

    One root per axis: the step s = floor((C1 n^alpha / r)^(1/d)) (resp.
    s'), and the radius of A_{C1 n^alpha / r}(Lambda) is s // 3.  Shifts
    are multiples of s > 2 (s // 3), so the translates are disjoint by
    construction, and a nondegenerate cell has s >= 3.

    Verifies that every translate coordinate stays inside A_{C1
    n^alpha}(Lambda) (resp. the n^(1-alpha) box).
    """
    basis = params.basis
    n, alpha, r, c1 = params.n, params.alpha, params.r, params.c1
    d = basis.degree
    s = floor_scaled_root(c1 / r, n, alpha, d)
    s_prime = floor_scaled_root(c1 / r, n, 1 - alpha, d)
    cell_x, cell_y = GapSet(basis, s // 3), GapSet(basis, s_prime // 3)
    if cell_x.radius < 1 or cell_y.radius < 1:
        raise RTooLargeError(
            f"cell degenerate for r={r}, c1={c1}, n={n}, alpha={alpha}: "
            "use a smaller r, larger c1, or larger n"
        )
    cell_size = cell_x.size * cell_y.size
    if cell_size > POINT_CAP:
        raise InvalidParameterError(
            f"cell of {cell_size} points exceeds the cap {POINT_CAP} for n={n}, "
            f"alpha={alpha}, r={r}, c1={c1}: use a smaller n or c1"
        )
    trans_x = gap_set(basis, Fraction(r), scale=s)
    trans_y = gap_set(basis, Fraction(r), scale=s_prime)
    # Observation: A_r(s Lambda) is contained in A_{C1 n^alpha}(Lambda).
    outer_x = gap_set_power(basis, c1, n, alpha)
    outer_y = gap_set_power(basis, c1, n, 1 - alpha)
    # The outer box has scale 1, so it holds a translate coordinate exactly
    # when no |entry| exceeds its radius.  The largest |entry| is radius *
    # scale, first reached by the translates' first coordinate, every entry
    # -radius * scale, which the error names.
    for trans, outer in ((trans_x, outer_x), (trans_y, outer_y)):
        if trans.radius * trans.scale > outer.radius:
            row = (-trans.radius * trans.scale,) * d
            raise AssertionError(f"translate coordinate {row} escapes its outer box")
    sufficient = _sufficient_disjointness_inequality(params, s, s_prime)
    return CellGeometry(params, cell_x, cell_y, s, s_prime, trans_x, trans_y, sufficient)


def _sufficient_disjointness_inequality(params, s, s_prime):
    """s >= (2/3) m^(1/d) + 1 for both axes, with m the exact cell bound.

    A diagnostic reported with each run: the translates are disjoint by
    construction whether or not it holds.
    """
    d = params.basis.degree
    m_coeff = params.c1 / params.r
    return all(
        scaled_power_le(m_coeff, params.n, a, Fraction(3 * (step - 1), 2) ** d)
        for step, a in ((s, params.alpha), (s_prime, 1 - params.alpha))
    )


def translate_vectors(geom):
    """All shift vectors (x, y), x in A_r(s Lambda), y in A_r(s' Lambda),
    as the (translates, 2d) coordinate rows of PointBox(trans_x, trans_y),
    in its x-major order."""
    return PointBox(geom.trans_x, geom.trans_y).coords()


def verify_disjoint_translates(geom):
    """Exact pairwise disjointness of the translated cell copies.

    Translate shifts differ by at least the step size in some coordinate, so
    copies of a box of coordinate radius rho are pairwise disjoint exactly
    when step > 2*rho on every axis with more than one translate.  The two
    nearest translates are additionally cross-checked by exhaustive
    membership.  Every geometry build_cell_geometry returns passes (rho =
    step // 3), so this checks one whose steps or boxes changed afterwards.
    """
    checks = []
    if geom.trans_x.radius >= 1:
        checks.append((geom.s, geom.cell_x.radius, 0))
    if geom.trans_y.radius >= 1:
        checks.append((geom.s_prime, geom.cell_y.radius, 1))
    verdict = all(step > 2 * rho for step, rho, _ in checks)
    if checks:
        _cross_check_nearest(geom, checks[0], verdict)
    return verdict


def _cross_check_nearest(geom, check, verdict):
    """The cell's rows and their copies moved by step along the first
    coordinate of the check's axis must share a row exactly when verdict
    is False: both sets are distinct rows, so one sort of their union
    finds a shared row."""
    step, _, axis = check
    cell = PointBox(geom.cell_x, geom.cell_y).coords()
    cell = cell.astype(np.result_type(cell, _exact_dtype(int(np.abs(cell).max()) + step)))
    moved = cell.copy()
    moved[:, axis * geom.basis.degree] += step
    both = np.concatenate([cell, moved])
    overlap_free = len(_sorted_runs(both.T)[1]) == len(both)
    if overlap_free != verdict:
        raise AssertionError(
            "disjointness inequality disagrees with the exhaustive check"
        )


@dataclass
class LineFamily:
    """Globally deduplicated lines as an (n, 3d) array of primitive keys in
    canonical order (in the narrowest integer type that holds every entry,
    or object past int64), with an (n, 3) int64 array of witnesses
    (translate index, i, j): the cell points i and j moved by that
    translate.  The cell and the translates are (points, 2d) coordinate
    rows, x then y.

    Iterating yields CanonicalLines, which build their coefficients only
    when asked; witness_points builds one line's witness Points.
    """

    basis: NiceBasis
    keys: np.ndarray
    witnesses: np.ndarray
    cell: np.ndarray
    translates: np.ndarray
    cell_lines: int  # lines spanned by the untranslated cell

    def __len__(self):
        return len(self.keys)

    def __iter__(self):
        return (CanonicalLine(self.basis, key) for key in key_tuples(self.keys))

    def witness_points(self, index):
        """The two translated cell Points that witness line `index`."""
        t_idx, i, j = self.witnesses[index].tolist()
        d = self.basis.degree
        rows = self.cell[[i, j]].astype(object) + self.translates[t_idx].astype(object)
        return tuple(
            Point(Element(self.basis, row[:d]), Element(self.basis, row[d:]))
            for row in rows.tolist()
        )


def _raw_family(basis, cell, translates):
    """The line family of a cell and its translates, both given as
    coordinate rows, before ordering: its distinct primitive keys, an (n, 3)
    array of their smallest witnesses (translate index, i, j), the cell, the
    translates and the number of lines the cell spans.

    The cell's pairs are grouped once and each cell key is moved to every
    translate by _spread; a moved key keeps the cell's first pair on its
    line as its first witness.
    """
    d = basis.degree
    keys, _, first = group_pairs(basis, cell[:, :d], cell[:, d:])
    moved, rows = _spread(basis, keys, translates)
    witnesses = np.column_stack([rows // len(keys), first[rows % len(keys)]])
    return moved, witnesses, cell, translates, len(keys)


def _spread(basis, keys, translates):
    """Key rows of distinct lines moved to every translate by one
    shift_keys broadcast over the translates' coordinate rows, deduplicated:
    the distinct moved rows, and the position of each in the moved keys
    stacked in (translate, key) order.

    A stable sort makes the first translate that reaches a line the head of
    its run.  One translate needs no sort: a shift is a bijection on lines,
    so its moved keys are already distinct.
    """
    d = basis.degree
    moved = shift_keys(basis, keys, translates[:, :d], translates[:, d:])
    if len(translates) == 1:
        rows = np.arange(len(keys))
    else:
        order, heads = _sorted_runs(moved.T)
        rows = order[heads]
    return moved[rows], rows


def _corner_keys(basis, cell, translates):
    """The probe of the tuning gate: the distinct key rows of the lines
    through the cell's corner (row 0 of the cell, every coordinate at
    -radius) and each other cell point, moved to every translate.

    These are the lines of the cell's first n - 1 pairs in row-major order,
    (0, j), keyed by the kernel of group_pairs.  Each passes through two
    points of one translated cell, so each is a family line.
    """
    d = basis.degree
    keys_of, entry = _pair_kernel(basis, cell[:, :d], cell[:, d:])
    j = np.arange(1, len(cell))
    anchor = keys_of(np.zeros_like(j), j).astype(entry)
    order, heads = _sorted_runs(anchor.T)
    return _spread(basis, anchor[order[heads]], translates)[0]


def _ordered_family(basis, keys, witnesses, *rest):
    """The family in canonical order, and the positions of its keys in the
    raw family."""
    order = canonical_order(basis, keys)
    return LineFamily(basis, keys[order], witnesses[order], *rest), order


def generate_line_family(geom):
    """Union over translates of all lines through two translated-cell points,
    deduplicated by primitive key, with deterministic provenance: each line
    keeps its lexicographically-smallest (translate, pair) witness."""
    cell = PointBox(geom.cell_x, geom.cell_y).coords()
    return _ordered_family(geom.basis, *_raw_family(geom.basis, cell, translate_vectors(geom)))[0]


# ---------------------------------------------------------------------------
# Richness counting against the box point set.


def _key_richnesses(basis, keys, box):
    """Exact richness of each key row (a, b, c) in the box, as an int64
    array: in closed form in degree 1 (_by_closed_form), and by columns
    (_by_columns) in every higher degree."""
    d = basis.degree
    keys = np.reshape(keys, (len(keys), 3 * d))
    out = np.zeros(len(keys), dtype=np.int64)
    if d == 1:
        _by_closed_form(basis, keys, box, out)
    else:
        _by_columns(basis, keys, box, out)
    return out


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

    The keys are grouped by direction (a, b), and g, m and inv are computed
    once per direction.  Every array takes the dtype _exact_dtype picks for
    _closed_form_bound, object (exact Python ints) past int64."""
    (rx, sx), (ry, sy) = ((s.radius, s.scale) for s in (box.x_set, box.y_set))
    k = abs(basis.structure_constants[0][0][0])
    dtype = _exact_dtype(_closed_form_bound(basis, keys, box))
    order, heads = _sorted_runs(keys[:, :2].T)
    ab = np.abs(keys[order[heads], :2].astype(dtype))
    # the direction of each key, as a row of the directions' arrays
    which = np.empty(len(keys), dtype=np.intp)
    which[order] = np.repeat(np.arange(len(heads)), np.diff(heads, append=len(keys)))
    del order
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
    of the other axis, in blocks of about _CHUNK_PAIRS (key, column) pairs:
    the solution is -v / det for v = adj(M)(c + other*u) and M the pivot's
    multiplication matrix, so it lies in the box exactly when every
    coordinate of v is divisible by scale*det and at most
    radius*scale*|det|.  A block runs in the dtype _exact_dtype picks for
    _block_bound, object (exact Python ints) past int64."""
    d = basis.degree
    vertical = ~(keys[:, d : 2 * d] != 0).any(axis=1)
    for part, blocks, columns, target in (
        (np.flatnonzero(~vertical), (1, 0, 2), box.x_set, box.y_set),
        (np.flatnonzero(vertical), (0, 1, 2), box.y_set, box.x_set),
    ):
        if not len(part):
            continue
        cols = columns.coords()
        size = max(1, _CHUNK_PAIRS // len(cols))
        for b0 in range(0, len(part), size):
            idx = part[b0 : b0 + size]
            pivot, other, c = (keys[idx, k * d : (k + 1) * d] for k in blocks)
            dtype = _exact_dtype(_block_bound(basis, pivot, other, c, cols, target))
            # key coordinates as (keys, 1) arrays, column coordinates as (1, columns)
            pivot, other, c = (list(m.astype(dtype).T[:, :, None]) for m in (pivot, other, c))
            # adj(M) c, and adj(M) (other * l_j) for each basis vector l_j
            (v, *other_l), det = _cofactor_solve(
                basis, pivot, c, *zip(*_mul_matrix(basis, other))
            )
            for ol, u in zip(other_l, cols.astype(dtype).T[:, None, :]):
                v = [vk + olk * u for vk, olk in zip(v, ol)]
            step = target.scale * det
            hit = [(vk % step == 0) & (np.abs(vk) <= target.radius * np.abs(step)) for vk in v]
            out[idx] = np.all(hit, axis=0).sum(axis=1)


def _block_bound(basis, pivot, other, c, cols, target):
    """A bound on every intermediate of _key_richnesses on one block, and on
    the column coordinates x: with s the largest product_bounds(1, 1),
    M_pivot and M_other are at most p s and o s entrywise, so the cofactors
    of M_pivot are at most a = (d-1)! (p s)^(d-1) and its determinant
    d p s a."""
    d = basis.degree
    p, o, cc, x = (int(np.abs(m).max(initial=0)) for m in (pivot, other, c, cols))
    s = max(product_bounds(basis, 1, 1))
    a = factorial(d - 1) * (p * s) ** (d - 1)
    return max(
        x,
        o * s,
        d * a * (cc + d * o * s * x),
        max(target.radius, 1) * target.scale * d * p * s * a,
    )


@dataclass
class RichnessReport:
    r: int
    num_lines: int
    min_richness: int
    frac_r_rich: float
    failing_line: CanonicalLine | None
    richnesses: np.ndarray  # int64, in family order
    mechanism_on_line: bool
    mechanism_in_p_fraction: float


def verify_claim2(family, box, r, richnesses=None):
    """Exact per-line richness of the family in the box, counted here by
    _key_richnesses unless `richnesses` gives them in the family's key
    order; the first line below r is the report's failing line.

    Also replays the multiplier mechanism on a sample of lines
    (_mechanism_check): for each t in A_{3^d r}(Lambda) the point
    (a + t(a-a'), b + t(b-b')) built from the witness pair must lie on the
    line; the fraction of those points landing inside the box is reported
    (it reaches 1 only for small cell constants).  Both steps run on integer
    arrays.
    """
    if richnesses is None:
        richnesses = _key_richnesses(family.basis, family.keys, box)
    rich = np.asarray(richnesses, dtype=np.int64)
    if not len(rich):
        return RichnessReport(r, 0, 0, 1.0, None, rich, True, 1.0)
    low = np.flatnonzero(rich < r)
    failing = None
    if len(low):
        failing = CanonicalLine(family.basis, tuple(family.keys[low[0]].tolist()))
    mech_on, mech_in = _mechanism_check(family, box, r)
    frac = (len(rich) - len(low)) / len(rich)
    return RichnessReport(
        r, len(rich), int(rich.min()), frac, failing, rich, mech_on, mech_in
    )


_MECHANISM_SAMPLE = 8  # lines whose multiplier mechanism verify_claim2 replays


def _mechanism_check(family, box, r):
    """Replay the multiplier mechanism on the first _MECHANISM_SAMPLE family
    lines: (whether every replayed point lies on its line, the fraction of
    them that lie in the box).

    A line's witnesses p, q are its cell points i, j moved by its translate.
    For each t in A_{3^d r}(Lambda) the point p + t(p - q) lies on the line
    through p and q, which is a*x + b*y + c = 0 for the line's key (a, b, c);
    it lies in the box when each coordinate of x and y is a multiple of its
    axis' scale of absolute value at most radius * scale.  Every sample and
    multiplier is one entry of one array computation, with products taken
    through the structure constants, in the dtype _exact_dtype picks for
    _mechanism_bound (object past int64).
    """
    basis = family.basis
    d = basis.degree
    t_idx, i, j = family.witnesses[:_MECHANISM_SAMPLE].T
    shift = family.translates[t_idx].astype(object)
    p, q = (family.cell[idx].astype(object) + shift for idx in (i, j))
    keys = family.keys[: len(t_idx)]
    t = gap_set(basis, Fraction(3**d * r)).coords()
    dtype = _exact_dtype(_mechanism_bound(basis, p, q, keys, t, box))
    p, q, keys, t = (m.astype(dtype) for m in (p, q, keys, t))
    sc = np.array(basis.structure_constants, dtype=dtype).reshape(d, d * d)

    def times(a):  # u @ times(a)[s] gives the coordinates of u * a[s]
        return (a @ sc).reshape(-1, d, d)

    # (samples, multipliers, d) coordinates of the replayed points' x and y
    x, y = (p[:, None, k : k + d] + t @ times(p[:, k : k + d] - q[:, k : k + d]) for k in (0, d))
    on = x @ times(keys[:, :d]) + y @ times(keys[:, d : 2 * d]) + keys[:, None, 2 * d :]
    inside = box.x_set.contains_rows(x) & box.y_set.contains_rows(y)
    return not on.any(), int(inside.sum()) / inside.size


def _mechanism_bound(basis, p, q, keys, t, box):
    """A bound on every intermediate of _mechanism_check: with w the largest
    witness coordinate and m the largest multiplier's, the replayed points'
    coordinates are at most z = w + max product_bounds(m, 2w), and a*x + b*y
    + c is at most 2 max product_bounds(k, z) + k for keys at most k."""
    w, k, m = (int(np.abs(v).max(initial=0)) for v in (np.concatenate([p, q]), keys, t))
    z = w + max(product_bounds(basis, m, 2 * w))
    return max(
        m,
        2 * w,
        z,
        2 * max(product_bounds(basis, k, z)) + k,
        max(product_bounds(basis, max(k, 2 * w), 1)),
        *((s.radius + 1) * s.scale for s in (box.x_set, box.y_set)),
    )


def claim1_statistic(tuned):
    """|L_(0,0)| * r^4 / |P|^2: the single-cell line count of a built
    construction at its claimed rate, using the realized point-set size."""
    n_lines = tuned.family.cell_lines
    return n_lines, n_lines * tuned.params.r**4 / len(tuned.box) ** 2


def claim3_claim4_statistics(box, family, r, richnesses):
    """(incidences, incidences * r^2 / |P|^2, |L| * r^3 / |P|^2), exactly."""
    incidences = int(np.sum(richnesses, dtype=np.int64))
    p = len(box)
    return incidences, incidences * r**2 / p**2, len(family) * r**3 / p**2


@dataclass
class TunedConstruction:
    params: ConstructionParams  # with the final c1
    geometry: CellGeometry
    box: PointBox
    family: LineFamily
    richness: np.ndarray | None  # the tuning gate's int64 counts; None at fixed c1
    halvings: int


# The tuning gate counts _GATE_PAIRS / |X| keys per block and stops at the
# first block that holds a key below r, so a rejected attempt counts up to
# one block past its first such key.  In degree >= 2 a block is about
# _GATE_PAIRS (key, column) pairs of the columns path, fewer than the
# counter's _CHUNK_PAIRS; the degree-1 closed form counts each key in O(1).
_GATE_PAIRS = 1 << 14


def _all_raw_rich(basis, keys, box, r, rich=None):
    """Fast tuning gate: (rich, low) with rich the richness of the raw
    family keys in the raw order, and low None when every key is r-rich or
    else the index of a key below r, found at the first block of keys that
    holds one; rich is then filled only up to that block.

    The nonnegative entries of a given rich are counts already known, and
    only the other keys are counted.  Blocks go in order of decreasing max
    |entry| (steep lines fail first), before the family is sorted."""
    if rich is None:
        rich = np.full(len(keys), -1, dtype=np.int64)
    todo = np.flatnonzero(rich < 0)
    todo = todo[np.argsort(-np.abs(keys[todo]).max(axis=1), kind="stable")]
    size = max(1, _GATE_PAIRS // len(box.x_set))
    for b0 in range(0, len(todo), size):
        idx = todo[b0 : b0 + size]
        rich[idx] = _key_richnesses(basis, keys[idx], box)
        low = np.flatnonzero(rich[idx] < r)
        if len(low):
            return rich, idx[low[0]]
    return rich, None


def _known_counts(keys, probe, counts):
    """For the distinct key rows keys: counts[k] where the row equals the
    distinct probe row k, -1 elsewhere.  It is the rich argument of
    _all_raw_rich, and the oracle's test of the family against the rich
    lines."""
    rich = np.full(len(keys), -1, dtype=np.int64)
    both = np.concatenate([probe, keys])
    order, heads = _sorted_runs(both.T)
    # a run of two is a probe row, at its head by the stable sort, and a key row
    heads = heads[np.diff(heads, append=len(both)) == 2]
    rich[order[heads + 1] - len(probe)] = counts[order[heads]]
    return rich


def _below_r(params, key, richness):
    """Why an attempt was rejected: its line below r and the configuration."""
    line = CanonicalLine(params.basis, tuple(key.tolist()))
    return (
        f"line {lines_to_text([line]).strip()} has richness {richness} < r={params.r} "
        f"at c1={params.c1}, basis {params.basis.description}, n={params.n}, "
        f"alpha={params.alpha}"
    )


def _gated_family(basis, cell, translates, box, r):
    """One attempt of auto_tune_c1, for the cell and translate rows:
    (family, rich, None) with rich the richness of each family line in the
    family's order when every line is r-rich, else (None, None, (key,
    richness)) for the key row of a line found below r.

    The probe, _corner_keys, is gated first; the cell's pairs are grouped
    only when it passes, and the full gate then counts only the keys the
    probe did not, so each family key is counted once."""
    keys = probe = _corner_keys(basis, cell, translates)
    rich, low = _all_raw_rich(basis, probe, box, r)
    if low is None:
        keys, *rest = _raw_family(basis, cell, translates)
        rich, low = _all_raw_rich(basis, keys, box, r, _known_counts(keys, probe, rich))
    if low is not None:
        return None, None, (keys[low], rich[low])
    family, order = _ordered_family(basis, keys, *rest)
    return family, rich[order], None


_MAX_HALVINGS = 20  # the most halvings of the cell constant auto_tune_c1 tries


def auto_tune_c1(params):
    """Halve the cell constant from its starting value until every family
    line is r-rich; fail loudly after _MAX_HALVINGS, naming the last line
    found below r and the configuration.  Translates are disjoint by
    construction (step > 2 (step // 3)), so r-richness is the only test.

    Each attempt gates the lines through one cell corner before it builds
    the family (_gated_family).  Those lines are family lines, so one below
    r rejects the attempt as the full gate would, and a probe that passes
    leaves the verdict to the full gate: the accepted c1, the halvings, the
    family and every richness are the full gate's alone."""
    basis = params.basis
    box = build_pointset(basis, params.n, params.alpha)
    c1 = params.c1
    for step in range(_MAX_HALVINGS + 1):
        trial = params.with_c1(c1)
        try:
            geom = build_cell_geometry(trial)
        except RTooLargeError as err:
            if step == 0:
                raise
            raise AutoTuneError(
                f"cell degenerated after {step} halvings without reaching a "
                f"fully r-rich family (last failure: {last_reason})"
            ) from err
        cell = PointBox(geom.cell_x, geom.cell_y).coords()
        family, rich, low = _gated_family(basis, cell, translate_vectors(geom), box, params.r)
        if low is None:
            return TunedConstruction(trial, geom, box, family, rich, step)
        last_reason = _below_r(trial, *low)
        c1 = c1 / 2
    raise AutoTuneError(
        f"no c1 in {_MAX_HALVINGS} halvings gives a fully r-rich "
        f"construction ({last_reason})"
    )


def build_construction(params):
    """(box, TunedConstruction) for params: auto-tuned when params.auto_tune,
    else built at params.c1 with no line counted.  Nothing is verified."""
    if params.auto_tune:
        tuned = auto_tune_c1(params)
        return tuned.box, tuned
    box = build_pointset(params.basis, params.n, params.alpha)
    geom = build_cell_geometry(params)
    return box, TunedConstruction(params, geom, box, generate_line_family(geom), None, 0)


# ---------------------------------------------------------------------------
# The incidence reduction: r-rich lines at r = n^(2/3) / m^(1/3).


@dataclass
class SztResult:
    points: PointBox
    family: LineFamily
    r: int
    alpha: Fraction
    incidences: int
    ratio_nominal: float
    ratio_realized: float


def _round_cube_root(x):
    """round(x^(1/3)) for a positive Fraction x, exactly (halves round up)."""
    t = iroot(floor(x), 3)
    # round up when x >= (t + 1/2)^3
    return t + 1 if (2 * t + 1) ** 3 <= 8 * x else t


def szt_incidence_construction(basis, n, m):
    """Point/line family with Omega(n^(2/3) m^(2/3)) incidences.

    Sets r = round(n^(2/3) / m^(1/3)) (clamped to >= 2) and picks the
    smallest alpha on a fixed grid that admits a nondegenerate cell.
    """
    if n < 2 or m < 1:
        raise InvalidParameterError("need n >= 2 and m >= 1")
    if n * n < m or n > m * m:
        raise InvalidParameterError(
            f"(n, m) = ({n}, {m}) outside the range m^(1/2) <= n <= m^2"
        )
    r = max(2, _round_cube_root(Fraction(n * n, m)))
    chosen = None
    for alpha in ALPHA_GRID:
        try:
            params = ConstructionParams(basis, n, alpha, r)
            geom = build_cell_geometry(params)
        except (InvalidParameterError, RTooLargeError):
            continue
        chosen = (params, geom)
        break
    if chosen is None:
        raise InvalidParameterError(
            f"no alpha on the grid admits r={r} at n={n}; "
            "the (n, m) pair is out of range for this basis"
        )
    params, geom = chosen
    box = build_pointset(basis, n, params.alpha)
    family = generate_line_family(geom)
    incidences = int(_key_richnesses(basis, family.keys, box).sum())
    realized = len(box)
    nominal_rate = float(n) ** (2 / 3) * float(m) ** (2 / 3)
    realized_rate = float(realized) ** (2 / 3) * float(max(len(family), 1)) ** (2 / 3)
    return SztResult(
        box,
        family,
        r,
        params.alpha,
        incidences,
        incidences / nominal_rate,
        incidences / realized_rate,
    )
