"""Pure-Python references that the tests check the array kernels against.

Each one computes its answer one point, pair or line at a time with exact
Python integers, sharing no array code with the kernel it checks:

- raw_pair_counts_loop: keys.group_pairs, keying each pair by
  keys._primitive_key;
- fraction_key: keys._primitive_key, dividing each block by the pivot
  with fraction_solve, Gaussian elimination over Fractions, where the
  kernels multiply by the pivot's adjugate;
- count_on_line_int: richness._key_richnesses, inverting each pivot
  by fraction_solve;
- count_incidences: the richness of a line by on_line over every point;
- nearest_translates_meet: whether two neighbouring translated cells of a
  construction.CellGeometry share a point, by sets of rows;
- points_text_str and lines_text_fraction: geometry.points_to_text and
  geometry.lines_to_text, one entry at a time through str and Fraction;
- points_from_text and lines_from_text: the inverses of points_to_text and
  lines_to_text, for their round-trip tests.

The scalar views of the pipeline's arrays: box_points and box_contains give
a PointBox's Points and test one for membership, family_lines gives a
LineFamily's CanonicalLines and witness_points the two witness Points of
one family line, for the tests that check them one at a time.
"""

from fractions import Fraction
from math import gcd, lcm

from richlines.geometry import CanonicalLine, Point, on_line
from richlines.keys import _primitive_key, key_tuples
from richlines.numberfield import Element


def raw_pair_counts_loop(basis, xs, ys):
    """{primitive key: [pair count, i, j]} with (i, j) the first pair, in
    row-major order, on the line."""
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
            key = _primitive_key(basis, a + b + c)
            entry = raw.get(key)
            if entry is None:
                raw[key] = [1, i, j]
            else:
                entry[0] += 1
    return raw


def fraction_solve(basis, b, a):
    """Reference a / b: Gaussian elimination over Fractions on M_b q = a,
    M_b[k][i] the l_k coordinate of l_i * b; None when M_b is singular."""
    d = basis.degree
    sc = basis.structure_constants
    m = [
        [Fraction(sum(b[j] * sc[i][j][k] for j in range(d))) for i in range(d)]
        + [Fraction(a[k])]
        for k in range(d)
    ]
    for col in range(d):
        pivot = next((r for r in range(col, d) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(d):
            if r != col and m[r][col]:
                m[r] = [v - m[r][col] * w for v, w in zip(m[r], m[col])]
    return [row[d] for row in m]


def fraction_key(basis, flat):
    """The primitive key of the flat integer triple (a, b, c): each block
    over the pivot (a, or b when a = 0) by fraction_solve, so that the pivot
    becomes unity, times the least common denominator, content-reduced with
    its first nonzero entry made positive."""
    d = basis.degree
    blocks = flat[:d], flat[d : 2 * d], flat[2 * d :]
    pivot = blocks[0] if any(blocks[0]) else blocks[1]
    solved = [v for block in blocks for v in fraction_solve(basis, pivot, block)]
    den = lcm(*(v.denominator for v in solved))
    key = [int(v * den) for v in solved]
    g = gcd(*key)
    if next(v for v in key if v) < 0:
        g = -g
    return tuple(v // g for v in key)


def count_on_line_int(basis, key, box):
    """Richness of the line with integer key (a, b, c) in the box.  The
    pivot is inverted once by fraction_solve, as the unity (e / e for the
    first basis vector e) over the pivot, and written q / delta for the
    least common denominator delta; along each column u of the other axis,
    the pivot's coordinate -(c + other*u) q / delta is tested for
    membership in its axis' box."""
    d = basis.degree
    a, b, c = key[:d], key[d : 2 * d], key[2 * d :]
    if any(b):
        pivot, other, columns, target = b, a, box.x_set, box.y_set
    else:
        pivot, other, columns, target = a, b, box.y_set, box.x_set
    e = (1,) + (0,) * (d - 1)
    inverse = fraction_solve(basis, pivot, fraction_solve(basis, e, e))
    delta = lcm(*(v.denominator for v in inverse))
    q = tuple(int(v * delta) for v in inverse)
    mul = basis.mul_coords
    count = 0
    for u in columns:
        w = mul(tuple(-(s + t) for s, t in zip(c, mul(other, u.coords))), q)
        if all(v % delta == 0 for v in w):
            count += target.contains(Element(basis, [v // delta for v in w]))
    return count


def count_incidences(points, lines):
    """Exact number of (point, line) incidences."""
    return sum(on_line(p, line) for line in lines for p in points)


def nearest_translates_meet(geom, axis):
    """Whether the cell meets its copy moved one step along the first
    coordinate of an axis (0: x, moved by s; 1: y, moved by s'), compared as
    sets of coordinate rows, x then y."""
    xs = [e.coords for e in geom.cell_x]
    ys = [e.coords for e in geom.cell_y]
    cell = {x + y for x in xs for y in ys}
    k = axis * geom.basis.degree
    step = (geom.s, geom.s_prime)[axis]
    moved = {row[:k] + (row[k] + step,) + row[k + 1 :] for row in cell}
    return not cell.isdisjoint(moved)


def points_text_str(rows):
    """One point per line: the entries of each row through str, joined by
    spaces."""
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def lines_text_fraction(lines):
    """One line per row: each key entry over the line's lam as a reduced
    Fraction "num/den".  The pivot block (A, or B when A = 0) of a
    primitive key is lam * unity, so lam is the pivot's coordinate at the
    first nonzero coordinate of unity over that coordinate."""
    rows = []
    for line in lines:
        d = line.basis.degree
        one = line.basis.one.coords
        k = next(i for i, f in enumerate(one) if f)
        key = line.key
        pivot = key[:d] if any(key[:d]) else key[d : 2 * d]
        lam = pivot[k] / one[k]
        fracs = (Fraction(v) / lam for v in key)
        rows.append(" ".join(f"{f.numerator}/{f.denominator}" for f in fracs) + "\n")
    return "".join(rows)


def points_from_text(text, basis):
    """The Points of points_to_text's rows of 2d integers."""
    d = basis.degree
    rows = [[int(v) for v in row.split()] for row in text.splitlines()]
    return [Point(Element(basis, v[:d]), Element(basis, v[d:])) for v in rows]


def lines_from_text(text, basis):
    """The CanonicalLines of lines_to_text's rows of 3d rationals."""
    lines = []
    for row in text.splitlines():
        vals = [Fraction(v) for v in row.split()]
        den = lcm(*(f.denominator for f in vals))
        lines.append(CanonicalLine(basis, fraction_key(basis, tuple(int(f * den) for f in vals))))
    return lines


def point_rows(points):
    """The coordinate rows (x then y) of a list of Points."""
    return [p.x.coords + p.y.coords for p in points]


def box_points(box):
    """The Points of a PointBox, x-major, in the order of its coords()."""
    ys = list(box.y_set)
    return [Point(x, y) for x in box.x_set for y in ys]


def box_contains(box, p):
    """Whether the Point p lies in the PointBox."""
    return box.x_set.contains(p.x) and box.y_set.contains(p.y)


def family_lines(family):
    """The CanonicalLines of a LineFamily's keys, in its raw order."""
    return [CanonicalLine(family.basis, key) for key in key_tuples(family.keys)]


def witness_points(family, index):
    """The two translated cell Points that witness line `index` of a
    LineFamily."""
    t_idx, i, j = family.witness_rows([index])[0].tolist()
    d = family.basis.degree
    rows = family.cell[[i, j]].astype(object) + family.translates[t_idx].astype(object)
    return tuple(
        Point(Element(family.basis, row[:d]), Element(family.basis, row[d:]))
        for row in rows.tolist()
    )
