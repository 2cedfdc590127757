"""The translate construction: point set, cell, translate lattice, line
family, and exact verifiers for its claimed statistics.

The pipeline takes P = A_{n^a}(Lambda) x A_{n^(1-a)}(Lambda), carves out the
much smaller cell P' = A_{C1 n^a / r} x A_{C1 n^(1-a) / r}, translates it by
the lattice A_r(s Lambda) x A_r(s' Lambda), and collects every line spanned
by two points of a translated cell.  With a small enough cell constant C1,
every collected line is r-rich in P; the verifiers check that and the rate
statistics by exact counting.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import InvalidParameterError, RichlinesError, RTooLargeError
from .gapset import (
    GapSet,
    floor_scaled_root,
    gap_set,
    gap_set_power,
    scaled_power_le,
)
from .geometry import (
    CanonicalLine,
    Point,
    _line_counts,
    canonicalize_triple,
    group_pairs,
    key_tuples,
    on_line,
    shift_keys,
)
from .numberfield import Element, NiceBasis, divide, integer_inverse

ALPHA_GRID = (
    Fraction(1, 5),
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(2, 5),
    Fraction(1, 2),
)


class AutoTuneError(RichlinesError, RuntimeError):
    """No halving of the cell constant produced a fully r-rich, disjoint
    construction."""


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
    sequence with O(1) membership and column access."""

    def __init__(self, x_set, y_set):
        self.x_set = x_set
        self.y_set = y_set
        self.basis = x_set.basis

    def __len__(self):
        return len(self.x_set) * len(self.y_set)

    def __iter__(self):
        ys = list(self.y_set)
        for x in self.x_set:
            for y in ys:
                yield Point(x, y)

    def contains(self, p):
        return self.x_set.contains(p.x) and self.y_set.contains(p.y)

    def __contains__(self, p):
        return self.contains(p)

    def columns(self):
        return iter(self.x_set)


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

    def cell_points(self):
        xs = list(self.cell_x)
        ys = list(self.cell_y)
        return [Point(x, y) for x in xs for y in ys]


def build_cell_geometry(params):
    """Cell P', step sizes s, s', and the translate lattice boxes.

    Verifies by exhaustive membership that every translate coordinate stays
    inside A_{C1 n^alpha}(Lambda) (resp. the n^(1-alpha) box).
    """
    basis = params.basis
    n, alpha, r, c1 = params.n, params.alpha, params.r, params.c1
    d = basis.degree
    cell_x = gap_set_power(basis, c1 / r, n, alpha)
    cell_y = gap_set_power(basis, c1 / r, n, 1 - alpha)
    if cell_x.radius < 1 or cell_y.radius < 1:
        raise RTooLargeError(
            f"cell degenerate for r={r}, c1={c1}, n={n}, alpha={alpha}: "
            "use a smaller r, larger c1, or larger n"
        )
    s = floor_scaled_root(c1 / r, n, alpha, d)
    s_prime = floor_scaled_root(c1 / r, n, 1 - alpha, d)
    if s < 1:
        raise RTooLargeError(f"translate step collapsed for r={r}, c1={c1}")
    trans_x = gap_set(basis, Fraction(r), scale=s)
    trans_y = gap_set(basis, Fraction(r), scale=s_prime)
    # Observation: A_r(s Lambda) is contained in A_{C1 n^alpha}(Lambda).
    outer_x = gap_set_power(basis, c1, n, alpha)
    outer_y = gap_set_power(basis, c1, n, 1 - alpha)
    for e in trans_x:
        if not outer_x.contains(e):
            raise AssertionError(f"translate coordinate {e!r} escapes its outer box")
    for e in trans_y:
        if not outer_y.contains(e):
            raise AssertionError(f"translate coordinate {e!r} escapes its outer box")
    sufficient = _sufficient_disjointness_inequality(params, s, s_prime)
    return CellGeometry(
        params, cell_x, cell_y, s, s_prime, trans_x, trans_y, sufficient
    )


def _sufficient_disjointness_inequality(params, s, s_prime):
    """s >= (2/3) m^(1/d) + 1 for both axes, with m the exact cell bound.

    Sufficient but not necessary for disjoint translates; reported as a
    diagnostic alongside the exact check.
    """
    d = params.basis.degree
    m_coeff = params.c1 / params.r
    ok_x = s >= 1 and scaled_power_le(
        m_coeff, params.n, params.alpha, Fraction(3 * (s - 1), 2) ** d
    )
    ok_y = s_prime >= 1 and scaled_power_le(
        m_coeff, params.n, 1 - params.alpha, Fraction(3 * (s_prime - 1), 2) ** d
    )
    return ok_x and ok_y


def translate_vectors(geom):
    """All shift vectors (x, y), x in A_r(s Lambda), y in A_r(s' Lambda),
    in deterministic lexicographic order."""
    xs = list(geom.trans_x)
    ys = list(geom.trans_y)
    return [(x, y) for x in xs for y in ys]


def verify_disjoint_translates(geom, cell_points=None):
    """Exact pairwise disjointness of the translated cell copies.

    Translate shifts differ by at least the step size in some coordinate, so
    copies of a box of coordinate radius rho are pairwise disjoint exactly
    when step > 2*rho on every axis with more than one translate.  The two
    nearest translates are additionally cross-checked by exhaustive
    membership.
    """
    checks = []
    if geom.trans_x.radius >= 1:
        checks.append((geom.s, geom.cell_x.radius, 0))
    if geom.trans_y.radius >= 1:
        checks.append((geom.s_prime, geom.cell_y.radius, 1))
    verdict = all(step > 2 * rho for step, rho, _ in checks)
    if checks:
        _cross_check_nearest(geom, checks[0], verdict, cell_points)
    return verdict


def _cross_check_nearest(geom, check, verdict, cell_points):
    step, _, axis = check
    basis = geom.basis
    d = basis.degree
    if cell_points is None:
        cell_points = geom.cell_points()
    shift = [0] * d
    shift[0] = step
    shift = Element(basis, shift)
    zero = Element(basis, [0] * d)
    t1 = (shift, zero) if axis == 0 else (zero, shift)
    base = {(p.x.coords, p.y.coords) for p in cell_points}
    shifted = {
        ((p.x + t1[0]).coords, (p.y + t1[1]).coords) for p in cell_points
    }
    overlap_free = not (base & shifted)
    if overlap_free != verdict:
        raise AssertionError(
            "disjointness inequality disagrees with the exhaustive check"
        )


@dataclass
class Provenance:
    translate_index: int
    translate: tuple
    pair: tuple  # the two witnessing Points


@dataclass
class LineFamily:
    """Globally deduplicated lines with one witness per line."""

    basis: NiceBasis
    lines: dict  # CanonicalLine -> Provenance, in canonical sort order

    def __len__(self):
        return len(self.lines)

    def __iter__(self):
        return iter(self.lines)


def _raw_family(geom):
    """Content-reduced raw line triples over all translates, with the
    lexicographically-smallest witness (translate index, i, j) per triple.

    The cell's pairs are grouped once and each cell key is moved to every
    translate by shift_keys; a moved key keeps the cell's first pair as its
    first witness.
    """
    basis = geom.basis
    cell_pts = geom.cell_points()
    translates = translate_vectors(geom)
    keys, _, first = group_pairs(
        basis, [p.x.coords for p in cell_pts], [p.y.coords for p in cell_pts]
    )
    # one int object per cell index, shared by every witness that names it
    index = list(range(len(cell_pts)))
    raw = {}
    for t_idx, (tx, ty) in enumerate(translates):
        shifted = shift_keys(basis, keys, tx.coords, ty.coords)
        for key, (i, j) in zip(shifted, key_tuples(first)):
            if key not in raw:
                raw[key] = (t_idx, index[i], index[j])
    return raw, cell_pts, translates


def generate_line_family(geom):
    """Union over translates of all lines through two translated-cell points,
    deduplicated by canonical triple, with deterministic provenance: each
    line keeps its lexicographically-smallest (translate, pair) witness."""
    raw, cell_pts, translates = _raw_family(geom)
    return _family_from_raw(geom.basis, raw, cell_pts, translates)


def _family_from_raw(basis, raw, cell_pts, translates):
    d = basis.degree
    merged = {}
    for key, (t_idx, i, j) in raw.items():
        line = canonicalize_triple(
            basis,
            Element(basis, key[:d]),
            Element(basis, key[d : 2 * d]),
            Element(basis, key[2 * d :]),
        )
        prev = merged.get(line)
        if prev is None or (t_idx, i, j) < prev:
            merged[line] = (t_idx, i, j)
    ordered = {}
    for line in sorted(merged, key=CanonicalLine.sort_key):
        t_idx, i, j = merged[line]
        tx, ty = translates[t_idx]
        p = Point(cell_pts[i].x + tx, cell_pts[i].y + ty)
        q = Point(cell_pts[j].x + tx, cell_pts[j].y + ty)
        ordered[line] = Provenance(t_idx, (tx, ty), (p, q))
    return LineFamily(basis, ordered)


# ---------------------------------------------------------------------------
# Richness counting against the box point set.


def _count_on_line_int(basis, acoords, bcoords, ccoords, box, x_cols=None):
    """Richness of the integer-triple line a*X + b*Y + c = 0 in the box.

    Pure integer arithmetic: one exact inversion per line, then per x-column
    the unique candidate y is accepted iff its cleared-denominator coords are
    divisible by delta (times the box scale) and within the radius.
    """
    mul = basis.mul_coords
    if not any(bcoords):
        q, delta = integer_inverse(basis, tuple(acoords))
        xd = mul(tuple(-v for v in ccoords), q)
        if all(v % delta == 0 for v in xd):
            x = Element(basis, tuple(v // delta for v in xd))
            if box.x_set.contains(x):
                return len(box.y_set)
        return 0
    q, delta = integer_inverse(basis, tuple(bcoords))
    y_set = box.y_set
    step = y_set.scale * delta
    bound = y_set.radius * step
    if x_cols is None:
        x_cols = [x.coords for x in box.columns()]
    count = 0
    for xc in x_cols:
        ax = mul(acoords, xc)
        yd = mul(tuple(-(u + v) for u, v in zip(ccoords, ax)), q)
        for v in yd:
            if v % step or abs(v) > bound:
                break
        else:
            count += 1
    return count


def _line_int_coords(line):
    """Clear denominators of a canonical line to an integer coefficient
    triple (any common multiple defines the same line)."""
    den = 1
    for coeff in (line.a, line.b, line.c):
        for f in coeff.coords:
            den = den * f.denominator // gcd(den, f.denominator)
    return [
        tuple(int(f * den) for f in coeff.coords)
        for coeff in (line.a, line.b, line.c)
    ]


def line_richness_in_box(line, box):
    """Exact number of box points on the line, by column iteration: for each
    x-column the line meets at most one y, tested for box membership."""
    a, b, c = _line_int_coords(line)
    return _count_on_line_int(line.basis, a, b, c, box)


def _int_triple_d1(line):
    """(a, b, c) integer line equation for a degree-1 canonical line."""
    fa, fb, fc = line.a.coords[0], line.b.coords[0], line.c.coords[0]
    den = fa.denominator
    for f in (fb, fc):
        den = den * f.denominator // gcd(den, f.denominator)
    return int(fa * den), int(fb * den), int(fc * den)


def _richness_batch_d1(lines, box):
    """Vectorized richness for degree-1 lines over an integer box."""
    return _richness_batch_d1_triples([_int_triple_d1(line) for line in lines], box)


def _richness_batch_d1_triples(int_triples, box):
    rx, ry = box.x_set.radius, box.y_set.radius
    triples = np.array(int_triples, dtype=np.int64)
    a = triples[:, 0:1]
    b = triples[:, 1:2]
    c = triples[:, 2:3]
    xs = np.arange(-rx, rx + 1, dtype=np.int64)[None, :]
    out = np.zeros(len(triples), dtype=np.int64)
    vert = b[:, 0] == 0
    if vert.any():
        av, cv = a[vert, 0], c[vert, 0]
        xv = -cv // av
        hit = (cv % av == 0) & (np.abs(xv) <= rx)
        out[vert] = np.where(hit, 2 * ry + 1, 0)
    gen = ~vert
    if gen.any():
        num = -c[gen] - a[gen] * xs
        bg = b[gen]
        y = num // bg
        hit = (num % bg == 0) & (np.abs(y) <= ry)
        out[gen] = hit.sum(axis=1)
    return [int(v) for v in out]


def line_richnesses(lines, box):
    """Exact richness of each line in the box, batched where possible."""
    lines = list(lines)
    if not lines:
        return []
    if box.basis.degree == 1 and box.x_set.scale == 1 and box.y_set.scale == 1:
        return _richness_batch_d1(lines, box)
    return [line_richness_in_box(line, box) for line in lines]


@dataclass
class RichnessReport:
    r: int
    num_lines: int
    min_richness: int
    frac_r_rich: float
    failing_line: CanonicalLine | None
    richnesses: list
    mechanism_on_line: bool
    mechanism_in_p_fraction: float


def verify_claim2(family, box, r, mechanism_sample=8):
    """Exact per-line richness of the family in the box.

    Also replays the multiplier mechanism on a sample of lines: for each t in
    A_{3^d r}(Lambda) the point (a + t(a-a'), b + t(b-b')) built from the
    witness pair must lie on the line; the fraction of those points landing
    inside the box is reported (it reaches 1 only for small cell constants).
    """
    lines = list(family)
    rich = line_richnesses(lines, box)
    if not lines:
        return RichnessReport(r, 0, 0, 1.0, None, [], True, 1.0)
    min_rich = min(rich)
    n_ok = sum(1 for k in rich if k >= r)
    failing = None
    for line, k in zip(lines, rich):
        if k < r:
            failing = line
            break
    mech_on, mech_in = _mechanism_check(family, box, r, mechanism_sample)
    return RichnessReport(
        r,
        len(lines),
        min_rich,
        n_ok / len(lines),
        failing,
        rich,
        mech_on,
        mech_in,
    )


def _mechanism_check(family, box, r, sample):
    basis = family.basis
    d = basis.degree
    multipliers = list(gap_set(basis, Fraction(3**d * r)))
    total = 0
    inside = 0
    all_on = True
    for line, prov in itertools.islice(family.lines.items(), sample):
        (p, q) = prov.pair
        dx = p.x - q.x
        dy = p.y - q.y
        for t in multipliers:
            pt = Point(p.x + t * dx, p.y + t * dy)
            if not on_line(pt, line):
                all_on = False
            total += 1
            if box.contains(pt):
                inside += 1
    return all_on, (inside / total if total else 1.0)


def claim1_statistic(geom, realized_p=None):
    """|L_(0,0)| * r^4 / |P|^2: the single-cell line count at its claimed
    rate, using the realized point-set size."""
    cell_pts = geom.cell_points()
    if len(cell_pts) < 2:
        n_lines = 0
    else:
        n_lines = len(_line_counts(cell_pts))
    if realized_p is None:
        box = build_pointset(geom.basis, geom.params.n, geom.params.alpha)
        realized_p = len(box)
    return n_lines, n_lines * geom.params.r**4 / realized_p**2


def claim3_claim4_statistics(box, family, r, richnesses=None):
    """(incidences * r^2 / |P|^2, |L| * r^3 / |P|^2) with exact counts."""
    if richnesses is None:
        richnesses = line_richnesses(list(family), box)
    incidences = sum(richnesses)
    p = len(box)
    return incidences, incidences * r**2 / p**2, len(family) * r**3 / p**2


@dataclass
class TunedConstruction:
    params: ConstructionParams  # with the final c1
    geometry: CellGeometry
    family: LineFamily
    report: RichnessReport
    halvings: int


def _all_raw_rich(basis, raw, box, r):
    """Fast tuning gate: every raw family triple is r-rich in the box.

    Raw triples are checked before any canonicalization and in order of
    decreasing coefficient size (steep lines fail first), so rejected cell
    constants bail out early instead of paying for the full family.
    """
    keys = sorted(raw, key=lambda k: max(abs(v) for v in k), reverse=True)
    if basis.degree == 1 and box.x_set.scale == 1 and box.y_set.scale == 1:
        rich = _richness_batch_d1_triples(keys, box)
        return all(k >= r for k in rich)
    d = basis.degree
    x_cols = [x.coords for x in box.columns()]
    for key in keys:
        k = _count_on_line_int(
            basis, key[:d], key[d : 2 * d], key[2 * d :], box, x_cols
        )
        if k < r:
            return False
    return True


def auto_tune_c1(params, max_halvings=20):
    """Halve the cell constant from its starting value until every family
    line is r-rich and the translates are exactly disjoint; fail loudly after
    max_halvings."""
    basis = params.basis
    box = build_pointset(basis, params.n, params.alpha)
    c1 = params.c1
    last_reason = "no admissible cell"
    for step in range(max_halvings + 1):
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
        if not verify_disjoint_translates(geom):
            last_reason = f"translates overlap at c1={c1}"
        else:
            raw, cell_pts, translates = _raw_family(geom)
            if _all_raw_rich(basis, raw, box, params.r):
                family = _family_from_raw(basis, raw, cell_pts, translates)
                report = verify_claim2(family, box, params.r)
                if report.frac_r_rich != 1.0:
                    raise AssertionError(
                        "raw-triple gate disagrees with canonical richness"
                    )
                return TunedConstruction(trial, geom, family, report, step)
            last_reason = f"a family line has richness below r at c1={c1}"
        c1 = c1 / 2
    raise AutoTuneError(
        f"no c1 in {max_halvings} halvings gives a fully r-rich disjoint "
        f"construction ({last_reason})"
    )


def build_construction(params):
    """Build (pointset, geometry, family) honoring params.auto_tune."""
    box = build_pointset(params.basis, params.n, params.alpha)
    if params.auto_tune:
        tuned = auto_tune_c1(params)
        return box, tuned
    geom = build_cell_geometry(params)
    family = generate_line_family(geom)
    report = verify_claim2(family, box, params.r)
    return box, TunedConstruction(params, geom, family, report, 0)


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
    """round(x^(1/3)) for a positive Fraction x, exactly."""
    t = 0
    while (t + 1) ** 3 <= x:
        t += 1
    # round up when x >= (t + 1/2)^3
    if Fraction(2 * t + 1, 2) ** 3 <= x:
        return t + 1
    return t


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
        p, q = alpha.numerator, alpha.denominator
        if r**q > n**p:
            continue
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
    rich = line_richnesses(list(family), box)
    incidences = sum(rich)
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
