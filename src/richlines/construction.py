"""The translate construction: point set, cell, translate lattice, line
family, and exact verifiers for its claimed statistics.

The pipeline takes P = A_{n^a}(Lambda) x A_{n^(1-a)}(Lambda), carves out the
much smaller cell P' = A_{C1 n^a / r} x A_{C1 n^(1-a) / r}, translates it by
the lattice A_r(s Lambda) x A_r(s' Lambda), and collects every line spanned
by two points of a translated cell.  The translates are disjoint and lie in
A_{C1 n^a} x A_{C1 n^(1-a)} by the floors of their radii and steps
(build_cell_geometry), so no build checks either.  With a small enough cell
constant C1, every collected line is r-rich in P; the verifiers check that
and the rate statistics by exact counting.

Points are integer coordinate rows throughout: PointBox.coords() gives the
box, the cell PointBox(cell_x, cell_y) and the translates PointBox(trans_x,
trans_y) as (size, 2d) arrays, x then y.  The family module builds the
line family from them, by one rule per degree: in degree 1 in closed form
from the grid cell and the translate rows (_grid, which generate_line_family
and the tuning gate pass), in every higher degree by grouping the cell's
pairs.  The richness module counts its lines.  A build only builds, and
keeps the tuning gate's counts; verify_claim2 counts only the lines of a
fixed-c1 build, so it counts nothing the gate counted, and replays the
multiplier mechanism in one array computation.  A run builds no Point,
Element or CanonicalLine: a RichnessReport builds its failing line when it
is read, and no output reads it.

Each auto-tuning attempt gates a probe first: the lines through the cell's
corner and each other cell point, moved to every translate.  A probe line
passes through two points of one translated cell, so it is a family line,
and one below r rejects the attempt exactly as the full gate would.  The
family is built only when the probe passes, and the full gate then counts
every family key, the probe's lines again among them, so the verdict, the
accepted c1 and the family are the full gate's.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import floor

import numpy as np

from .errors import InvalidParameterError, RichlinesError, RTooLargeError
from .family import LineFamily, _family, _probe
from .gapset import (
    GapSet,
    floor_scaled_root,
    gap_set,
    gap_set_power,
    iroot,
)
from .geometry import CanonicalLine, canonical_least, lines_to_text
from .numberfield import NiceBasis, _exact_dtype, _mul_rows, product_bounds
from .richness import _key_richnesses

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
    """The cell degenerated before any halving of the cell constant made
    every family line r-rich.  Richness is the only test: translates are
    disjoint by construction (step > 2 (step // 3)), so no attempt checks
    them."""


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
    """The Cartesian product of two GAP boxes, read as its coordinate rows,
    coords()."""

    def __init__(self, x_set, y_set):
        self.x_set = x_set
        self.y_set = y_set
        self.basis = x_set.basis

    @property
    def size(self):
        return self.x_set.size * self.y_set.size

    def __len__(self):
        return self.size

    def coords(self):
        """The (size, 2d) array of point coordinates, x then y, x-major, in
        the wider dtype of the two axes' coords()."""
        x, y = self.x_set.coords(), self.y_set.coords()
        return np.concatenate([np.repeat(x, len(y), axis=0), np.tile(y, (len(x), 1))], axis=1)


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

    @property
    def basis(self):
        return self.params.basis


def build_cell_geometry(params):
    """Cell P', step sizes s, s', and the translate lattice boxes.

    One root per axis: the step s = floor((C1 n^alpha / r)^(1/d)) (resp.
    s'), and the radius of A_{C1 n^alpha / r}(Lambda) is s // 3.  Shifts
    are multiples of s > 2 (s // 3), so the translates are disjoint by
    construction and nothing checks them, and a nondegenerate cell has
    s >= 3.

    The translates lie in A_{C1 n^alpha}(Lambda) by two floors, so nothing
    checks that either.  Let A = floor(r^(1/d)), B = s and F = floor((C1
    n^alpha)^(1/d)); the translate radius is A // 3 at scale B, and the
    outer radius is F // 3.  As A B is an integer at most (C1
    n^alpha)^(1/d), A B <= F, so (A // 3) B <= floor(A B / 3) <= F // 3.
    The y axis is the same with 1 - alpha and s'.
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
    return CellGeometry(params, cell_x, cell_y, s, s_prime, trans_x, trans_y)


def translate_vectors(geom):
    """All shift vectors (x, y), x in A_r(s Lambda), y in A_r(s' Lambda),
    as the (translates, 2d) coordinate rows of PointBox(trans_x, trans_y),
    in its x-major order."""
    return PointBox(geom.trans_x, geom.trans_y).coords()


def generate_line_family(geom):
    """Union over translates of all lines through two translated-cell points,
    deduplicated by primitive key, in raw order, with deterministic
    provenance: each line keeps its lexicographically-smallest (translate,
    pair) witness.  In degree 1 the family is taken in closed form from
    the grid cell, else by grouping the cell's pairs (family._family)."""
    cell = PointBox(geom.cell_x, geom.cell_y).coords()
    return _family(geom.basis, cell, translate_vectors(geom), _grid(geom))


def _grid(geom):
    """The cell's (width, height) in points, which the degree-1 family
    kernels read its grid from: a degree-1 cell is the box of consecutive
    integers, its axes at scale 1."""
    return len(geom.cell_x), len(geom.cell_y)


@dataclass
class RichnessReport:
    """verify_claim2's verdict on a family.  Its failing_line is built on
    first read, so a run that names no line builds no CanonicalLine."""

    r: int
    num_lines: int
    min_richness: int
    frac_r_rich: float
    richnesses: np.ndarray  # int64, in the family's (raw) order
    mechanism_on_line: bool
    mechanism_in_p_fraction: float
    family: LineFamily = field(repr=False, compare=False)

    @cached_property
    def failing_line(self):
        """The canonically least line below r, picked by canonical_least
        among those lines alone, or None when every line is r-rich."""
        low = np.flatnonzero(self.richnesses < self.r)
        if not len(low):
            return None
        basis, keys = self.family.basis, self.family.keys
        (least,) = low[canonical_least(basis, keys[low], 1)]
        return CanonicalLine(basis, tuple(keys[least].tolist()))


def verify_claim2(family, box, r, richnesses=None):
    """Exact per-line richness of the family in the box, counted here by
    _key_richnesses unless `richnesses` gives them in the family's key
    order.  The report picks its failing line only when it is read.

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
        return RichnessReport(r, 0, 0, 1.0, rich, True, 1.0, family)
    mech_on, mech_in = _mechanism_check(family, box, r)
    frac = int(np.count_nonzero(rich >= r)) / len(rich)
    return RichnessReport(r, len(rich), int(rich.min()), frac, rich, mech_on, mech_in, family)


_MECHANISM_SAMPLE = 8  # lines whose multiplier mechanism verify_claim2 replays


def _mechanism_check(family, box, r):
    """Replay the multiplier mechanism on the _MECHANISM_SAMPLE canonically
    least family lines, picked by canonical_least: (whether every replayed
    point lies on its line, the fraction of them that lie in the box).
    Neither output depends on the order within the sample, and only the
    sample's witness rows are derived.

    A line's witnesses p, q are its cell points i, j moved by its translate.
    For each t in A_{3^d r}(Lambda) the point p + t(p - q) lies on the line
    through p and q, which is a*x + b*y + c = 0 for the line's key (a, b, c);
    it lies in the box when each coordinate of x and y is a multiple of its
    axis' scale of absolute value at most radius * scale.  Every sample and
    multiplier is one entry of one array computation, every product of two
    coordinate arrays taken by numberfield._mul_rows, in the dtype
    _exact_dtype picks for _mechanism_bound (object past int64).
    """
    basis = family.basis
    d = basis.degree
    sample = canonical_least(basis, family.keys, _MECHANISM_SAMPLE)
    t_idx, i, j = family.witness_rows(sample).T
    shift = family.translates[t_idx].astype(object)
    p, q = (family.cell[idx].astype(object) + shift for idx in (i, j))
    keys = family.keys[sample]
    t = gap_set(basis, Fraction(3**d * r)).coords()
    dtype = _exact_dtype(_mechanism_bound(basis, p, q, keys, t, box))
    p, pq, keys, t = (m.astype(dtype) for m in (p, p - q, keys, t))
    # (samples, multipliers, d) coordinates of the replayed points' x and y
    x, y = (p[:, None, k : k + d] + _mul_rows(basis, t, pq[:, None, k : k + d]) for k in (0, d))
    on = _mul_rows(basis, x, keys[:, None, :d]) + _mul_rows(basis, y, keys[:, None, d : 2 * d])
    on += keys[:, None, 2 * d :]
    inside = box.x_set.contains_rows(x) & box.y_set.contains_rows(y)
    return not on.any(), int(inside.sum()) / inside.size


def _mechanism_bound(basis, p, q, keys, t, box):
    """A bound on c_lambda and every intermediate of _mechanism_check: with w
    the largest witness coordinate and m the largest multiplier's, replayed
    points' coordinates are at most z = w + max product_bounds(m, 2w), and
    a*x + b*y + c at most 2 max product_bounds(k, z) + k for keys at most k."""
    w, k, m = (int(np.abs(v).max(initial=0)) for v in (np.concatenate([p, q]), keys, t))
    z = w + max(product_bounds(basis, m, 2 * w))
    return max(
        m,
        2 * w,
        z,
        2 * max(product_bounds(basis, k, z)) + k,
        basis.c_lambda,
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


def _below_r(params, key, richness):
    """Why an attempt was rejected: its line below r and the configuration."""
    line = lines_to_text(params.basis, key[None]).strip()
    return (
        f"line {line} has richness {richness} < r={params.r} "
        f"at c1={params.c1}, basis {params.basis.description}, n={params.n}, "
        f"alpha={params.alpha}"
    )


def _gated_family(basis, cell, translates, box, r, grid=None):
    """One attempt of auto_tune_c1, for the cell and translate rows:
    (family, rich, None) with rich the richness of each family line in the
    family's order when every line is r-rich, else (None, None, (key,
    richness)) for the key row of a line found below r.  grid is the
    cell's (width, height) when it is a grid (_grid), which the degree-1
    kernels take their lines from.

    The probe, the lines through the cell's corner (family._probe), is
    gated first; the family is built only when it passes, and the full
    gate then counts every family key, the probe's lines among them, in
    the family's raw order."""
    keys = _probe(basis, cell, translates, grid)
    rich = _key_richnesses(basis, keys, box, r)
    if (rich >= r).all():
        family = _family(basis, cell, translates, grid)
        keys, rich = family.keys, _key_richnesses(basis, family.keys, box, r)
        if (rich >= r).all():
            return family, rich, None
    low = np.flatnonzero(rich < r)[0]
    return None, None, (keys[low], rich[low])


def auto_tune_c1(params):
    """Halve the cell constant from its starting value until every family
    line is r-rich; when the cell degenerates first, fail loudly, naming
    the last line found below r and the configuration.  Translates are
    disjoint by construction (step > 2 (step // 3)), so r-richness is the
    only test.

    The cell degenerates within 7, 6, 5 or 4 halvings for d = 1, 2, 3, 4,
    so the loop needs no cap.  The smaller step is s, as alpha <= 1/2, and
    the first cell holds at least (2 (s // 3) + 1)^(2d) points, so one
    within POINT_CAP has s at most 335, 20, 8 or 5.  Each halving divides
    the root (C1 n^alpha / r)^(1/d), whose floor is s, by 2^(1/d), and the
    cell degenerates once the root is below 3: from below 336, 21, 9 or 6,
    that takes 7, 6, 5 or 4 halvings.

    Each attempt gates the lines through one cell corner before it builds
    the family (_gated_family).  Those lines are family lines, so one below
    r rejects the attempt as the full gate would, and a probe that passes
    leaves the verdict to the full gate: the accepted c1, the halvings, the
    family and every richness are the full gate's alone.  An attempt that
    repeats the last gated one's cell and translate rows gates the same
    family, so it reuses that line below r; the reason is formatted only
    for the error."""
    basis = params.basis
    box = build_pointset(basis, params.n, params.alpha)
    c1, gated = params.c1, (None, None)
    for step in itertools.count():
        trial = params.with_c1(c1)
        try:
            geom = build_cell_geometry(trial)
        except RTooLargeError as err:
            if step == 0:
                raise
            raise AutoTuneError(
                f"cell degenerated after {step} halvings without reaching a "
                f"fully r-rich family (last failure: {_below_r(*last)})"
            ) from err
        cell, translates = PointBox(geom.cell_x, geom.cell_y).coords(), translate_vectors(geom)
        if not all(map(np.array_equal, (cell, translates), gated)):
            family, rich, low = _gated_family(basis, cell, translates, box, params.r, _grid(geom))
            if low is None:
                return TunedConstruction(trial, geom, box, family, rich, step)
            gated = cell, translates
        last = (trial, *low)
        c1 = c1 / 2


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
