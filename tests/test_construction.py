"""The translate pipeline: point box, cell, lattice, family, verifiers."""

import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from richlines import construction, richness
from richlines.construction import (
    AutoTuneError,
    ConstructionParams,
    PointBox,
    auto_tune_c1,
    build_cell_geometry,
    build_construction,
    build_pointset,
    claim1_statistic,
    claim3_claim4_statistics,
    generate_line_family,
    szt_incidence_construction,
    translate_vectors,
    verify_claim2,
    _round_cube_root,
)
from richlines.errors import InvalidParameterError, RTooLargeError
from richlines.family import (
    LineFamily,
    _corner_keys,
    _family,
    _grid_bound,
    _grid_lines,
    _probe,
    _raw_family,
    _spread,
)
from richlines.gapset import GapSet, gap_set, gap_set_power
from richlines.geometry import (
    CanonicalLine,
    Point,
    canonical_least,
    canonical_order,
    line_through,
    on_line,
)
from richlines.keys import (
    _CHUNK_PAIRS,
    _richness_from_pairs,
    _shift_bound,
    _sorted_runs,
    group_pairs,
    key_tuples,
    shift_keys,
)
from richlines.numberfield import (
    Element,
    NiceBasis,
    _exact_dtype,
    _mul_rows,
    build_power_basis,
    build_quadratic_basis,
    product_bounds,
)
from richlines.richness import _key_richnesses
from richlines.sweep import _InterceptWords, _sweep, rich_line_keys

from conftest import ARITH_BASES, DTYPE_THRESHOLDS
from reference import (
    box_contains,
    box_points,
    count_on_line_int,
    family_lines,
    lines_from_text,
    nearest_translates_meet,
    raw_pair_counts_loop,
    witness_points,
)
from tracing import traced_max

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def test_pointset_sizes(integers, sqrt2):
    assert len(build_pointset(integers, 81, HALF)) == 49
    assert len(build_pointset(integers, 81, Fraction(1, 4))) == 57
    assert len(build_pointset(sqrt2, 81, HALF)) == 81


def test_pointset_validation(integers):
    with pytest.raises(InvalidParameterError):
        build_pointset(integers, 81, Fraction(3, 5))
    with pytest.raises(InvalidParameterError):
        build_pointset(integers, 1, HALF)


def test_params_validation(integers):
    with pytest.raises(InvalidParameterError):
        ConstructionParams(integers, 100, HALF, 1)
    with pytest.raises(InvalidParameterError):
        ConstructionParams(integers, 100, HALF, 11)  # r > n^(1/2)
    with pytest.raises(InvalidParameterError):
        ConstructionParams(integers, 100, HALF, 3, Fraction(2))
    # boundary: r = n^alpha exactly is allowed
    ConstructionParams(integers, 100, HALF, 10)


def test_cell_geometry_example(integers):
    geom = build_cell_geometry(ConstructionParams(integers, 8100, HALF, 5))
    assert geom.cell_x.radius == 6
    assert geom.s == 18
    geom2 = build_cell_geometry(
        ConstructionParams(integers, 8100, HALF, 5, HALF)
    )
    assert geom2.s == 9


def test_cell_degenerate_raises(integers):
    with pytest.raises(RTooLargeError):
        build_cell_geometry(ConstructionParams(integers, 100, HALF, 10))


def test_translate_vectors_count(integers, sqrt2):
    geom = build_cell_geometry(ConstructionParams(integers, 8100, HALF, 9))
    xs = sorted(set(translate_vectors(geom)[:, 0].tolist()))
    assert len(xs) == 7 and all(v % geom.s == 0 for v in xs)
    assert len(translate_vectors(geom)) == 49  # (2*floor(9/3)+1)^2 = 49
    # r = 2 has multiplier radius 0: the single zero translate
    geom2 = build_cell_geometry(ConstructionParams(integers, 8100, HALF, 2))
    assert translate_vectors(geom2).tolist() == [[0, 0]]


def test_translate_vectors_order(integers, sqrt2):
    """The translate rows are the shifts (x, y) in the order of
    itertools.product(trans_x, trans_y), x-major."""
    for params in (
        ConstructionParams(integers, 8100, HALF, 9),
        ConstructionParams(sqrt2, 6561, HALF, 9),
    ):
        geom = build_cell_geometry(params)
        rows = translate_vectors(geom)
        product = itertools.product(geom.trans_x, geom.trans_y)
        assert rows.tolist() == [list(x.coords + y.coords) for x, y in product]
        assert len(rows) == len(geom.trans_x) * len(geom.trans_y) > 1


def test_point_box_coords():
    """PointBox.coords() rows are the box's Points in box_points' order, x
    then y, for every arithmetic basis, with unequal and scaled axes, and in
    object dtype on a scale past int64."""
    for basis in ARITH_BASES:
        d = basis.degree
        for x_set, y_set in (
            (GapSet(basis, 1), GapSet(basis, 2 if d <= 2 else 1, scale=3)),
            (GapSet(basis, 0), GapSet(basis, 1, scale=2**62)),
        ):
            box = PointBox(x_set, y_set)
            rows = box.coords()
            assert rows.shape == (box.size, 2 * d)
            assert rows.tolist() == [list(p.x.coords + p.y.coords) for p in box_points(box)]
        box = PointBox(GapSet(basis, 1, scale=2**70), GapSet(basis, 1))
        assert box.coords().dtype == object
        assert box.coords().tolist() == [
            list(p.x.coords + p.y.coords) for p in box_points(box)
        ]


def test_overlapping_translates_detected(integers, sqrt2):
    """The set reference finds neighbouring translates that meet: steps
    sabotaged down to the cell radius meet on both axes, a step of 2 radius
    meets, and 2 radius + 1, the least disjoint step, does not."""
    for basis in (integers, sqrt2):
        geom = build_cell_geometry(ConstructionParams(basis, 8100, HALF, 5))
        assert not nearest_translates_meet(geom, 0)
        assert not nearest_translates_meet(geom, 1)
        geom.s, geom.s_prime = geom.cell_x.radius, geom.cell_y.radius
        assert nearest_translates_meet(geom, 0)
        assert nearest_translates_meet(geom, 1)
        geom.s_prime = 2 * geom.cell_y.radius
        assert nearest_translates_meet(geom, 1)
        geom.s_prime += 1
        assert not nearest_translates_meet(geom, 1)


def test_cell_radius_is_a_third_of_the_step():
    """On seeded random (basis, n <= 10^7, alpha, r <= 60, c1 = 2^-k) of
    every arithmetic basis, every geometry build_cell_geometry returns has
    1 <= s <= s', cell radii s // 3 and s' // 3, the radii of A_{C1 n^alpha
    / r}(Lambda) and of its n^(1-alpha) twin, translates inside the outer
    box A_{C1 n^alpha}(Lambda) (resp. n^(1-alpha)), whose radius bounds
    their largest |coordinate|, and disjoint translates: step > 2 radius on
    both axes, and on cells of at most 4,096 points the set reference finds
    the cell disjoint from its neighbouring copy on both axes."""
    rng = random.Random(22)
    for basis in ARITH_BASES:
        found = 0
        while found < 70:
            n = int(10 ** rng.uniform(1, 7))
            alpha = rng.choice(construction.ALPHA_GRID)
            r, c1 = rng.randint(2, 60), Fraction(1, 2 ** rng.randint(0, 6))
            try:
                geom = build_cell_geometry(ConstructionParams(basis, n, alpha, r, c1))
            except (InvalidParameterError, RTooLargeError):
                continue
            found += 1
            assert 1 <= geom.s <= geom.s_prime
            small = geom.cell_x.size * geom.cell_y.size <= 4096
            axes = (
                (geom.cell_x, geom.trans_x, geom.s, alpha),
                (geom.cell_y, geom.trans_y, geom.s_prime, 1 - alpha),
            )
            for axis, (cell, trans, step, exponent) in enumerate(axes):
                assert cell.radius == step // 3 == gap_set_power(basis, c1 / r, n, exponent).radius
                assert trans.scale == step
                assert trans.radius * step <= gap_set_power(basis, c1, n, exponent).radius
                assert step > 2 * cell.radius
                if small:
                    assert not nearest_translates_meet(geom, axis)


def test_family_witnesses_on_their_lines(sqrt2):
    geom = build_cell_geometry(ConstructionParams(sqrt2, 6561, HALF, 3))
    family = generate_line_family(geom)
    for index, line in zip(range(200), family_lines(family)):
        p, q = witness_points(family, index)
        assert on_line(p, line) and on_line(q, line)


def test_family_dedups_across_translates(integers):
    geom = build_cell_geometry(ConstructionParams(integers, 2304, HALF, 3, HALF))
    family = generate_line_family(geom)
    per_translate_total = 0
    cell = box_points(PointBox(geom.cell_x, geom.cell_y))
    for tx, ty in itertools.product(geom.trans_x, geom.trans_y):
        shifted = [Point(p.x + tx, p.y + ty) for p in cell]
        xs, ys = [p.x.coords for p in shifted], [p.y.coords for p in shifted]
        per_translate_total += len(raw_pair_counts_loop(integers, xs, ys))
    assert len(family) < per_translate_total


def _family_by_pair_scan(geom):
    """Reference family: line_through over every pair of every translated
    cell, keeping the smallest (translate index, i, j) witness per line."""
    cell = box_points(PointBox(geom.cell_x, geom.cell_y))
    best = {}
    for t_idx, (tx, ty) in enumerate(itertools.product(geom.trans_x, geom.trans_y)):
        pts = [Point(p.x + tx, p.y + ty) for p in cell]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                best.setdefault(line_through(pts[i], pts[j]), (t_idx, (pts[i], pts[j])))
    return best


def test_family_matches_pair_scan_reference(integers, sqrt2):
    nine = build_cell_geometry(ConstructionParams(sqrt2, 6561, HALF, 3))
    nine.trans_x = GapSet(sqrt2, 1, scale=nine.s)  # 9 x-shifts, 1 y-shift
    cases = [
        (build_cell_geometry(ConstructionParams(integers, 100, HALF, 2)), 1),
        (build_cell_geometry(ConstructionParams(integers, 400, HALF, 3)), 9),
        (build_cell_geometry(ConstructionParams(sqrt2, 400, HALF, 2)), 1),
        (nine, 9),
    ]
    for geom, num_translates in cases:
        assert len(translate_vectors(geom)) == num_translates
        family = generate_line_family(geom)
        best = _family_by_pair_scan(geom)
        # the family is in raw order: compare the lines in canonical order
        lines, witnesses = family_lines(family), family.witness_rows(slice(None))
        canonical = sorted(lines, key=CanonicalLine.sort_key)
        assert canonical == sorted(best, key=CanonicalLine.sort_key)
        for index, line in enumerate(lines):
            witness = (witnesses[index][0], witness_points(family, index))
            assert witness == best[line]


def test_family_shift_exact_past_int64(sqrt2):
    """Moved keys take the dtype _exact_dtype picks for the bound of
    shift_keys, object exactly past int64, and the broadcast over every
    translate matches the per-translate reference loop on four translates
    at a time: small ones, and on each side of int64."""
    cell = [
        Point(Element(sqrt2, (i, j)), Element(sqrt2, (j, i + 1)))
        for i in range(3)
        for j in range(3)
    ]
    cell_rows = _rows((p.x, p.y) for p in cell)
    zero = Element(sqrt2, (0, 0))
    cell_keys = group_pairs(sqrt2, cell_rows[:, :2], cell_rows[:, 2:])[0]
    coeff = int(np.abs(cell_keys[:, :4]).max())
    const = int(np.abs(cell_keys[:, 4:]).max())
    for big in (10, 10**17, 10**19):
        translates = [
            (zero, zero),
            (Element(sqrt2, (big, 1)), Element(sqrt2, (7, big))),
            (Element(sqrt2, (-big, 3)), Element(sqrt2, (2, big - 1))),
            (Element(sqrt2, (5, -big)), Element(sqrt2, (-big, -2))),
        ]
        best = {}
        for t_idx, (tx, ty) in enumerate(translates):
            pts = [Point(p.x + tx, p.y + ty) for p in cell]
            raw = raw_pair_counts_loop(
                sqrt2, [p.x.coords for p in pts], [p.y.coords for p in pts]
            )
            for key, (_, i, j) in sorted(raw.items(), key=lambda kv: kv[1][1:]):
                best.setdefault(key, (t_idx, i, j))
        family = _raw_family(sqrt2, cell_rows, _rows(translates))
        keys, witnesses = family.keys, family.witness_rows(slice(None))
        bound = max(coeff, const + 2 * max(product_bounds(sqrt2, coeff, big)))
        assert keys.dtype == _exact_dtype(bound)
        assert keys.dtype == {10: np.int16, 10**17: np.int64, 10**19: object}[big]
        assert len(keys) == len(best)
        assert dict(zip(key_tuples(keys), map(tuple, witnesses.tolist()))) == best
    # a zero translate keeps a and b exact when they outgrow c
    steep = np.array([[300, 0, 1, 0, 0, 0]], dtype=np.int16)
    assert shift_keys(sqrt2, steep, [(0, 0)], [(0, 0)]).tolist() == steep.tolist()
    # a list translate in [2^63, 2^64) beside a small entry stays exact
    moved = shift_keys(sqrt2, steep, [(2**63 + 1, 1)], [(0, 0)])
    assert moved.tolist() == [[300, 0, 1, 0, -300 * (2**63 + 1), -300]]


def _same_family(got, expected):
    """Whether two LineFamilys agree in cell_lines and in the dtype and
    entries of keys, origin and first."""
    return got.cell_lines == expected.cell_lines and all(
        u.dtype == v.dtype and np.array_equal(u, v)
        for u, v in (
            (got.keys, expected.keys),
            (got.origin, expected.origin),
            (got.first, expected.first),
        )
    )


def _grid_route(basis, cell, translates, grid):
    """The closed-form family of a grid cell, asserting that it equals the
    pair route's (_same_family) and that the closed-form probe equals
    _corner_keys in rows and dtype."""
    got = _family(basis, cell, translates, grid)
    assert _same_family(got, _raw_family(basis, cell, translates))
    probe, expected = _probe(basis, cell, translates, grid), _corner_keys(basis, cell, translates)
    assert probe.dtype == expected.dtype and np.array_equal(probe, expected)
    return got


def _grid_rows(w, h, x0=0, y0=0):
    """The rows of the w x h grid of consecutive integers from (x0, y0),
    x-major, as PointBox.coords() gives a degree-1 cell."""
    xs, ys = np.arange(x0, x0 + w), np.arange(y0, y0 + h)
    return np.column_stack([np.repeat(xs, h), np.tile(ys, w)])


def test_grid_family_matches_pair_route():
    """The closed-form degree-1 family, family._family given the cell's
    grid, equals the pair route, _raw_family, in its keys and their dtype,
    origin, first and cell_lines, and the closed-form probe, family._probe,
    equals _corner_keys in its rows and their dtype: on seeded construction
    cells of the integers and of l l = -3 l, at alpha 1/2 and 1/3, with c1
    from 1 down to 1/8, with one translate and with translate radii of 1 and
    more; and on a 3 x 4 grid off the origin, with a zero translate and one
    translate (t, -t), on each side of the int8 and int16 thresholds of
    _exact_dtype, where the family's dtype steps as shift_keys' bound
    says."""
    rng = random.Random(41)
    minus3 = NiceBasis([[[-3]]])
    for basis in (ARITH_BASES[0], minus3):
        seen = set()  # (alpha, one translate, c1 < 1): all 8 kinds
        while len(seen) < 8:
            alpha, c1 = rng.choice((HALF, THIRD)), Fraction(1, 2 ** rng.randint(0, 3))
            n, r = int(10 ** rng.uniform(1, 7)), rng.randint(2, 12)
            try:
                geom = build_cell_geometry(ConstructionParams(basis, n, alpha, r, c1))
            except (InvalidParameterError, RTooLargeError):
                continue
            grid = construction._grid(geom)
            if grid[0] * grid[1] > 200:
                continue
            cell, translates = PointBox(geom.cell_x, geom.cell_y).coords(), translate_vectors(geom)
            got = _grid_route(basis, cell, translates, grid)
            assert _same_family(generate_line_family(geom), got)
            seen.add((alpha, len(translates) == 1, c1 < 1))

        cell = _grid_rows(3, 4, -1, 2)
        keys = group_pairs(basis, cell[:, :1], cell[:, 1:])[0]
        coeff, const = int(np.abs(keys[:, :2]).max()), int(np.abs(keys[:, 2]).max())
        for top, dtype, wider in DTYPE_THRESHOLDS[:2]:
            shift = max(t for t in range(top) if _shift_bound(basis, coeff, const, t) <= top)
            for t, expected in ((shift, dtype), (shift + 1, wider)):
                translates = np.array([[0, 0], [t, -t]])
                assert _grid_route(basis, cell, translates, (3, 4)).keys.dtype == expected


def test_spread_keeps_one_translate_in_order():
    """_spread with one translate skips its sort: on seeded cells of every
    arithmetic basis, with a zero and a nonzero translate, it returns the
    moved keys deduplicated and ordered as the stable sort does, each its
    own origin."""
    rng = random.Random(43)
    for basis in ARITH_BASES:
        d = basis.degree
        cell = np.array(sorted({tuple(rng.randint(-2, 2) for _ in range(2 * d)) for _ in range(8)}))
        keys = group_pairs(basis, cell[:, :d], cell[:, d:])[0]
        for translate in ([0] * (2 * d), [rng.randint(-9, 9) for _ in range(2 * d)]):
            translates = np.array([translate])
            moved, origin = _spread(basis, keys, translates)
            every = shift_keys(basis, keys, translates[:, :d], translates[:, d:])
            order, heads = _sorted_runs(every.T)
            assert moved.dtype == every.dtype
            assert moved.tolist() == every[order[heads]].tolist()
            assert origin.dtype == order.dtype
            assert origin.tolist() == order[heads].tolist() == list(range(len(keys)))


def test_grid_lines_stay_within_their_bound(monkeypatch):
    """Every intermediate of _grid_lines lies within _grid_bound, by
    traced_max, for the whole family and for the probe, on the integers and
    on l l = -3 l: grids at the origin and off it, so that one corner holds
    the largest |x| and |y|, with one zero translate, a 3 x 3 lattice, and
    far translates of mixed signs.  The traced run gives the untraced keys,
    origin and first."""
    bounds = []
    monkeypatch.setattr(
        "richlines.family._grid_bound", lambda *a: bounds.append(_grid_bound(*a)) or bounds[-1]
    )
    lattice = np.array([[5 * i, 7 * j] for i in (-1, 0, 1) for j in (-1, 0, 1)])
    far = np.array([[0, 0], [40, -33], [-50, 61], [97, 97]])
    for basis in (ARITH_BASES[0], NiceBasis([[[-3]]])):
        for (w, h, x0, y0), translates in itertools.product(
            ((3, 3, -1, -1), (4, 2, 5, -7), (1, 5, -2, 0), (5, 1, 0, 3)),
            (np.zeros((1, 2), np.int64), lattice, far),
        ):
            cell = _grid_rows(w, h, x0, y0)
            for corner in (False, True):
                plain = _grid_lines(basis, cell, translates, (w, h), corner)
                traced, top = traced_max(_grid_lines, basis, cell, translates, (w, h), corner)
                assert top <= bounds[-1]
                assert [v.tolist() for v in traced] == [v.tolist() for v in plain]


def test_shift_keys_stays_within_its_bound():
    """Every intermediate of keys.shift_keys lies within _shift_bound, by
    traced_max: seeded cell keys of every arithmetic basis moved by seeded
    translates, and over the integers the key (coeff, coeff, const) moved by
    the translate (-shift, -shift), whose c - a tx - b ty = const + 2 coeff
    shift reaches the bound."""
    rng = random.Random(47)
    for basis in ARITH_BASES:
        d = basis.degree
        cell = np.array(sorted({tuple(rng.randint(-2, 2) for _ in range(2 * d)) for _ in range(7)}))
        keys = group_pairs(basis, cell[:, :d], cell[:, d:])[0].astype(np.int64)
        tx, ty = (
            np.array([[rng.randint(-30, 30) for _ in range(d)] for _ in range(3)]) for _ in "xy"
        )
        coeff, const = int(np.abs(keys[:, : 2 * d]).max()), int(np.abs(keys[:, 2 * d :]).max())
        shift = int(max(np.abs(tx).max(), np.abs(ty).max()))
        moved, top = traced_max(shift_keys, basis, keys, tx, ty)
        assert moved.tolist() == shift_keys(basis, keys, tx, ty).tolist()
        assert top <= _shift_bound(basis, coeff, const, shift)
    integers, far = ARITH_BASES[0], np.array([[-6]])
    moved, top = traced_max(shift_keys, integers, np.array([[4, 4, 9]]), far, far)
    assert moved.tolist() == [[4, 4, 9 + 2 * 4 * 6]]
    assert top == _shift_bound(integers, 4, 9, 6) == 9 + 2 * 4 * 6


def test_line_richness_matches_bruteforce(integers, sqrt2):
    """Batched and per-line richness equal the direction-sweep oracle's on a
    small box of every basis.  The x^4 - x - 1 basis takes its 81-point box
    at alpha = 1/4, whose x axis is the single point 0: its one line is the
    vertical line x = 0."""
    sqrt5, gauss, cbrt2, quartic = ARITH_BASES[2:]
    cases = (
        (integers, 2304, HALF, 3),
        (sqrt2, 81, HALF, 3),
        (sqrt5, 81, HALF, 3),
        (gauss, 81, HALF, 3),
        (cbrt2, 1000, HALF, 5),
        (quartic, 10000, Fraction(1, 4), 3),
    )
    for basis, n, alpha, r in cases:
        box = build_pointset(basis, n, alpha)
        keys, rich = rich_line_keys(basis, box.x_set.coords(), box.y_set.coords(), r)
        order = canonical_order(basis, keys)
        keys, rich = keys[order], rich[order].tolist()
        assert rich
        assert _key_richnesses(basis, keys, box).tolist() == rich
        for key, richness in zip(key_tuples(keys[:50]), rich):
            assert count_on_line_int(basis, key, box) == richness
    # X + (2^62 - 3)/(2^62 + 1) Y = 0: a*x overflows int64 inside the box
    box = build_pointset(integers, 100, HALF)
    (line,) = lines_from_text(f"1/1 {2**62 - 3}/{2**62 + 1} 0/1\n", integers)
    exact = sum(on_line(p, line) for p in box_points(box))
    assert exact == 1
    assert _key_richnesses(integers, [line.key], box).tolist() == [exact]
    assert count_on_line_int(integers, line.key, box) == exact


def _richness_bound(basis, key, box):
    """The bound whose _exact_dtype the counter takes for the one key:
    richness._closed_form_bound in degree 1, else _block_bound for a
    block holding the key."""
    d = basis.degree
    if d == 1:
        return richness._closed_form_bound(basis, np.array([key], dtype=object), box)
    a, b, c = (np.array([key[k : k + d]], dtype=object) for k in (0, d, 2 * d))
    if any(key[d : 2 * d]):
        pivot, other, columns, target = b, a, box.x_set, box.y_set
    else:
        pivot, other, columns, target = a, b, box.y_set, box.x_set
    return richness._block_bound(basis, pivot, other, c, columns.coords(), target)


def test_batched_richness_matches_per_line_reference():
    """The batched counter equals count_on_line_int on seeded random keys of
    every arithmetic basis, over a box whose x axis is scaled: lines through
    two box points (vertical ones included), random keys (most miss the
    box), and three lines through box points multiplied up to one step
    either side of each _exact_dtype threshold of the counter's bound
    (_closed_form_bound in degree 1, else _block_bound): int8, int16, int32,
    and int64, past which the counter runs in object dtype."""
    rng = random.Random(21)
    for basis in ARITH_BASES:
        d = basis.degree
        rx, ry = (2, 3) if d <= 2 else (1, 1)
        box = construction.PointBox(GapSet(basis, rx, scale=2), GapSet(basis, ry))
        xs, ys = list(box.x_set), list(box.y_set)
        keys = []
        for _ in range(60):
            p, q = (Point(rng.choice(xs), rng.choice(ys)) for _ in range(2))
            if p != q:
                keys.append(line_through(p, q).key)
        for _ in range(10):
            x = rng.choice(xs)
            y1, y2 = rng.sample(ys, 2)
            keys.append(line_through(Point(x, y1), Point(x, y2)).key)
        while len(keys) < 120:
            key = tuple(rng.randint(-9, 9) for _ in range(3 * d))
            if any(key[: 2 * d]):
                keys.append(key)
        expected = [count_on_line_int(basis, key, box) for key in keys]
        assert richness._key_richnesses(basis, keys, box).tolist() == expected
        assert 0 in expected and max(expected) > 2
        vertical = [k for k, r in zip(keys, expected) if r and not any(k[d : 2 * d])]
        assert vertical
        richest = max(zip(expected, keys))[1]
        # a steep line through the origin: c = 0, so the columns drive the bound
        origin = Point(Element(basis, [0] * d), Element(basis, [0] * d))
        corner = Point(Element(basis, [2] + [0] * (d - 1)), Element(basis, [ry] * d))
        through_origin = line_through(origin, corner).key
        for key in (richest, vertical[0], through_origin):
            rich = count_on_line_int(basis, key, box)
            for limit, below, above in DTYPE_THRESHOLDS:
                lo, hi = 0, 2**63  # the largest multiple whose bound is at most limit
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    fits = _richness_bound(basis, [mid * v for v in key], box) <= limit
                    lo, hi = (mid, hi) if fits else (lo, mid)
                if not lo:  # the key itself is past this threshold
                    continue
                for t, dtype in ((lo, below), (lo + 1, above)):
                    scaled = tuple(t * v for v in key)
                    assert _exact_dtype(_richness_bound(basis, scaled, box)) == dtype
                    assert count_on_line_int(basis, scaled, box) == rich
                    assert richness._key_richnesses(basis, [scaled], box).tolist() == [rich]
            assert lo  # the int64 threshold


def test_intercept_words_pack_box_intercepts():
    """_InterceptWords, the packing of the oracle's sweep, on seeded random
    directions of every arithmetic basis over a box with a scaled x axis,
    and on one direction scaled by 2^62, whose words are past int64: the
    word of_points gives a box point decodes through intercepts to the
    point's intercept c = -(a x + b y), sign included, and of_intercepts
    packs c to the same word, the two routes count_rich_lines matches; each
    word lies in [0, bins); two points share a word exactly when they share
    an intercept; and an intercept one past +-cm in any coordinate is not
    inside, while the corners +-(cm, ..., cm) are, with the words bins - 1
    and 0."""
    rng = random.Random(7)
    for basis in ARITH_BASES:
        d = basis.degree
        mul = basis.mul_coords
        box = construction.PointBox(GapSet(basis, 1, 2), GapSet(basis, 1))
        points = box.coords().tolist()
        sample = rng.sample(range(len(box)), min(len(box), 200))
        ab = [[rng.randint(-3, 3) for _ in range(2 * d)] for _ in range(4)]
        ab.append([2**62] * d + [0] * d)
        for rows in ([0, 1, 2, 3], [4]):
            words = _InterceptWords(basis, np.array([ab[k] for k in rows]), 2, 1)
            assert (words.dtype == object) == (rows == [4])
            x, y = (s.coords().astype(words.dtype) for s in (box.x_set, box.y_set))
            packed = words.of_points(np.arange(len(rows)), x, y)
            for k, row in enumerate(rows):
                a, b = ab[row][:d], ab[row][d:]
                c = [
                    tuple(-u - v for u, v in zip(mul(a, points[p][:d]), mul(b, points[p][d:])))
                    for p in sample
                ]
                w = packed[k, sample]
                decoded = words.intercepts(w)
                assert list(zip(*(col.tolist() for col in decoded))) == c
                inside, packed_c = words.of_intercepts(np.array(c, dtype=object))
                assert inside.all() and packed_c.tolist() == w.tolist()
                bins = words.bins
                assert all(0 <= v < bins for v in w.tolist())
                assert len(set(zip(w.tolist(), c))) == len(set(w.tolist())) == len(set(c))
            cm = words.cm
            past = [[0] * d for _ in range(2 * d)]
            for k in range(d):
                past[2 * k][k], past[2 * k + 1][k] = cm + 1, -cm - 1
            edges = np.array([[cm] * d, [-cm] * d, *past], words.dtype)
            inside, corners = words.of_intercepts(edges)
            assert inside.tolist() == [True, True] + [False] * 2 * d
            assert corners[:2].tolist() == [words.bins - 1, 0]


def test_intercept_words_stay_within_bins():
    """Every intermediate that _InterceptWords computes, building its words
    and then packing box points and intercepts, lies within bins, the bound
    its dtype is picked for, by traced_max: on the sweep's kept directions
    and on seeded random directions of every arithmetic basis, over a box
    with a scaled x axis and over one whose x axis is the one point {0},
    and on a direction scaled by 2^62.  The traced run gives the untraced
    run's words."""
    rng = random.Random(12)
    for basis in ARITH_BASES:
        d = basis.degree
        ys = GapSet(basis, 1).coords()
        for xs in (GapSet(basis, 1, 2).coords(), np.zeros((1, d), dtype=np.int64)):
            mx, my = (int(np.abs(v).max()) for v in (xs, ys))
            kept = next(_sweep(basis, xs, ys, 2))[0]
            steep = [[rng.randint(-3, 3) for _ in range(d)] + [rng.randint(-1, 1)] * d]
            for ab in (
                kept[rng.sample(range(len(kept)), min(len(kept), 6))],
                np.array([[rng.randint(-3, 3) for _ in range(2 * d)] for _ in range(3)] + steep),
                np.array([[2**62] * d + [0] * d]),
            ):
                plain = _InterceptWords(basis, ab, mx, my)
                x, y = (v.astype(plain.dtype) for v in (xs, ys))
                packed = plain.of_points(slice(None), x, y)
                cm = plain.cm
                c = np.column_stack(plain.intercepts(packed.reshape(-1)))
                grid = itertools.product((-cm, cm, cm + 1), repeat=d)
                corners = np.array(list(grid), plain.dtype)
                (words, traced, (inside, _)), top = traced_max(
                    _words_and_packing, basis, ab, mx, my, xs, ys, np.concatenate([c, corners])
                )
                assert top < words.bins
                assert traced.tolist() == packed.tolist() and inside.sum() == len(c) + 2**d


def _words_and_packing(basis, ab, mx, my, xs, ys, c):
    """_InterceptWords(basis, ab, mx, my), its words of the points of the
    box xs x ys and its of_intercepts(c): one run for traced_max, whose
    patch must be in place when the words are built."""
    words = _InterceptWords(basis, ab, mx, my)
    return words, words.of_points(slice(None), xs, ys), words.of_intercepts(c)


def _counted(path, basis, keys, box):
    """The richness of each key row by the counter path (_by_closed_form or
    _by_columns) as a fresh array: one run for traced_max."""
    out = np.zeros(len(keys), dtype=object)
    path(basis, keys, box, out)
    return out


def _traced_counter_cases(path, cases):
    """For each (basis, box, keys) of cases: the traced run of the counter
    path on the keys counts as _key_richnesses does, and its largest
    intermediate lies within the largest bound the counter takes for one
    key alone (_richness_bound), which no block's bound is below."""
    for basis, box, keys in cases:
        keys = np.array(keys, dtype=object)
        counts, top = traced_max(_counted, path, basis, keys, box)
        assert counts.tolist() == _key_richnesses(basis, keys, box).tolist()
        assert top <= max(_richness_bound(basis, key, box) for key in keys.tolist())


def test_closed_form_stays_within_its_bound():
    """Every intermediate of richness._by_closed_form lies within
    _closed_form_bound, by traced_max, on the degree-1 bases, the integers
    and l * l = -3 l (whose k scales A and B), over a radius-1 box and over
    boxes with scaled axes: the lines through every two box points, seeded
    random keys, and the edges: steep directions (n, n + 1), whose inverse
    mod m = n + 1 is n, vertical and horizontal keys, and keys whose |c| is
    at a corner of the box and one past it.  On the radius-1 integer box the
    key (996, 997, 5) takes (-c / g mod m) inv to 988,032: within B^2 =
    994,009, and past every other term of the bound."""
    rng = random.Random(31)
    integers, minus3 = ARITH_BASES[0], NiceBasis([[[-3]]])
    cases = []
    for basis, x_set, y_set in (
        (integers, GapSet(integers, 1), GapSet(integers, 1)),
        (integers, GapSet(integers, 4, 2), GapSet(integers, 3, 3)),
        (minus3, GapSet(minus3, 2, 2), GapSet(minus3, 3)),
    ):
        box = PointBox(x_set, y_set)
        coords = box.coords()
        cases.append((basis, box, group_pairs(basis, coords[:, :1], coords[:, 1:])[0]))
        keys = ([rng.randint(-40, 40) for _ in range(3)] for _ in range(80))
        cases.append((basis, box, [key for key in keys if any(key[:2])]))
        corner = x_set.radius * x_set.scale + y_set.radius * y_set.scale
        edges = [(n, n + 1, c) for n in (996, 1000, 2**20) for c in (5, -5, n)]
        for a, b in ((1, 0), (0, 1), (1, 1), (1, -1)):
            edges += [(a, b, c) for c in (corner, corner + 1, -corner, -corner - 1)]
        cases.append((basis, box, edges))
    _traced_counter_cases(richness._by_closed_form, cases)


def test_columns_stay_within_block_bound():
    """Every intermediate of richness._by_columns lies within _block_bound,
    by traced_max, on every arithmetic basis of degree 2 or more and on
    x^2 - 3x - 3, over a box with a scaled x axis: the lines through seeded
    box points, seeded random keys, and the edges: keys whose a and b
    blocks are all 1 or alternate in sign, vertical ones among them, and
    whose c is +-C in every coordinate, in alternating signs.  On the
    quadratic arithmetic bases a row of adj(M) sums to at most a, the
    bound's cofactor bound.  On x^2 - 3x - 3 the column of l_1 carries 3 in
    both of its rows, so for the pivot 1 + t the row (4, -3) of adj(M)
    sums to 7 > a = 5, and adj(M) c reaches 7 C: within d a C = 10 C, and
    past a (C + d o s x)."""
    rng = random.Random(33)
    cases = []
    for basis in (*ARITH_BASES[1:], build_power_basis([-3, -3])):
        d = basis.degree
        box = PointBox(GapSet(basis, 1, 2), GapSet(basis, 1))
        points = box.coords()[rng.sample(range(len(box)), 12)]
        cases.append((basis, box, group_pairs(basis, points[:, :d], points[:, d:])[0]))
        keys = ([rng.randint(-9, 9) for _ in range(3 * d)] for _ in range(40))
        cases.append((basis, box, [key for key in keys if any(key[: 2 * d])]))
        ones, signs = [1] * d, [(-1) ** k for k in range(d)]
        edges = []
        for a, b in ((ones, ones), (ones, signs), (signs, ones), (ones, [0] * d)):
            edges += [a + b + [c * s for s in signs] for c in (1000, -1000)]
        cases.append((basis, box, edges))
    _traced_counter_cases(richness._by_columns, cases)


def test_mechanism_check_stays_within_its_bound():
    """Every intermediate of _mechanism_check lies within _mechanism_bound,
    by traced_max, on corrupted families of every arithmetic basis: the
    lines of a seeded cell and its translates, and the line through the
    opposite corners (-w, ..., -w) and (w, ..., w) of a cell, with the b
    block of every key negated so that it misses its witnesses.  On its
    line a replayed point's a*x + b*y cancels to -c; off it, the two
    products add, and on the integers at the corners they reach 2 k z, the
    bound's term 2 max product_bounds(k, z), for the largest key entry k
    and coordinate z.  The check finds each corrupted family off its
    lines."""
    rng = random.Random(37)
    r = 3
    for basis in ARITH_BASES:
        d = basis.degree
        box = PointBox(GapSet(basis, 1), GapSet(basis, 1))
        t = gap_set(basis, Fraction(3**d * r)).coords()
        seeded = [
            np.array(sorted({tuple(rng.randint(-2, 2) for _ in range(2 * d)) for _ in range(k)}))
            for k in (6, 2)
        ]
        cases = [seeded] + [
            (np.array([[-w] * 2 * d, [w] * 2 * d]), np.zeros((1, 2 * d), np.int64)) for w in (1, 3)
        ]
        for cell, translates in cases:
            family = _raw_family(basis, cell, translates)
            keys = family.keys.astype(object)
            keys[:, d : 2 * d] *= -1

            def replay(cell, translates):
                corrupt = LineFamily(basis, keys, family.origin, family.first, cell, translates)
                return construction._mechanism_check(corrupt, box, r)

            (on, _), top = traced_max(replay, cell, translates)
            sample = canonical_least(basis, keys, construction._MECHANISM_SAMPLE)
            t_idx, i, j = family.witness_rows(sample).T
            p, q = (cell[k] + translates[t_idx] for k in (i, j))
            assert not on
            assert top <= construction._mechanism_bound(basis, p, q, keys[sample], t, box)


def _path_keys(basis, box, rng):
    """Seeded key rows for _key_richnesses on the box: 30 keys of each of the
    directions (u, u), (u, -u), (u, 0), (0, u) and (3u, 3u), u the first
    basis vector, half of them the intercepts of box points and half random
    intercepts, most of which miss the box; then random keys."""
    d = basis.degree
    mul = basis.mul_coords
    u = (1,) + (0,) * (d - 1)
    neg, zero, three = tuple(-v for v in u), (0,) * d, tuple(3 * v for v in u)
    points = box.coords().tolist()
    keys = []
    for ab in (u + u, u + neg, u + zero, zero + u, three + three):
        a, b = ab[:d], ab[d:]
        for p in rng.sample(points, 15):
            keys.append(ab + tuple(-s - t for s, t in zip(mul(a, p[:d]), mul(b, p[d:]))))
        keys.extend(ab + tuple(rng.randint(-12, 12) for _ in range(d)) for _ in range(15))
    while len(keys) < 190:
        key = tuple(rng.randint(-9, 9) for _ in range(3 * d))
        if any(key[: 2 * d]):
            keys.append(key)
    rng.shuffle(keys)
    return keys


def test_counter_paths_match_reference(monkeypatch):
    """_key_richnesses equals count_on_line_int on seeded random key sets of
    every arithmetic basis, degree 4 included, over boxes with scaled and
    unequal axes, and takes its path by degree alone: in degree 1 it never
    calls _by_columns, and in every higher degree it sends every key there
    in one call.  The keys (_path_keys) cover lines through box points,
    vertical and horizontal lines, non-primitive keys (3u, 3u, c), keys
    that miss the box and many keys of one direction; every key scaled by
    2^62 is the same line, counted in object dtype."""
    rng = random.Random(18)
    calls = []
    by_columns = richness._by_columns

    def recording(basis, keys, box, out):
        calls.append(len(keys))
        return by_columns(basis, keys, box, out)

    monkeypatch.setattr(richness, "_by_columns", recording)
    # (radius, scale) of X and of Y
    shapes = {1: ((2, 2), (4, 1)), 2: ((1, 2), (2, 1)), 3: ((1, 1), (1, 1)), 4: ((1, 1), (1, 1))}
    for basis in ARITH_BASES:
        d = basis.degree
        (rx, sx), (ry, sy) = shapes[d]
        box = construction.PointBox(GapSet(basis, rx, sx), GapSet(basis, ry, sy))
        keys = _path_keys(basis, box, rng)
        expected = [count_on_line_int(basis, key, box) for key in keys]
        assert max(expected) > 1 and 0 in expected
        for batch in (keys, [tuple(2**62 * v for v in key) for key in keys]):
            calls.clear()
            assert richness._key_richnesses(basis, batch, box).tolist() == expected
            assert calls == ([] if d == 1 else [len(keys)])


def _closed_form_keys(box, rng):
    """Seeded degree-1 key rows for the box: lines through two box points
    and random keys with small entries, including vertical, horizontal and
    negative-b ones and the non-primitive (3u, 3u, c)."""
    points = box.coords().tolist()
    mul = box.basis.mul_coords
    keys = []
    for _ in range(80):
        (x1, y1), (x2, y2) = rng.sample(points, 2)
        (c,), (d,) = mul([y1], [x2]), mul([x1], [y2])
        keys.append((y2 - y1, x1 - x2, c - d))
    for _ in range(80):
        key = (rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-40, 40))
        if any(key[:2]):
            keys.append(key)
    for _ in range(10):
        u = rng.randint(-3, 3) or 1
        keys.append((3 * u, 3 * u, rng.randint(-30, 30)))
    return keys


def test_closed_form_matches_reference():
    """The degree-1 counter, in closed form, equals count_on_line_int on
    seeded random keys over boxes with scales sx, sy in {1, 2, 3} and
    unequal radii, over the integers and over the degree-1 bases with l l =
    2 l and l l = -3 l.  The keys cover vertical, horizontal and negative-b
    lines, non-primitive keys (3u, 3u, c), keys where g = gcd(A, B) does not
    divide c, keys that miss the box, and keys with B / g = 1, for A = k a sx
    and B = k b sy with l l = k l.  The same keys in lexicographic order
    count the same: a count does not depend on the order of the keys.  Keys
    scaled one step either side of each
    _exact_dtype threshold of _closed_form_bound, int8 through object, keep
    their count; so does 2^59 (15, 2, 0), whose int64 products a x wrap past
    2^64."""
    integers = ARITH_BASES[0]
    cases = [(integers, scales) for scales in itertools.product((1, 2, 3), repeat=2)]
    cases += [(NiceBasis([[[k]]]), scales) for k, scales in ((2, (2, 3)), (-3, (1, 2)))]
    rng = random.Random(1)
    seen = set()
    sides = set()
    for basis, (sx, sy) in cases:
        k = basis.structure_constants[0][0][0]
        rx, ry = rng.sample(range(1, 6), 2)
        box = construction.PointBox(GapSet(basis, rx, sx), GapSet(basis, ry, sy))
        keys = _closed_form_keys(box, rng)
        expected = [count_on_line_int(basis, key, box) for key in keys]
        assert richness._key_richnesses(basis, keys, box).tolist() == expected
        assert max(expected) > 2
        # the same keys in lexicographic order
        ordered = sorted(zip(keys, expected))
        counts = richness._key_richnesses(basis, [key for key, _ in ordered], box)
        assert counts.tolist() == [rich for _, rich in ordered]
        for (a, b, c), rich in zip(keys, expected):
            g = math.gcd(k * a * sx, k * b * sy)
            seen.update(
                name
                for name, holds in (
                    ("vertical", b == 0 and rich),
                    ("horizontal", a == 0 and rich),
                    ("negative b", b < 0 and a and rich > 1),
                    ("non-primitive", math.gcd(a, b, c) > 1 and rich > 1),
                    ("g does not divide c", g > 1 and c % g),
                    ("misses the box", not rich),
                    ("B / g = 1", a and abs(k * b * sy) == g and rich),
                )
                if holds
            )
        # the same lines, scaled to each side of each dtype threshold
        for key in (max(zip(expected, keys))[1], keys[expected.index(0)]):
            rich = count_on_line_int(basis, key, box)
            for limit, below, above in DTYPE_THRESHOLDS:
                lo, hi = 0, 2**63  # the largest multiple whose bound is at most limit
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    fits = _richness_bound(basis, [mid * v for v in key], box) <= limit
                    lo, hi = (mid, hi) if fits else (lo, mid)
                for t, dtype in ((lo, below), (lo + 1, above)):
                    if not t:  # the key itself is past this threshold
                        continue
                    scaled = tuple(t * v for v in key)
                    assert _exact_dtype(_richness_bound(basis, scaled, box)) == dtype
                    sides.add(dtype)
                    assert richness._key_richnesses(basis, [scaled], box).tolist() == [rich]
    assert len(seen) == 7, seen
    assert sides == {t for _, below, above in DTYPE_THRESHOLDS for t in (below, above)}
    # 2^59 (15 X + 2 Y) = 0 meets the box only at the origin, but at x = +-2
    # int64 products a*x wrap past 2^64 onto multiples of b inside the radius
    box = construction.PointBox(GapSet(integers, 3), GapSet(integers, 3))
    key = (15 * 2**59, 2 * 2**59, 0)
    assert count_on_line_int(integers, key, box) == 1
    assert richness._key_richnesses(integers, [key], box).tolist() == [1]


def test_counter_counts_block_by_block(integers, sqrt2, monkeypatch):
    """_key_richnesses on more keys than one block equals count_on_line_int
    and hands its path the keys in blocks of consecutive keys.  A key costs
    one (key, column) pair in degree 1 and its axis' columns in degree 2,
    |Y| for a vertical key and |X| for any other: every block holds fewer
    than _CHUNK_PAIRS pairs before its last key, and every block but the
    last more than _CHUNK_PAIRS less one key's columns, so degree 1 takes
    exactly _CHUNK_PAIRS keys a block.  The keys repeat the seeded
    _path_keys, shuffled and in lexicographic order, so the reference
    counts each distinct key once."""
    chunk = _CHUNK_PAIRS
    calls = []
    for name in ("_by_closed_form", "_by_columns"):

        def recording(basis, keys, box, out, path=getattr(richness, name)):
            calls.append(keys.tolist())
            return path(basis, keys, box, out)

        monkeypatch.setattr(richness, name, recording)
    rng = random.Random(29)
    cases = (
        (integers, PointBox(GapSet(integers, 2, 2), GapSet(integers, 4, 1)), chunk + chunk // 2),
        (sqrt2, PointBox(GapSet(sqrt2, 1, 2), GapSet(sqrt2, 2, 1)), 20_000),
    )
    for basis, box, size in cases:
        d = basis.degree
        distinct = _path_keys(basis, box, rng)
        reference = dict(zip(distinct, (count_on_line_int(basis, key, box) for key in distinct)))
        shuffled = rng.choices(distinct, k=size)
        for batch in (shuffled, sorted(shuffled)):
            calls.clear()
            counts = richness._key_richnesses(basis, batch, box)
            assert counts.tolist() == [reference[key] for key in batch]
            assert [tuple(key) for block in calls for key in block] == batch
            assert len(calls) > 1
            if d == 1:
                assert [len(block) for block in calls[:-1]] == [chunk] * (len(calls) - 1)
            widest = max(len(box.x_set), len(box.y_set))
            for n, block in enumerate(calls, 1):
                cost = [
                    1 if d == 1 else len(box.x_set if any(key[d : 2 * d]) else box.y_set)
                    for key in block
                ]
                assert sum(cost[:-1]) < chunk
                assert n == len(calls) or sum(cost) > chunk - widest


def test_verify_claim2_tuned(integers):
    params = ConstructionParams(integers, 2304, HALF, 3, Fraction(1), True)
    tuned = auto_tune_c1(params)
    assert tuned.params.c1 == HALF
    assert tuned.halvings == 1
    assert len(tuned.family) == 944
    box = build_pointset(integers, 2304, HALF)
    report = verify_claim2(tuned.family, box, 3, tuned.richness)
    assert report.frac_r_rich == 1.0
    assert report.min_richness == 5
    assert report.mechanism_on_line
    # the failing line is the least one below r by sort_key, and only lines
    # below r fail
    assert verify_claim2(tuned.family, box, 5).failing_line is None
    report = verify_claim2(tuned.family, box, 6)
    lines = family_lines(tuned.family)
    below = [line for line, k in zip(lines, report.richnesses.tolist()) if k < 6]
    assert len(below) > 1
    assert report.failing_line == min(below, key=CanonicalLine.sort_key)
    # given counts that put random lines below r, the least of those fails;
    # the lines are not horizontal, since those lead both raw and canonical
    # order
    slanted = np.flatnonzero(tuned.family.keys[:, 0]).tolist()
    rng = random.Random(7)
    for _ in range(5):
        marked = rng.sample(slanted, 20)
        rich = np.full(len(lines), 3)
        rich[marked] = 2
        report = verify_claim2(tuned.family, box, 3, rich)
        least = min((lines[k] for k in marked), key=CanonicalLine.sort_key)
        assert report.failing_line == least


def test_verify_claim2_oversized_cell_fails(integers):
    # c1 = 1 is deliberately too large here; a witness must be reported
    params = ConstructionParams(integers, 2304, HALF, 3, Fraction(1))
    box, tuned = build_construction(params)
    report = verify_claim2(tuned.family, box, 3, tuned.richness)
    assert report.frac_r_rich < 1.0
    assert report.failing_line is not None
    assert count_on_line_int(integers, report.failing_line.key, box) < 3


def test_auto_tune_failure_modes(integers):
    # degenerate at step 0 surfaces as r-too-large, not a tuning failure
    with pytest.raises(RTooLargeError):
        auto_tune_c1(ConstructionParams(integers, 100, HALF, 10, Fraction(1), True))
    # a config where every halving leaves some line under-rich
    with pytest.raises(AutoTuneError):
        auto_tune_c1(ConstructionParams(integers, 1500, THIRD, 3, Fraction(1), True))


def test_halvings_end_by_degeneracy():
    """auto_tune_c1 halves the cell constant without a cap, as its docstring
    proves that a first cell within POINT_CAP degenerates within 7, 6, 5 or
    4 halvings for d = 1, 2, 3, 4.  For n = 2^k below 2^64, every arithmetic
    basis, every alpha in ALPHA_GRID and r in (2, 3, 5, 8, 13), the halvings
    from c1 = 1 to the first degenerate cell are within that bound, and the
    grid reaches it in every degree.  Only build_cell_geometry runs."""
    bound = {1: 7, 2: 6, 3: 5, 4: 4}
    worst = dict.fromkeys(bound, 0)
    for basis, k, alpha, r in itertools.product(
        ARITH_BASES, range(2, 64), construction.ALPHA_GRID, (2, 3, 5, 8, 13)
    ):
        try:
            params = ConstructionParams(basis, 2**k, alpha, r)
            build_cell_geometry(params)
        except (InvalidParameterError, RTooLargeError):
            continue
        for halvings in itertools.count(1):
            try:
                build_cell_geometry(params.with_c1(Fraction(1, 2**halvings)))
            except RTooLargeError:
                break
        d = basis.degree
        assert halvings <= bound[d], (basis.description, 2**k, alpha, r)
        worst[d] = max(worst[d], halvings)
    assert worst == bound


def test_auto_tune_error_names_failing_line(cbrt2):
    """The AutoTuneError of the cube-root-of-2 cell quotes a line below r as
    lines_to_text writes it, its exact richness and the configuration."""
    params = ConstructionParams(cbrt2, 18225, HALF, 5, Fraction(1), True)
    with pytest.raises(AutoTuneError) as info:
        auto_tune_c1(params)
    match = re.search(r"line (.+) has richness (\d+) < r=5 at (.+)\)$", str(info.value))
    (line,) = lines_from_text(match[1], cbrt2)
    richness = int(match[2])
    assert richness < 5
    assert count_on_line_int(cbrt2, line.key, build_pointset(cbrt2, 18225, HALF)) == richness
    assert match[3] == "c1=1, basis power basis of x^3 - 2, n=18225, alpha=1/2"


def test_probe_rejects_without_grouping_pairs(cbrt2, monkeypatch):
    """On the cube-root-of-2 cell (729 cell points, 265,356 pairs) the lines
    through the cell's corner already hold one below r, so auto-tuning
    rejects its one nondegenerate attempt without grouping the cell's
    pairs."""
    calls = []

    def counting_group_pairs(*args):
        calls.append(args)
        return group_pairs(*args)

    monkeypatch.setattr("richlines.family.group_pairs", counting_group_pairs)
    params = ConstructionParams(cbrt2, 18225, HALF, 5, Fraction(1), True)
    geom = build_cell_geometry(params)
    assert len(geom.cell_x) * len(geom.cell_y) == 729
    with pytest.raises(AutoTuneError):
        auto_tune_c1(params)
    assert calls == []


def test_gate_counts_in_counter_blocks(integers, monkeypatch):
    """The tuning gate, _key_richnesses given r, on a degree-1 box with
    |X| = 1001 counts the keys in their given order, one counter call per
    _CHUNK_PAIRS keys, and stops at the block that holds the first key
    below r, whose count is the first below r.  The keys are the 200,001
    horizontal lines y = -c, |c| <= 10^5, each holding 1001
    points, with the steep line y = -20000 x (101 points) at index 7, in
    the first block, and y = -50000 x (41 points) at index 150,000, in the
    third.  At r = 200 the gate stops at index 7 after one call, at r = 100
    at index 150,000 after three, and at r = 41 every key passes and the
    gate counts every key once."""
    chunk = _CHUNK_PAIRS
    box = PointBox(GapSet(integers, 500), GapSet(integers, 10**6))
    keys = [(0, 1, c) for c in range(-100_000, 100_001)]
    keys[7:7] = [(20_000, 1, 0)]
    keys[150_000:150_000] = [(50_000, 1, 0)]
    keys = np.array(keys)
    every = richness._key_richnesses(integers, keys, box)
    assert keys[7].tolist() == [20_000, 1, 0] and every[7] == 101
    assert keys[150_000].tolist() == [50_000, 1, 0] and every[150_000] == 41
    calls = []
    by_closed_form = richness._by_closed_form

    def counting(basis, keys, box, out):
        calls.append(len(keys))
        return by_closed_form(basis, keys, box, out)

    monkeypatch.setattr(richness, "_by_closed_form", counting)
    for r, first, blocks in ((200, 7, 1), (100, 150_000, 3)):
        calls.clear()
        rich = richness._key_richnesses(integers, keys, box, r)
        assert np.flatnonzero(rich < r)[0] == first == np.flatnonzero(every < r)[0]
        assert calls == [chunk] * blocks
        counted = blocks * chunk
        assert rich[:counted].tolist() == every[:counted].tolist()
        assert (rich[counted:] == -1).all()
    calls.clear()
    rich = richness._key_richnesses(integers, keys, box, 41)
    assert (rich >= 41).all() and rich.tolist() == every.tolist()
    assert calls == [chunk] * 3 + [len(keys) - 3 * chunk]


def test_counter_cuts_each_key_array_once(sqrt2, monkeypatch):
    """_key_richnesses cuts a key array into blocks once a call, as the full
    count and as the tuning gate.  On a quadratic k=2 box with |X| = 49 and
    |Y| = 3025, the 3025 horizontal lines y = v, v in Y, hold 49 points
    each and cost 49 columns
    each, so with the line y = -1000, which holds none, at index 2000 the
    3026 keys span three blocks, the line below r in the second.  The gate
    at r = 1 stops after that block and at r = 0 counts all three."""
    box = PointBox(GapSet(sqrt2, 3), GapSet(sqrt2, 27))
    keys = [(0, 0, 1, 0, -u, -v) for u, v in box.y_set.coords().tolist()]
    keys.insert(2000, (0, 0, 1, 0, 1000, 0))
    keys = np.array(keys)
    _, second, third = richness._blocks(sqrt2, keys, box)
    assert second.start <= 2000 < second.stop
    cuts = []
    blocks = richness._blocks

    def cutting(*args):
        cuts.append(args)
        return blocks(*args)

    monkeypatch.setattr(richness, "_blocks", cutting)
    every = richness._key_richnesses(sqrt2, keys, box)
    assert len(cuts) == 1
    assert every[2000] == 0 and (np.delete(every, 2000) == 49).all()
    cuts.clear()
    rich = richness._key_richnesses(sqrt2, keys, box, 1)
    assert len(cuts) == 1 and np.flatnonzero(rich < 1)[0] == 2000
    assert rich[: third.start].tolist() == every[: third.start].tolist()
    assert (rich[third] == -1).all()
    cuts.clear()
    rich = richness._key_richnesses(sqrt2, keys, box, 0)
    assert len(cuts) == 1 and (rich >= 0).all() and rich.tolist() == every.tolist()


def test_repeated_attempt_gated_once(sqrt2, monkeypatch):
    """Quadratic k=2, alpha=1/2: c1 = 1 (s = 5) and c1 = 1/2 (s = 3) give the
    same 81-point cell, and c1 = 1/4 degenerates.  At n=20000, r=5 both
    attempts have the one translate 0, so the family is gated once and the
    second attempt takes the first one's line below r.  At n=60000, r=9 the
    81 translates are multiples of 5 and then of 3, so both attempts are
    gated.  Each c1 still builds its geometry and translate rows once, and
    the error names the line found at c1 = 1/2 as when every attempt was
    gated."""
    calls = {"_gated_family": 0, "build_cell_geometry": 0, "translate_vectors": 0}
    for name in calls:

        def counting(*args, name=name, wrapped=getattr(construction, name)):
            calls[name] += 1
            return wrapped(*args)

        monkeypatch.setattr(construction, name, counting)
    for n, r, translates, gated, line in (
        (20000, 5, 1, 1, "1/1 0/1 -4/1 -2/1 -4/1 -3/1 has richness 4"),
        (60000, 9, 81, 2, "1/1 0/1 -4/1 2/1 -26/1 14/1 has richness 4"),
    ):
        calls.update(dict.fromkeys(calls, 0))
        params = ConstructionParams(sqrt2, n, HALF, r, Fraction(1), True)
        with pytest.raises(AutoTuneError) as info:
            auto_tune_c1(params)
        assert calls == {"_gated_family": gated, "build_cell_geometry": 3, "translate_vectors": 2}
        assert str(info.value) == (
            "cell degenerated after 2 halvings without reaching a fully r-rich family "
            f"(last failure: line {line} < r={r} at c1=1/2, basis quadratic basis "
            f"{{1, sqrt(2)}}, n={n}, alpha=1/2)"
        )
        first, second = (build_cell_geometry(params.with_c1(c1)) for c1 in (1, HALF))
        assert (first.s, second.s) == (5, 3)
        for geom in (first, second):
            assert (geom.cell_x.radius, geom.cell_y.radius) == (1, 1)
        rows = [translate_vectors(geom) for geom in (first, second)]
        assert len(rows[0]) == translates
        assert (rows[0].tolist() == rows[1].tolist()) == (gated == 1)


def _full_gate(basis, cell, translates, box, r):
    """The tuning gate without the corner probe: the whole family and every
    key's richness, and whether every key is r-rich."""
    family = _raw_family(basis, cell, translates)
    rich = richness._key_richnesses(basis, family.keys, box)
    return family, rich.tolist(), bool(rich.min() >= r)


def _auto_tune_reference(params):
    """auto_tune_c1 gating every family key of each attempt, and checking
    by the set reference that its translates are disjoint: the accepted c1,
    the halvings, the family and its richnesses."""
    box = build_pointset(params.basis, params.n, params.alpha)
    c1 = params.c1
    for step in itertools.count():
        trial = params.with_c1(c1)
        try:
            geom = build_cell_geometry(trial)
        except RTooLargeError:
            if step == 0:
                raise
            raise AutoTuneError("degenerate") from None
        if not any(nearest_translates_meet(geom, axis) for axis in (0, 1)):
            cell, translates = PointBox(geom.cell_x, geom.cell_y).coords(), translate_vectors(geom)
            family, rich, ok = _full_gate(params.basis, cell, translates, box, params.r)
            if ok:
                return trial.c1, step, family, rich
        c1 = c1 / 2


def _auto_tune(params):
    tuned = auto_tune_c1(params)
    report = verify_claim2(tuned.family, tuned.box, params.r, tuned.richness)
    return tuned.params.c1, tuned.halvings, tuned.family, report.richnesses.tolist()


def _tune_outcome(tune, params):
    try:
        c1, step, family, rich = tune(params)
    except (AutoTuneError, RTooLargeError) as err:
        return type(err)
    return c1, step, family.keys.tolist(), family.witness_rows(slice(None)).tolist(), rich


def test_probe_gate_matches_full_gate():
    """auto_tune_c1 with its corner probe equals the full-gate loop, on
    seeded random (basis, n, alpha, r) configs of every arithmetic basis:
    the same accepted c1, halvings, keys, witnesses and richnesses, or the
    same exception.  The smallest nondegenerate x^4 - x - 1 cell has 6561
    points, too many for the reference to group here, so that basis also
    takes a gate-level comparison, as does every other: random subsets of
    small boxes as cells and translates, where a rejected attempt must
    quote a family line below r with its exact richness."""
    rng = random.Random(12)
    quota = {1: (8, 8), 2: (4, 4), 3: (2, 1), 4: (2, 0)}  # configs, nondegenerate
    outcomes = set()
    for basis in ARITH_BASES:
        d = basis.degree
        total, wide = quota[d]
        while total:
            alpha = rng.choice(construction.ALPHA_GRID)
            r = rng.randint(2, 6)
            n = rng.randint(4, int(((15 if d == 1 else 6) ** d * r) ** (1 / alpha)))
            try:
                params = ConstructionParams(basis, n, alpha, r, Fraction(1), True)
                geom = build_cell_geometry(params)
                cell = len(geom.cell_x) * len(geom.cell_y)
            except RTooLargeError:
                cell = 0
            except InvalidParameterError:
                continue
            if len(build_pointset(basis, n, alpha)) > 7000 or cell > 800:
                continue
            if cell and not wide:
                continue
            total, wide = total - 1, wide - bool(cell)
            got = _tune_outcome(_auto_tune, params)
            assert got == _tune_outcome(_auto_tune_reference, params)
            outcomes.add(got if isinstance(got, type) else "accepted")
    assert outcomes == {"accepted", AutoTuneError, RTooLargeError}
    verdicts = set()
    for basis in ARITH_BASES:
        d = basis.degree
        unit = list(GapSet(basis, 2 if d == 1 else 1))
        shifts = list(GapSet(basis, 1))
        side = GapSet(basis, 3 if d == 1 else 2)
        box = construction.PointBox(side, side)
        for _ in range(4):
            cell_x, cell_y = (rng.sample(unit, rng.randint(3, 5)) for _ in range(2))
            trans_x = rng.sample(shifts, rng.randint(1, 3))
            trans_y = rng.sample(shifts, rng.randint(1, 2))
            cell = _rows(itertools.product(cell_x, cell_y))
            translates = _rows(itertools.product(trans_x, trans_y))
            r = rng.randint(2, 3)
            family, rich, ok = _full_gate(basis, cell, translates, box, r)
            tuned, tuned_rich, low = construction._gated_family(basis, cell, translates, box, r)
            if ok:
                assert low is None
                assert tuned.keys.tolist() == family.keys.tolist()
                witnesses = tuned.witness_rows(slice(None)).tolist()
                assert witnesses == family.witness_rows(slice(None)).tolist()
                assert tuned_rich.tolist() == rich
            else:
                key, richness = low
                assert tuned is None and richness < r
                assert tuple(key.tolist()) in set(key_tuples(family.keys))
                assert count_on_line_int(basis, tuple(key.tolist()), box) == richness
            verdicts.add((d, ok))
    assert verdicts == {(d, ok) for d in (1, 2, 3, 4) for ok in (True, False)}


def test_claim1_statistic(integers, sqrt2):
    """The cell line count that claim 1 reads off the family equals
    regrouping the cell, on a d = 1 and a d = 2 geometry."""
    for params in (
        ConstructionParams(integers, 8100, HALF, 5),
        ConstructionParams(sqrt2, 6561, HALF, 3),
    ):
        box, tuned = build_construction(params)
        geom, d = tuned.geometry, params.basis.degree
        cell = PointBox(geom.cell_x, geom.cell_y).coords()
        n_lines, ratio = claim1_statistic(tuned)
        keys = group_pairs(params.basis, cell[:, :d], cell[:, d:])[0]
        raw = raw_pair_counts_loop(params.basis, cell[:, :d].tolist(), cell[:, d:].tolist())
        assert n_lines == len(keys) == len(raw)
        assert ratio == n_lines * params.r**4 / len(box) ** 2
        # a healthy chunk of distinct lines (the integer cell is 13 x 13)
        assert n_lines > 100


def test_claim3_claim4_empty(integers):
    box = build_pointset(integers, 81, HALF)
    empty = LineFamily(integers, [], [], [], [], 0)
    report = verify_claim2(empty, box, 3)
    inc, r3, r4 = claim3_claim4_statistics(box, empty, 3, report.richnesses)
    assert (inc, r3, r4) == (0, 0.0, 0.0)


def test_claim_rates_on_tuned_run(integers):
    params = ConstructionParams(integers, 2304, HALF, 3, Fraction(1), True)
    box, tuned = build_construction(params)
    report = verify_claim2(tuned.family, box, 3, tuned.richness)
    inc, rate3, rate4 = claim3_claim4_statistics(box, tuned.family, 3, report.richnesses)
    # a Python int, which json.dump takes, equal to a recount of every line
    assert type(inc) is int
    assert inc == int(_key_richnesses(integers, tuned.family.keys, box).sum())
    assert rate3 > 0 and rate4 > 0


def test_round_cube_root():
    assert _round_cube_root(Fraction(8)) == 2
    assert _round_cube_root(Fraction(9)) == 2
    assert _round_cube_root(Fraction(2304)) == 13
    # rounds up past the halfway cube
    assert _round_cube_root(Fraction(15, 1)) == 2
    assert _round_cube_root(Fraction(16)) == 3  # (2.5)^3 = 15.625
    # either side of each halfway cube (t + 1/2)^3 = (2t + 1)^3 / 8
    eps = Fraction(1, 10**40)
    for t in list(range(200)) + [10**9, 10**10 - 1]:
        half = Fraction((2 * t + 1) ** 3, 8)
        assert _round_cube_root(half - eps) == t
        assert _round_cube_root(half) == t + 1
    # random x up to 10^30 against the defining inequalities
    # (2R - 1)^3 <= 8x < (2R + 1)^3
    rng = random.Random(4)
    for _ in range(2000):
        x = Fraction(rng.randint(1, 10**30), rng.randint(1, 1000))
        rounded = _round_cube_root(x)
        assert (2 * rounded - 1) ** 3 <= 8 * x < (2 * rounded + 1) ** 3


def test_szt_construction(integers):
    res = szt_incidence_construction(integers, 2304, 2304)
    assert res.r == 13
    assert len(res.points) == 1089
    keys = key_tuples(res.family.keys)
    assert res.incidences == sum(count_on_line_int(integers, key, res.points) for key in keys)
    assert res.ratio_nominal > 0


def test_szt_range_validation(integers):
    with pytest.raises(InvalidParameterError):
        szt_incidence_construction(integers, 10, 1000)  # n^2 < m
    with pytest.raises(InvalidParameterError):
        szt_incidence_construction(integers, 1000, 10)  # n > m^2


def _mechanism_sample(family):
    """The (index, line) of the _MECHANISM_SAMPLE lines least by sort_key."""
    ranked = sorted(enumerate(family_lines(family)), key=lambda entry: entry[1].sort_key())
    return ranked[: construction._MECHANISM_SAMPLE]


def _mechanism_reference(family, box, r):
    """The multiplier replay one Point at a time, with Element arithmetic,
    on_line and box membership, on the lines least by sort_key: the
    reference of _mechanism_check."""
    multipliers = list(gap_set(family.basis, Fraction(3**family.basis.degree * r)))
    total = inside = 0
    all_on = True
    for index, line in _mechanism_sample(family):
        p, q = witness_points(family, index)
        dx, dy = p.x - q.x, p.y - q.y
        for t in multipliers:
            point = Point(p.x + t * dx, p.y + t * dy)
            all_on &= on_line(point, line)
            total += 1
            inside += box_contains(box, point)
    return all_on, (inside / total if total else 1.0)


def _rows(pairs):
    """The coordinate rows (x then y) of (x, y) Element pairs, in object
    dtype, so that rows past int64 stay exact."""
    return np.array([x.coords + y.coords for x, y in pairs], dtype=object)


def _random_family(basis, rng, size, translates):
    """The family of a random cell of `size` distinct points, moved by the
    given (x, y) Element pairs."""
    cell = {}
    while len(cell) < size:
        x, y = ([rng.randint(-2, 2) for _ in range(basis.degree)] for _ in range(2))
        cell[tuple(x), tuple(y)] = x + y
    return _raw_family(basis, np.array(list(cell.values())), _rows(translates))


def test_mechanism_replay_matches_element_reference(integers, sqrt2, monkeypatch):
    """The array replay of the multiplier mechanism gives exactly the
    reference's (mechanism_on_line, mechanism_in_p_fraction): on seeded
    random families of every basis over a box with a scaled axis, on two
    built families, on translates past int64, where it runs in object dtype,
    and on a family whose first key is corrupted, where it leaves the line."""
    rng = random.Random(15)
    fractions = set()
    for basis in ARITH_BASES:
        shifts = list(GapSet(basis, 1, scale=3))
        box = construction.PointBox(GapSet(basis, 12, scale=2), GapSet(basis, 20))
        for _ in range(3):
            translates = [(rng.choice(shifts), rng.choice(shifts)) for _ in range(3)]
            family = _random_family(basis, rng, 6, translates)
            for r in (2, 3, 9):
                got = construction._mechanism_check(family, box, r)
                assert got == _mechanism_reference(family, box, r)
                assert got[0]
                fractions.add(got[1])
    assert any(0 < f < 1 for f in fractions)
    for params in (
        ConstructionParams(integers, 2304, HALF, 3, Fraction(1)),
        ConstructionParams(sqrt2, 6561, HALF, 3, Fraction(1), True),
    ):
        box, tuned = build_construction(params)
        report = verify_claim2(tuned.family, box, params.r, tuned.richness)
        expected = _mechanism_reference(tuned.family, box, params.r)
        assert (report.mechanism_on_line, report.mechanism_in_p_fraction) == expected

    bounds = []
    mechanism_bound = construction._mechanism_bound
    monkeypatch.setattr(
        construction,
        "_mechanism_bound",
        lambda *args: bounds.append(mechanism_bound(*args)) or bounds[-1],
    )
    big = 10**19
    translates = [
        (Element(sqrt2, (big, 1)), Element(sqrt2, (7, -big))),
        (Element(sqrt2, (-big, big)), Element(sqrt2, (big, 3))),
    ]
    family = _random_family(sqrt2, rng, 6, translates)
    assert family.keys.dtype == object
    box = construction.PointBox(GapSet(sqrt2, 10**20, scale=2), GapSet(sqrt2, 10**20))
    got = construction._mechanism_check(family, box, 3)
    assert got == _mechanism_reference(family, box, 3)
    assert got[0] and 0 < got[1] < 1
    assert _exact_dtype(bounds[-1]) == object

    # the least key with its constant moved: its witnesses leave the line,
    # and it is still sampled
    zero = Element(integers, (0,))
    for family, box in (
        (family, box),
        (_random_family(integers, rng, 6, [(zero, zero)]), build_pointset(integers, 100, HALF)),
    ):
        least = _mechanism_sample(family)[0][0]
        family.keys = family.keys.copy()
        family.keys[least, -1] += 1
        assert least in [index for index, _ in _mechanism_sample(family)]
        got = construction._mechanism_check(family, box, 3)
        assert got == _mechanism_reference(family, box, 3)
        assert got[0] is False
    # The line y = 3x through (0, 0) and (2^32, 3 * 2^32), keyed
    # (3 + 2^32, -1, 0): every replayed x is a multiple of 2^32, so
    # a*x + b*y is 2^32 x, a nonzero multiple of 2^64 that int64 would wrap to 0
    cell = np.array([[v, 3 * v] for v in (0, 2**32)])
    keys, origin, first = np.array([[3 + 2**32, -1, 0]]), np.array([0]), np.array([[0, 1]])
    family = LineFamily(integers, keys, origin, first, cell, np.zeros((1, 2), dtype=np.int64))
    box = build_pointset(integers, 100, HALF)
    got = construction._mechanism_check(family, box, 3)
    assert got == _mechanism_reference(family, box, 3)
    assert got[0] is False


def test_structure_constants_wider_than_int8_operands():
    """Z[sqrt 1000] has c_lambda = 1000, which int8 does not hold, and the
    operands below all fit int8: the keys of a small cell, axes of one row
    and a family.  _mul_rows raises on them rather than wrap, and every
    kernel that multiplies them widens to hold c_lambda: a zero translate
    leaves the keys as they are, the direction sweep over a vertical and a
    horizontal line of the box agrees with the pair reference, and the
    mechanism replay with its Element reference."""
    basis = build_quadratic_basis(1000)
    assert basis.c_lambda == 1000
    cell = np.array([[i, 0, j, 0] for i in range(2) for j in range(3)], dtype=np.int8)
    keys = group_pairs(basis, cell[:, :2], cell[:, 2:])[0].astype(np.int8)
    with pytest.raises(OverflowError):
        _mul_rows(basis, keys[:, :2], keys[:, 2:4])
    assert shift_keys(basis, keys, [(0, 0)], [(0, 0)]).tolist() == keys.tolist()

    line = np.array([(0, 0), (1, 0), (2, 0), (0, 1), (-1, 1)], dtype=np.int8)
    for xs, ys in ((line[:1], line), (line, line[3:4])):
        points = [(x, y) for x in xs.tolist() for y in ys.tolist()]
        raw = raw_pair_counts_loop(basis, *zip(*points))
        for r in (2, 5, 6):
            got, richness = rich_line_keys(basis, xs, ys, r)
            expected = {
                key: _richness_from_pairs(count)
                for key, (count, _, _) in raw.items()
                if count >= math.comb(r, 2)
            }
            assert dict(zip(key_tuples(got), richness.tolist())) == expected
            assert len(expected) == (r < 6)

    zero = np.zeros((1, 4), dtype=np.int8)
    family = _raw_family(basis, cell, zero)
    family.keys = family.keys.astype(np.int8)
    box = PointBox(GapSet(basis, 1), GapSet(basis, 1))
    for r in (2, 3):
        got = construction._mechanism_check(family, box, r)
        assert got == _mechanism_reference(family, box, r)
        assert got[0] and 0 < got[1] < 1


def test_mechanism_points_on_line(sqrt2):
    params = ConstructionParams(sqrt2, 6561, HALF, 3, Fraction(1), True)
    box, tuned = build_construction(params)
    report = verify_claim2(tuned.family, box, 3, tuned.richness)
    assert report.mechanism_on_line
    assert 0 <= report.mechanism_in_p_fraction <= 1
