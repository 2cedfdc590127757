"""The translate pipeline: point box, cell, lattice, family, verifiers."""

import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from richlines import construction, geometry
from richlines.construction import (
    AutoTuneError,
    ConstructionParams,
    LineFamily,
    PointBox,
    _key_richnesses,
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
    verify_disjoint_translates,
    _round_cube_root,
)
from richlines.errors import InvalidParameterError, RTooLargeError
from richlines.gapset import GapSet, gap_set, gap_set_power
from richlines.numberfield import Element, NiceBasis
from richlines.geometry import (
    CanonicalLine,
    Point,
    _exact_dtype,
    canonical_order,
    group_pairs,
    key_tuples,
    line_through,
    on_line,
    product_bounds,
    rich_line_keys,
    shift_keys,
)

from conftest import ARITH_BASES, DTYPE_THRESHOLDS
from reference import count_on_line_int, lines_from_text, raw_pair_counts_loop

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
    """PointBox.coords() rows are the box's Points in iteration order, x
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
            assert rows.tolist() == [list(p.x.coords + p.y.coords) for p in box]
        box = PointBox(GapSet(basis, 1, scale=2**70), GapSet(basis, 1))
        assert box.coords().dtype == object
        assert box.coords().tolist() == [list(p.x.coords + p.y.coords) for p in box]


def test_translates_stay_in_outer_box(sqrt2, monkeypatch):
    # build_cell_geometry runs the exhaustive observation (i) check itself;
    # it must come back without the internal assertion firing
    params = ConstructionParams(sqrt2, 6561, HALF, 3)
    geom = build_cell_geometry(params)
    assert geom.s >= 1 and geom.s_prime >= geom.s
    # and fire when the multiplier box is far wider than A_r
    gap_set = construction.gap_set
    monkeypatch.setattr(
        construction,
        "gap_set",
        lambda basis, m, scale=1: GapSet(basis, 10 * gap_set(basis, m).radius + 10, scale),
    )
    with pytest.raises(AssertionError, match="escapes its outer box"):
        build_cell_geometry(params)


def test_disjoint_translates(integers):
    geom = build_cell_geometry(ConstructionParams(integers, 8100, HALF, 5))
    assert verify_disjoint_translates(geom)


def test_overlapping_translates_detected(integers):
    geom = build_cell_geometry(ConstructionParams(integers, 8100, HALF, 5))
    # sabotage the step size down to the cell diameter / 2: copies now touch
    geom.s = geom.cell_x.radius
    geom.s_prime = geom.cell_y.radius
    geom.trans_x = GapSet(integers, geom.trans_x.radius, scale=geom.s)
    geom.trans_y = GapSet(integers, geom.trans_y.radius, scale=geom.s_prime)
    assert not verify_disjoint_translates(geom)
    # with a single x shift only the y copies can meet, and the exhaustive
    # cross-check moves the cell along y (its y radius, 26, is more than
    # twice its x radius, 1, so a move along x would not meet it)
    geom = build_cell_geometry(ConstructionParams(integers, 8100, THIRD, 5))
    assert (geom.cell_x.radius, geom.cell_y.radius) == (1, 26)
    geom.trans_x = GapSet(integers, 0, scale=geom.s)
    assert verify_disjoint_translates(geom)
    geom.s_prime = geom.cell_y.radius
    geom.trans_y = GapSet(integers, geom.trans_y.radius, scale=geom.s_prime)
    assert not verify_disjoint_translates(geom)


def test_cell_radius_is_a_third_of_the_step():
    """On seeded random (basis, n <= 10^7, alpha, r <= 60, c1 = 2^-k) of
    every arithmetic basis, every geometry build_cell_geometry returns has
    cell radii s // 3 and s' // 3, the radii of A_{C1 n^alpha / r}(Lambda)
    and of its n^(1-alpha) twin, and disjoint translates:
    verify_disjoint_translates passes, and the exhaustive cross-check agrees
    on both axes, also where an axis has a single translate."""
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
            assert verify_disjoint_translates(geom)
            axes = ((geom.cell_x, geom.s, alpha), (geom.cell_y, geom.s_prime, 1 - alpha))
            for axis, (cell, step, exponent) in enumerate(axes):
                assert cell.radius == step // 3 == gap_set_power(basis, c1 / r, n, exponent).radius
                construction._cross_check_nearest(geom, (step, cell.radius, axis), True)


def test_family_witnesses_on_their_lines(sqrt2):
    geom = build_cell_geometry(ConstructionParams(sqrt2, 6561, HALF, 3))
    family = generate_line_family(geom)
    for index, line in zip(range(200), family):
        p, q = family.witness_points(index)
        assert on_line(p, line) and on_line(q, line)


def test_family_dedups_across_translates(integers):
    geom = build_cell_geometry(ConstructionParams(integers, 2304, HALF, 3, HALF))
    family = generate_line_family(geom)
    per_translate_total = 0
    cell = list(PointBox(geom.cell_x, geom.cell_y))
    for tx, ty in itertools.product(geom.trans_x, geom.trans_y):
        shifted = [Point(p.x + tx, p.y + ty) for p in cell]
        xs, ys = [p.x.coords for p in shifted], [p.y.coords for p in shifted]
        per_translate_total += len(raw_pair_counts_loop(integers, xs, ys))
    assert len(family) < per_translate_total


def _family_by_pair_scan(geom):
    """Reference family: line_through over every pair of every translated
    cell, keeping the smallest (translate index, i, j) witness per line."""
    cell = list(PointBox(geom.cell_x, geom.cell_y))
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
        assert list(family) == sorted(best, key=CanonicalLine.sort_key)
        for index, line in enumerate(family):
            witness = (family.witnesses[index][0], family.witness_points(index))
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
        keys, witnesses = construction._raw_family(sqrt2, cell_rows, _rows(translates))[:2]
        bound = max(coeff, const + 2 * max(product_bounds(sqrt2, coeff, big)))
        assert keys.dtype == _exact_dtype(bound)
        assert keys.dtype == {10: np.int16, 10**17: np.int64, 10**19: object}[big]
        assert len(keys) == len(best)
        assert dict(zip(key_tuples(keys), map(tuple, witnesses.tolist()))) == best
    # a zero translate keeps a and b exact when they outgrow c
    steep = np.array([[300, 0, 1, 0, 0, 0]], dtype=np.int16)
    assert shift_keys(sqrt2, steep, [(0, 0)], [(0, 0)]).tolist() == steep.tolist()


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
    exact = sum(on_line(p, line) for p in box)
    assert exact == 1
    assert _key_richnesses(integers, [line.key], box).tolist() == [exact]
    assert count_on_line_int(integers, line.key, box) == exact


def _richness_bound(basis, key, box):
    """The bound whose _exact_dtype the counter takes for the one key:
    construction._closed_form_bound in degree 1, else _block_bound for a
    block holding the key."""
    d = basis.degree
    if d == 1:
        return construction._closed_form_bound(basis, np.array([key], dtype=object), box)
    a, b, c = (np.array([key[k : k + d]], dtype=object) for k in (0, d, 2 * d))
    if any(key[d : 2 * d]):
        pivot, other, columns, target = b, a, box.x_set, box.y_set
    else:
        pivot, other, columns, target = a, b, box.y_set, box.x_set
    return construction._block_bound(basis, pivot, other, c, columns.coords(), target)


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
        assert construction._key_richnesses(basis, keys, box).tolist() == expected
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
                    assert construction._key_richnesses(basis, [scaled], box).tolist() == [rich]
            assert lo  # the int64 threshold


def test_intercept_words_pack_box_intercepts():
    """_InterceptWords, the packing of the oracle's sweep, on seeded random
    directions of every arithmetic basis over a box with a scaled x axis,
    and on one direction scaled by 2^62, whose words are past int64: the
    word of_points gives a box point decodes through intercepts to the
    point's intercept c = -(a x + b y), sign included; each word lies in
    [0, (2 cm + 1)^d); and two points share a word exactly when they share
    an intercept."""
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
            words = geometry._InterceptWords(basis, np.array([ab[k] for k in rows]), 2, 1)
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
                decoded = words.intercepts(np.full(len(sample), k), w)
                assert list(zip(*(col.tolist() for col in decoded))) == c
                bins = (2 * int(words.cm[k]) + 1) ** d
                assert all(0 <= v < bins for v in w.tolist())
                assert len(set(zip(w.tolist(), c))) == len(set(w.tolist())) == len(set(c))


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
    by_columns = construction._by_columns

    def recording(basis, keys, box, out):
        calls.append(len(keys))
        return by_columns(basis, keys, box, out)

    monkeypatch.setattr(construction, "_by_columns", recording)
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
            assert construction._key_richnesses(basis, batch, box).tolist() == expected
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
    and B = k b sy with l l = k l.  Keys scaled one step either side of each
    _exact_dtype threshold of _closed_form_bound, int8 through object, keep
    their count; so does 2^59 (15, 2, 0), whose int64 products a x wrap past
    2^64."""
    integers = ARITH_BASES[0]
    cases = [(integers, scales) for scales in itertools.product((1, 2, 3), repeat=2)]
    cases += [(NiceBasis([[[k]]], [k]), scales) for k, scales in ((2, (2, 3)), (-3, (1, 2)))]
    rng = random.Random(1)
    seen = set()
    sides = set()
    for basis, (sx, sy) in cases:
        k = basis.structure_constants[0][0][0]
        rx, ry = rng.sample(range(1, 6), 2)
        box = construction.PointBox(GapSet(basis, rx, sx), GapSet(basis, ry, sy))
        keys = _closed_form_keys(box, rng)
        expected = [count_on_line_int(basis, key, box) for key in keys]
        assert construction._key_richnesses(basis, keys, box).tolist() == expected
        assert max(expected) > 2
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
                    assert construction._key_richnesses(basis, [scaled], box).tolist() == [rich]
    assert len(seen) == 7, seen
    assert sides == {t for _, below, above in DTYPE_THRESHOLDS for t in (below, above)}
    # 2^59 (15 X + 2 Y) = 0 meets the box only at the origin, but at x = +-2
    # int64 products a*x wrap past 2^64 onto multiples of b inside the radius
    box = construction.PointBox(GapSet(integers, 3), GapSet(integers, 3))
    key = (15 * 2**59, 2 * 2**59, 0)
    assert count_on_line_int(integers, key, box) == 1
    assert construction._key_richnesses(integers, [key], box).tolist() == [1]


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
    # the failing line is the first one below r, and only lines below r fail
    assert verify_claim2(tuned.family, box, 5).failing_line is None
    report = verify_claim2(tuned.family, box, 6)
    lines = list(tuned.family)
    assert report.failing_line == lines[report.richnesses.tolist().index(5)]


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
    group_pairs = construction.group_pairs

    def counting_group_pairs(*args):
        calls.append(args)
        return group_pairs(*args)

    monkeypatch.setattr(construction, "group_pairs", counting_group_pairs)
    params = ConstructionParams(cbrt2, 18225, HALF, 5, Fraction(1), True)
    geom = build_cell_geometry(params)
    assert len(geom.cell_x) * len(geom.cell_y) == 729
    with pytest.raises(AutoTuneError):
        auto_tune_c1(params)
    assert calls == []


def _full_gate(basis, cell, translates, box, r):
    """The tuning gate without the corner probe: the whole family and every
    key's richness, and whether every key is r-rich."""
    keys, *rest = construction._raw_family(basis, cell, translates)
    rich = construction._key_richnesses(basis, keys, box)
    family, order = construction._ordered_family(basis, keys, *rest)
    return family, rich[order].tolist(), bool(rich.min() >= r)


def _auto_tune_reference(params):
    """auto_tune_c1 gating every family key of each attempt, and checking
    that its translates are disjoint: the accepted c1, the halvings, the
    family and its richnesses."""
    box = build_pointset(params.basis, params.n, params.alpha)
    c1 = params.c1
    for step in range(construction._MAX_HALVINGS + 1):
        trial = params.with_c1(c1)
        try:
            geom = build_cell_geometry(trial)
        except RTooLargeError:
            if step == 0:
                raise
            raise AutoTuneError("degenerate") from None
        if verify_disjoint_translates(geom):
            cell, translates = PointBox(geom.cell_x, geom.cell_y).coords(), translate_vectors(geom)
            family, rich, ok = _full_gate(params.basis, cell, translates, box, params.r)
            if ok:
                return trial.c1, step, family, rich
        c1 = c1 / 2
    raise AutoTuneError("no c1")


def _auto_tune(params):
    tuned = auto_tune_c1(params)
    report = verify_claim2(tuned.family, tuned.box, params.r, tuned.richness)
    return tuned.params.c1, tuned.halvings, tuned.family, report.richnesses.tolist()


def _tune_outcome(tune, params):
    try:
        c1, step, family, rich = tune(params)
    except (AutoTuneError, RTooLargeError) as err:
        return type(err)
    return c1, step, family.keys.tolist(), family.witnesses.tolist(), rich


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
                assert tuned.witnesses.tolist() == family.witnesses.tolist()
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


def _mechanism_reference(family, box, r):
    """The multiplier replay one Point at a time, with Element arithmetic,
    on_line and box membership: the reference of _mechanism_check."""
    multipliers = list(gap_set(family.basis, Fraction(3**family.basis.degree * r)))
    total = inside = 0
    all_on = True
    for index, line in zip(range(construction._MECHANISM_SAMPLE), family):
        p, q = family.witness_points(index)
        dx, dy = p.x - q.x, p.y - q.y
        for t in multipliers:
            point = Point(p.x + t * dx, p.y + t * dy)
            all_on &= on_line(point, line)
            total += 1
            inside += box.contains(point)
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
    raw = construction._raw_family(basis, np.array(list(cell.values())), _rows(translates))
    return construction._ordered_family(basis, *raw)[0]


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

    # a first key with its constant moved: its witnesses leave the line
    zero = Element(integers, (0,))
    for family, box in (
        (family, box),
        (_random_family(integers, rng, 6, [(zero, zero)]), build_pointset(integers, 100, HALF)),
    ):
        family.keys = family.keys.copy()
        family.keys[0, -1] += 1
        got = construction._mechanism_check(family, box, 3)
        assert got == _mechanism_reference(family, box, 3)
        assert got[0] is False
    # The line y = 3x through (0, 0) and (2^32, 3 * 2^32), keyed
    # (3 + 2^32, -1, 0): every replayed x is a multiple of 2^32, so
    # a*x + b*y is 2^32 x, a nonzero multiple of 2^64 that int64 would wrap to 0
    cell = np.array([[v, 3 * v] for v in (0, 2**32)])
    keys, witnesses = np.array([[3 + 2**32, -1, 0]]), np.array([[0, 0, 1]])
    family = LineFamily(integers, keys, witnesses, cell, np.zeros((1, 2), dtype=np.int64), 1)
    box = build_pointset(integers, 100, HALF)
    got = construction._mechanism_check(family, box, 3)
    assert got == _mechanism_reference(family, box, 3)
    assert got[0] is False


def test_mechanism_points_on_line(sqrt2):
    params = ConstructionParams(sqrt2, 6561, HALF, 3, Fraction(1), True)
    box, tuned = build_construction(params)
    report = verify_claim2(tuned.family, box, 3, tuned.richness)
    assert report.mechanism_on_line
    assert 0 <= report.mechanism_in_p_fraction <= 1
