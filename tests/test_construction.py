"""The translate pipeline: point box, cell, lattice, family, verifiers."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import richlines as rl
from richlines import construction
from richlines.construction import (
    AutoTuneError,
    ConstructionParams,
    auto_tune_c1,
    build_cell_geometry,
    build_construction,
    build_pointset,
    claim1_statistic,
    claim3_claim4_statistics,
    generate_line_family,
    line_richness_in_box,
    line_richnesses,
    szt_incidence_construction,
    translate_vectors,
    verify_claim2,
    verify_disjoint_translates,
    _round_cube_root,
)
from richlines.errors import InvalidParameterError, RTooLargeError
from richlines.gapset import GapSet
from richlines.numberfield import Element
from richlines.geometry import (
    CanonicalLine,
    Point,
    _raw_pair_counts_loop,
    line_through,
    on_line,
    rich_lines_bruteforce,
)

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
    xs = sorted({x.coords[0] for x, _ in translate_vectors(geom)})
    assert len(xs) == 7 and all(v % geom.s == 0 for v in xs)
    assert len(translate_vectors(geom)) == 49  # (2*floor(9/3)+1)^2 = 49
    # r = 2 has multiplier radius 0: the single zero translate
    geom2 = build_cell_geometry(ConstructionParams(integers, 8100, HALF, 2))
    assert len(translate_vectors(geom2)) == 1
    assert all(e.is_zero() for pair in translate_vectors(geom2) for e in pair)


def test_translates_stay_in_outer_box(sqrt2):
    # build_cell_geometry runs the exhaustive observation (i) check itself;
    # it must come back without the internal assertion firing
    geom = build_cell_geometry(ConstructionParams(sqrt2, 6561, HALF, 3))
    assert geom.s >= 1 and geom.s_prime >= geom.s


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


def test_family_witnesses_on_their_lines(sqrt2):
    geom = build_cell_geometry(ConstructionParams(sqrt2, 6561, HALF, 3))
    family = generate_line_family(geom)
    for line, prov in list(family.lines.items())[:200]:
        p, q = prov.pair
        assert on_line(p, line) and on_line(q, line)


def test_family_dedups_across_translates(integers):
    geom = build_cell_geometry(ConstructionParams(integers, 2304, HALF, 3, HALF))
    family = generate_line_family(geom)
    per_translate_total = 0
    cell = geom.cell_points()
    from richlines.geometry import line_pair_counts

    for tx, ty in translate_vectors(geom):
        shifted = [type(p)(p.x + tx, p.y + ty) for p in cell]
        per_translate_total += len(line_pair_counts(shifted))
    assert len(family) < per_translate_total


def _family_by_pair_scan(geom):
    """Reference family: line_through over every pair of every translated
    cell, keeping the smallest (translate index, i, j) witness per line."""
    cell = geom.cell_points()
    best = {}
    for t_idx, (tx, ty) in enumerate(translate_vectors(geom)):
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
        assert list(family.lines) == sorted(best, key=CanonicalLine.sort_key)
        for line, prov in family.lines.items():
            assert (prov.translate_index, prov.pair) == best[line]


def test_family_shift_exact_past_int64(sqrt2, monkeypatch):
    """Translates too large for an int64 shift take the exact path; both
    sides of that bound match the per-translate reference loop."""
    cell = [
        Point(Element(sqrt2, (i, j)), Element(sqrt2, (j, i + 1)))
        for i in range(3)
        for j in range(3)
    ]
    geom = SimpleNamespace(basis=sqrt2, cell_points=lambda: cell)
    zero = Element(sqrt2, (0, 0))
    for big in (10**17, 10**19):
        far = (Element(sqrt2, (big, 1)), Element(sqrt2, (7, big)))
        translates = [(zero, zero), far]
        monkeypatch.setattr(construction, "translate_vectors", lambda g: translates)
        best = {}
        for t_idx, (tx, ty) in enumerate(translates):
            pts = [Point(p.x + tx, p.y + ty) for p in cell]
            raw = _raw_pair_counts_loop(
                sqrt2, [p.x.coords for p in pts], [p.y.coords for p in pts]
            )
            for key, (_, i, j) in sorted(raw.items(), key=lambda kv: kv[1][1:]):
                best.setdefault(key, (t_idx, i, j))
        assert construction._raw_family(geom)[0] == best


def test_line_richness_matches_bruteforce(integers, sqrt2):
    for basis, n in ((integers, 2304), (sqrt2, 81)):
        box = build_pointset(basis, n, HALF)
        rich = rich_lines_bruteforce(list(box), 3)
        lines = list(rich)
        assert line_richnesses(lines, box) == [rich[l] for l in lines]
        for line in lines[:50]:
            assert line_richness_in_box(line, box) == rich[line]


def test_verify_claim2_tuned(integers):
    params = ConstructionParams(integers, 2304, HALF, 3, Fraction(1), True)
    tuned = auto_tune_c1(params)
    assert tuned.params.c1 == HALF
    assert tuned.halvings == 1
    assert len(tuned.family) == 944
    assert tuned.report.frac_r_rich == 1.0
    assert tuned.report.min_richness == 5
    assert tuned.report.mechanism_on_line


def test_verify_claim2_oversized_cell_fails(integers):
    # c1 = 1 is deliberately too large here; a witness must be reported
    params = ConstructionParams(integers, 2304, HALF, 3, Fraction(1))
    box, tuned = build_construction(params)
    assert tuned.report.frac_r_rich < 1.0
    assert tuned.report.failing_line is not None
    assert line_richness_in_box(tuned.report.failing_line, box) < 3


def test_auto_tune_failure_modes(integers):
    # degenerate at step 0 surfaces as r-too-large, not a tuning failure
    with pytest.raises(RTooLargeError):
        auto_tune_c1(ConstructionParams(integers, 100, HALF, 10, Fraction(1), True))
    # a config where every halving leaves some line under-rich
    with pytest.raises(AutoTuneError):
        auto_tune_c1(ConstructionParams(integers, 1500, THIRD, 3, Fraction(1), True))


def test_claim1_statistic(integers):
    geom = build_cell_geometry(ConstructionParams(integers, 8100, HALF, 5))
    n_lines, ratio = claim1_statistic(geom)
    # 13x13 cell: a healthy chunk of distinct lines, positive normalized rate
    assert n_lines > 100
    assert ratio > 0


def test_claim3_claim4_empty(integers):
    box = build_pointset(integers, 81, HALF)

    class EmptyFam:
        def __iter__(self):
            return iter(())

        def __len__(self):
            return 0

    inc, r3, r4 = claim3_claim4_statistics(box, EmptyFam(), 3)
    assert (inc, r3, r4) == (0, 0.0, 0.0)


def test_claim_rates_on_tuned_run(integers):
    params = ConstructionParams(integers, 2304, HALF, 3, Fraction(1), True)
    box, tuned = build_construction(params)
    inc, rate3, rate4 = claim3_claim4_statistics(box, tuned.family, 3)
    assert inc == sum(tuned.report.richnesses)
    assert rate3 > 0 and rate4 > 0


def test_round_cube_root():
    assert _round_cube_root(Fraction(8)) == 2
    assert _round_cube_root(Fraction(9)) == 2
    assert _round_cube_root(Fraction(2304)) == 13
    # rounds up past the halfway cube
    assert _round_cube_root(Fraction(15, 1)) == 2
    assert _round_cube_root(Fraction(16)) == 3  # (2.5)^3 = 15.625


def test_szt_construction(integers):
    res = szt_incidence_construction(integers, 2304, 2304)
    assert res.r == 13
    assert len(res.points) == 1089
    assert res.incidences == sum(line_richnesses(list(res.family), res.points))
    assert res.ratio_nominal > 0


def test_szt_range_validation(integers):
    with pytest.raises(InvalidParameterError):
        szt_incidence_construction(integers, 10, 1000)  # n^2 < m
    with pytest.raises(InvalidParameterError):
        szt_incidence_construction(integers, 1000, 10)  # n > m^2


def test_mechanism_points_on_line(sqrt2):
    params = ConstructionParams(sqrt2, 6561, HALF, 3, Fraction(1), True)
    box, tuned = build_construction(params)
    assert tuned.report.mechanism_on_line
    assert 0 <= tuned.report.mechanism_in_p_fraction <= 1
