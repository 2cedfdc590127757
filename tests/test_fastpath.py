"""The int64 fast path of pair grouping (geometry.group_pairs) against its
pure-Python reference, on adversarial inputs and on both sides of the bounds
that choose how keys are packed."""

import random
from math import comb, gcd, prod

from richlines import geometry as geo


def grouped(basis, xs, ys):
    keys, counts, first = geo.group_pairs(basis, xs, ys)
    return (
        [tuple(k) for k in keys.tolist()],
        counts.tolist(),
        [tuple(f) for f in first.tolist()],
    )


def reference(basis, xs, ys):
    raw = geo._raw_pair_counts_loop(basis, xs, ys)
    keys = sorted(raw)
    return keys, [raw[k][0] for k in keys], [tuple(raw[k][1:]) for k in keys]


def random_coords(rng, basis, n, bound):
    d = basis.degree
    pts = set()
    while len(pts) < n:
        pts.add(
            (
                tuple(rng.randint(-bound, bound) for _ in range(d)),
                tuple(rng.randint(-bound, bound) for _ in range(d)),
            )
        )
    xs, ys = zip(*sorted(pts))
    return list(xs), list(ys)


def largest_bound(fits):
    """The largest coordinate bound m with fits(m), by bisection."""
    lo, hi = 0, 2**32
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def test_backends_agree(integers, sqrt2, cbrt2):
    """The int64 path and the pure-Python reference agree exactly: keys,
    pair counts and first pairs, on seeded random points of every basis."""
    rng = random.Random(3)
    cases = [(integers, 120, 1000), (sqrt2, 40, 30), (cbrt2, 40, 8)]
    # coordinates whose keys take two or more int64 words
    cases += [(integers, 60, 10**6), (sqrt2, 40, 10**4), (cbrt2, 40, 10**4)]
    for basis, n, bound in cases:
        xs, ys = random_coords(rng, basis, n, bound)
        assert geo.group_pairs(basis, xs, ys)[0].dtype.kind == "i"
        assert grouped(basis, xs, ys) == reference(basis, xs, ys)


def test_keys_are_primitive(integers, sqrt2, cbrt2):
    rng = random.Random(4)
    for basis in (integers, sqrt2, cbrt2):
        xs, ys = random_coords(rng, basis, 60, 20)
        keys, _, _ = grouped(basis, xs, ys)
        for key in keys:
            g = 0
            for v in key:
                g = gcd(g, v)
            assert g == 1
            assert next(v for v in key if v) > 0


def test_counts_cover_all_pairs(integers, sqrt2, cbrt2):
    rng = random.Random(5)
    for basis in (integers, sqrt2, cbrt2):
        xs, ys = random_coords(rng, basis, 80, 6)
        _, counts, _ = grouped(basis, xs, ys)
        assert sum(counts) == comb(80, 2)


def test_collinear_run_counted_once(integers, sqrt2):
    xs = [(x,) for x in range(10)]
    ys = [(3 * x + 1,) for x in range(10)]
    assert grouped(integers, xs, ys) == ([(3, -1, 1)], [comb(10, 2)], [(0, 1)])
    # a run along y = sqrt2 * x + 1 in Z[sqrt2]
    xs = [(x, 0) for x in range(8)]
    ys = [(1, x) for x in range(8)]
    got = grouped(sqrt2, xs, ys)
    assert got[1] == [comb(8, 2)]
    assert got == reference(sqrt2, xs, ys)


def test_vertical_and_horizontal_lines(integers):
    vertical = [((5,), (y,)) for y in range(20, 30)]
    horizontal = [((x,), (-7,)) for x in range(40, 50)]
    for pts, key in ((vertical, (1, 0, -5)), (horizontal, (0, 1, 7))):
        xs, ys = map(list, zip(*pts))
        assert grouped(integers, xs, ys) == ([key], [comb(10, 2)], [(0, 1)])
    xs, ys = map(list, zip(*(vertical + horizontal)))
    got = grouped(integers, xs, ys)
    assert got == reference(integers, xs, ys)
    assert sum(got[1]) == comb(20, 2)


def test_overflow_guard(integers, sqrt2, cbrt2):
    """Coordinates one step either side of each bound agree with the
    reference: keys packed in one int64 word, keys packed in several, and
    entries that could leave int64, which take the exact fallback."""
    rng = random.Random(6)
    for basis in (integers, sqrt2, cbrt2):
        d = basis.degree
        radices = lambda m: geo.key_radices(basis, m, m)
        one_word = largest_bound(lambda m: prod(radices(m)) <= 2**63)
        entries = largest_bound(lambda m: max(radices(m)) <= 2**63)
        cases = [(one_word, "i"), (one_word + 1, "i"), (entries, "i"), (entries + 1, "O")]
        for bound, kind in cases:
            if kind == "i":
                words = len(geo._words(radices(bound)))
                assert (words == 1) == (bound == one_word)
            xs, ys = random_coords(rng, basis, 25, bound)
            # extreme pairs: primitive keys with entries near their radices
            top = (bound,) * d
            edge = (bound - 1,) + (bound,) * (d - 1)
            low = tuple(-v for v in top)
            for px, py in ((top, top), (low, edge), (low, top), (top, low)):
                if (px, py) not in zip(xs, ys):
                    xs.append(px)
                    ys.append(py)
            assert geo.group_pairs(basis, xs, ys)[0].dtype.kind == kind
            assert grouped(basis, xs, ys) == reference(basis, xs, ys)
