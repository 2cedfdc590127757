"""Experiment orchestration: config parsing, runs, sweeps, fits, reports.

Experiments are fully deterministic: the seed is recorded for provenance and
feeds only the self-test property sampling.  CSV output follows a fixed
column schema, quoted per RFC 4180 where a field needs it (a quadratic
basis description holds a comma), so sweep results diff cleanly across runs;
measured timings go to the JSON report (and to the CSV only behind an
explicit flag, to keep default CSV output byte-reproducible).
"""

import csv
import io
import json
import random
import time
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from fractions import Fraction
from math import comb

import numpy as np

from . import gapset, numberfield
from .construction import (
    POINT_CAP,
    ConstructionParams,
    PointBox,
    _known_counts,
    build_construction,
    build_pointset,
    claim1_statistic,
    claim3_claim4_statistics,
    verify_claim2,
)
from .errors import ConfigError
from .geometry import _richness_from_pairs, canonical_order, group_pairs, rich_line_keys
from .numberfield import _is_int, basis_from_spec

CSV_COLUMNS = (
    "basis,d,n_nominal,p_realized,alpha,r,c1,num_lines,min_richness,"
    "frac_r_rich,incidences,rate_claim4,rate_claim3,rate_claim1,runtime_ms"
)


def _parse_fraction(value, name):
    if _is_int(value) or isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ConfigError(f"{name!r} must be an integer or a 'p/q' string, got {value!r}")


@dataclass
class Config:
    basis: dict
    n: int
    alpha: Fraction
    r: int | None
    r_list: list | None
    n_list: list | None
    c1: Fraction | None  # None means auto-tune
    seed: int

    @property
    def auto_tune(self):
        return self.c1 is None

    @cached_property
    def nice_basis(self):
        """The NiceBasis of the basis spec; parse_config sets it to the one
        it builds to validate the spec, so an operation builds it once."""
        return basis_from_spec(self.basis)


def parse_config(raw):
    """Validate a config dict, with field-precise error messages."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in fields(Config)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config field {key!r}")
    if "basis" not in raw:
        raise ConfigError("'basis' is required")
    nice_basis = basis_from_spec(raw["basis"])  # validates eagerly
    if "n" not in raw or not isinstance(raw["n"], int) or raw["n"] < 2:
        raise ConfigError("'n' must be an integer >= 2")
    alpha = _parse_fraction(raw.get("alpha", "1/2"), "alpha")
    if not (0 < alpha <= Fraction(1, 2)):
        raise ConfigError(f"'alpha' must lie in (0, 1/2], got {alpha}")
    r = raw.get("r")
    r_list = raw.get("r_list")
    n_list = raw.get("n_list")
    if r is None and r_list is None and n_list is None:
        raise ConfigError("one of 'r', 'r_list', 'n_list' is required")
    if r is not None and (not isinstance(r, int) or r < 2):
        raise ConfigError("'r' must be an integer >= 2")
    for name, lst in (("r_list", r_list), ("n_list", n_list)):
        if lst is not None and (
            not isinstance(lst, list)
            or not lst
            or any(not isinstance(v, int) or v < 2 for v in lst)
        ):
            raise ConfigError(f"{name!r} must be a nonempty list of integers >= 2")
    if n_list is not None and r is None:
        raise ConfigError("'n_list' sweeps need a fixed 'r'")
    if r_list is not None and n_list is not None:
        raise ConfigError("'r_list' and 'n_list' cannot be combined: sweep one of them")
    c1_raw = raw.get("c1", "auto")
    if c1_raw == "auto":
        c1 = None
    else:
        c1 = _parse_fraction(c1_raw, "c1")
        if not (0 < c1 <= 1):
            raise ConfigError(f"'c1' must lie in (0, 1], got {c1}")
    seed = raw.get("seed", 0)
    if not _is_int(seed):
        raise ConfigError("'seed' must be an integer")
    config = Config(raw["basis"], raw["n"], alpha, r, r_list, n_list, c1, seed)
    config.nice_basis = nice_basis
    return config


@dataclass
class ExperimentReport:
    """One run's report: the field names are report.json's keys and name
    the CSV_COLUMNS."""

    basis_description: str
    basis: dict
    d: int
    n_nominal: int
    p_realized: int
    alpha: Fraction
    r: int
    c1: Fraction
    auto_tune_steps: int
    num_lines: int
    min_richness: int
    frac_r_rich: float
    incidences: int
    rate_claim4: float
    rate_claim3: float
    rate_claim1: float
    cell_lines: int
    mechanism_on_line: bool
    mechanism_in_p_fraction: float
    disjoint_sufficient: bool
    seed: int
    runtime_ms: dict = field(default_factory=dict)

    def to_json_dict(self):
        row = asdict(self)
        # "p/q", with q written also when it is 1
        row["alpha"], row["c1"] = (f"{x.numerator}/{x.denominator}" for x in (self.alpha, self.c1))
        return row

    def echo_config(self):
        """A config that reproduces this run exactly (auto-tune resolved)."""
        row = self.to_json_dict()
        row["n"] = self.n_nominal
        return {f.name: row[f.name] for f in fields(Config) if f.name in row}

    def csv_row(self, include_timings=False):
        row = self.to_json_dict()
        row["basis"] = self.basis_description
        row["runtime_ms"] = int(self.runtime_ms.get("total", 0)) if include_timings else 0
        # minimal quoting: only a field with a comma, quote or line end is quoted
        line = io.StringIO()
        csv.writer(line, lineterminator="\n").writerow(
            str(row[name]) for name in CSV_COLUMNS.split(",")
        )
        return line.getvalue()[:-1]


def _single_config(config, r=None, n=None):
    r = r if r is not None else config.r
    if r is None:
        raise ConfigError(
            "'r' is required outside a sweep; 'r_list' only sets sweep points"
        )
    basis = config.nice_basis
    params = ConstructionParams(
        basis,
        n if n is not None else config.n,
        config.alpha,
        r,
        config.c1 if config.c1 is not None else Fraction(1),
        auto_tune=config.auto_tune,
    )
    return basis, params


def run(config, r=None, n=None):
    """Build one parameter point, then verify it: each stage timed apart."""
    basis, params = _single_config(config, r=r, n=n)
    t0 = time.perf_counter()
    box, tuned = build_construction(params)
    t1 = time.perf_counter()
    report = verify_claim2(tuned.family, box, params.r, tuned.richness)
    incidences, rate3, rate4 = claim3_claim4_statistics(
        box, tuned.family, params.r, report.richnesses
    )
    cell_lines, rate1 = claim1_statistic(tuned)
    t2 = time.perf_counter()
    return ExperimentReport(
        basis_description=basis.description,
        basis=config.basis,
        d=basis.degree,
        n_nominal=params.n,
        p_realized=len(box),
        alpha=params.alpha,
        r=params.r,
        c1=tuned.params.c1,
        auto_tune_steps=tuned.halvings,
        num_lines=len(tuned.family),
        min_richness=report.min_richness,
        frac_r_rich=report.frac_r_rich,
        incidences=incidences,
        rate_claim4=rate4,
        rate_claim3=rate3,
        rate_claim1=rate1,
        cell_lines=cell_lines,
        mechanism_on_line=report.mechanism_on_line,
        mechanism_in_p_fraction=report.mechanism_in_p_fraction,
        disjoint_sufficient=tuned.geometry.disjoint_sufficient,
        seed=config.seed,
        runtime_ms={
            "build": round((t1 - t0) * 1000, 3),
            "verify": round((t2 - t1) * 1000, 3),
            "total": round((t2 - t0) * 1000, 3),
        },
    )


@dataclass
class FitResult:
    slope: float
    intercept: float
    residuals: list
    x: str


def _check_fit_points(xs, x):
    """A line is fitted only through at least 3 distinct x values."""
    if len(set(xs)) < 3:
        raise ConfigError(
            f"log-log fit needs at least 3 sweep points with distinct {x}, got {list(xs)}"
        )


def fit_loglog(xs, ys, x="r"):
    """OLS of log(y) against log(x); needs at least 3 distinct x values."""
    _check_fit_points(xs, x)
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = (ly - (slope * lx + intercept)).tolist()
    return FitResult(float(slope), float(intercept), resid, x)


def sweep(config, workers=1):
    """Run each sweep point and fit log(num_lines) against log(r) (for
    r-sweeps) or log(p_realized) (for n-sweeps).

    The points run one after another in this process.  `workers` is
    deprecated and ignored; it stays only while the perfbench sweep
    operations pass `--workers` (ROADMAP open item 1 removes both).
    A sweep whose points give fewer than 3 distinct x values fails before
    any point runs; an n-sweep's x values, the realized box sizes, come
    from build_pointset, which builds no coordinates.
    """
    if config.r_list is not None:
        x, points = "r", [{"r": r} for r in config.r_list]
        xs = config.r_list
    elif config.n_list is not None:
        x, points = "p_realized", [{"n": n} for n in config.n_list]
        xs = [build_pointset(config.nice_basis, n, config.alpha).size for n in config.n_list]
    else:
        raise ConfigError("sweep needs 'r_list' or 'n_list'")
    _check_fit_points(xs, x)
    reports = [run(config, **point) for point in points]
    return reports, fit_loglog(xs, [rep.num_lines for rep in reports], x)


def sweep_csv(reports, include_timings=False):
    rows = [CSV_COLUMNS]
    rows.extend(rep.csv_row(include_timings=include_timings) for rep in reports)
    return "\n".join(rows) + "\n"


@dataclass
class OracleReport:
    r: int
    p_realized: int
    oracle_rich_lines: int
    family_lines: int
    subset: bool
    coverage: float


def oracle(config):
    """Exact cross-check: the family must be a subset of the r-rich lines
    of P.

    The r-rich lines come from rich_line_keys, a direction sweep over the
    box's axes that shares no grouping step with the family's pair kernel.
    Both sides are distinct primitive key rows, so one stable sort of their
    union finds each family key among the rich keys (_known_counts)."""
    basis, params = _single_config(config)
    box = build_pointset(basis, params.n, params.alpha)
    if box.size > POINT_CAP:
        raise ConfigError(
            f"realized |P| = {box.size} exceeds the oracle cap "
            f"{POINT_CAP}; use a smaller n for oracle runs"
        )
    _, tuned = build_construction(params)
    keys, richness = rich_line_keys(basis, box.x_set.coords(), box.y_set.coords(), params.r)
    subset = bool((_known_counts(tuned.family.keys, keys, richness) >= 0).all())
    coverage = len(tuned.family) / len(keys) if len(keys) else 1.0
    return OracleReport(
        params.r, len(box), len(keys), len(tuned.family), subset, coverage
    )


# ---------------------------------------------------------------------------
# Self-test: quick randomized property suites, seeded and deterministic.


def selftest(seed=0, samples=200):
    """Run the core property suites at reduced sample counts.

    Returns a list of (name, passed) pairs; the full-depth versions live in
    the pytest suite.
    """
    rng = random.Random(seed)
    results = []
    bases = [
        numberfield.build_integers_basis(),
        numberfield.build_quadratic_basis(2),
        numberfield.build_power_basis([-2, 0, 0]),
    ]

    def rand_elt(basis, bound=50):
        return numberfield.Element(
            basis, [rng.randint(-bound, bound) for _ in range(basis.degree)]
        )

    ok = True
    for basis in bases:
        for _ in range(samples):
            a, b, c = (rand_elt(basis) for _ in range(3))
            if (a * b).coords != (b * a).coords:
                ok = False
            if ((a * b) * c).coords != (a * (b * c)).coords:
                ok = False
            if (a * (b + c)).coords != (a * b + a * c).coords:
                ok = False
    results.append(("ring-axioms", ok))

    ok = True
    for basis in bases:
        for _ in range(samples):
            a, b = rand_elt(basis), rand_elt(basis)
            if b.is_zero():
                continue
            q = numberfield.divide(a, b)
            if (q * b).coords != a.to_rational().coords:
                ok = False
    results.append(("divide-mul-roundtrip", ok))

    ok = True
    for basis in bases:
        d = basis.degree
        for _ in range(samples):
            m = Fraction(rng.randint(1, 500))
            mp = Fraction(rng.randint(1, 500))
            sa = gapset.gap_set(basis, m)
            sb = gapset.gap_set(basis, mp)
            a = numberfield.Element(
                basis, [rng.randint(-sa.radius, sa.radius) for _ in range(d)]
            )
            b = numberfield.Element(
                basis, [rng.randint(-sb.radius, sb.radius) for _ in range(d)]
            )
            if not gapset.gap_set(basis, gapset.sum_bound(m, mp, d)).contains(a + b):
                ok = False
            prod_m = gapset.product_bound(m, mp, d, basis.c_lambda)
            if not gapset.gap_set(basis, prod_m).contains(a * b):
                ok = False
    results.append(("gap-closure", ok))

    def pair_lines(box):
        """The keys and pair counts of the lines through two points of the
        box, by group_pairs over the box's coordinate rows."""
        d = box.basis.degree
        points = box.coords()
        return group_pairs(box.basis, points[:, :d], points[:, d:])[:2]

    def sweep_agrees(box, *rs):
        """The sweep's lines with at least r points equal the lines with at
        least C(r, 2) pairs, keys and richness, in canonical order."""
        basis = box.basis
        pair_keys, counts = pair_lines(box)
        ok = True
        for r in rs:
            keys, richness = rich_line_keys(basis, box.x_set.coords(), box.y_set.coords(), r)
            order = canonical_order(basis, keys)
            keep = np.flatnonzero(counts >= comb(r, 2))
            keep = keep[canonical_order(basis, pair_keys[keep])]
            ok &= keys[order].tolist() == pair_keys[keep].tolist()
            ok &= richness[order].tolist() == list(map(_richness_from_pairs, counts[keep].tolist()))
        return ok

    # the 3 x 3 integer grid {-1, 0, 1}^2: 8 lines with 3 points, 20 lines
    side = gapset.GapSet(bases[0], 1)
    grid = PointBox(side, side)
    keys, _ = rich_line_keys(grid.basis, side.coords(), side.coords(), 3)
    results.append(("grid-3x3-oracle", len(keys) == 8))
    ok = sweep_agrees(grid, 3)
    for basis in bases:
        ok &= sweep_agrees(build_pointset(basis, 729, Fraction(1, 2)), 3, 4)
    results.append(("oracle-sweep", ok))
    richness = list(map(_richness_from_pairs, pair_lines(grid)[1].tolist()))
    results.append(("beck-3x3", (max(richness), len(richness)) == (3, 20)))
    identity = sum(comb(k, 2) for k in richness) == comb(grid.size, 2)
    results.append(("pair-identity", identity))
    return results


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
