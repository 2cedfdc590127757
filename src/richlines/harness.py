"""Experiment orchestration: config parsing, runs, sweeps, fits, reports.

Experiments are fully deterministic: the seed is recorded for provenance and
feeds only the self-test property sampling.  CSV output follows a fixed
column schema so sweep results diff cleanly across runs and worker counts;
measured timings go to the JSON report (and to the CSV only behind an
explicit flag, to keep default CSV output byte-reproducible).
"""

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import gapset, geometry, numberfield
from .construction import (
    ConstructionParams,
    build_construction,
    build_pointset,
    claim1_statistic,
    claim3_claim4_statistics,
)
from .errors import ConfigError
from .geometry import rich_lines_bruteforce
from .numberfield import basis_from_spec

CSV_COLUMNS = (
    "basis,d,n_nominal,p_realized,alpha,r,c1,num_lines,min_richness,"
    "frac_r_rich,incidences,rate_claim4,rate_claim3,rate_claim1,runtime_ms"
)

ORACLE_POINT_CAP = 50_000


def _parse_fraction(value, name):
    try:
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ConfigError(f"{name!r} must be an integer or a 'p/q' string, got {value!r}")


@dataclass
class Config:
    basis_spec: dict
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


def parse_config(raw):
    """Validate a config dict, with field-precise error messages."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {"basis", "n", "alpha", "r", "r_list", "n_list", "c1", "seed"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config field {key!r}")
    if "basis" not in raw:
        raise ConfigError("'basis' is required")
    basis_spec = raw["basis"]
    basis_from_spec(basis_spec)  # validates eagerly
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
    c1_raw = raw.get("c1", "auto")
    if c1_raw == "auto":
        c1 = None
    else:
        c1 = _parse_fraction(c1_raw, "c1")
        if not (0 < c1 <= 1):
            raise ConfigError(f"'c1' must lie in (0, 1], got {c1}")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("'seed' must be an integer")
    return Config(basis_spec, raw["n"], alpha, r, r_list, n_list, c1, seed)


@dataclass
class ExperimentReport:
    basis_description: str
    basis_spec: dict
    degree: int
    n_nominal: int
    p_realized: int
    alpha: Fraction
    r: int
    c1_final: Fraction
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
    oracle_subset: bool | None = None
    runtime_ms: dict = field(default_factory=dict)

    def echo_config(self):
        """A config that reproduces this run exactly (auto-tune resolved)."""
        return {
            "basis": self.basis_spec,
            "n": self.n_nominal,
            "alpha": f"{self.alpha.numerator}/{self.alpha.denominator}",
            "r": self.r,
            "c1": f"{self.c1_final.numerator}/{self.c1_final.denominator}",
            "seed": self.seed,
        }

    def csv_row(self, include_timings=False):
        runtime = int(self.runtime_ms.get("total", 0)) if include_timings else 0
        fields = [
            self.basis_description,
            str(self.degree),
            str(self.n_nominal),
            str(self.p_realized),
            f"{self.alpha.numerator}/{self.alpha.denominator}",
            str(self.r),
            f"{self.c1_final.numerator}/{self.c1_final.denominator}",
            str(self.num_lines),
            str(self.min_richness),
            str(self.frac_r_rich),
            str(self.incidences),
            str(self.rate_claim4),
            str(self.rate_claim3),
            str(self.rate_claim1),
            str(runtime),
        ]
        return ",".join(fields)

    def to_json_dict(self):
        out = {
            "basis": self.basis_spec,
            "basis_description": self.basis_description,
            "d": self.degree,
            "n_nominal": self.n_nominal,
            "p_realized": self.p_realized,
            "alpha": f"{self.alpha.numerator}/{self.alpha.denominator}",
            "r": self.r,
            "c1": f"{self.c1_final.numerator}/{self.c1_final.denominator}",
            "auto_tune_steps": self.auto_tune_steps,
            "num_lines": self.num_lines,
            "min_richness": self.min_richness,
            "frac_r_rich": self.frac_r_rich,
            "incidences": self.incidences,
            "rate_claim4": self.rate_claim4,
            "rate_claim3": self.rate_claim3,
            "rate_claim1": self.rate_claim1,
            "cell_lines": self.cell_lines,
            "mechanism_on_line": self.mechanism_on_line,
            "mechanism_in_p_fraction": self.mechanism_in_p_fraction,
            "disjoint_sufficient": self.disjoint_sufficient,
            "seed": self.seed,
            "runtime_ms": self.runtime_ms,
        }
        if self.oracle_subset is not None:
            out["oracle_subset"] = self.oracle_subset
        return out


def _single_config(config, r=None, n=None):
    basis = basis_from_spec(config.basis_spec)
    params = ConstructionParams(
        basis,
        n if n is not None else config.n,
        config.alpha,
        r if r is not None else config.r,
        config.c1 if config.c1 is not None else Fraction(1),
        auto_tune=config.auto_tune,
    )
    return basis, params


def run(config, r=None, n=None):
    """Execute the full pipeline for one parameter point."""
    basis, params = _single_config(config, r=r, n=n)
    t0 = time.perf_counter()
    box, tuned = build_construction(params)
    t1 = time.perf_counter()
    report = tuned.report
    incidences, rate3, rate4 = claim3_claim4_statistics(
        box, tuned.family, params.r, richnesses=report.richnesses
    )
    cell_lines, rate1 = claim1_statistic(tuned.geometry, realized_p=len(box))
    t2 = time.perf_counter()
    return ExperimentReport(
        basis_description=basis.description,
        basis_spec=config.basis_spec,
        degree=basis.degree,
        n_nominal=params.n,
        p_realized=len(box),
        alpha=params.alpha,
        r=params.r,
        c1_final=tuned.params.c1,
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
    x_name: str

    def to_json_dict(self):
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "residuals": self.residuals,
            "x": self.x_name,
        }


def fit_loglog(xs, ys, x_name="r"):
    """OLS of log(y) against log(x); needs at least 3 sweep points."""
    if len(xs) < 3:
        raise ConfigError("log-log fit needs at least 3 sweep points")
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = (ly - (slope * lx + intercept)).tolist()
    return FitResult(float(slope), float(intercept), resid, x_name)


def sweep(config, workers=1):
    """Run each sweep point and fit log(num_lines) against log(r) (for
    r-sweeps) or log(p_realized) (for n-sweeps).

    The points run one after another in this process.  `workers` is
    deprecated and ignored; it stays only while the perfbench sweep
    operations pass `--workers` (ROADMAP open item 6 removes both).
    """
    if config.r_list is not None:
        reports = [run(config, r=r) for r in config.r_list]
        fit = fit_loglog(
            [rep.r for rep in reports], [rep.num_lines for rep in reports], "r"
        )
    elif config.n_list is not None:
        reports = [run(config, n=n) for n in config.n_list]
        fit = fit_loglog(
            [rep.p_realized for rep in reports],
            [rep.num_lines for rep in reports],
            "p_realized",
        )
    else:
        raise ConfigError("sweep needs 'r_list' or 'n_list'")
    return reports, fit


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

    def to_json_dict(self):
        return {
            "r": self.r,
            "p_realized": self.p_realized,
            "oracle_rich_lines": self.oracle_rich_lines,
            "family_lines": self.family_lines,
            "subset": self.subset,
            "coverage": self.coverage,
        }


def oracle(config):
    """Brute-force cross-check: the family must be a subset of the exact
    r-rich lines of P."""
    basis, params = _single_config(config)
    box = build_pointset(basis, params.n, params.alpha)
    if len(box) > ORACLE_POINT_CAP:
        raise ConfigError(
            f"realized |P| = {len(box)} exceeds the oracle cap "
            f"{ORACLE_POINT_CAP}; use a smaller n for oracle runs"
        )
    _, tuned = build_construction(params)
    rich = rich_lines_bruteforce(list(box), params.r)
    subset = all(line in rich for line in tuned.family)
    coverage = len(tuned.family) / len(rich) if rich else 1.0
    return OracleReport(
        params.r, len(box), len(rich), len(tuned.family), subset, coverage
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

    grid_basis = bases[0]
    pts = [
        geometry.Point(
            numberfield.Element(grid_basis, [x]), numberfield.Element(grid_basis, [y])
        )
        for x in range(3)
        for y in range(3)
    ]
    rich = rich_lines_bruteforce(pts, 3)
    results.append(("grid-3x3-oracle", len(rich) == 8))
    results.append(("beck-3x3", geometry.beck_statistic(pts) == (3, 20)))
    results.append(("pair-identity", geometry.pair_grouping_identity(pts)))
    return results


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
