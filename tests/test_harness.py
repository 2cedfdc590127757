"""Config parsing, the run/sweep/oracle drivers, and the CLI."""

import csv
import hashlib
import importlib.util
import inspect
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from richlines import cli, construction, gapset, geometry, harness, numberfield
from richlines.errors import ConfigError
from richlines.harness import (
    CSV_COLUMNS,
    fit_loglog,
    oracle,
    parse_config,
    run,
    selftest,
    sweep,
    sweep_csv,
)

BASE = {"basis": {"type": "integers"}, "n": 2304, "alpha": "1/2", "r": 3, "seed": 0}

SWEEP_CFG = {
    "basis": {"type": "integers"},
    "n": 2304,
    "alpha": "1/2",
    "r_list": [3, 4, 5, 6, 8],
    "c1": "1/1",
    "seed": 0,
}


def cfg(**overrides):
    raw = dict(BASE)
    raw.update(overrides)
    for key in [k for k, v in raw.items() if v is None]:
        del raw[key]
    return raw


# ---------------------------------------------------------------------------
# parsing


def test_parse_defaults():
    config = parse_config(cfg())
    assert config.n == 2304
    assert str(config.alpha) == "1/2"
    assert config.auto_tune  # c1 omitted means auto
    config2 = parse_config(cfg(c1="1/2"))
    assert not config2.auto_tune


def test_parse_rejects_with_field_names():
    bad_cases = [
        (cfg(color="red"), "color"),
        ({"n": 100, "r": 3}, "basis"),
        (cfg(n="big"), "'n'"),
        (cfg(alpha="3/5"), "alpha"),
        (cfg(r=1), "'r'"),
        (cfg(c1="0"), "c1"),
        (cfg(c1=1.5), "c1"),
        (cfg(c1=True), "c1"),
        (cfg(r=None, n_list=[100, 200]), "n_list"),
        (cfg(r_list=[]), "r_list"),
        (cfg(r_list=[3, 4, 5], n_list=[600, 1100, 2304]), "'r_list' and 'n_list'"),
        (cfg(seed="zero"), "seed"),
        (cfg(seed=True), "seed"),
        (cfg(r=None), "required"),
    ]
    for raw, fragment in bad_cases:
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        assert fragment in str(exc.value), raw
    with pytest.raises(ConfigError):
        parse_config([1, 2])


# ---------------------------------------------------------------------------
# run


def test_run_report_coherent():
    report = run(parse_config(cfg()))
    assert report.p_realized == 1089
    assert report.c1 == harness.Fraction(1, 2)
    assert report.auto_tune_steps == 1
    assert report.num_lines == 944
    assert report.min_richness == 5
    assert report.frac_r_rich == 1.0
    assert report.incidences >= report.r * report.num_lines
    assert report.rate_claim4 == report.num_lines * 27 / report.p_realized**2
    assert report.runtime_ms["total"] > 0


def test_echo_config_reproduces():
    report = run(parse_config(cfg()))
    echoed = parse_config(report.echo_config())
    assert not echoed.auto_tune
    replay = run(echoed)
    assert replay.num_lines == report.num_lines
    assert replay.incidences == report.incidences
    assert replay.c1 == report.c1
    assert replay.auto_tune_steps == 0


def test_csv_row_schema():
    report = run(parse_config(cfg()))
    row = report.csv_row()
    assert len(row.split(",")) == len(CSV_COLUMNS.split(","))
    assert row.endswith(",0")  # timings suppressed by default
    assert report.csv_row(include_timings=True).rsplit(",", 1)[1] != "0"


# ---------------------------------------------------------------------------
# fits and sweeps


def test_fit_loglog_exact():
    rs = [3, 4, 5, 6, 8]
    fit = fit_loglog(rs, [1000 / r**3 for r in rs])
    assert abs(fit.slope + 3) < 1e-12
    assert max(abs(e) for e in fit.residuals) < 1e-12
    flat = fit_loglog(rs, [7.0] * 5)
    assert abs(flat.slope) < 1e-12
    with pytest.raises(ConfigError):
        fit_loglog([1, 2], [1, 2])


def test_sweep_r_list():
    reports, fit = sweep(parse_config(SWEEP_CFG))
    assert [rep.r for rep in reports] == [3, 4, 5, 6, 8]
    assert [rep.num_lines for rep in reports] == [21400, 9476, 3376, 1828, 1544]
    assert -3.6 < fit.slope < -2.4


def test_sweep_csv_deterministic_across_workers():
    config = parse_config(SWEEP_CFG)
    csv1 = sweep_csv(sweep(config, workers=1)[0])
    csv8 = sweep_csv(sweep(config, workers=8)[0])
    assert csv1 == csv8
    assert csv1.splitlines()[0] == CSV_COLUMNS


def test_short_sweep_runs_nothing(monkeypatch):
    """A sweep whose points give fewer than 3 distinct x values fails before
    it runs any of them: too few points, a repeated r, or n values that all
    realize the same |P| = 1089."""
    calls = []
    monkeypatch.setattr(harness, "run", lambda *args, **kwargs: calls.append(args))
    for short in (
        cfg(r=None, r_list=[3, 4]),
        cfg(r=3, n_list=[600, 1100], c1="1/2"),
        cfg(r=None, r_list=[3, 3, 3]),
        cfg(r=None, r_list=[3, 3, 4]),
        cfg(r=3, n_list=[2304, 2305, 2306], c1="1/2"),
    ):
        with pytest.raises(ConfigError, match="at least 3 sweep points"):
            sweep(parse_config(short))
    assert calls == []


def test_sweep_csv_reads_back_on_every_basis_kind():
    """sweep.csv reads back through csv.reader as 15 fields per row on an
    integer, a quadratic and a power basis, the first the basis description
    (a quadratic one holds a comma and is quoted), and the r column holds
    each sweep point's r."""
    for basis, n, r_list in (
        ({"type": "integers"}, 2304, [3, 4, 5]),
        ({"type": "quadratic", "k": 2}, 6561, [3, 4, 5]),
        ({"type": "power", "minpoly": [-2, 0, 0]}, 11664, [2, 3, 4]),
    ):
        config = parse_config(
            {"basis": basis, "n": n, "alpha": "1/2", "r_list": r_list, "c1": "1/1"}
        )
        text = sweep_csv(sweep(config)[0])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == CSV_COLUMNS.split(",")
        assert [len(row) for row in rows] == [15] * 4
        assert [row[0] for row in rows[1:]] == [config.nice_basis.description] * 3
        assert [row[5] for row in rows[1:]] == [str(r) for r in r_list]
        assert text.startswith(CSV_COLUMNS + "\n") and text.count("\n") == 4


def test_sweep_n_list():
    with pytest.raises(ConfigError):
        sweep(parse_config(cfg()))
    reports, fit = sweep(
        parse_config(cfg(r=3, n_list=[600, 1100, 2304], c1="1/2"))
    )
    assert fit.x == "p_realized"
    assert all(rep.r == 3 for rep in reports)
    assert [rep.p_realized for rep in reports] == [289, 529, 1089]


# ---------------------------------------------------------------------------
# oracle and selftest


def test_oracle_subset():
    rep = oracle(parse_config(cfg()))
    assert rep.subset
    assert rep.family_lines == 944
    assert rep.oracle_rich_lines >= rep.family_lines
    assert 0 < rep.coverage <= 1


def test_oracle_cap():
    with pytest.raises(ConfigError):
        oracle(parse_config(cfg(n=10**6)))
    # |P| past sys.maxsize, where len() raises OverflowError
    with pytest.raises(ConfigError, match="oracle cap"):
        oracle(parse_config(cfg(n=2**200)))


def test_selftest_passes():
    results = selftest(seed=0, samples=50)
    assert len(results) == 7
    assert all(ok for _, ok in results)


# ---------------------------------------------------------------------------
# CLI


def write_cfg(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_construct(tmp_path, capsys):
    path = write_cfg(tmp_path, cfg())
    code = cli.main(
        [
            "construct",
            "--config",
            path,
            "--out",
            str(tmp_path),
            "--dump-points",
            "--dump-lines",
        ]
    )
    assert code == 0
    assert "|L|=944" in capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["num_lines"] == 944
    assert (tmp_path / "points.txt").exists()
    assert len((tmp_path / "lines.txt").read_text().splitlines()) == 944


def test_cli_dump_builds_no_canonical_line(tmp_path, monkeypatch):
    """construct --dump-lines on the quadratic n=6561 cell writes its 1520
    lines from the family's key array: lines_to_text builds no
    CanonicalLine."""
    inits, per_dump = [], []
    init = geometry.CanonicalLine.__init__
    lines_to_text = cli.lines_to_text

    def counting_init(self, *args):
        inits.append(1)
        init(self, *args)

    def measured(lines):
        before = len(inits)
        text = lines_to_text(lines)
        per_dump.append(len(inits) - before)
        return text

    monkeypatch.setattr(geometry.CanonicalLine, "__init__", counting_init)
    monkeypatch.setattr(cli, "lines_to_text", measured)
    raw = cfg(basis={"type": "quadratic", "k": 2}, n=6561, r=3, c1="auto")
    path = write_cfg(tmp_path, raw)
    assert cli.main(["construct", "--config", path, "--out", str(tmp_path), "--dump-lines"]) == 0
    assert per_dump == [0]
    assert len((tmp_path / "lines.txt").read_text().splitlines()) == 1520


def test_cli_operation_builds_basis_once(tmp_path, monkeypatch, capsys):
    """Each CLI operation builds its NiceBasis once, when the config is
    parsed: run, each sweep point, the oracle and the dump reuse it."""
    builds = []
    build_power_basis = numberfield.build_power_basis

    def counting(*args, **kwargs):
        builds.append(args)
        return build_power_basis(*args, **kwargs)

    monkeypatch.setattr(numberfield, "build_power_basis", counting)
    path = write_cfg(tmp_path, cfg(r_list=[3, 4, 5]))
    out = ["--config", path, "--out", str(tmp_path)]
    for argv in (["construct", "--dump-points", "--dump-lines"], ["verify"], ["oracle"], ["sweep"]):
        builds.clear()
        assert cli.main(argv + out) == 0, argv
        assert len(builds) == 1, argv


def test_cli_verify(tmp_path, capsys):
    path = write_cfg(tmp_path, cfg())
    assert cli.main(["verify", "--config", path]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3 and "FAIL" not in out
    # a non-tuned oversized cell fails the claim checks with exit 1
    bad = write_cfg(tmp_path, cfg(c1="1/1"), name="bad.json")
    assert cli.main(["verify", "--config", bad]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_sweep(tmp_path, capsys):
    path = write_cfg(tmp_path, SWEEP_CFG)
    code = cli.main(
        ["sweep", "--config", path, "--out", str(tmp_path), "--gnuplot"]
    )
    assert code == 0
    csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert csv_lines[0] == CSV_COLUMNS
    assert len(csv_lines) == 6
    payload = json.loads((tmp_path / "sweep.json").read_text())
    assert -3.6 < payload["fit"]["slope"] < -2.4
    assert (tmp_path / "sweep.gp").read_text().startswith("set datafile")


def test_cli_oracle_and_selftest(tmp_path, capsys):
    path = write_cfg(tmp_path, cfg())
    assert cli.main(["oracle", "--config", path, "--out", str(tmp_path)]) == 0
    assert "subset=yes" in capsys.readouterr().out
    assert json.loads((tmp_path / "oracle.json").read_text())["subset"] is True
    assert cli.main(["selftest"]) == 0
    assert capsys.readouterr().out.count("PASS") == 7


def test_cli_error_exit_code(tmp_path, capsys, monkeypatch):
    bad = write_cfg(tmp_path, {"basis": {"type": "integers"}, "n": 1, "r": 3})
    assert cli.main(["construct", "--config", bad]) == 2
    assert "error:" in capsys.readouterr().err
    # an r-sweep config has no single r to construct, verify or check
    sweep_only = write_cfg(tmp_path, cfg(r=None, r_list=[3, 4]), "sweep.json")
    for command in ("construct", "verify", "oracle"):
        assert cli.main([command, "--config", sweep_only]) == 2
        assert "error: 'r'" in capsys.readouterr().err
    # booleans and non-integers in the config and the basis spec
    for field, value in (
        ("c1", True),
        ("seed", True),
        ("basis", {"type": "quadratic", "k": 2.5}),
        ("basis", {"type": "quadratic", "k": "3"}),
        ("basis", {"type": "power", "minpoly": [True, 0]}),
    ):
        malformed = write_cfg(tmp_path, cfg(**{field: value}), "malformed.json")
        assert cli.main(["construct", "--config", malformed]) == 2
        assert "error:" in capsys.readouterr().err
    # a missing or unparsable config file, and a minpoly that is not a list
    unparsable = tmp_path / "unparsable.json"
    unparsable.write_text("{not json")
    for path in (str(tmp_path / "missing.json"), str(unparsable)):
        assert cli.main(["verify", "--config", path]) == 2
        assert "error: cannot read config" in capsys.readouterr().err
    for minpoly in (5, None):
        malformed = write_cfg(tmp_path, cfg(basis={"type": "power", "minpoly": minpoly}))
        assert cli.main(["oracle", "--config", malformed]) == 2
        assert "'minpoly' list" in capsys.readouterr().err
    huge = write_cfg(tmp_path, cfg(n=2**200), "huge.json")
    assert cli.main(["oracle", "--config", huge]) == 2
    assert "exceeds the oracle cap" in capsys.readouterr().err
    assert cli.main(["construct", "--config", huge]) == 2
    assert "exceeds the cap 50000" in capsys.readouterr().err
    # an --out that is an existing file: an error line naming it, before any run
    runs = []
    for name in ("run", "sweep", "oracle"):
        monkeypatch.setattr(harness, name, lambda *args, **kwargs: runs.append(args))
    taken = tmp_path / "taken"
    taken.write_text("")
    good = write_cfg(tmp_path, cfg(), "good.json")
    for command in ("construct", "verify", "sweep", "oracle"):
        assert cli.main([command, "--config", good, "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot use output directory") and str(taken) in err
    assert runs == []


def test_cli_selftest_has_no_out(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest", "--out", "d"])
    assert exc.value.code == 2


def test_benchmark_hook_targets_exist():
    """The public functions the benchmark's tracer hooks by name: renaming
    one would silently zero a benchmark counter."""
    targets = {
        construction: ("translate_vectors", "build_construction", "verify_claim2", "auto_tune_c1"),
        numberfield: ("build_power_basis", "integer_inverse"),
        geometry: ("points_to_text", "lines_to_text"),
        harness: ("sweep",),
    }
    for module, names in targets.items():
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_family_lines_match_reference(tmp_path, monkeypatch, capsys):
    """The benchmark traces construction.family_lines as the family sizes
    that build_construction returns, summed over a workload's operations:
    run, the construct dump's rebuild and the oracle each build once.  The
    sums over the construct and oracle workloads equal the recorded
    reference, and each operation exits as recorded."""
    built = []
    build_construction = construction.build_construction

    def counting(params):
        result = build_construction(params)
        built.append(len(result[1].family))
        return result

    # harness imports it at load time, cli's dump at call time
    monkeypatch.setattr(construction, "build_construction", counting)
    monkeypatch.setattr(harness, "build_construction", counting)
    workloads = _workloads()
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    for name in ("construct", "oracle"):
        built.clear()
        for op in workloads.WORKLOADS[name]:
            path = write_cfg(tmp_path, {**op.config, "seed": 0}, name=f"{op.id}.json")
            argv = [op.command, "--config", path, "--out", str(tmp_path / op.id), *op.extra_argv]
            assert cli.main(argv) == reference["ops"][op.id]["exit"], op.id
        capsys.readouterr()
        assert sum(built) == reference["family_lines"][name], name


def test_auto_tune_needs_no_disjointness_check(monkeypatch):
    """Translates are disjoint by construction, so auto-tuning never asks:
    with verify_disjoint_translates raising, auto_tune_c1 tunes the three
    construct cells of the benchmark that exit 0 to their recorded c1 and
    family size."""

    def refuse(*args):
        raise AssertionError("auto_tune_c1 checked disjointness")

    monkeypatch.setattr(construction, "verify_disjoint_translates", refuse)
    monkeypatch.setattr(construction, "_cross_check_nearest", refuse)
    workloads = _workloads()
    reference = json.loads((PERFBENCH / "reference.json").read_text())["ops"]
    ops = [op for op in workloads.CONSTRUCT if reference[op.id]["exit"] == 0]
    assert len(ops) == 3
    for op in ops:
        config = parse_config({**op.config, "seed": 0})
        params = construction.ConstructionParams(
            config.nice_basis, config.n, config.alpha, config.r, Fraction(1), True
        )
        tuned = construction.auto_tune_c1(params)
        assert tuned.params.c1 == Fraction(reference[op.id]["c1"]), op.id
        assert len(tuned.family) == reference[op.id]["num_lines"], op.id


def test_outputs_match_benchmark_reference(tmp_path, capsys):
    """points.txt, lines.txt and sweep.csv are byte-identical to the
    benchmark's recorded reference: the three construct cells that exit 0
    (dumping points and lines) and the criterion-6 sweep."""
    workloads = _workloads()
    reference = json.loads((PERFBENCH / "reference.json").read_text())["ops"]
    ops = [op for op in workloads.CONSTRUCT if reference[op.id]["exit"] == 0]
    assert len(ops) == 3
    for op in ops:
        out = tmp_path / op.id
        path = write_cfg(tmp_path, {**op.config, "seed": 0}, name=f"{op.id}.json")
        argv = [op.command, "--config", path, "--out", str(out), *op.extra_argv]
        assert cli.main(argv) == 0
        assert _sha256(out / "points.txt") == reference[op.id]["points_sha256"]
        assert _sha256(out / "lines.txt") == reference[op.id]["lines_sha256"]
    path = write_cfg(tmp_path, {**workloads.SWEEP_CFG, "seed": 0}, name="sweep.json")
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "sweep")]) == 0
    assert _sha256(tmp_path / "sweep" / "sweep.csv") == reference["sweep-w1"]["csv_sha256"]


def test_pipeline_builds_no_fractions(monkeypatch):
    """A run and an auto-tuned build on a freshly built basis construct no
    RationalElement, and a run groups its cell's pairs once: Fraction
    coefficients are built only for lines that are output.  A run builds
    one CanonicalLine, its failing line: the mechanism replay and the family
    stay key arrays."""
    calls = {"rational": 0, "group_pairs": 0, "line": 0}
    init = numberfield.RationalElement.__init__
    line_init = geometry.CanonicalLine.__init__
    group_pairs = construction.group_pairs

    def counting_init(self, *args):
        calls["rational"] += 1
        init(self, *args)

    def counting_line_init(self, *args):
        calls["line"] += 1
        line_init(self, *args)

    def counting_group_pairs(*args):
        calls["group_pairs"] += 1
        return group_pairs(*args)

    monkeypatch.setattr(numberfield.RationalElement, "__init__", counting_init)
    monkeypatch.setattr(geometry.CanonicalLine, "__init__", counting_line_init)
    monkeypatch.setattr(construction, "group_pairs", counting_group_pairs)
    report = run(parse_config(SWEEP_CFG), r=3)
    assert report.num_lines == 21400 and report.frac_r_rich < 1
    assert calls == {"rational": 0, "group_pairs": 1, "line": 1}

    sqrt2 = numberfield.build_quadratic_basis(2)
    params = construction.ConstructionParams(sqrt2, 6561, Fraction(1, 2), 3, auto_tune=True)
    box, tuned = construction.build_construction(params)
    report = construction.verify_claim2(tuned.family, box, 3)
    assert report.frac_r_rich == 1.0 and report.mechanism_on_line
    assert calls["rational"] == 0
    # the counter sees the coefficients that output builds
    next(iter(tuned.family)).coeffs()
    assert calls["rational"] == 3


def test_pipeline_builds_no_points(monkeypatch, tmp_path):
    """A run and construct --dump-points --dump-lines build no Point, and no
    Element outside NiceBasis construction: the box, the cell, the
    translates and the point dump are coordinate rows."""
    calls = {"point": 0, "element": 0}
    building = []
    basis_init = numberfield.NiceBasis.__init__
    element_init = numberfield.Element.__init__
    point_init = geometry.Point.__init__

    def counting_basis_init(self, *args, **kwargs):
        building.append(self)
        try:
            basis_init(self, *args, **kwargs)
        finally:
            building.pop()

    def counting_element_init(self, *args):
        calls["element"] += not building
        element_init(self, *args)

    def counting_point_init(self, *args):
        calls["point"] += 1
        point_init(self, *args)

    monkeypatch.setattr(numberfield.NiceBasis, "__init__", counting_basis_init)
    monkeypatch.setattr(numberfield.Element, "__init__", counting_element_init)
    monkeypatch.setattr(geometry.Point, "__init__", counting_point_init)
    report = run(parse_config(SWEEP_CFG), r=3)
    assert report.num_lines == 21400
    argv = ["construct", "--config", write_cfg(tmp_path, cfg()), "--out", str(tmp_path)]
    assert cli.main(argv + ["--dump-points", "--dump-lines"]) == 0
    assert len((tmp_path / "points.txt").read_text().splitlines()) == 1089
    assert len((tmp_path / "lines.txt").read_text().splitlines()) == 944
    assert calls == {"point": 0, "element": 0}
    # the counters do see the scalar API
    side = gapset.GapSet(numberfield.build_integers_basis(), 1)
    assert len(list(construction.PointBox(side, side))) == 9
    assert calls == {"point": 9, "element": 6}


def _count_keys(monkeypatch):
    """Record the key rows sent to the richness counter, and, for each build
    that harness makes and each verify_claim2 call, how many keys had been
    sent and how many builds had returned by then."""
    counted, builds, verified = [], [], []
    key_richnesses = construction._key_richnesses
    build_construction = construction.build_construction
    verify_claim2 = construction.verify_claim2

    def counting(basis, keys, box):
        counted.extend(geometry.key_tuples(keys))
        return key_richnesses(basis, keys, box)

    def building(params):
        box, tuned = build_construction(params)
        builds.append((tuned, len(counted)))
        return box, tuned

    def verifying(*args):
        verified.append(len(builds))
        return verify_claim2(*args)

    monkeypatch.setattr(construction, "_key_richnesses", counting)
    monkeypatch.setattr(construction, "verify_claim2", verifying)
    monkeypatch.setattr(harness, "verify_claim2", verifying, raising=False)
    monkeypatch.setattr(harness, "build_construction", building)
    return counted, builds, verified


QUAD_AUTO = {"basis": {"type": "quadratic", "k": 2}, "n": 6561, "alpha": "1/2", "r": 3}


def test_tuned_build_counts_each_key_once(monkeypatch):
    """The accepted attempt of an auto-tuned build sends each family key to
    the richness counter once, and verify_claim2 takes the gate's counts
    without counting again."""
    counted, _, _ = _count_keys(monkeypatch)
    sqrt2 = numberfield.build_quadratic_basis(2)
    params = construction.ConstructionParams(sqrt2, 6561, Fraction(1, 2), 3, auto_tune=True)
    box, tuned = construction.build_construction(params)
    assert tuned.halvings == 0 and len(tuned.family) == 1520
    keys = sorted(geometry.key_tuples(tuned.family.keys))
    assert sorted(counted) == keys
    report = construction.verify_claim2(tuned.family, box, 3, tuned.richness)
    assert len(counted) == len(keys)
    recount = construction._key_richnesses(sqrt2, tuned.family.keys, box)
    assert report.richnesses.tolist() == recount.tolist()


def test_run_auto_counts_each_key_once(monkeypatch):
    """harness.run on an auto config: the build's tuning gate sends each
    family key to the counter once, and verify_claim2 runs once, after the
    build, on the gate's counts."""
    counted, builds, verified = _count_keys(monkeypatch)
    report = run(parse_config(QUAD_AUTO))
    [(tuned, at_build)] = builds
    assert report.num_lines == len(tuned.family) == 1520
    assert at_build == len(counted)
    assert sorted(counted) == sorted(geometry.key_tuples(tuned.family.keys))
    assert verified == [1]


def test_run_fixed_c1_counts_each_key_once(monkeypatch):
    """harness.run on a fixed-c1 config: the build counts no key, and
    verify_claim2 runs once, after the build, sending each family key to
    the counter once."""
    counted, builds, verified = _count_keys(monkeypatch)
    report = run(parse_config(cfg(c1="1/2")))
    [(tuned, at_build)] = builds
    assert at_build == 0
    assert report.num_lines == len(tuned.family) == 944 and tuned.richness is None
    assert sorted(counted) == sorted(geometry.key_tuples(tuned.family.keys))
    assert verified == [1]


def test_oracle_verifies_nothing(monkeypatch):
    """harness.oracle reads only the family: it counts no key and never
    calls verify_claim2."""
    counted, _, verified = _count_keys(monkeypatch)
    rep = oracle(parse_config(cfg(n=1100, c1="1/2")))
    assert rep.subset and rep.family_lines == 104
    assert counted == [] and verified == []


def test_run_builds_one_box(monkeypatch):
    """harness.run builds its point box once, on an auto and on a fixed-c1
    config: the build, the verification and claim 1 share it."""
    calls = []
    build_pointset = construction.build_pointset

    def counting(*args):
        calls.append(args)
        return build_pointset(*args)

    monkeypatch.setattr(construction, "build_pointset", counting)
    monkeypatch.setattr(harness, "build_pointset", counting)
    for config in (QUAD_AUTO, cfg(c1="1/2")):
        calls.clear()
        run(parse_config(config))
        assert len(calls) == 1


def _columns_share(monkeypatch, config, **kwargs):
    """The keys harness.run sends to the richness counter, and how many of
    them the columns path counts."""
    sent, columns = [], []
    key_richnesses = construction._key_richnesses
    by_columns = construction._by_columns

    def counting(basis, keys, box):
        sent.append(len(keys))
        return key_richnesses(basis, keys, box)

    def recording(basis, keys, box, out):
        columns.append(len(keys))
        return by_columns(basis, keys, box, out)

    monkeypatch.setattr(construction, "_key_richnesses", counting)
    monkeypatch.setattr(construction, "_by_columns", recording)
    run(parse_config(config), **kwargs)
    monkeypatch.undo()
    return sum(sent), sum(columns)


def test_counter_rule_on_workload_cells(monkeypatch):
    """The counter's per-degree rule on the workload cells: the degree-1
    criterion-6 sweep cell at r = 3 and the auto-tuned integers cells n=1100
    r=3 and r=5 count no key by columns, and the auto-tuned quadratic cell
    n=6561 r=3 counts every key by columns."""
    keys, columns = _columns_share(monkeypatch, SWEEP_CFG, r=3)
    assert keys == 21400 and columns == 0
    for config in (cfg(n=1100), cfg(n=1100, r=5)):
        keys, columns = _columns_share(monkeypatch, config)
        assert keys > 0 and columns == 0
    keys, columns = _columns_share(monkeypatch, QUAD_AUTO)
    assert keys > 0 and columns == keys
