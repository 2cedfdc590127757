"""Command line interface.

Subcommands: construct, verify, sweep, oracle, selftest.  All experiment
subcommands read a JSON config (--config) and are deterministic for a fixed
config.
"""

import argparse
import json
import os
import sys

from . import harness
from .errors import RichlinesError
from .geometry import lines_to_text, points_to_text
from .numberfield import basis_from_spec


def _load_config(path):
    with open(path) as fh:
        raw = json.load(fh)
    return harness.parse_config(raw)


def _ensure_out(path):
    if path:
        os.makedirs(path, exist_ok=True)
    return path


def _dump_artifacts(args, config, report, out_dir):
    if not (args.dump_points or args.dump_lines):
        return
    from .construction import ConstructionParams, build_construction

    basis = basis_from_spec(config.basis_spec)
    params = ConstructionParams(
        basis,
        config.n,
        config.alpha,
        config.r,
        report.c1_final,
        auto_tune=False,
    )
    box, tuned = build_construction(params)
    if args.dump_points:
        with open(os.path.join(out_dir, "points.txt"), "w") as fh:
            fh.write(points_to_text(box))
    if args.dump_lines:
        with open(os.path.join(out_dir, "lines.txt"), "w") as fh:
            fh.write(lines_to_text(tuned.family))


def cmd_construct(args):
    config = _load_config(args.config)
    report = harness.run(config)
    out_dir = _ensure_out(args.out or ".")
    harness.write_json(os.path.join(out_dir, "report.json"), report.to_json_dict())
    _dump_artifacts(args, config, report, out_dir)
    print(
        f"{report.basis_description}: |P|={report.p_realized} r={report.r} "
        f"c1={report.c1_final} |L|={report.num_lines} "
        f"frac_r_rich={report.frac_r_rich}"
    )
    return 0


def cmd_verify(args):
    config = _load_config(args.config)
    report = harness.run(config)
    checks = [
        ("claim2 all lines r-rich", report.frac_r_rich == 1.0),
        ("min richness >= r", report.min_richness >= report.r),
        ("mechanism points on line", report.mechanism_on_line),
    ]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    print(
        f"  |P|={report.p_realized} |L|={report.num_lines} "
        f"c1={report.c1_final} (after {report.auto_tune_steps} halvings) "
        f"rates: claim4={report.rate_claim4:.4f} claim3={report.rate_claim3:.4f} "
        f"claim1={report.rate_claim1:.4f}"
    )
    if args.out:
        out_dir = _ensure_out(args.out)
        harness.write_json(os.path.join(out_dir, "report.json"), report.to_json_dict())
    return 0 if all(ok for _, ok in checks) else 1


def cmd_sweep(args):
    config = _load_config(args.config)
    reports, fit = harness.sweep(config, workers=args.workers)
    csv_text = harness.sweep_csv(reports, include_timings=args.timings)
    out_dir = _ensure_out(args.out or ".")
    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w") as fh:
        fh.write(csv_text)
    harness.write_json(
        os.path.join(out_dir, "sweep.json"),
        {
            "reports": [rep.to_json_dict() for rep in reports],
            "fit": fit.to_json_dict(),
        },
    )
    if args.gnuplot:
        with open(os.path.join(out_dir, "sweep.gp"), "w") as fh:
            fh.write(_gnuplot_script(fit))
    print(f"wrote {csv_path}")
    print(f"fit: log(num_lines) ~ {fit.slope:.4f} * log({fit.x_name}) + {fit.intercept:.4f}")
    return 0


def _gnuplot_script(fit):
    xcol = "6" if fit.x_name == "r" else "4"
    return (
        "set datafile separator ','\n"
        "set logscale xy\n"
        f"set xlabel '{fit.x_name}'\n"
        "set ylabel 'num_lines'\n"
        f"plot 'sweep.csv' using {xcol}:8 skip 1 with points title 'num_lines', \\\n"
        f"     exp({fit.intercept}) * x**({fit.slope}) title 'OLS fit'\n"
    )


def cmd_oracle(args):
    config = _load_config(args.config)
    rep = harness.oracle(config)
    print(
        f"oracle: {rep.oracle_rich_lines} r-rich lines by brute force, "
        f"family has {rep.family_lines} "
        f"(subset={'yes' if rep.subset else 'NO'}, coverage={rep.coverage:.4f})"
    )
    if args.out:
        out_dir = _ensure_out(args.out)
        harness.write_json(os.path.join(out_dir, "oracle.json"), rep.to_json_dict())
    return 0 if rep.subset else 1


def cmd_selftest(args):
    results = harness.selftest(seed=args.seed)
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(ok for _, ok in results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="richlines",
        description="Exact rich-line constructions over nice-basis number fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("construct", help="build P and L, dump artifacts")
    common(p)
    p.add_argument("--dump-points", action="store_true")
    p.add_argument("--dump-lines", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run the claim verifiers on a config")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="r- or n-sweep with log-log fit")
    common(p)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="deprecated and ignored: sweeps run in one process",
    )
    p.add_argument("--timings", action="store_true", help="record runtime_ms in CSV")
    p.add_argument("--gnuplot", action="store_true", help="emit a gnuplot script")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="brute-force cross-check")
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("selftest", help="quick property suites")
    common(p, needs_config=False)
    p.add_argument("--seed", type=int, default=0, help="property-sampling seed")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RichlinesError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
