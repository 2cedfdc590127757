"""One benchmark run in a fresh interpreter.

Imports richlines from the checkout's `src/`, writes the workload's configs,
prints `ready`, then runs passes of the workload through `richlines.cli.main`
in-process until `--seconds` have passed.  With `--trace 1` the passes
alternate untraced and traced, starting untraced.  Everything the parent
needs goes to `<work>/result.json`; the spans of traced passes go to
`<work>/spans.jsonl`.

Run through `run.py`, which measures set-up time and checks the outputs:
    python3 perfbench/child.py --workload oracle --seed 0 --seconds 5 \
        --trace 0 --work .perfbench_work/manual
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

REPORT_FIELDS = (
    "num_lines", "c1", "p_realized", "min_richness", "frac_r_rich", "incidences", "cell_lines",
)
ORACLE_FIELDS = ("oracle_rich_lines", "subset", "p_realized", "family_lines")


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def observe(op, out_dir, exit_code):
    """The outputs of one operation that the reference pins down.  Exit-2
    cells record only their exit code, so error messages may change."""
    obs = {"exit": exit_code}
    if op.command == "construct" and exit_code == 0:
        report = read_json(out_dir / "report.json")
        obs.update({k: report.get(k) for k in REPORT_FIELDS})
        obs["points_sha256"] = sha256(out_dir / "points.txt")
        obs["lines_sha256"] = sha256(out_dir / "lines.txt")
    elif op.command == "oracle" and exit_code in (0, 1):
        report = read_json(out_dir / "oracle.json")
        obs.update({k: report.get(k) for k in ORACLE_FIELDS})
    elif op.command == "sweep" and exit_code == 0:
        obs["csv_sha256"] = sha256(out_dir / "sweep.csv")
        obs["slope"] = read_json(out_dir / "sweep.json")["fit"]["slope"]
    return obs


def call_cli(cli, argv):
    """Exit code of one CLI call, its console output discarded.  Anything
    that escapes `main` is recorded as the exit code, so it fails the
    reference check instead of stopping the run."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception:
            return "exception: " + traceback.format_exc(limit=3)


def run_pass(cli, ops, config_paths, work, tracer):
    walls, observed = {}, {}
    for op in ops:
        out_dir = work / "out" / op.id
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [op.command, "--config", str(config_paths[op.id]), "--out", str(out_dir),
                *op.extra_argv]
        if tracer:
            tracer.begin_op(op.id)
        t0 = time.perf_counter()
        code = call_cli(cli, argv)
        walls[op.id] = time.perf_counter() - t0
        if tracer:
            tracer.end_op()
        try:
            observed[op.id] = observe(op, out_dir, code)
        except (OSError, ValueError, KeyError) as err:
            observed[op.id] = {"exit": code, "missing_output": f"{type(err).__name__}: {err}"}
    return walls, observed


def write_configs(ops, work, seed):
    paths = {}
    cfg_dir = work / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for op in ops:
        path = cfg_dir / f"{op.id}.json"
        with open(path, "w") as fh:
            json.dump({**op.config, "seed": seed}, fh, indent=2)
        paths[op.id] = path
    return paths


def environment():
    try:
        from richlines import fastpath
    except ImportError:
        backend = None
    else:
        backend = fastpath.default_backend()
    try:
        import numba  # noqa: F401
    except ImportError:
        numba_ok = False
    else:
        numba_ok = True
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_importable": numba_ok,
        "default_backend": backend,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import richlines
    from richlines import cli

    if Path(richlines.__file__).resolve().parent != SRC / "richlines":
        print(f"richlines imported from {richlines.__file__}, not {SRC}", file=sys.stderr)
        return 3
    ops = WORKLOADS[args.workload]
    config_paths = write_configs(ops, args.work, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    rng = random.Random(args.seed)
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        order = list(ops)
        rng.shuffle(order)
        if traced:
            tracer.reset()
            tracer.install()
        try:
            walls, observed = run_pass(cli, order, config_paths, args.work,
                                       tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        wall = sum(walls.values())
        record = {"traced": traced, "order": [op.id for op in order], "wall_s": wall,
                  "walls": walls, "observed": observed}
        if traced:
            record["layers"] = tracer.layer_metrics(wall)
        passes.append(record)
        if time.perf_counter() - start >= args.seconds and (tracer is None or len(passes) >= 2):
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
    }
    if tracer is not None:
        tracer.write_spans(args.work / "spans.jsonl")
        result["trace"] = {
            "spans_kept": len(tracer.spans),
            "spans_dropped": tracer.dropped,
            "hook_errors": tracer.hook_errors,
        }
    with open(args.work / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    os.environ.pop("RICHLINES_BACKEND", None)
    sys.exit(main())
