"""Benchmark entry point: one run of one workload, outputs checked.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 25 --trace 0

Starts fresh interpreters (`child.py`) from the root of the checkout, with
`src/` on the path and `RICHLINES_BACKEND` removed, so the default backend is
measured.  Set-up time is the median over several interpreters of the time
from process start to `ready` (interpreter start, `import richlines`,
writing the configs).  The measuring interpreter then runs passes of the
workload until `--seconds` have passed.  Every output of every operation is
checked against `reference.json`, in traced passes too.

The last line of standard output is one JSON object: `correct`, `attempted`
(operations run), `failed` (operations whose exit code or outputs differ
from the reference) and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones, with `--trace 1` the per-layer ones of `tracer.py`.  The
lines before it name every mismatch and give the full record (per-pass
times, percentiles, the machine, the seed).  The same record and the spans
of the last traced run are kept under `.perfbench_work/latest/`.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_PROBES = 7  # set-up-only interpreters per run, besides the measuring one
CHILD_GRACE_S = 120  # beyond --seconds: the last pass and the bookkeeping
COVERAGE_FLOOR = 0.9  # module self times must cover this share of traced wall time
SLOPE_TOL = 1e-9

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class ChildError(RuntimeError):
    pass


def run_child(workload, seed, seconds, trace, work, setup_only=False):
    """Run child.py once; return (seconds until `ready`, result or None)."""
    work.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work))
    env.pop("RICHLINES_BACKEND", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        _, err = proc.communicate(timeout=seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{workload}: child did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or line.strip() != "ready":
        raise ChildError(f"{workload}: child exited {proc.returncode}: {err.strip()[-2000:]}")
    if setup_only:
        return ready_s, None
    with open(work / "result.json") as fh:
        return ready_s, json.load(fh)


def load_reference(path=REFERENCE):
    with open(path) as fh:
        return json.load(fh)


def compare(observed, expected):
    """Problems of one operation's outputs against its reference entry."""
    if expected is None:
        return ["no reference entry"]
    problems = []
    for key, want in expected.items():
        got = observed.get(key)
        if key == "slope":
            if not isinstance(got, (int, float)) or abs(got - want) > SLOPE_TOL:
                problems.append(f"slope {got!r} differs from {want!r} by more than {SLOPE_TOL}")
        elif got != want:
            problems.append(f"{key} is {got!r}, reference {want!r}")
    return problems


def check_outputs(result, reference):
    """(attempted, failed, messages): every operation of every pass against
    the reference, plus the traced passes' family size."""
    attempted = failed = 0
    messages = []
    family_ref = reference["family_lines"].get(result["workload"])
    for i, p in enumerate(result["passes"]):
        for op_id, observed in p["observed"].items():
            attempted += 1
            problems = compare(observed, reference["ops"].get(op_id))
            if problems:
                failed += 1
                messages.append(f"pass {i} {op_id}: " + "; ".join(problems))
        if p["traced"]:
            got = p["layers"]["construction.family_lines"]
            if got != family_ref:
                messages.append(f"pass {i}: construction.family_lines {got}, reference {family_ref}")
    return attempted, failed, messages


def high_percentile(values):
    """(p, value) for the highest of a few percentiles that has at least ten
    samples above it; None when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            return p, ordered[min(n - 1, int(n * p / 100))]
    return None


def typical_pass_s(passes):
    """Seconds for one pass: the sum over operations of each operation's
    median time.  A stall during one operation then moves only that
    operation's median, not a whole pass."""
    ops = passes[0]["walls"]
    return sum(statistics.median(p["walls"][op] for p in passes) for op in ops)


def layer_metrics(passes):
    """Medians of the traced passes' per-layer metrics, plus the ones that
    compare traced with untraced passes."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    out = {}
    for name, unit, _ in LAYER_METRICS:
        values = [p["layers"][name] for p in traced if name in p["layers"]]
        if values:
            # counts repeat exactly; median_low keeps them whole numbers
            out[name] = (statistics.median_low if unit == "count" else statistics.median)(values)
    w1 = [p["walls"]["sweep-w1"] for p in untraced if "sweep-w1" in p["walls"]]
    w2 = [p["walls"]["sweep-w2"] for p in untraced if "sweep-w2" in p["walls"]]
    out["speedup_w2"] = statistics.median(w1) / statistics.median(w2) if w1 and w2 else 0.0
    out["trace.overhead_s"] = typical_pass_s(traced) - typical_pass_s(untraced)
    return out


def machine_record():
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for row in fh:
                if row.startswith("model name"):
                    model = row.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "git_sha": git_sha(),
    }


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for row in (git / "packed-refs").read_text().splitlines():
            if row.endswith(" " + ref):
                return row.split()[0]
    except OSError:
        pass
    return None


def main():
    ap = argparse.ArgumentParser(description="richlines benchmark: one run of one workload")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "richlines" / "__init__.py").is_file():
        print(f"no richlines sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = load_reference()

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        setup = []
        for _ in range(SETUP_PROBES):
            ready_s, _ = run_child(args.workload, args.seed, 0, 0, work, setup_only=True)
            setup.append(ready_s)
        ready_s, result = run_child(args.workload, args.seed, args.seconds, args.trace, work)
        setup.append(ready_s)
        latest = WORK_ROOT / "latest"
        latest.mkdir(parents=True, exist_ok=True)
        if args.trace:
            shutil.copyfile(work / "spans.jsonl", latest / f"{args.workload}-spans.jsonl")
    except ChildError as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = result["passes"]
    attempted, failed, messages = check_outputs(result, reference)
    untraced = [p for p in passes if not p["traced"]]
    untraced_walls = [p["wall_s"] for p in untraced]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "load": "closed loop, one client, operations run back to back in one interpreter",
        "machine": {**machine_record(), **result["env"]},
        "seed_note": (
            "the seed permutes operation order and fills each config's seed field; "
            "--seed does not reach experiments, so outputs do not depend on it"
        ),
        "outputs_match_seed0_reference": failed == 0,
        "passes": len(passes),
        "pass_walls_s": [p["wall_s"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "wall_s": {
            "typical_pass": typical_pass_s(untraced),
            "median_pass": statistics.median(untraced_walls),
            "samples": len(untraced_walls),
            "high_percentile": high_percentile(untraced_walls),
        },
        "setup_samples_s": setup,
        "peak_rss_mb": result["peak_rss_mb"],
        "fail_frac": failed / attempted,
        "mismatches": messages,
    }
    if args.trace:
        metrics = layer_metrics(passes)
        trace = result["trace"]
        record["trace_spans"] = trace
        for err in trace["hook_errors"]:
            messages.append(f"tracing hook failed: {err}")
        coverage = metrics["trace.self_coverage"]
        if coverage < COVERAGE_FLOOR:
            messages.append(f"module self times cover {coverage:.3f} of traced wall time")
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        metrics = {
            "wall_s": record["wall_s"]["typical_pass"],
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
        units = dict(END_TO_END)
    for msg in messages:
        print(f"CHECK FAILED {msg}")
    with open(WORK_ROOT / "latest" / f"{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump({**record, "metrics": metrics}, fh, indent=1)
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
