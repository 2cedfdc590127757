"""The CLI's output files and console lines, pinned to recorded values.

construct, verify, an r-sweep and an n-sweep (both with --gnuplot) and
oracle run through `cli.main`.  report.json, sweep.json and oracle.json are
compared with `runtime_ms` dropped, the n-sweep's sweep.csv and both
sweep.gp scripts as text, and the console lines with the output directory
replaced by `<out>`.  The log-log fit's floats (slope, intercept, residuals
and the fit line of sweep.gp) are compared to 1e-9; everything else exactly.

To record the values again, on purpose, run this file as a script:

    PYTHONPATH=src python tests/test_output_contract.py
"""

import contextlib
import copy
import hashlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

from richlines import cli

RECORDED = Path(__file__).with_name("output_contract.json")

INTEGERS = {"basis": {"type": "integers"}, "n": 2304, "alpha": "1/2", "r": 3, "seed": 0}

RUNS = (
    (
        "construct",
        {"basis": {"type": "quadratic", "k": 2}, "n": 6561, "alpha": "1/2", "r": 3},
        ["--dump-points", "--dump-lines"],
    ),
    ("verify", INTEGERS, []),
    (
        "sweep",
        {**INTEGERS, "r": None, "r_list": [3, 4, 5], "c1": "1/1"},
        ["--gnuplot"],
    ),
    ("sweep", {**INTEGERS, "n_list": [600, 1100, 2304], "c1": "1/2"}, ["--gnuplot"]),
    ("oracle", INTEGERS, []),
)

FIT_LINE = re.compile(r"exp\((.*)\) \* x\*\*\((.*)\) title")


def _drop_runtime(payload):
    if isinstance(payload, dict):
        return {k: _drop_runtime(v) for k, v in payload.items() if k != "runtime_ms"}
    if isinstance(payload, list):
        return [_drop_runtime(v) for v in payload]
    return payload


def _gnuplot(text):
    """The script with its fit line's two floats split out."""
    intercept, slope = map(float, FIT_LINE.search(text).groups())
    return {"text": FIT_LINE.sub("exp(I) * x**(S) title", text), "fit": [intercept, slope]}


def cli_outputs(tmp):
    """Run every command of RUNS in its own directory under tmp and collect
    what it wrote and printed."""
    outputs = []
    for index, (command, raw, extra) in enumerate(RUNS):
        out = Path(tmp) / f"run{index}"
        out.mkdir()
        config = out / "config.json"
        config.write_text(json.dumps({k: v for k, v in raw.items() if v is not None}))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([command, "--config", str(config), "--out", str(out), *extra])
        record = {
            "command": command,
            "exit": code,
            "stdout": stdout.getvalue().replace(str(out), "<out>").splitlines(),
        }
        for name in ("report.json", "sweep.json", "oracle.json"):
            if (out / name).exists():
                record[name] = _drop_runtime(json.loads((out / name).read_text()))
        for name in ("points.txt", "lines.txt"):
            if (out / name).exists():
                record[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
        if (out / "sweep.gp").exists():
            record["sweep.gp"] = _gnuplot((out / "sweep.gp").read_text())
        if "n_list" in raw:
            record["sweep.csv"] = (out / "sweep.csv").read_text()
        outputs.append(record)
    return outputs


def _split_fit(record):
    """The record without the log-log fit's floats, and those floats."""
    record = copy.deepcopy(record)
    floats = []
    if "sweep.json" in record:
        fit = record["sweep.json"]["fit"]
        floats += [fit.pop("slope"), fit.pop("intercept"), *fit.pop("residuals")]
    if "sweep.gp" in record:
        floats += record["sweep.gp"].pop("fit")
    return record, floats


def test_cli_outputs_match_recorded(tmp_path):
    recorded = json.loads(RECORDED.read_text())
    got = cli_outputs(tmp_path)
    assert len(got) == len(recorded)
    for g, w in zip(got, recorded):
        (g, g_floats), (w, w_floats) = _split_fit(g), _split_fit(w)
        # JSON text compares types too: 1 against 1.0, "1/1" against "1"
        assert json.dumps(g, sort_keys=True) == json.dumps(w, sort_keys=True)
        assert len(g_floats) == len(w_floats)
        for a, b in zip(g_floats, w_floats):
            assert math.isclose(a, b, rel_tol=0, abs_tol=1e-9), (w["command"], a, b)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        RECORDED.write_text(json.dumps(cli_outputs(tmp), indent=1, sort_keys=True) + "\n")
