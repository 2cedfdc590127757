"""Self-check of the benchmark: counters repeat, and the reference check bites.

    python3 -m pytest perfbench/test_selfcheck.py -q

Runs the `selfcheck` slice (the two 529-point construct cells and the two
529-point oracle cells) twice, each time one untraced and one traced pass.
"""

import copy
import json
import shutil

import pytest

from run import ROOT, WORK_ROOT, check_outputs, load_reference, run_child
from tracer import EXACT_COUNTERS, LAYER_METRICS
from workloads import PUBLIC_WORKLOADS


@pytest.fixture(scope="module")
def two_runs():
    results = []
    for i in range(2):
        work = WORK_ROOT / f"selfcheck-{i}"
        try:
            results.append(run_child("selfcheck", i, 0, 1, work)[1])
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return results


def traced_layers(result):
    (traced,) = [p for p in result["passes"] if p["traced"]]
    return traced["layers"]


def test_outputs_match_reference_traced_and_untraced(two_runs):
    reference = load_reference()
    for result in two_runs:
        assert [p["traced"] for p in result["passes"]] == [False, True]
        attempted, failed, messages = check_outputs(result, reference)
        assert (attempted, failed, messages) == (8, 0, [])


def test_exact_counters_repeat(two_runs):
    first, second = (traced_layers(r) for r in two_runs)
    counters = {name: first[name] for name in EXACT_COUNTERS}
    assert counters == {name: second[name] for name in EXACT_COUNTERS}
    # the slice reaches the scan, the oracle's fast path and the caches
    for name in ("construction.translate_pairs", "fastpath.pairs", "geometry.oracle_pairs",
                 "numberfield.line_cache_size", "construction.lines_gated"):
        assert counters[name] > 0, name
    assert counters["geometry.oracle_pairs"] == 2 * 529 * 528 // 2
    # the fast path also groups the cell's own pairs for the claim-1 statistic
    assert counters["fastpath.pairs"] > counters["geometry.oracle_pairs"]


def test_self_times_cover_traced_wall(two_runs):
    for result in two_runs:
        assert traced_layers(result)["trace.self_coverage"] >= 0.9
        assert result["trace"]["hook_errors"] == []


def test_corrupted_digest_is_caught(two_runs):
    reference = copy.deepcopy(load_reference())
    op = "construct-int-a1_2-r3-n1100"
    reference["ops"][op]["lines_sha256"] = "0" * 64
    attempted, failed, messages = check_outputs(two_runs[0], reference)
    assert failed == 2  # the operation, in both passes
    assert failed / attempted > 0
    assert all(op in msg and "lines_sha256" in msg for msg in messages)


def test_benchmark_json_names_the_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(PUBLIC_WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == LAYER_METRICS
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "peak_rss_mb", "setup_s"]
