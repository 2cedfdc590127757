"""Record `reference.json`: the expected outputs of every benchmark operation.

    python3 perfbench/record_reference.py

Runs each workload once untraced and once traced (seed 0) and keeps, per
operation, its exit code and the outputs `child.observe` pins down, plus the
family size each workload's traced pass builds.  Refuses to write when the
traced pass disagrees with the untraced one, or when the two sweep halves
wrote different CSVs.  Re-record only on purpose: the reference is the
contract later changes are checked against.
"""

import json
import shutil
import sys

from run import REFERENCE, WORK_ROOT, git_sha, run_child
from workloads import WORKLOADS


def main():
    ops, family_lines = {}, {}
    for workload in WORKLOADS:
        work = WORK_ROOT / f"record-{workload}"
        try:
            _, result = run_child(workload, 0, 0, 1, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        plain, traced = result["passes"][:2]
        if plain["observed"] != traced["observed"]:
            sys.exit(f"{workload}: traced outputs differ from untraced ones")
        for op_id, observed in plain["observed"].items():
            if ops.setdefault(op_id, observed) != observed:
                sys.exit(f"{op_id}: outputs differ between workloads")
        family_lines[workload] = traced["layers"]["construction.family_lines"]
    if ops["sweep-w1"]["csv_sha256"] != ops["sweep-w2"]["csv_sha256"]:
        sys.exit("sweep CSV differs between --workers 1 and --workers 2")
    reference = {"commit": git_sha(), "ops": ops, "family_lines": family_lines}
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE} ({len(ops)} operations)")


if __name__ == "__main__":
    main()
