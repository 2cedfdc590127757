"""The benchmark's workloads: fixed CLI operations, each a config plus argv.

Every workload is a closed loop with one client: a pass runs its operations
one after another through `richlines.cli.main`, in an order the workload
seed permutes.  The cells come from the acceptance suite (criterion 4's
matrix, criterion 5's oracle cells, criterion 6's sweep), cut down so that a
pass takes seconds rather than minutes on a 2-core machine:

- construct drops the three slowest matrix cells (integers a=1/3 r=3,
  quadratic a=1/3 r=3, power a=1/2 r=3), which together cost 20 s a pass.
- oracle replaces the two large tuned cells (2873 and 2401 points, 80 s a
  pass) by a 1089-point integer cell (n=2304), still on the degree-1 fast path, and a
  625-point quadratic cell on the generic path.  No 625-point quadratic cell
  is fully 3-rich at any c1, so the oracle's correct verdict there is
  "not a subset" (exit code 1); that verdict is its reference output.
"""

from dataclasses import dataclass

INTEGERS = {"type": "integers"}
QUADRATIC_2 = {"type": "quadratic", "k": 2}
POWER_CUBE_2 = {"type": "power", "minpoly": [-2, 0, 0]}

BASIS_LABEL = {"integers": "int", "quadratic": "quad2", "power": "cube2"}


@dataclass(frozen=True)
class Op:
    id: str
    command: str  # CLI subcommand
    config: dict  # written to <work>/configs/<id>.json with the workload seed
    extra_argv: tuple = ()


def _cell(command, basis, alpha, r, n, c1, extra_argv=()):
    label = BASIS_LABEL[basis["type"]]
    op_id = f"{command}-{label}-a{alpha.replace('/', '_')}-r{r}-n{n}"
    config = {"basis": basis, "n": n, "alpha": alpha, "r": r, "c1": c1}
    return Op(op_id, command, config, tuple(extra_argv))


DUMP = ("--dump-points", "--dump-lines")

CONSTRUCT = [
    # exit 0: fully r-rich after auto-tuning
    _cell("construct", INTEGERS, "1/2", 3, 1100, "auto", DUMP),
    _cell("construct", INTEGERS, "1/2", 5, 1100, "auto", DUMP),
    _cell("construct", QUADRATIC_2, "1/2", 3, 6561, "auto", DUMP),
    # exit 2 by design: AutoTuneError or RTooLargeError
    _cell("construct", INTEGERS, "1/3", 5, 9000, "auto", DUMP),
    _cell("construct", QUADRATIC_2, "1/2", 5, 20000, "auto", DUMP),
    _cell("construct", QUADRATIC_2, "1/3", 5, 30000, "auto", DUMP),
    _cell("construct", POWER_CUBE_2, "1/2", 5, 18225, "auto", DUMP),
]

ORACLE = [
    _cell("oracle", INTEGERS, "1/2", 3, 1100, "1/2"),
    _cell("oracle", INTEGERS, "1/2", 5, 1100, "1/2"),
    _cell("oracle", INTEGERS, "1/2", 4, 2304, "1/2"),
    _cell("oracle", QUADRATIC_2, "1/2", 3, 1296, "1/1"),
]

# criterion 6's SWEEP_CFG; the two halves must write byte-identical CSVs
SWEEP_CFG = {
    "basis": INTEGERS,
    "n": 2304,
    "alpha": "1/2",
    "r_list": [3, 4, 5, 6, 8],
    "c1": "1/1",
}
SWEEP = [
    Op("sweep-w1", "sweep", SWEEP_CFG, ("--workers", "1")),
    Op("sweep-w2", "sweep", SWEEP_CFG, ("--workers", "2")),
]

WORKLOADS = {
    "construct": CONSTRUCT,
    "oracle": ORACLE,
    "sweep": SWEEP,
    # the benchmark's own self-check: the four 529-point cells
    "selfcheck": CONSTRUCT[:2] + ORACLE[:2],
}

PUBLIC_WORKLOADS = ("construct", "oracle", "sweep")
