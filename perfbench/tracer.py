"""Outside-in tracing of richlines.

`Tracer.install` wraps every public function of the seven richlines modules
and patches the wrapper into every richlines module that holds the function
under some name, so calls made inside the package go through it too.  No
file of the program changes.  Each call records a span (id, name, start,
end, parent, operation) and adds to per-name self and inclusive times; a few
hooks turn arguments and results into work counters.  Spans stay in memory
until `write_spans` runs at the end of a run.

Self time of a span is its duration minus the time its child spans cover, so
the per-module self times add up to the traced wall time, less the
benchmark's own bookkeeping between operations.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from math import comb

MODULES = ("cli", "harness", "construction", "geometry", "fastpath", "numberfield", "gapset")

# Individual spans kept per function name; later calls still add to the
# aggregates.  Bounds memory on the hot leaf functions (canonicalize_triple
# runs about 10^5 times a pass).
SPAN_CAP = 1000

# (name, unit, better): the per-layer metrics of a traced run.  run.py adds
# speedup_w2 and trace.overhead_s, which compare against untraced passes.
LAYER_METRICS = [
    *[(f"{m}.self_s", "s", "lower") for m in MODULES],
    ("construction.auto_tune_self_s", "s", "lower"),
    ("construction.c1_attempts", "count", "lower"),
    ("construction.tune_yield", "ratio", "higher"),
    ("construction.translate_pairs", "count", "lower"),
    ("construction.generate_line_family_s", "s", "lower"),
    ("construction.build_construction_calls", "count", "lower"),
    ("construction.verify_claim2_s", "s", "lower"),
    ("construction.lines_gated", "count", "lower"),
    ("construction.claim1_statistic_s", "s", "lower"),
    ("construction.family_lines", "count", "lower"),
    ("geometry.rich_lines_bruteforce_self_s", "s", "lower"),
    ("geometry.oracle_pairs", "count", "lower"),
    ("geometry.pairs_per_s", "1/s", "higher"),
    ("geometry.canonicalize_calls", "count", "lower"),
    ("geometry.canonicalize_s", "s", "lower"),
    ("geometry.dump_s", "s", "lower"),
    ("fastpath.pair_line_counts_s", "s", "lower"),
    ("fastpath.pairs", "count", "lower"),
    ("fastpath.keys", "count", "lower"),
    ("numberfield.integer_inverse_calls", "count", "lower"),
    ("numberfield.basis_builds", "count", "lower"),
    ("numberfield.line_cache_size", "count", "lower"),
    ("numberfield.inv_cache_size", "count", "lower"),
    ("harness.sweep_w1_s", "s", "lower"),
    ("harness.sweep_w2_s", "s", "lower"),
    ("speedup_w2", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_coverage", "ratio", "higher"),
]

# Counters that must repeat exactly between runs of the same code and inputs.
EXACT_COUNTERS = [name for name, unit, _ in LAYER_METRICS if unit == "count"]


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _translate_pairs(tracer, args, kwargs, result, dur):
    geom = _first_arg(args, kwargs, "geom")
    cell = len(geom.cell_x) * len(geom.cell_y)
    tracer.counts["construction.translate_pairs"] += len(result) * comb(cell, 2)


def _family_lines(tracer, args, kwargs, result, dur):
    tracer.counts["construction.family_lines"] += len(result[1].family)


def _lines_gated(tracer, args, kwargs, result, dur):
    tracer.counts["construction.lines_gated"] += result.num_lines


def _tune_accepted(tracer, args, kwargs, result, dur):
    tracer.counts["construction.tune_accepted"] += 1


def _oracle_pairs(tracer, args, kwargs, result, dur):
    points = _first_arg(args, kwargs, "points")
    tracer.counts["geometry.oracle_pairs"] += comb(len(points), 2)


def _fastpath_pairs(tracer, args, kwargs, result, dur):
    px = _first_arg(args, kwargs, "px")
    tracer.counts["fastpath.pairs"] += comb(len(px), 2)
    tracer.counts["fastpath.keys"] += len(result)


def _basis_built(tracer, args, kwargs, result, dur):
    tracer.op_bases.append(result)


def _sweep_time(tracer, args, kwargs, result, dur):
    workers = kwargs.get("workers", args[1] if len(args) > 1 else 1)
    tracer.times[f"harness.sweep_w{workers}_s"] += dur


HOOKS = {
    "construction.translate_vectors": _translate_pairs,
    "construction.build_construction": _family_lines,
    "construction.verify_claim2": _lines_gated,
    "construction.auto_tune_c1": _tune_accepted,
    "geometry.rich_lines_bruteforce": _oracle_pairs,
    "fastpath.pair_line_counts": _fastpath_pairs,
    "numberfield.build_power_basis": _basis_built,
    "harness.sweep": _sweep_time,
}


def public_functions(module):
    """Functions defined in `module` whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, operation)
        self.kept = Counter()
        self.dropped = 0
        self.hook_errors = []
        self._stack = []  # [id, name, parent id, child seconds, start]
        self._next_id = 0
        self._op = None
        self._patches = []  # (module, attribute, original)
        self.reset()

    def reset(self):
        """Clear the aggregates of one pass; spans are kept."""
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()  # (name, parent name) -> calls
        self.counts = Counter()
        self.times = defaultdict(float)
        self.op_bases = []

    # -- patching ---------------------------------------------------------

    def install(self):
        packages = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "richlines" or name.startswith("richlines.")
        }
        wrappers = {}
        for short in MODULES:
            module = packages.get(f"richlines.{short}")
            if module is None:  # a module the program no longer has reports zeros
                continue
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for mod in packages.values():
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._patches.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = leave(frame)
            if hook is not None:
                try:
                    hook(self, args, kwargs, result, dur)
                except Exception as err:  # a hook must never break the program
                    self.hook_errors.append(f"{name}: {type(err).__name__}: {err}")
            return result

        return traced

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        stack = self._stack
        parent = stack[-1] if stack else None
        self.calls[(name, parent[1] if parent else None)] += 1
        frame = [self._next_id, name, parent[0] if parent else None, 0.0, 0.0]
        self._next_id += 1
        stack.append(frame)
        frame[4] = time.perf_counter()
        return frame

    def _leave(self, frame):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        span_id, name, parent_id, child_s, start = frame
        dur = end - start
        self.self_s[name] += dur - child_s
        if all(f[1] != name for f in stack):  # count recursion once
            self.incl_s[name] += dur
        if stack:
            stack[-1][3] += dur
        if self.kept[name] < SPAN_CAP:
            self.kept[name] += 1
            self.spans.append((span_id, name, start, end, parent_id, self._op))
        else:
            self.dropped += 1
        return dur

    def begin_op(self, op_id):
        self._op = op_id
        self.op_bases = []

    def end_op(self):
        """Cache entries left by the operation, over the bases it built."""
        for basis in self.op_bases:
            self.counts["numberfield.line_cache_size"] += len(getattr(basis, "_line_cache", ()))
            self.counts["numberfield.inv_cache_size"] += len(getattr(basis, "_inv_cache", ()))
        self.op_bases = []
        self._op = None

    # -- metrics ----------------------------------------------------------

    def total_calls(self, name, parent=None):
        return sum(
            n
            for (callee, caller), n in self.calls.items()
            if callee == name and (parent is None or caller == parent)
        )

    def layer_metrics(self, wall_s):
        """Per-layer metrics of the pass just traced, whose operations took
        `wall_s` seconds in total."""
        module_self = {
            m: sum(v for k, v in self.self_s.items() if k.startswith(f"{m}."))
            for m in MODULES
        }
        attempts = self.total_calls(
            "construction.build_cell_geometry", parent="construction.auto_tune_c1"
        )
        brute_s = self.incl_s["geometry.rich_lines_bruteforce"]
        out = {f"{m}.self_s": module_self[m] for m in MODULES}
        out.update(
            {
                "construction.auto_tune_self_s": self.self_s["construction.auto_tune_c1"],
                "construction.c1_attempts": attempts,
                "construction.tune_yield": (
                    self.counts["construction.tune_accepted"] / attempts if attempts else 0.0
                ),
                "construction.translate_pairs": self.counts["construction.translate_pairs"],
                "construction.generate_line_family_s": self.incl_s[
                    "construction.generate_line_family"
                ],
                "construction.build_construction_calls": self.total_calls(
                    "construction.build_construction"
                ),
                "construction.verify_claim2_s": self.incl_s["construction.verify_claim2"],
                "construction.lines_gated": self.counts["construction.lines_gated"],
                "construction.claim1_statistic_s": self.incl_s["construction.claim1_statistic"],
                "construction.family_lines": self.counts["construction.family_lines"],
                "geometry.rich_lines_bruteforce_self_s": self.self_s[
                    "geometry.rich_lines_bruteforce"
                ],
                "geometry.oracle_pairs": self.counts["geometry.oracle_pairs"],
                "geometry.pairs_per_s": (
                    self.counts["geometry.oracle_pairs"] / brute_s if brute_s else 0.0
                ),
                "geometry.canonicalize_calls": self.total_calls("geometry.canonicalize_triple"),
                "geometry.canonicalize_s": self.incl_s["geometry.canonicalize_triple"],
                "geometry.dump_s": (
                    self.incl_s["geometry.points_to_text"] + self.incl_s["geometry.lines_to_text"]
                ),
                "fastpath.pair_line_counts_s": self.incl_s["fastpath.pair_line_counts"],
                "fastpath.pairs": self.counts["fastpath.pairs"],
                "fastpath.keys": self.counts["fastpath.keys"],
                "numberfield.integer_inverse_calls": self.total_calls(
                    "numberfield.integer_inverse"
                ),
                "numberfield.basis_builds": self.total_calls("numberfield.build_power_basis"),
                "numberfield.line_cache_size": self.counts["numberfield.line_cache_size"],
                "numberfield.inv_cache_size": self.counts["numberfield.inv_cache_size"],
                "harness.sweep_w1_s": self.times["harness.sweep_w1_s"],
                "harness.sweep_w2_s": self.times["harness.sweep_w2_s"],
                "trace.self_coverage": sum(module_self.values()) / wall_s if wall_s else 0.0,
            }
        )
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent_id, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent_id, "op": op}
                    )
                    + "\n"
                )
