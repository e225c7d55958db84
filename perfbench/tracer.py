"""Traced child: run one cantordiff CLI command with spans around the
public functions of every layer.

Usage: python3 tracer.py OUT.json SPAWN_T TRACE_ID CLI-ARGS...

The functions are wrapped from outside before ``cli.main`` runs; the
library is not modified.  ``from .x import y`` copies a binding, so each
wrapper replaces the function under every name that refers to it in
every ``cantordiff`` module.  Spans (name, parent, start, end) and the
work counters stay in memory and are written to OUT.json when the
command ends.  SPAWN_T is the parent's ``time.monotonic()`` just before
it started this process, so ``main_entry - SPAWN_T`` is the start-up
cost up to ``cli.main``.
"""

from __future__ import annotations

import json
import sys
import time
from math import lcm

# Products above this many pairs take the kernel's chunked path
# (intervals._PRODUCT_DEDUP_LIMIT).
BIG_PAIRS = 3_000_000


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {
            "intervals.minkowski_sum.calls": 0,
            "intervals.minkowski_sum.pairs": 0,
            "intervals.minkowski_sum.parts_out": 0,
            "intervals.minkowski_sum.big_calls": 0,
            "intervals.minkowski_sum.scale_bits_max": 0,
            "intervals.normalize.calls": 0,
            "intervals.normalize.parts_in": 0,
            "constructions.components": 0,
            "analysis.brackets": 0,
            "jsonio.bytes": 0,
        }
        self._stages: dict[int, object] = {}  # distinct stages built, by id

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][2] = start
                spans[index][3] = end
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters, taken outside the span they describe ----------------

    def before_minkowski(self, args):
        a, b = args[0], args[1]
        c = self.counters
        pairs = len(a) * len(b)
        c["intervals.minkowski_sum.calls"] += 1
        c["intervals.minkowski_sum.pairs"] += pairs
        if pairs > BIG_PAIRS:
            c["intervals.minkowski_sum.big_calls"] += 1
        if pairs:
            bits = lcm(_scale(a), _scale(b)).bit_length()
            if bits > c["intervals.minkowski_sum.scale_bits_max"]:
                c["intervals.minkowski_sum.scale_bits_max"] = bits
        return args

    def after_minkowski(self, args, result):
        self.counters["intervals.minkowski_sum.parts_out"] += len(result)

    def before_normalize(self, args):
        parts = list(args[0])
        self.counters["intervals.normalize.calls"] += 1
        self.counters["intervals.normalize.parts_in"] += len(parts)
        return (parts, *args[1:])

    def after_stage(self, args, result):
        stage = getattr(result, "c_stage", result)
        if id(stage) not in self._stages:
            self._stages[id(stage)] = stage
            self.counters["constructions.components"] += len(stage.components)

    def after_bracket(self, args, result):
        self.counters["analysis.brackets"] += 1

    def after_dump(self, args, result):
        self.counters["jsonio.bytes"] += len(result.encode())


def _scale(union) -> int:
    dens = {p.lo.denominator for p in union.parts}
    dens.update(p.hi.denominator for p in union.parts)
    return lcm(*dens)


def install(rec: Recorder):
    """Wrap every traced function; return the wrapped ``cli.main``."""
    import cantordiff
    from cantordiff import analysis, cli, constructions, intervals, jsonio, verify

    modules = [cantordiff, intervals, constructions, analysis, verify, jsonio, cli]

    def patch(module, attr, name, before=None, after=None):
        original = getattr(module, attr)
        wrapped = rec.wrap(name, original, before, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
        return wrapped

    union = intervals.IntervalUnion
    methods = {
        "minkowski_sum": ("intervals.minkowski_sum", rec.before_minkowski, rec.after_minkowski),
        "difference": ("intervals.difference", None, None),
        "intersect": ("intervals.intersect", None, None),
        "is_subset": ("intervals.is_subset", None, None),
        "reflect": ("intervals.affine", None, None),
        "translate": ("intervals.affine", None, None),
        "scale": ("intervals.affine", None, None),
    }
    for attr, (name, before, after) in methods.items():
        setattr(union, attr, rec.wrap(name, getattr(union, attr), before, after))
    patch(intervals, "normalize", "intervals.normalize", rec.before_normalize)

    for attr in ("central_stage", "perturbed_stage", "composite_stage", "greedy_stage"):
        patch(constructions, attr, f"constructions.{attr}", after=rec.after_stage)
    patch(constructions, "greedy_certificate", "constructions.greedy_certificate")

    patch(analysis, "inner_difference", "analysis.inner_difference")
    patch(analysis, "outer_difference", "analysis.outer_difference")
    patch(analysis, "difference_bracket", "analysis.difference_bracket",
          after=rec.after_bracket)
    patch(analysis, "shift_inclusion_check", "analysis.shift_inclusion_check")
    patch(analysis, "dominant_gap_certificate", "analysis.certificates")
    patch(analysis, "rightmost_gap_chain", "analysis.certificates")
    patch(analysis, "zone_measure_rows", "analysis.zone_measure_rows")

    patch(verify, "run_suite", "verify.run_suite")

    for attr in ("stage_to_obj", "bracket_to_obj", "union_to_obj",
                 "gap_table_rows", "spec_to_obj"):
        patch(jsonio, attr, "jsonio.serialize")
    patch(jsonio, "dump_json", "jsonio.dump_json", after=rec.after_dump)

    return patch(cli, "main", "cli.main")


def main(argv: list[str]) -> int:
    out_path, spawn_t, trace_id, cli_args = argv[0], float(argv[1]), argv[2], argv[3:]
    rec = Recorder()
    traced_main = install(rec)
    main_entry = time.monotonic()
    try:
        code = traced_main(cli_args)
    except SystemExit as exc:  # argparse rejects its arguments
        code = exc.code if isinstance(exc.code, int) else 2
    with open(out_path, "w") as fh:
        json.dump(
            {
                "trace_id": trace_id,
                "import_s": main_entry - spawn_t,
                "spans": rec.spans,
                "counters": rec.counters,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
