#!/usr/bin/env python3
"""End-to-end benchmark of the cantordiff CLI.

    python3 perfbench/run.py --workload brackets --seed 0 --seconds 30 --trace 0

Run from a checkout that holds ``src/cantordiff``; nothing is installed.
The CLI runs as a subprocess over spec files generated from the seed, in
a closed loop with one client: one command at a time, the next only
after the previous one has exited.

--trace 0 measures the end-to-end metrics.  A round is one pass over the
workload's command list plus SETUP_PASSES passes over the same commands
at ``--max-stage 0``, in alternating order; rounds repeat until
``--seconds`` is used up.

The host's speed drifts by up to 2x from one minute to the next, so the
wall times are scaled to a steady speed: reference.py's fixed loop is
timed after every command, and every wall time of the run is multiplied
by (REF_S / the median loop time of the run) ** ELASTICITY.  Reported:
  wall_s       one pass: the sum over the commands of each command's
               mean scaled wall time across the rounds
  peak_rss_mb  median over the passes of the largest per-child peak RSS
               in the pass (os.wait4 on each child)
  setup_s      one pass at --max-stage 0, taken like wall_s: interpreter,
               import, argparse, spec load and one tiny write
The per-pass quartiles and sample counts are printed with them, with the
unscaled wall times and the loop times, and so is fail_ratio:
failed / attempted commands, the result's ``failed`` / ``attempted``.

--trace 1 alternates untraced passes with passes whose commands run
under tracer.py, and reports the per-layer metrics: self time per traced
function (span time minus child spans), the work counters, and the
tracing overhead (traced minus untraced pass wall time); times are
scaled like wall_s.

--workload all interleaves the three workloads in every round,
alternating their order, and prints each workload's metrics; the
result names them ``<workload>.<metric>``.

Every command's exit code, output gate (checks.py) and output digest
(digests.json) are checked; any miss counts as a failure.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_outputs, digest_dir, report_counts
from reference import REF_S, time_reference
from workloads import WORKLOADS, Command, build_commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

SETUP_PASSES = 1
TIMEOUT_S = 60.0
HARD_LIMIT_S = 170.0  # the whole invocation, set-up included
# Bracket commands above this many gap x endpoint pairs are refused
# before timing; tab stage 9 (214M pairs) would run for minutes.
PAIR_CAP = 8_000_000
# How much the commands slow down when the reference loop slows down:
# the slope of log(pass time) on log(loop time) across 40 s windows on a
# 2-vCPU shared VM was 0.4 to 0.65, and scaling by the square root of the
# loop's slowdown gave the steadiest pass times on every workload.  The
# loop time of a run is a median over one loop per command.
ELASTICITY = 0.5

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

TIMED_SPANS = (
    "intervals.minkowski_sum", "intervals.normalize", "intervals.difference",
    "intervals.intersect", "intervals.is_subset", "intervals.affine",
    "constructions.central_stage", "constructions.perturbed_stage",
    "constructions.composite_stage", "constructions.greedy_stage",
    "constructions.greedy_certificate",
    "analysis.inner_difference", "analysis.outer_difference",
    "analysis.difference_bracket", "analysis.shift_inclusion_check",
    "analysis.certificates", "analysis.zone_measure_rows",
    "verify.run_suite", "jsonio.serialize", "jsonio.dump_json", "cli.main",
)
COUNTERS = (
    ("intervals.minkowski_sum.calls", "count"),
    ("intervals.minkowski_sum.pairs", "count"),
    ("intervals.minkowski_sum.parts_out", "count"),
    ("intervals.minkowski_sum.big_calls", "count"),
    ("intervals.minkowski_sum.scale_bits_max", "bits"),
    ("intervals.normalize.calls", "count"),
    ("intervals.normalize.parts_in", "count"),
    ("constructions.components", "count"),
    ("constructions.greedy.deferrals", "count"),
    ("analysis.brackets", "count"),
    ("verify.assertions", "count"),
    ("verify.flagged", "count"),
    ("jsonio.bytes", "B"),
    ("cli.files_written", "count"),
    ("cli.bytes_written", "B"),
)
PER_LAYER = (
    *((f"{name}.self_s", "s") for name in TIMED_SPANS),
    *COUNTERS,
    ("intervals.minkowski_sum.yield", "1"),
    ("cli.import_s", "s"),
    ("trace.overhead_s", "s"),
)
BRACKET_SPANS = {"analysis.inner_difference", "analysis.outer_difference",
                 "analysis.difference_bracket"}


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Sample:
    key: str
    wall_s: float
    rss_mb: float
    counts: dict[str, int]
    trace: dict | None = None
    scale: float = 1.0  # (REF_S / the run's median loop time) ** ELASTICITY

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.scale


@dataclass
class Pass:
    peak_rss_mb: float
    samples: list[Sample]

    @property
    def wall_s(self) -> float:
        return sum(s.scaled_s for s in self.samples)

    @property
    def raw_wall_s(self) -> float:
        return sum(s.wall_s for s in self.samples)


@dataclass
class Series:
    """Everything measured for one workload in one invocation."""

    commands: list[Command]
    full: list[Pass] = field(default_factory=list)
    setup: list[Pass] = field(default_factory=list)
    traced: list[Pass] = field(default_factory=list)


class Bench:
    def __init__(self, work: Path, *, check_digests: bool, limit_s: float = HARD_LIMIT_S):
        if not (SRC / "cantordiff" / "__init__.py").is_file():
            raise SetupError(f"no cantordiff package under {SRC}")
        self.deadline = time.monotonic() + limit_s
        self.work = work
        shutil.rmtree(work, ignore_errors=True)
        (work / "specs").mkdir(parents=True)
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.stored = json.loads(DIGESTS.read_text()) if check_digests else None
        self.seen: dict[str, str] = {}
        self.current = ""  # workload being run; failures are tallied per workload
        self.tally: dict[str, list[int]] = {}  # workload -> [attempted, failed]
        self.problems: list[str] = []
        self.refused: set[str] = set()
        self.refs: list[float] = []  # reference loop times

    # -- set-up ----------------------------------------------------------

    def spec_path(self, cmd: Command) -> Path:
        return self.work / "specs" / f"{cmd.spec_name}.json"

    def prepare(self, groups: dict[str, list[Command]]) -> None:
        """Write the spec files and vet the bracket commands' stage sizes.
        The probe also checks which cantordiff is imported and compiles
        its bytecode before anything is timed."""
        for cmds in groups.values():
            for cmd in cmds:
                self.spec_path(cmd).write_text(cmd.spec_text())
        vetted = {name: [c for c in cmds if c.brackets] for name, cmds in groups.items()}
        items = [[cmd.spec, cmd.stage] for cmds in vetted.values() for cmd in cmds]
        listing = self.work / "probe.json"
        listing.write_text(json.dumps(items))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "probe.py"), str(listing)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise SetupError(f"stage probe timed out after {TIMEOUT_S:.0f} s") from exc
        if proc.returncode != 0:
            raise SetupError(f"stage probe failed:\n{proc.stderr[-2000:]}")
        probe = json.loads(proc.stdout)
        if not Path(probe["package"]).resolve().is_relative_to(SRC.resolve()):
            raise SetupError(f"imported cantordiff from {probe['package']}, not {SRC}")
        sizes = iter(probe["sizes"])
        for self.current, cmds in vetted.items():
            for cmd, size in zip(cmds, sizes):
                if cmd.brackets and size["pairs"] > PAIR_CAP and cmd.key not in self.refused:
                    self.refused.add(cmd.key)
                    self.count(f"{cmd.key}: refused, {size['pairs']} pairs > {PAIR_CAP}")

    # -- running ----------------------------------------------------------

    def count(self, problem: str | None = None) -> None:
        """Tally one attempted command, failed when ``problem`` is given."""
        tally = self.tally.setdefault(self.current, [0, 0])
        tally[0] += 1
        if problem is not None:
            tally[1] += 1
            if len(self.problems) < 20:
                self.problems.append(f"{self.current}: {problem}")

    @property
    def attempted(self) -> int:
        return sum(t[0] for t in self.tally.values())

    @property
    def failed(self) -> int:
        return sum(t[1] for t in self.tally.values())

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, cmd: Command, *, traced: bool = False) -> Sample | None:
        if cmd.key in self.refused:
            return None
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        cli_args = [*cmd.argv, "--spec", str(self.spec_path(cmd)),
                    "--max-stage", str(cmd.stage), "--out", str(out)]
        trace_file = self.work / "trace.json"
        timeout = min(TIMEOUT_S, self.time_left())
        if timeout <= 0:
            self.count(f"{cmd.key}: no time left")
            return None
        trace_file.unlink(missing_ok=True)
        with open(self.work / "stderr.txt", "w") as err:
            spawn_t = time.monotonic()
            if traced:
                argv = [sys.executable, str(HERE / "tracer.py"), str(trace_file),
                        repr(spawn_t), cmd.key, *cli_args]
            else:
                argv = [sys.executable, "-m", "cantordiff.cli", *cli_args]
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timed_out = threading.Event()

            def kill() -> None:
                timed_out.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.refs.append(time_reference())
        if timed_out.is_set():
            problems = [f"timed out after {timeout:.1f} s"]
        else:
            problems = self.check(cmd, out, proc.returncode)
        self.count(f"{cmd.key}: " + "; ".join(problems[:3]) if problems else None)
        counts = report_counts(cmd, out) if not problems else {}
        files = [p for p in out.rglob("*") if p.is_file()]
        counts["cli.files_written"] = len(files)
        counts["cli.bytes_written"] = sum(p.stat().st_size for p in files)
        trace = json.loads(trace_file.read_text()) if traced and trace_file.is_file() else None
        return Sample(cmd.key, wall, usage.ru_maxrss / 1024, counts, trace)

    def set_scales(self, passes: list[Pass]) -> None:
        """Scale every sample by the run's slowdown of the reference loop."""
        if not self.refs:
            return
        scale = (REF_S / statistics.median(self.refs)) ** ELASTICITY
        for p in passes:
            for sample in p.samples:
                sample.scale = scale

    def check(self, cmd: Command, out: Path, code: int) -> list[str]:
        if code != 0:
            tail = (self.work / "stderr.txt").read_text()[-300:].strip()
            return [f"exit code {code}: {tail}"]
        problems = check_outputs(cmd, out)
        digest = digest_dir(out)
        if self.seen.setdefault(cmd.key, digest) != digest:
            problems.append("output differs between passes")
        if self.stored is not None and self.stored.get(cmd.key) != digest:
            problems.append("output digest differs from digests.json")
        return problems

    def run_pass(self, commands: list[Command], *, traced: bool = False) -> Pass:
        samples = [s for s in (self.run(c, traced=traced) for c in commands) if s]
        return Pass(
            max((s.rss_mb for s in samples), default=0.0),
            samples,
        )


# -- measurement loops ---------------------------------------------------


def measure(bench: Bench, series: dict[str, Series], seconds: float, trace: bool) -> None:
    """Rounds until ``seconds`` are used: every workload once per round,
    in an order that alternates from round to round."""
    deadline = time.monotonic() + seconds
    names = list(series)
    durations: list[float] = []
    rnd = 0
    while True:
        began = time.monotonic()
        flip = rnd % 2 == 1
        for name in reversed(names) if flip else names:
            bench.current = name
            s = series[name]
            cmds = list(reversed(s.commands)) if flip else s.commands
            if trace:
                steps = [("full", False), ("traced", True)]
            else:
                steps = [("full", False)] + [("setup", False)] * SETUP_PASSES
            for kind, traced in reversed(steps) if flip else steps:
                run_cmds = cmds if kind != "setup" else [c.at_stage(0) for c in cmds]
                getattr(s, kind).append(bench.run_pass(run_cmds, traced=traced))
        durations.append(time.monotonic() - began)
        rnd += 1
        now = time.monotonic()
        if now + statistics.median(durations) > deadline or bench.time_left() < 2 * max(durations):
            return


# -- statistics and reports ----------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def command_walls(passes: list[Pass], *, scaled: bool = True) -> dict[str, list[float]]:
    walls: dict[str, list[float]] = {}
    for p in passes:
        for sample in p.samples:
            walls.setdefault(sample.key, []).append(
                sample.scaled_s if scaled else sample.wall_s)
    return walls


def mean_pass(passes: list[Pass], *, scaled: bool = True) -> float:
    """Sum over the commands of each command's mean wall time across the
    passes: the time of an average pass, which averages the host's
    jitter over every sample of the run."""
    return sum(statistics.fmean(v)
               for v in command_walls(passes, scaled=scaled).values())


def end_to_end(s: Series) -> dict[str, tuple[float, list[float]]]:
    """Each metric's value and the per-pass values behind it."""
    rss = [p.peak_rss_mb for p in s.full]
    return {
        "wall_s": (mean_pass(s.full), [p.wall_s for p in s.full]),
        "peak_rss_mb": (statistics.median(rss), rss),
        "setup_s": (mean_pass(s.setup), [p.wall_s for p in s.setup]),
    }


def self_times(spans: list[list]) -> dict[str, float]:
    out: dict[str, float] = {}
    child_total = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_total[parent] += end - start
    for (name, _, start, end), children in zip(spans, child_total):
        out[name] = out.get(name, 0.0) + (end - start) - children
    return out


def subtree_s(spans: list[list], names: set[str]) -> float:
    """Time inside spans named in ``names``, counting nested ones once."""
    total = 0.0
    for name, parent, start, end in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][1]
        if p < 0:
            total += end - start
    return total


def layer_pass(p: Pass) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Per-layer times, counters and subtree times of one traced pass."""
    times = {f"{n}.self_s": 0.0 for n in TIMED_SPANS}
    times["cli.import_s"] = 0.0
    counters = {name: 0 for name, _ in COUNTERS}
    subtrees = {"brackets": 0.0, "inner+outer": 0.0, "shift_inclusion_check": 0.0,
                "run_suite": 0.0, "cli.main": 0.0}
    for sample in p.samples:
        for name, value in sample.counts.items():
            counters[name] += value
        if sample.trace is None:
            continue
        spans = sample.trace["spans"]
        for name, value in self_times(spans).items():
            times[f"{name}.self_s"] += value * sample.scale
        times["cli.import_s"] += sample.trace["import_s"] * sample.scale
        for name, value in sample.trace["counters"].items():
            if name.endswith("_max"):
                counters[name] = max(counters[name], value)
            else:
                counters[name] += value
        subtrees["brackets"] += subtree_s(spans, BRACKET_SPANS) * sample.scale
        subtrees["inner+outer"] += subtree_s(
            spans, {"analysis.inner_difference", "analysis.outer_difference"}) * sample.scale
        subtrees["shift_inclusion_check"] += subtree_s(
            spans, {"analysis.shift_inclusion_check"}) * sample.scale
        subtrees["run_suite"] += subtree_s(spans, {"verify.run_suite"}) * sample.scale
        subtrees["cli.main"] += subtree_s(spans, {"cli.main"}) * sample.scale
    return times, counters, subtrees


def per_layer(bench: Bench, s: Series) -> tuple[dict[str, float], dict[str, float]]:
    passes = [layer_pass(p) for p in s.traced]
    first_counters = passes[0][1]
    for _, counters, _ in passes[1:]:
        if counters != first_counters:
            bench.count("per-layer counters differ between traced passes")
    metrics: dict[str, float] = {
        name: statistics.median(t[name] for t, _, _ in passes) for name in passes[0][0]
    }
    metrics.update(first_counters)
    pairs = first_counters["intervals.minkowski_sum.pairs"]
    parts = first_counters["intervals.minkowski_sum.parts_out"]
    metrics["intervals.minkowski_sum.yield"] = parts / pairs if pairs else 0.0
    metrics["trace.overhead_s"] = mean_pass(s.traced) - mean_pass(s.full)
    subtrees = {name: statistics.median(st[name] for _, _, st in passes)
                for name in passes[0][2]}
    return metrics, subtrees


def environment(bench: Bench) -> str:
    try:
        load = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        load = ["?"]
    q1, med, q3 = quartiles(bench.refs or [0.0])
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"loadavg={' '.join(load)} reference loop median {med:.4f} s "
            f"q1 {q1:.4f} q3 {q3:.4f} (REF_S {REF_S} s) n {len(bench.refs)}")


def report(bench: Bench, series: dict[str, Series], trace: bool) -> dict[str, dict]:
    metrics: dict[str, dict] = {}
    prefix = len(series) > 1
    print(f"env {environment(bench)}")
    for name, s in series.items():
        bench.current = name
        print(f"{name} commands:")
        walls = command_walls(s.traced if trace else s.full)
        for cmd in s.commands:
            print(f"  {statistics.median(walls.get(cmd.key, [0.0])):8.4f} s  {cmd.key}")
        if trace:
            values, subtrees = per_layer(bench, s)
            units = dict(PER_LAYER)
            print(f"{name} traced passes={len(s.traced)} untraced passes={len(s.full)}")
            for key, unit in PER_LAYER:
                print(f"{name} {key:45s} {values[key]:.6g} {unit}")
                metrics[f"{name}.{key}" if prefix else key] = {"value": values[key], "unit": units[key]}
            print(f"{name} subtree_s " + " ".join(f"{k}={v:.4f}" for k, v in subtrees.items()))
            share = subtrees["inner+outer"] / subtrees["cli.main"] if subtrees["cli.main"] else 0.0
            print(f"{name} inner+outer share of cli.main {share:.3f}, big_calls "
                  f"{values['intervals.minkowski_sum.big_calls']}")
        else:
            values = end_to_end(s)
            for key, unit in END_TO_END:
                value, per_pass = values[key]
                q1, med, q3 = quartiles(per_pass)
                print(f"{name} {key:12s} {unit:3s} {value:.4f}  per pass: median {med:.4f} "
                      f"q1 {q1:.4f} q3 {q3:.4f} iqr/median {(q3 - q1) / med:.3f} "
                      f"n {len(per_pass)}")
                metrics[f"{name}.{key}" if prefix else key] = {"value": value, "unit": unit}
            for key, passes in (("wall_s", s.full), ("setup_s", s.setup)):
                q1, med, q3 = quartiles([p.raw_wall_s for p in passes])
                print(f"{name} {key:12s} unscaled {mean_pass(passes, scaled=False):.4f} s  "
                      f"per pass: median {med:.4f} q1 {q1:.4f} q3 {q3:.4f}")
        attempted, failed = bench.tally.get(name, [0, 0])
        print(f"{name} fail_ratio   1   {failed / max(attempted, 1):.4f}  "
              f"({failed} failed / {attempted} attempted)")
    for problem in bench.problems:
        print(f"failure: {problem}")
    return metrics


def main(argv: list[str] | None = None, *, shallow: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}{'-shallow' if shallow else ''}"
    try:
        bench = Bench(work, check_digests=not shallow)
        series = {n: Series(build_commands(n, args.seed, shallow=shallow)) for n in names}
        bench.prepare({n: s.commands for n, s in series.items()})
        measure(bench, series, args.seconds, bool(args.trace))
        bench.set_scales([p for s in series.values() for p in (*s.full, *s.setup, *s.traced)])
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work / "out", ignore_errors=True)
    if args.trace:
        spans = [sample.trace for s in series.values() for p in s.traced
                 for sample in p.samples if sample.trace]
        (work / "spans.json").write_text(json.dumps(spans))
    metrics = report(bench, series, bool(args.trace))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
