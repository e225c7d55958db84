"""Output gate for one CLI command: what it wrote must be well formed,
internally consistent, and byte-identical to the stored digest."""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from pathlib import Path

from workloads import Command


def digest_dir(out: Path) -> str:
    """sha256 over every output file: relative name, NUL, bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _option(cmd: Command, name: str, default: str | None = None) -> str | None:
    argv = cmd.argv
    return argv[argv.index(name) + 1] if name in argv else default


def _rows(out: Path, stem: str, fmt: str) -> list[dict]:
    if fmt == "csv":
        with open(out / f"{stem}.csv", newline="") as fh:
            return list(csv.DictReader(fh))
    return json.loads((out / f"{stem}.json").read_text())


def _check_plot(out: Path, stem: str, cmd: Command, problems: list[str]) -> None:
    if "--plot-data" in cmd.argv:
        lines = (out / f"{stem}.dat").read_text().splitlines()
        if len(lines) != cmd.stage + 2:
            problems.append(f"{stem}.dat has {len(lines)} lines")


def _check_diff_bounds(cmd: Command, out: Path, problems: list[str]) -> None:
    rows = _rows(out, "diff_bounds", _option(cmd, "--format", "json"))
    if len(rows) != cmd.stage + 1:
        problems.append(f"diff_bounds has {len(rows)} rows, want {cmd.stage + 1}")
    for row in rows:
        inner = Fraction(row["m_inner"])
        if not inner <= Fraction(row["m_outer"]):
            problems.append(f"stage {row['n']}: m_inner > m_outer")
        if Fraction(row["m_missing_outer"]) != 2 - inner:
            problems.append(f"stage {row['n']}: m_missing_outer != 2 - m_inner")
    _check_plot(out, "diff_bounds", cmd, problems)


_ZONES = ("m_middle", "m_far_negative", "m_near_negative", "m_near_positive",
          "m_far_positive")


def _check_measure_scan(cmd: Command, out: Path, problems: list[str]) -> None:
    rows = _rows(out, "measure_scan", _option(cmd, "--format", "json"))
    if len(rows) != cmd.stage + 1:
        problems.append(f"measure_scan has {len(rows)} rows, want {cmd.stage + 1}")
    for row in rows:
        missing = Fraction(row["m_missing_total"])
        # m_missing_total = 2 - m_inner, so this is m_inner <= m_outer.
        if not 2 - missing <= Fraction(row["m_outer"]):
            problems.append(f"stage {row['n']}: m_inner > m_outer")
        if sum(Fraction(row[z]) for z in _ZONES) != missing:
            problems.append(f"stage {row['n']}: zones do not add up")
    _check_plot(out, "measure_scan", cmd, problems)


def _check_construct(cmd: Command, out: Path, problems: list[str]) -> None:
    for n in range(cmd.stage + 1):
        for name in (f"stage_{n:03d}.json", f"gaps_{n:03d}.csv"):
            if not (out / name).is_file():
                problems.append(f"missing {name}")
    if problems:
        return
    last = json.loads((out / f"stage_{cmd.stage:03d}.json").read_text())
    covered = sum(
        Fraction(p["hi"]) - Fraction(p["lo"]) for p in last["components"]
    ) + sum(Fraction(g["hi"]) - Fraction(g["lo"]) for g in last["gaps"])
    if covered != 1:
        problems.append("final stage: components and gaps do not tile [0,1]")
    if last["endpoints"] != sorted(last["endpoints"], key=Fraction):
        problems.append("final stage: endpoints not sorted")
    with open(out / f"gaps_{cmd.stage:03d}.csv", newline="") as fh:
        if sum(1 for _ in csv.reader(fh)) != len(last["gaps"]) + 1:
            problems.append("final gap table disagrees with the stage file")


def _check_verify(cmd: Command, out: Path, problems: list[str]) -> None:
    suite = cmd.argv[1]
    report = json.loads((out / f"verify_{suite}.json").read_text())
    if report.get("passed") is not True:
        problems.append(f"verify {suite} report did not pass")
    if _option(cmd, "--format") == "csv":
        with open(out / f"verify_{suite}.csv", newline="") as fh:
            if sum(1 for _ in csv.reader(fh)) != len(report["assertions"]) + 1:
                problems.append("verify csv disagrees with the report")


_CHECKS = {
    "diff-bounds": _check_diff_bounds,
    "measure-scan": _check_measure_scan,
    "construct": _check_construct,
    "verify": _check_verify,
}


def check_outputs(cmd: Command, out: Path) -> list[str]:
    """Problems found in the files ``cmd`` wrote to ``out``."""
    problems: list[str] = []
    try:
        _CHECKS[cmd.argv[0]](cmd, out, problems)
    except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def report_counts(cmd: Command, out: Path) -> dict[str, int]:
    """Counters read from a verify report: assertions, flags and the
    greedy deferrals recorded by ``cspm``."""
    counts = {"verify.assertions": 0, "verify.flagged": 0,
              "constructions.greedy.deferrals": 0}
    if cmd.argv[0] != "verify":
        return counts
    report = json.loads((out / f"verify_{cmd.argv[1]}.json").read_text())
    for a in report["assertions"]:
        counts["verify.assertions"] += 1
        counts["verify.flagged"] += a["status"] == "flag"
        counts["constructions.greedy.deferrals"] += a["details"].get("deferrals", 0)
    return counts
