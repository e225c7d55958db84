"""Command-line interface: construct stages, compute brackets, run
verification suites, and emit deterministic JSON/CSV reports.

Exit codes: 0 all assertions pass, 1 assertion failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from typing import Any

from .analysis import DiffBracket, difference_bracket, zone_measure_rows
from .constructions import DEFAULT_BUDGET
from .errors import CantorDiffError
from .jsonio import (
    GAP_TABLE_HEADER,
    bracket_to_obj,
    decimal_str,
    dump_json,
    exact_to_obj,
    gap_table_rows,
    load_spec_file,
    stage_json,
)
from .verify import SUITES, family_stage, run_suite

__all__ = ["main", "entrypoint"]


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _clamped_max_stage(spec, max_stage: int, budget: int) -> int:
    """Families with a component count known in advance (2^n, binary)
    clamp n to what the budget allows rather than failing mid-run."""
    if spec.component_count(0) is None:
        return max_stage
    # 2^n <= budget  iff  n < budget.bit_length(); a budget below 1 holds none.
    clamped = max(0, min(max_stage, max(budget, 0).bit_length() - 1))
    if clamped != max_stage:
        print(
            f"warning: budget {budget} cannot hold 2^{max_stage} components; "
            f"max stage clamped to {clamped}",
            file=sys.stderr,
        )
    return clamped


def _stage_number(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _cmd_construct(args: argparse.Namespace) -> int:
    spec = load_spec_file(args.spec)
    out = Path(args.out)
    max_stage = _clamped_max_stage(spec, args.max_stage, args.budget)
    # Build every stage before writing, so a refused stage leaves no files.
    stages = [family_stage(spec, n, budget=args.budget) for n in range(max_stage + 1)]
    for n, stage in enumerate(stages):
        _write_text(out / f"stage_{n:03d}.json", stage_json(stage))
        _write_text(
            out / f"gaps_{n:03d}.csv",
            _csv_text(GAP_TABLE_HEADER, gap_table_rows(stage)),
        )
    return 0


def _stage_brackets(args: argparse.Namespace) -> list[DiffBracket]:
    spec = load_spec_file(args.spec)
    max_stage = _clamped_max_stage(spec, args.max_stage, args.budget)
    return [
        difference_bracket(family_stage(spec, n, budget=args.budget))
        for n in range(max_stage + 1)
    ]


def _write_rows(
    args: argparse.Namespace,
    stem: str,
    rows: list[dict[str, int | Fraction]],
    decimals: tuple[str, ...],
    extra: list[dict[str, Any]] | None = None,
) -> None:
    """Write per-stage rows of exact values: CSV (the exact columns, then
    a non-authoritative ``<name>_decimal`` column per decimal column) or
    JSON (with the ``extra`` fields of each row), and with
    ``--plot-data`` a ``.dat`` file of ``n`` and the decimal columns."""
    out = Path(args.out)
    records = [exact_to_obj(row) for row in rows]
    if args.format == "csv":
        header = [*rows[0], *(f"{name}_decimal" for name in decimals)]
        lines = [
            [*map(str, record.values()), *(decimal_str(row[c]) for c in decimals)]
            for record, row in zip(records, rows)
        ]
        _write_text(out / f"{stem}.csv", _csv_text(header, lines))
    else:
        for record, fields in zip(records, extra or ()):
            record.update(fields)
        _write_text(out / f"{stem}.json", dump_json(records))
    if args.plot_data:
        plot_lines = [" ".join(("# n", *decimals))] + [
            " ".join((str(row["n"]), *(decimal_str(row[c]) for c in decimals)))
            for row in rows
        ]
        _write_text(out / f"{stem}.dat", "\n".join(plot_lines) + "\n")


def _cmd_diff_bounds(args: argparse.Namespace) -> int:
    brackets = _stage_brackets(args)
    rows = [
        {
            "n": b.n,
            "m_inner": b.inner.measure(),
            "m_outer": b.outer.measure(),
            "m_missing_outer": b.missing_outer.measure(),
            "missing_point_parts": len(b.missing_outer.point_parts()),
        }
        for b in brackets
    ]
    _write_rows(
        args,
        "diff_bounds",
        rows,
        ("m_inner", "m_outer", "m_missing_outer"),
        extra=[{"bracket": bracket_to_obj(b)} for b in brackets],
    )
    return 0


def _scan_column(field: str, value: int | Fraction) -> str:
    if field == "outer_total":
        return "m_outer"
    return f"m_{field}" if isinstance(value, Fraction) else field


def _cmd_measure_scan(args: argparse.Namespace) -> int:
    rows = [
        {_scan_column(f, v): v for f, v in asdict(r).items()}
        for r in zone_measure_rows(_stage_brackets(args))
    ]
    _write_rows(
        args, "measure_scan", rows, ("m_middle", "m_missing_total", "m_outer")
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = load_spec_file(args.spec)
    max_stage = _clamped_max_stage(spec, args.max_stage, args.budget)
    report = run_suite(args.suite, spec, max_stage, budget=args.budget)
    payload = dump_json(report.to_obj())
    if args.out:
        out = Path(args.out)
        _write_text(out / f"verify_{args.suite}.json", payload)
        if args.format == "csv":
            rows = [
                [a.id, a.status, a.description]
                for a in report.assertions
            ]
            _write_text(
                out / f"verify_{args.suite}.csv",
                _csv_text(["id", "status", "description"], rows),
            )
    else:
        sys.stdout.write(payload)
    for a in report.assertions:
        print(f"[{a.status.upper():4s}] {args.suite}: {a.id}", file=sys.stderr)
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cantordiff",
        description=(
            "Exact finite-stage construction and certified analysis of the "
            "difference set between a Cantor set's complement and the set"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report_flags = ("--format", "--plot-data")
    commands = {
        "construct": (_cmd_construct, "export stage JSON and gap tables", ()),
        "diff-bounds": (_cmd_diff_bounds, "per-stage bracket measures", report_flags),
        "measure-scan": (
            _cmd_measure_scan,
            "per-stage zone measures of the missing bracket",
            report_flags,
        ),
        "verify": (_cmd_verify, "run a named verification suite", ("--format",)),
    }
    for name, (func, help_text, flags) in commands.items():
        p = sub.add_parser(name, help=help_text)
        if name == "verify":
            p.add_argument("suite", choices=sorted(SUITES))
        p.add_argument("--spec", required=True, help="spec JSON file")
        p.add_argument("--max-stage", type=_stage_number, default=4)
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        # verify writes its report to stdout when --out is absent.
        p.add_argument("--out", required=name != "verify", help="output directory")
        if "--format" in flags:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        if "--plot-data" in flags:
            p.add_argument("--plot-data", action="store_true")
        p.set_defaults(func=func)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # Spec files are read through InvalidSpecError: an OSError is an output.
    except (CantorDiffError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
