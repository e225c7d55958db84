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
from pathlib import Path

from .analysis import difference_bracket, zone_measure_rows
from .constructions import DEFAULT_BUDGET
from .errors import CantorDiffError
from .jsonio import (
    GAP_TABLE_HEADER,
    bracket_to_obj,
    decimal_str,
    dump_json,
    format_rational,
    gap_table_rows,
    load_spec_file,
    stage_to_obj,
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
    if spec.component_count(max_stage) is None:
        return max_stage
    clamped = max_stage
    while clamped > 0 and spec.component_count(clamped) > budget:
        clamped -= 1
    if clamped != max_stage:
        print(
            f"warning: budget {budget} cannot hold 2^{max_stage} components; "
            f"max stage clamped to {clamped}",
            file=sys.stderr,
        )
    return clamped


def _add_common(parser: argparse.ArgumentParser, *, out_required: bool) -> None:
    parser.add_argument("--spec", required=True, help="spec JSON file")
    parser.add_argument("--max-stage", type=int, default=4)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    parser.add_argument("--out", required=out_required, help="output directory")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--plot-data", action="store_true")


def _cmd_construct(args: argparse.Namespace) -> int:
    spec = load_spec_file(args.spec)
    out = Path(args.out)
    max_stage = _clamped_max_stage(spec, args.max_stage, args.budget)
    # Build every stage before writing, so a refused stage leaves no files.
    stages = [family_stage(spec, n, budget=args.budget) for n in range(max_stage + 1)]
    for n, stage in enumerate(stages):
        _write_text(out / f"stage_{n:03d}.json", dump_json(stage_to_obj(stage)))
        _write_text(
            out / f"gaps_{n:03d}.csv",
            _csv_text(GAP_TABLE_HEADER, gap_table_rows(stage)),
        )
    return 0


_BOUNDS_HEADER = [
    "n",
    "m_inner",
    "m_outer",
    "m_missing_outer",
    "missing_point_parts",
    "m_inner_decimal",
    "m_outer_decimal",
    "m_missing_outer_decimal",
]


def _cmd_diff_bounds(args: argparse.Namespace) -> int:
    spec = load_spec_file(args.spec)
    out = Path(args.out)
    max_stage = _clamped_max_stage(spec, args.max_stage, args.budget)
    rows = []
    plot_lines = ["# n m_inner m_outer m_missing_outer"]
    records = []
    for n in range(max_stage + 1):
        bracket = difference_bracket(family_stage(spec, n, budget=args.budget))
        m_inner = bracket.inner.measure()
        m_outer = bracket.outer.measure()
        m_missing = bracket.missing_outer.measure()
        points = len(bracket.missing_outer.point_parts())
        rows.append(
            [
                str(n),
                format_rational(m_inner),
                format_rational(m_outer),
                format_rational(m_missing),
                str(points),
                decimal_str(m_inner),
                decimal_str(m_outer),
                decimal_str(m_missing),
            ]
        )
        records.append(
            {
                "n": n,
                "m_inner": format_rational(m_inner),
                "m_outer": format_rational(m_outer),
                "m_missing_outer": format_rational(m_missing),
                "missing_point_parts": points,
                "bracket": bracket_to_obj(bracket),
            }
        )
        plot_lines.append(
            f"{n} {decimal_str(m_inner)} {decimal_str(m_outer)} {decimal_str(m_missing)}"
        )
    if args.format == "csv":
        _write_text(out / "diff_bounds.csv", _csv_text(_BOUNDS_HEADER, rows))
    else:
        _write_text(out / "diff_bounds.json", dump_json(records))
    if args.plot_data:
        _write_text(out / "diff_bounds.dat", "\n".join(plot_lines) + "\n")
    return 0


_SCAN_HEADER = [
    "n",
    "m_middle",
    "m_far_negative",
    "m_near_negative",
    "m_near_positive",
    "m_far_positive",
    "m_missing_total",
    "m_outer",
    "missing_point_parts",
    "missing_interval_parts",
    "m_middle_decimal",
    "m_missing_total_decimal",
    "m_outer_decimal",
]


def _cmd_measure_scan(args: argparse.Namespace) -> int:
    spec = load_spec_file(args.spec)
    out = Path(args.out)
    max_stage = _clamped_max_stage(spec, args.max_stage, args.budget)
    brackets = [
        difference_bracket(family_stage(spec, n, budget=args.budget))
        for n in range(max_stage + 1)
    ]
    scan = zone_measure_rows(brackets)
    rows = []
    records = []
    plot_lines = ["# n m_middle m_missing_total m_outer"]
    for r in scan:
        rows.append(
            [
                str(r.n),
                format_rational(r.middle),
                format_rational(r.far_negative),
                format_rational(r.near_negative),
                format_rational(r.near_positive),
                format_rational(r.far_positive),
                format_rational(r.missing_total),
                format_rational(r.outer_total),
                str(r.missing_point_parts),
                str(r.missing_interval_parts),
                decimal_str(r.middle),
                decimal_str(r.missing_total),
                decimal_str(r.outer_total),
            ]
        )
        records.append(
            {
                "n": r.n,
                "m_middle": format_rational(r.middle),
                "m_far_negative": format_rational(r.far_negative),
                "m_near_negative": format_rational(r.near_negative),
                "m_near_positive": format_rational(r.near_positive),
                "m_far_positive": format_rational(r.far_positive),
                "m_missing_total": format_rational(r.missing_total),
                "m_outer": format_rational(r.outer_total),
                "missing_point_parts": r.missing_point_parts,
                "missing_interval_parts": r.missing_interval_parts,
            }
        )
        plot_lines.append(
            f"{r.n} {decimal_str(r.middle)} {decimal_str(r.missing_total)} "
            f"{decimal_str(r.outer_total)}"
        )
    if args.format == "csv":
        _write_text(out / "measure_scan.csv", _csv_text(_SCAN_HEADER, rows))
    else:
        _write_text(out / "measure_scan.json", dump_json(records))
    if args.plot_data:
        _write_text(out / "measure_scan.dat", "\n".join(plot_lines) + "\n")
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

    p_construct = sub.add_parser(
        "construct", help="export stage JSON and gap tables"
    )
    _add_common(p_construct, out_required=True)
    p_construct.set_defaults(func=_cmd_construct)

    p_bounds = sub.add_parser(
        "diff-bounds", help="per-stage bracket measures"
    )
    _add_common(p_bounds, out_required=True)
    p_bounds.set_defaults(func=_cmd_diff_bounds)

    p_scan = sub.add_parser(
        "measure-scan", help="per-stage zone measures of the missing bracket"
    )
    _add_common(p_scan, out_required=True)
    p_scan.set_defaults(func=_cmd_measure_scan)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    _add_common(p_verify, out_required=False)
    p_verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CantorDiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
