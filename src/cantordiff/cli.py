"""Command-line interface: construct stages, compute brackets, run
verification suites, and emit deterministic JSON/CSV reports.

Exit codes: 0 all assertions pass, 1 assertion failure, 2 usage or
configuration error, or an output stream whose reader has gone.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from .constructions import DEFAULT_BUDGET, CantorStage, max_binary_stage, stages_through
from .errors import CantorDiffError
from .jsonio import (
    _all_or_none,
    bracket_to_obj,
    decimal_str,
    dump_json,
    exact_to_obj,
    load_spec_file,
    write_stage_files,
)

if TYPE_CHECKING:
    from .analysis import DiffBracket

__all__ = ["main", "entrypoint"]

# The keys of ``verify.SUITES``, sorted: ``analysis`` and ``verify`` are
# imported only by the commands that run them, so ``construct`` does not
# pay for them at start-up.
_SUITE_NAMES = ("ccp", "cspm", "steinhaus", "t13", "tab", "tamc", "ts3")


def _write_files(files: dict[Path, str]) -> None:
    """Write each text to its path whole; if any write fails, every file
    the call opened is removed, and a path it could not open is kept."""
    with _all_or_none() as open_text:
        for path, text in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            with open_text(path) as file:
                file.write(text)


def _csv_text(header: list[str], rows: Iterable[list[str]]) -> str:
    import csv  # only --format csv loads it
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _clamped_max_stage(spec, max_stage: int, budget: int) -> int:
    """Binary families (2^n components) clamp n to what the budget allows
    rather than failing mid-run."""
    if not spec.binary:
        return max_stage
    clamped = max(0, min(max_stage, max_binary_stage(budget)))
    if clamped != max_stage:
        print(
            f"warning: budget {budget} cannot hold 2^{max_stage} components; "
            f"max stage clamped to {clamped}",
            file=sys.stderr,
        )
    return clamped


def _at_least(text: str, minimum: int) -> int:
    value = int(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


def _stage_number(text: str) -> int:
    return _at_least(text, 0)


def _budget(text: str) -> int:
    return _at_least(text, 1)


def _stages(args: argparse.Namespace) -> list[CantorStage]:
    spec = load_spec_file(args.spec)
    max_stage = _clamped_max_stage(spec, args.max_stage, args.budget)
    return stages_through(spec, max_stage, budget=args.budget)


def _cmd_construct(args: argparse.Namespace) -> int:
    write_stage_files(_stages(args), Path(args.out))
    return 0


def _stage_brackets(args: argparse.Namespace) -> list[DiffBracket]:
    from .analysis import difference_bracket

    return [difference_bracket(stage) for stage in _stages(args)]


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
        files = {out / f"{stem}.csv": _csv_text(header, lines)}
    else:
        for record, fields in zip(records, extra or ()):
            record.update(fields)
        files = {out / f"{stem}.json": dump_json(records)}
    if args.plot_data:
        plot_lines = [" ".join(("# n", *decimals))] + [
            " ".join((str(row["n"]), *(decimal_str(row[c]) for c in decimals)))
            for row in rows
        ]
        files[out / f"{stem}.dat"] = "\n".join(plot_lines) + "\n"
    _write_files(files)


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
    extra = None
    if args.format == "json":  # CSV rows carry no bracket
        extra = [{"bracket": bracket_to_obj(b)} for b in brackets]
    _write_rows(
        args, "diff_bounds", rows, ("m_inner", "m_outer", "m_missing_outer"), extra
    )
    return 0


def _scan_column(field: str, value: int | Fraction) -> str:
    if field == "outer_total":
        return "m_outer"
    return f"m_{field}" if isinstance(value, Fraction) else field


def _cmd_measure_scan(args: argparse.Namespace) -> int:
    from .analysis import zone_measure_rows

    rows = [
        {_scan_column(f, v): v for f, v in r.items()}
        for r in zone_measure_rows(_stage_brackets(args))
    ]
    _write_rows(
        args, "measure_scan", rows, ("m_middle", "m_missing_total", "m_outer")
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite

    spec = load_spec_file(args.spec)
    max_stage = _clamped_max_stage(spec, args.max_stage, args.budget)
    report = run_suite(args.suite, spec, max_stage, budget=args.budget)
    payload = dump_json(report)
    if args.out:
        out = Path(args.out)
        files = {out / f"verify_{args.suite}.json": payload}
        if args.format == "csv":
            rows = [
                [a["id"], a["status"], a["description"]]
                for a in report["assertions"]
            ]
            table = _csv_text(["id", "status", "description"], rows)
            files[out / f"verify_{args.suite}.csv"] = table
        _write_files(files)
    else:
        print(payload, end="", flush=True)
    for a in report["assertions"]:
        print(f"[{a['status'].upper():4s}] {args.suite}: {a['id']}", file=sys.stderr)
    return 0 if report["passed"] else 1


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
    parsers = {}
    for name, (func, help_text, flags) in commands.items():
        p = parsers[name] = sub.add_parser(name, help=help_text)
        if name == "verify":
            p.add_argument("suite", choices=_SUITE_NAMES)
        p.add_argument("--spec", required=True, help="spec JSON file")
        p.add_argument("--max-stage", type=_stage_number, default=4)
        p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
        # verify writes its report to stdout when --out is absent.
        p.add_argument("--out", required=name != "verify", help="output directory")
        if "--format" in flags:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        if "--plot-data" in flags:
            p.add_argument("--plot-data", action="store_true")
        p.set_defaults(func=func)

    code = 2
    try:
        args = parser.parse_args(argv)
        # The CSV table goes next to the report, so without --out it has no place.
        if args.out is None and getattr(args, "format", None) == "csv":
            parsers[args.command].error("--format csv needs --out")
        code = args.func(args)
    # Spec files are read through InvalidSpecError: an OSError is an output.
    except (CantorDiffError, OSError) as exc:
        with contextlib.suppress(BrokenPipeError):  # stderr's reader has gone
            print(f"error: {exc}", file=sys.stderr)
    finally:
        # A stream whose reader has gone goes to the null device, so the
        # flush at exit has nothing left to fail on, and the exit is 2.
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except BrokenPipeError:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stream.fileno())
                os.close(devnull)
                code = 2
    return code


def entrypoint() -> None:
    code = main()
    # Finalization closes every file, flushes stdout and runs atexit
    # handlers on a frozen heap too; the full collections it would run
    # over every tracked object reclaim only memory the OS takes back at
    # exit (about 10 ms a command).  main does not freeze, so a process
    # that calls it and goes on running keeps a collector that collects.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
