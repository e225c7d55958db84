"""Shared JSON dialect and CSV helpers.

Rationals serialize as canonical "p/q" strings (q > 0, reduced); the
decimal column emitted next to them in CSV is a 20-significant-digit
approximation and is explicitly non-authoritative.

A stage's gaps are listed by (birth stage, position).  Gap i lies
between components i and i + 1, and on a binary stage the gaps born at
step m are named, left to right, by the (m - 1)-digit binary strings of
the components of stage m - 1 they were cut from.

Stage files have one fixed layout, so ``write_stage_files`` streams
each stage's ``stage_NNN.json`` and ``gaps_NNN.csv`` in one pass, piece
by piece into the open files, with no whole-file string.  The general
path decodes every component into ``Fraction`` ends and, with
``indent=2``, makes ``json`` fall back to its pure-Python encoder; for
the largest stages that cost more than building them.  The writer reads
the ends off the union's integer keys and formats each one once: its
"p/q" text serves the components, the endpoints and the gaps that end
there, in the stage file and in the gap table alike.  The other strings
go through ``json.dumps``, so the bytes, escaping included, stay those
of the general path.  The tests keep ``dump_json(stage_to_obj(stage))``
as the oracle of the stage file and a ``csv.writer`` table of the gaps
as that of the gap table.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from decimal import Context
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Mapping

from .constructions import (
    CantorStage,
    CentralSpec,
    CompositeSpec,
    ConstantRatios,
    GeometricRatios,
    GreedySpec,
    ListRatios,
    PerturbedSpec,
    RatioRule,
)
from .errors import InvalidSpecError
from .intervals import Interval, IntervalUnion

__all__ = [
    "format_rational",
    "parse_rational",
    "decimal_str",
    "exact_to_obj",
    "interval_to_obj",
    "union_to_obj",
    "stage_to_obj",
    "write_stage_files",
    "gap_table_rows",
    "GAP_TABLE_HEADER",
    "bracket_to_obj",
    "spec_to_obj",
    "spec_from_obj",
    "load_spec_file",
    "FamilySpec",
    "dump_json",
]

FamilySpec = CentralSpec | PerturbedSpec | CompositeSpec | GreedySpec


def format_rational(q: Fraction) -> str:
    """Canonical "p/q" text (q > 0, reduced) of the package's JSON dialect."""
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    # Fraction would expand "1e99999999" into a 10^8-digit integer.
    if isinstance(text, str) and "e" in text.lower():
        raise InvalidSpecError(
            f"invalid rational {text!r}: exponent notation is not accepted"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise InvalidSpecError(f"invalid rational {text!r}: {exc}") from exc


_DECIMALS = Context(prec=20)


def decimal_str(q: Fraction) -> str:
    """``q`` to 20 significant digits, rounded half to even."""
    return str(_DECIMALS.divide(q.numerator, q.denominator))


def exact_to_obj(values: Mapping[str, int | Fraction]) -> dict[str, int | str]:
    """Ints stay ints; Fractions become canonical "p/q" strings."""
    return {
        key: format_rational(v) if isinstance(v, Fraction) else v
        for key, v in values.items()
    }


def interval_to_obj(interval: Interval) -> dict[str, Any]:
    return {
        "lo": format_rational(interval.lo),
        "hi": format_rational(interval.hi),
        "lo_closed": interval.lo_closed,
        "hi_closed": interval.hi_closed,
    }


def union_to_obj(union: IntervalUnion) -> list[dict[str, Any]]:
    return [interval_to_obj(p) for p in union.parts]


def _gap_order(stage: CantorStage) -> Iterator[tuple[int, str | None, int]]:
    """Each gap's position, address and birth stage, by (birth stage,
    position).  A binary stage's gaps born at step m are named by the
    (m - 1)-digit binary strings in order; other gaps have no address."""
    born = stage.born
    order = sorted(range(len(born)), key=born.__getitem__)  # stable
    names: Iterable[str | None] = itertools.repeat(None)
    if stage.binary:
        names = itertools.chain.from_iterable(
            map("".join, itertools.product("01", repeat=m - 1))
            for m in range(1, stage.n + 1)
        )
    return zip(order, names, map(born.__getitem__, order))


def stage_to_obj(stage: CantorStage) -> dict[str, Any]:
    gaps = stage.gaps
    return {
        "family": stage.family,
        "n": stage.n,
        "frame": interval_to_obj(stage.frame),
        "components": union_to_obj(stage.components),
        "gaps": [
            {
                "address": address,
                "lo": format_rational(gaps[i].lo),
                "hi": format_rational(gaps[i].hi),
                "stage_created": born,
            }
            for i, address, born in _gap_order(stage)
        ],
        "endpoints": [format_rational(e) for e in stage.endpoints],
        "notes": list(stage.notes),
    }


def bracket_to_obj(bracket) -> dict[str, Any]:
    return {
        "n": bracket.n,
        "inner": union_to_obj(bracket.inner),
        "outer": union_to_obj(bracket.outer),
        "missing_outer": union_to_obj(bracket.missing_outer),
        "missing_inner": union_to_obj(bracket.missing_inner),
    }


GAP_TABLE_HEADER = [
    "address",
    "lo",
    "hi",
    "stage_created",
    "lo_decimal",
    "hi_decimal",
]


def gap_table_rows(stage: CantorStage) -> Iterator[list[str]]:
    """One row per gap, the ``GAP_TABLE_HEADER`` columns: the cells of
    the gap table that ``write_stage_files`` writes, read off each gap's
    decoded interval."""
    gaps = stage.gaps
    for i, address, born in _gap_order(stage):
        lo, hi = gaps[i].lo, gaps[i].hi
        yield [
            "-" if address is None else address,
            format_rational(lo),
            format_rational(hi),
            str(born),
            decimal_str(lo),
            decimal_str(hi),
        ]


# ---------------------------------------------------------------------
# the stage writer

_BOOL = ("false", "true")


@contextmanager
def _all_or_none() -> Iterator[Callable[[Path], IO[str]]]:
    """A function that opens a path as a UTF-8 text file for writing; if
    the block fails, every path it opened is removed.  A path it could
    not open is kept, since the call wrote nothing there."""
    opened: list[Path] = []

    def open_text(path: Path) -> IO[str]:
        file = open(path, "w", encoding="utf-8", newline="\n")
        opened.append(path)
        return file

    try:
        yield open_text
    except BaseException:
        for path in opened:
            path.unlink(missing_ok=True)
        raise


def write_stage_files(stages: Iterable[CantorStage], out: Path) -> None:
    """Write ``stage_NNN.json`` and ``gaps_NNN.csv`` of each stage into
    ``out``, with the bytes of ``dump_json(stage_to_obj(stage))`` and of
    a CSV of ``GAP_TABLE_HEADER`` and ``gap_table_rows(stage)``.

    Both files of a stage are written in one pass, piece by piece; if
    any stage fails, every file of the call is removed, so no stage is
    left behind, whole or half written.
    """
    out.mkdir(parents=True, exist_ok=True)
    with _all_or_none() as open_text:
        for stage in stages:
            with open_text(out / f"stage_{stage.n:03d}.json") as stage_file, \
                    open_text(out / f"gaps_{stage.n:03d}.csv") as gap_file:
                _write_stage(stage, stage_file.write, gap_file.write)


def _write_stage(
    stage: CantorStage, put: Callable[[str], Any], put_row: Callable[[str], Any]
) -> None:
    """Stream the stage file to ``put`` and the gap table to ``put_row``.

    The ends are read off the union's keys, as ``IntervalUnion.endpoints``
    reads them, and each is formatted once: its text serves the
    components, the endpoints and the gaps that end there.
    """
    grid, ranges, frame = stage.components.grid, stage.components.ranges, stage.frame
    ends = [k // 3 for s, e in ranges for k in ((s,) if s == e else (s, e + 1))]
    texts = [_ratio_text(p, grid) for p in ends]
    put('{\n  "components": ')
    _put_list(put, _component_jsons(ranges, texts))
    put(',\n  "endpoints": ')
    _put_list(put, (f'"{text}"' for text in texts))
    put(f',\n  "family": {json.dumps(stage.family)},\n  "frame": ')
    put(
        _interval_json(
            format_rational(frame.lo), format_rational(frame.hi),
            frame.lo_closed, frame.hi_closed, "  ",
        )
    )
    put(',\n  "gaps": ')
    put_row(",".join(GAP_TABLE_HEADER) + "\n")
    _put_list(put, _gap_jsons(stage, ends, texts, put_row))
    put(f',\n  "n": {stage.n},\n  "notes": ')
    # json.dumps escapes a note as the encoder of dump_json does
    _put_list(put, map(json.dumps, stage.notes))
    put("\n}\n")


def _put_list(put: Callable[[str], Any], items: Iterable[str]) -> None:
    """A top-level list of rendered items, laid out as ``dump_json``."""
    first = True
    for item in items:
        put(("[\n    " if first else ",\n    ") + item)
        first = False
    put("[]" if first else "\n  ]")


def _interval_json(
    lo: str, hi: str, lo_closed: bool, hi_closed: bool, pad: str
) -> str:
    """An ``interval_to_obj`` object whose closing brace sits at ``pad``."""
    key = "\n  " + pad
    return (
        f'{{{key}"hi": "{hi}",{key}"hi_closed": {_BOOL[hi_closed]},'
        f'{key}"lo": "{lo}",{key}"lo_closed": {_BOOL[lo_closed]}\n{pad}}}'
    )


def _ratio_text(p: int, grid: int) -> str:
    """``p / grid`` as canonical "p/q" text, reduced with ``gcd``."""
    g = gcd(p, grid)
    return f"{p // g}/{grid // g}"


def _component_jsons(
    ranges: Iterable[tuple[int, int]], texts: list[str]
) -> Iterator[str]:
    """The component of each key range (see ``intervals._interval``), its
    end texts taken in order from ``texts``, a point part's once."""
    end_texts = iter(texts)
    for s, e in ranges:
        lo = next(end_texts)
        hi = lo if s == e else next(end_texts)
        yield _interval_json(lo, hi, s % 3 == 0, e % 3 == 0, "    ")


def _gap_jsons(
    stage: CantorStage, ends: list[int], texts: list[str], put_row: Callable[[str], Any]
) -> Iterator[str]:
    """Each gap's stage-file record, its gap table row put as it goes.

    ``ends`` are the component end numerators on the stage grid, a point
    part's once, and ``texts`` their texts.  Gap i runs from the last end
    of component i to the first of component i + 1, at ``stops[i] - 1``
    and ``stops[i]``.  An address is a binary string, so neither JSON nor
    CSV escapes or quotes it.
    """
    grid, ranges = stage.components.grid, stage.components.ranges
    stops = list(itertools.accumulate(1 + (s != e) for s, e in ranges))
    for i, address, created in _gap_order(stage):
        j = stops[i]
        p, q, lo, hi = ends[j - 1], ends[j], texts[j - 1], texts[j]
        # rounding p/grid unreduced gives decimal_str's text
        put_row(
            f"{'-' if address is None else address},{lo},{hi},{created},"
            f"{_DECIMALS.divide(p, grid)!s},{_DECIMALS.divide(q, grid)!s}\n"
        )
        address = "null" if address is None else f'"{address}"'
        yield (
            f'{{\n      "address": {address},\n      "hi": "{hi}",\n'
            f'      "lo": "{lo}",\n      "stage_created": {created}\n    }}'
        )


# ---------------------------------------------------------------------
# spec files


def _fields(obj: dict, path: str, what: str, keys: tuple, other: tuple) -> list:
    """The values of ``keys`` in ``obj``, in order.  Each key of ``keys``
    must be in ``obj``, and each key of ``obj`` in ``keys`` or ``other``."""
    for key in (*obj, *keys):
        if key not in obj:
            raise InvalidSpecError(f"{path}: {what} needs '{key}'")
        if key not in keys and key not in other:
            raise InvalidSpecError(f"{path}: {what} takes no key {key!r}")
    return [obj[key] for key in keys]


def _at(path: str, make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``make(*args, **kwargs)``, a refusal of it prefixed by ``path``."""
    try:
        return make(*args, **kwargs)
    except InvalidSpecError as exc:
        raise InvalidSpecError(f"{path}: {exc}") from exc


def _rational(value: Any, path: str) -> Fraction:
    # Fraction would read a float as its binary value, not the decimal
    # it spells, and true as 1; ints are exact.
    if isinstance(value, (float, bool)):
        raise InvalidSpecError(
            f"{path}: expected a 'p/q' string or an integer, got {json.dumps(value)}"
        )
    return _at(path, parse_rational, value)


def _ratios_from_obj(obj: Any, path: str) -> RatioRule:
    if isinstance(obj, str):
        return _at(path, ConstantRatios, _rational(obj, path))
    if not isinstance(obj, dict) or "rule" not in obj:
        raise InvalidSpecError(
            f"{path}: ratios must be a 'p/q' string or a rule object"
        )
    kind = obj["rule"]
    if kind == "constant":
        (value,) = _fields(obj, path, "constant rule", ("value",), ("rule",))
        path = f"{path}.value"
        return _at(path, ConstantRatios, _rational(value, path))
    if kind == "list":
        values, tail = _fields(obj, path, "list rule", ("values", "tail"), ("rule",))
        if not isinstance(values, list):
            raise InvalidSpecError(f"{path}.values: expected a list of rationals")
        return _at(
            path,
            ListRatios,
            tuple(_rational(v, f"{path}.values[{i}]") for i, v in enumerate(values)),
            _rational(tail, f"{path}.tail"),
        )
    if kind == "geometric":
        (base,) = _fields(obj, path, "geometric rule", ("base",), ("rule",))
        path = f"{path}.base"
        return _at(path, GeometricRatios, _rational(base, path))
    raise InvalidSpecError(f"{path}: unknown ratio rule {kind!r}")


def _ratios_to_obj(rule: RatioRule) -> dict[str, Any]:
    if isinstance(rule, ConstantRatios):
        return {"rule": "constant", "value": format_rational(rule.value)}
    if isinstance(rule, ListRatios):
        values = [format_rational(v) for v in rule.values]
        return {"rule": "list", "values": values, "tail": format_rational(rule.tail)}
    return {"rule": "geometric", "base": format_rational(rule.base)}


def spec_to_obj(spec: FamilySpec) -> dict[str, Any]:
    """The spec as ``spec_from_obj`` reads it, every perturbed field given."""
    if isinstance(spec, CentralSpec):
        return {"family": "central", "ratios": _ratios_to_obj(spec.ratios)}
    if isinstance(spec, PerturbedSpec):
        return {
            "family": "perturbed",
            "c1": format_rational(spec.c1),
            "shrink": format_rational(spec.shrink),
            "interior_gap_fraction": format_rational(spec.interior_gap_fraction),
        }
    if isinstance(spec, CompositeSpec):
        a, b = spec.a_source, spec.b_source
        return {"family": "tab", "a": spec_to_obj(a), "b": spec_to_obj(b)}
    return {"family": "greedy", "b": spec_to_obj(spec.b_source)}


def spec_from_obj(obj: Any, *, path: str = "spec") -> FamilySpec:
    if not isinstance(obj, dict):
        raise InvalidSpecError(f"{path}: expected an object")
    family = obj.get("family")
    if family == "central":
        (ratios,) = _fields(obj, path, "central spec", ("ratios",), ("family",))
        return CentralSpec(_ratios_from_obj(ratios, f"{path}.ratios"))
    if family == "perturbed":
        optional = ("shrink", "interior_gap_fraction")
        (c1,) = _fields(obj, path, "perturbed spec", ("c1",), ("family", *optional))
        c1 = _rational(c1, f"{path}.c1")
        kwargs = {k: _rational(obj[k], f"{path}.{k}") for k in optional if k in obj}
        return _at(path, PerturbedSpec, c1, **kwargs)
    if family == "tab":
        a, b = _fields(obj, path, "tab spec", ("a", "b"), ("family",))
        a = spec_from_obj(a, path=f"{path}.a")
        b = spec_from_obj(b, path=f"{path}.b")
        if isinstance(a, (CompositeSpec, GreedySpec)) or isinstance(
            b, (CompositeSpec, GreedySpec)
        ):
            raise InvalidSpecError(f"{path}: tab sources must be central or perturbed")
        return CompositeSpec(a, b)
    if family == "greedy":
        (b,) = _fields(obj, path, "greedy spec", ("b",), ("family",))
        b = spec_from_obj(b, path=f"{path}.b")
        if isinstance(b, (CompositeSpec, GreedySpec)):
            raise InvalidSpecError(
                f"{path}: greedy source must be central or perturbed"
            )
        return GreedySpec(b)
    raise InvalidSpecError(
        f"{path}: family must be one of central|perturbed|tab|greedy, got {family!r}"
    )


# Every spec is a few hundred bytes; a longer file (/dev/zero, say) is
# refused after this many, not read until memory runs out.
_SPEC_MAX_BYTES = 1 << 20


def load_spec_file(path: str | Path) -> FamilySpec:
    try:
        with open(path, "rb") as fh:
            data = fh.read(_SPEC_MAX_BYTES + 1)
        if len(data) > _SPEC_MAX_BYTES:
            raise ValueError(f"longer than {_SPEC_MAX_BYTES} bytes")
        # Decoded here, since json.loads would also take UTF-16 and UTF-32
        # bytes, with the line ends a text-mode read gives error positions.
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSpecError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    # A missing file, a file past the cap, bytes that are not UTF-8, an
    # integer past Python's digit limit (ValueError) and nesting past the
    # recursion limit.
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidSpecError(f"{path}: cannot read spec: {exc}") from exc
    return spec_from_obj(obj)


def dump_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
