"""Shared JSON dialect and CSV helpers.

Rationals serialize as canonical "p/q" strings (q > 0, reduced); the
decimal column emitted next to them in CSV is a 20-significant-digit
approximation and is explicitly non-authoritative.

Stage files have one fixed layout, so ``stage_json`` writes it directly
and returns exactly ``dump_json(stage_to_obj(stage))``.  The general
path decodes every component into ``Fraction`` ends and, with
``indent=2``, makes ``json`` fall back to its pure-Python encoder; for
the largest stages that cost more than building them.  The writer reads
the components and the endpoints off the union's integer keys and the
gaps off their records' numerators, formats the rationals itself and
hands each string to ``json.dumps``, so the bytes, escaping included,
stay those of the general path, which the tests keep as its oracle.
The gap table is written off the numerators the same way.
"""

from __future__ import annotations

import json
from decimal import Context
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from .constructions import (
    CantorStage,
    CentralSpec,
    CompositeSpec,
    ConstantRatios,
    GapRecord,
    GeometricRatios,
    GreedySpec,
    ListRatios,
    PerturbedSpec,
    RatioRule,
)
from .errors import InvalidSpecError
from .intervals import Interval, IntervalUnion, format_rational

__all__ = [
    "format_rational",
    "parse_rational",
    "decimal_str",
    "exact_to_obj",
    "interval_to_obj",
    "interval_from_obj",
    "union_to_obj",
    "union_from_obj",
    "stage_to_obj",
    "stage_json",
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


def interval_from_obj(obj: dict[str, Any]) -> Interval:
    return Interval(
        parse_rational(obj["lo"]),
        parse_rational(obj["hi"]),
        bool(obj["lo_closed"]),
        bool(obj["hi_closed"]),
    )


def union_to_obj(union: IntervalUnion) -> list[dict[str, Any]]:
    return [interval_to_obj(p) for p in union.parts]


def union_from_obj(obj: list[dict[str, Any]]) -> IntervalUnion:
    return IntervalUnion(tuple(interval_from_obj(item) for item in obj))


def _gap_to_obj(gap: GapRecord) -> dict[str, Any]:
    interval = gap.interval
    return {
        "address": gap.address,
        "lo": format_rational(interval.lo),
        "hi": format_rational(interval.hi),
        "stage_created": gap.stage_created,
    }


def stage_to_obj(stage: CantorStage) -> dict[str, Any]:
    return {
        "family": stage.family,
        "n": stage.n,
        "frame": interval_to_obj(stage.frame),
        "components": union_to_obj(stage.components),
        "gaps": [_gap_to_obj(g) for g in stage.gaps],
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
    """One row per gap, the ``GAP_TABLE_HEADER`` columns, yielded as the
    table is written so that no more than one row is held."""
    for g in stage.gaps:
        yield [
            "-" if g.address is None else g.address,
            _ratio_text(g.lo, g.grid),
            _ratio_text(g.hi, g.grid),
            str(g.stage_created),
            # rounding p/grid unreduced gives decimal_str's text
            str(_DECIMALS.divide(g.lo, g.grid)),
            str(_DECIMALS.divide(g.hi, g.grid)),
        ]


# ---------------------------------------------------------------------
# the stage writer

_BOOL = ("false", "true")


def _list_json(items: Iterable[str]) -> tuple[str, ...]:
    """The pieces of a top-level list of rendered items, laid out as
    ``dump_json``; the items are joined once and not kept."""
    text = ",\n    ".join(items)
    return ("[\n    ", text, "\n  ]") if text else ("[]",)


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


def _component_json(s: int, e: int, grid: int) -> str:
    """The component of the key range ``[s, e]`` on ``grid`` (see
    ``intervals._interval``)."""
    lo_text, hi_text = _ratio_text(s // 3, grid), _ratio_text((e + 1) // 3, grid)
    return _interval_json(lo_text, hi_text, s % 3 == 0, e % 3 == 0, "    ")


def _gap_json(gap: GapRecord) -> str:
    # json.dumps takes its slow path on None, the address of every tab gap
    address = "null" if gap.address is None else json.dumps(gap.address)
    return (
        f'{{\n      "address": {address},\n'
        f'      "hi": "{_ratio_text(gap.hi, gap.grid)}",\n'
        f'      "lo": "{_ratio_text(gap.lo, gap.grid)}",\n'
        f'      "stage_created": {gap.stage_created}\n    }}'
    )


def stage_json(stage: CantorStage) -> str:
    """``dump_json(stage_to_obj(stage))``, written in its fixed layout.

    The components and the endpoints are read off the union's keys, as
    ``IntervalUnion.endpoints`` reads them, and the gaps off their
    numerators, so no ``Interval`` or ``Fraction`` is made for them; the
    strings go through ``json.dumps``, so escaping is the encoder's.
    """
    grid, ranges, frame = stage.components.grid, stage.components.ranges, stage.frame
    ends = (k for s, e in ranges for k in ((s,) if s == e else (s, e + 1)))
    pieces = [
        '{\n  "components": ',
        *_list_json(_component_json(s, e, grid) for s, e in ranges),
        ',\n  "endpoints": ',
        *_list_json(f'"{_ratio_text(k // 3, grid)}"' for k in ends),
        f',\n  "family": {json.dumps(stage.family)},\n  "frame": ',
        _interval_json(
            format_rational(frame.lo), format_rational(frame.hi),
            frame.lo_closed, frame.hi_closed, "  ",
        ),
        ',\n  "gaps": ',
        *_list_json(map(_gap_json, stage.gaps)),
        f',\n  "n": {stage.n},\n  "notes": ',
        *_list_json(map(json.dumps, stage.notes)),
        "\n}\n",
    ]
    return "".join(pieces)


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


def spec_to_obj(spec: FamilySpec) -> dict[str, Any]:
    return spec.to_obj()


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


def load_spec_file(path: str | Path) -> FamilySpec:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidSpecError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    # A missing file, bytes that are not UTF-8, an integer past Python's
    # digit limit (ValueError) and nesting past the recursion limit.
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidSpecError(f"{path}: cannot read spec: {exc}") from exc
    return spec_from_obj(obj)


def dump_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
