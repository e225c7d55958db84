"""Shared JSON dialect and CSV helpers.

Rationals serialize as canonical "p/q" strings (q > 0, reduced); the
decimal column emitted next to them in CSV is a 20-significant-digit
approximation and is explicitly non-authoritative.
"""

from __future__ import annotations

import json
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

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


def decimal_str(q: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 20
        return str(Decimal(q.numerator) / Decimal(q.denominator))


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
    return {
        "address": gap.address,
        "lo": format_rational(gap.interval.lo),
        "hi": format_rational(gap.interval.hi),
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


def gap_table_rows(stage: CantorStage) -> list[list[str]]:
    rows = []
    for g in stage.gaps:
        rows.append(
            [
                g.address if g.address is not None else "-",
                format_rational(g.interval.lo),
                format_rational(g.interval.hi),
                str(g.stage_created),
                decimal_str(g.interval.lo),
                decimal_str(g.interval.hi),
            ]
        )
    return rows


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


def _rational(value: Any, path: str) -> Fraction:
    try:
        return parse_rational(value)
    except InvalidSpecError as exc:
        raise InvalidSpecError(f"{path}: {exc}") from exc


def _ratios_from_obj(obj: Any, path: str) -> RatioRule:
    if isinstance(obj, str):
        return ConstantRatios(_rational(obj, path))
    if not isinstance(obj, dict) or "rule" not in obj:
        raise InvalidSpecError(
            f"{path}: ratios must be a 'p/q' string or a rule object"
        )
    kind = obj["rule"]
    if kind == "constant":
        (value,) = _fields(obj, path, "constant rule", ("value",), ("rule",))
        return ConstantRatios(_rational(value, f"{path}.value"))
    if kind == "list":
        values, tail = _fields(obj, path, "list rule", ("values", "tail"), ("rule",))
        if not isinstance(values, list):
            raise InvalidSpecError(f"{path}.values: expected a list of rationals")
        return ListRatios(
            tuple(_rational(v, f"{path}.values[{i}]") for i, v in enumerate(values)),
            _rational(tail, f"{path}.tail"),
        )
    if kind == "geometric":
        (base,) = _fields(obj, path, "geometric rule", ("base",), ("rule",))
        return GeometricRatios(_rational(base, f"{path}.base"))
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
        return PerturbedSpec(c1, **kwargs)
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
