"""Exact interval-union arithmetic and certified finite-stage analysis
of the difference set between a Cantor set's complement and the set.

The names below are re-exported from their modules, each imported on
the first access of one of its names, so that a command imports only
the modules it runs (``construct`` needs neither ``analysis`` nor
``verify``).
"""

from importlib import import_module

_EXPORTS = {
    "intervals": (
        "BOX",
        "EMPTY",
        "HALF",
        "UNIT",
        "Interval",
        "IntervalUnion",
        "Rational",
        "normalize",
        "points_union",
        "union_of",
    ),
    "constructions": (
        "DEFAULT_BUDGET",
        "CantorStage",
        "CentralSpec",
        "CompositeSpec",
        "GapRecord",
        "GreedySpec",
        "PerturbedSpec",
        "branch_shift",
        "builtin_composite_pair",
        "builtin_fat_composite",
        "builtin_half",
        "builtin_perturbed",
        "builtin_ternary",
        "central_stage",
        "composite_stage",
        "greedy_certificate",
        "greedy_stage",
        "half_scaled_components",
        "perturbed_stage",
        "rightmost_branch_gap_end",
    ),
    "analysis": (
        "DiffBracket",
        "DominantGapCertificate",
        "GapChainLink",
        "ShiftInclusionResult",
        "ZoneMeasureRow",
        "difference_bracket",
        "dominant_gap_certificate",
        "inner_difference",
        "outer_difference",
        "predicted_missing_points",
        "prediction_is_complete",
        "rightmost_gap_chain",
        "shift_inclusion_check",
        "zone_measure_rows",
    ),
    "errors": (
        "AvoidanceExhaustedError",
        "BudgetExceededError",
        "CantorDiffError",
        "InvalidSpecError",
        "NotCertifiableError",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A re-exported name, read from its module once and then kept here."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
