"""Named verification suites run by the CLI.

Each suite turns one of the characterizations into machine-checkable
assertions over finite stages and returns a report whose entries embed
the certificate payloads needed to re-check the verdicts offline.
Suite keys are opaque selector names fixed by the external interface.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .analysis import (
    difference_bracket,
    dominant_gap_certificate,
    outer_difference,
    predicted_missing_points,
    prediction_is_complete,
    rightmost_gap_chain,
    shift_inclusion_check,
    zone_measure_rows,
)
from .constructions import (
    DEFAULT_BUDGET,
    CantorStage,
    CentralSpec,
    CompositeSpec,
    GreedySpec,
    PerturbedSpec,
    central_stage,
    greedy_certificate,
    half_scaled_components,
    perturbed_stage,
    rightmost_branch_gap_end,
)
from .errors import InvalidSpecError
from .intervals import Interval, IntervalUnion, format_rational, normalize, points_union
from .jsonio import (
    FamilySpec,
    decimal_str,
    exact_to_obj,
    interval_to_obj,
    spec_to_obj,
    union_to_obj,
)

__all__ = ["Assertion", "SuiteReport", "run_suite", "family_stage", "SUITES"]


@dataclass(frozen=True)
class Assertion:
    id: str
    description: str
    status: str  # "pass" | "fail" | "flag"
    details: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    spec: dict[str, Any]
    max_stage: int
    assertions: tuple[Assertion, ...]

    @property
    def passed(self) -> bool:
        return all(a.status != "fail" for a in self.assertions)

    def to_obj(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "spec": self.spec,
            "max_stage": self.max_stage,
            "passed": self.passed,
            "assertions": [
                {
                    "id": a.id,
                    "description": a.description,
                    "status": a.status,
                    "details": a.details,
                }
                for a in self.assertions
            ],
        }


def family_stage(
    spec: FamilySpec, n: int, *, budget: int = DEFAULT_BUDGET
) -> CantorStage:
    """Unit-frame stage for any family spec."""
    return spec.stage(n, budget=budget)


def _check(condition: bool, aid: str, description: str, **details: Any) -> Assertion:
    return Assertion(aid, description, "pass" if condition else "fail", details)


def _certificate_obj(cert) -> dict[str, Any]:
    return {
        "gap": interval_to_obj(cert.gap.interval),
        "window": [format_rational(cert.window_lo), format_rational(cert.window_hi)],
        "mode": cert.mode,
        "certified": interval_to_obj(cert.certified),
        "exceptions": [format_rational(x) for x in cert.exceptions],
        "gap_length": format_rational(cert.gap_length),
        "max_component_in_window": format_rational(cert.max_component_in_window),
        "max_recorded_gap_in_window": format_rational(cert.max_recorded_gap_in_window),
    }


def _require(kind: type, spec: FamilySpec, suite: str, extra: str = "") -> None:
    if not isinstance(spec, kind):
        raise InvalidSpecError(
            f"suite {suite!r} needs a {kind.__name__}{extra}; "
            f"got {type(spec).__name__}"
        )


# ---------------------------------------------------------------------
# suites


def _suite_ccp(spec: FamilySpec, max_stage: int, budget: int) -> tuple[Assertion, ...]:
    _require(CentralSpec, spec, "ccp")
    if spec != CentralSpec.constant(Fraction(1, 3)):
        raise InvalidSpecError(
            "suite 'ccp' verifies the classical middle-thirds set; "
            "the spec must be central with constant ratio 1/3"
        )
    assertions = []
    for n in range(max_stage + 1):
        bracket = difference_bracket(central_stage(spec, n, budget=budget))
        predicted = predicted_missing_points(spec, n)
        contained = predicted.is_subset(bracket.missing_outer)
        expected = 2 * Fraction(1, 3) ** n
        measure = bracket.missing_outer.measure()
        assertions.append(
            _check(
                contained and measure == expected,
                f"ccp-stage-{n}",
                "predicted missing points lie in the stage bracket and the "
                "bracket measure is exactly 2/3^n",
                predicted=union_to_obj(predicted),
                missing_measure=format_rational(measure),
                expected_measure=format_rational(expected),
            )
        )
    return tuple(assertions)


def _suite_t13(spec: FamilySpec, max_stage: int, budget: int) -> tuple[Assertion, ...]:
    _require(CentralSpec, spec, "t13")
    if not prediction_is_complete(spec):
        raise InvalidSpecError(
            "suite 't13' requires every removal ratio to be at least 1/3"
        )
    k_max = 6
    stages = [central_stage(spec, n, budget=budget) for n in range(max_stage + 1)]
    assertions = []
    for k in range(k_max + 1):
        r = rightmost_branch_gap_end(spec, k)
        result = shift_inclusion_check(stages, [points_union([r, -r])] * len(stages))
        assertions.append(
            _check(
                result.passed,
                f"t13-point-{k}",
                "the k-th predicted missing point keeps every stage inside "
                "itself under translation",
                point=format_rational(r),
                n_checked=result.n_checked,
            )
        )
    assembled = predicted_missing_points(spec, k_max)
    for k in range(k_max + 1):
        stage = central_stage(spec, k + 2, budget=budget)
        gap = next(
            g
            for g in stage.gaps
            if g.stage_created == k + 1 and g.address == "1" * k
        )
        cert = dominant_gap_certificate(
            stage, gap, Fraction(0), spec.component_length(k + 1)
        )
        prev_r = rightmost_branch_gap_end(spec, k - 1) if k else Fraction(0)
        r = rightmost_branch_gap_end(spec, k)
        exact = cert.mode == "strict" and cert.certified == Interval.open(prev_r, r)
        assertions.append(
            _check(
                exact,
                f"t13-cover-{k}",
                "a strict dominance certificate covers the open interval "
                "between consecutive predicted points",
                certificate=_certificate_obj(cert),
            )
        )
        assembled = assembled.union(IntervalUnion((cert.certified,)))
        assembled = assembled.union(IntervalUnion((cert.certified,)).reflect())
    r_last = rightmost_branch_gap_end(spec, k_max)
    window = IntervalUnion((Interval.closed(-r_last, r_last),))
    assertions.append(
        _check(
            assembled.intersect(window) == window,
            "t13-bracket",
            "certified intervals plus predicted points tile the window "
            "between the outermost certified points",
            window=interval_to_obj(Interval.closed(-r_last, r_last)),
        )
    )
    return tuple(assertions)


def _right_branch_gap_ends(stage: CantorStage) -> dict[int, Fraction]:
    ends: dict[int, Fraction] = {}
    for g in stage.gaps:
        if g.address is not None and g.address == "1" * (g.stage_created - 1):
            ends[g.stage_created] = Fraction(g.hi, g.grid)
    return ends


def _suite_ts3(spec: FamilySpec, max_stage: int, budget: int) -> tuple[Assertion, ...]:
    _require(PerturbedSpec, spec, "ts3")
    assertions = []
    widths: list[Fraction] = []
    final_core = None
    for n in range(max_stage + 1):
        stage = perturbed_stage(spec, n, budget=budget)
        bracket = difference_bracket(stage)
        anchored = all(bracket.missing_outer.contains_point(x) for x in (-1, 0, 1))
        assertions.append(
            _check(
                anchored,
                f"ts3-anchor-{n}",
                "0 and the two frame corners stay in the missing bracket",
            )
        )
        if n >= 3:
            ends = _right_branch_gap_ends(stage)
            width = 1 - ends[n - 2]
            widths.append(width)
            if n == max_stage:
                strips = normalize(
                    [Interval.closed(-1, -1 + width), Interval.closed(1 - width, 1)]
                )
                final_core = (bracket.missing_outer.difference(strips), width)
    assertions.append(
        _check(
            all(a > b for a, b in zip(widths, widths[1:])),
            "ts3-strip-widths",
            "edge strip widths strictly decrease with the stage",
            widths=[format_rational(w) for w in widths],
        )
    )
    if final_core is not None:
        core, width = final_core
        assertions.append(
            _check(
                core == points_union([0]),
                f"ts3-core-{max_stage}",
                "outside two vanishing edge strips the missing bracket is "
                "exactly the origin",
                strip_width=format_rational(width),
                core=union_to_obj(core),
            )
        )
    return tuple(assertions)


def _composite_parts(
    spec: CompositeSpec | GreedySpec, max_stage: int, budget: int
) -> tuple[list[CantorStage], list[IntervalUnion]]:
    c_stages = [family_stage(spec, n, budget=budget) for n in range(max_stage + 1)]
    y_stages = [
        half_scaled_components(spec.b_source, n, budget=budget).translate(
            Fraction(1, 2)
        )
        for n in range(max_stage + 1)
    ]
    return c_stages, y_stages


def _suite_tab(spec: FamilySpec, max_stage: int, budget: int) -> tuple[Assertion, ...]:
    if not isinstance(spec, (CompositeSpec, GreedySpec)):
        raise InvalidSpecError(
            "suite 'tab' needs a tab or greedy spec (a half-frame B source)"
        )
    c_stages, y_stages = _composite_parts(spec, max_stage, budget)
    result = shift_inclusion_check(c_stages, y_stages)
    details: dict[str, Any] = {
        "n_checked": result.n_checked,
        "y_final": union_to_obj(result.y_final),
    }
    if not result.passed:
        details["violation_stage"] = result.violation_stage
        details["witness"] = format_rational(result.witness)
    return (
        _check(
            result.passed,
            "tab-shift-inclusion",
            "translating any stage by the shifted B stage keeps it inside "
            "itself within the unit frame",
            **details,
        ),
    )


def _suite_tamc(spec: FamilySpec, max_stage: int, budget: int) -> tuple[Assertion, ...]:
    _require(CentralSpec, spec, "tamc")
    depth = min(max_stage, 6) if max_stage >= 1 else 1
    chain = rightmost_gap_chain(spec, depth, budget=budget)
    ends = [Fraction(link.gap.hi, link.gap.grid) for link in chain]
    assertions = [
        _check(
            all(a < b for a, b in zip(ends, ends[1:])),
            "tamc-monotone",
            "chain gaps march strictly rightward",
            right_ends=[format_rational(e) for e in ends],
        ),
        _check(
            ends[-1] > Fraction(99, 100) if depth >= 6 else True,
            "tamc-progress",
            "the depth-6 chain passes 0.99",
            last_end=format_rational(ends[-1]),
        ),
    ]
    for idx, link in enumerate(chain, start=1):
        assertions.append(
            _check(
                True,
                f"tamc-link-{idx}",
                "dominance certificate for this chain link "
                f"({len(link.certificate.exceptions)} exceptions)",
                certificate=_certificate_obj(link.certificate),
            )
        )
    return tuple(assertions)


def _suite_cspm(spec: FamilySpec, max_stage: int, budget: int) -> tuple[Assertion, ...]:
    _require(GreedySpec, spec, "cspm")
    if not isinstance(spec.b_source, CentralSpec):
        raise InvalidSpecError("suite 'cspm' needs a central B source")
    tail = spec.b_source.ratios.tail_ratio_sum(max_stage)
    if tail is None:
        raise InvalidSpecError(
            "suite 'cspm' needs a summable (geometric) removal schedule "
            "for the B source; constant tails thin B down to measure zero"
        )
    c_stages, y_stages = _composite_parts(spec, max_stage, budget)
    result = shift_inclusion_check(c_stages, y_stages)
    b_measure = half_scaled_components(
        spec.b_source, max_stage, budget=budget
    ).measure()
    lower = b_measure - Fraction(1, 2) * tail
    certified_upper = 2 - lower
    outer_measures = [outer_difference(s).measure() for s in c_stages]
    assertions = [
        _check(
            result.passed,
            "cspm-shift-inclusion",
            "the shifted B stages certify a missing set at least as big as B",
            n_checked=result.n_checked,
        ),
        _check(
            lower > 0,
            "cspm-lower-bound",
            "certified lower bound on the missing measure from the stage "
            "measure minus the removal tail",
            b_stage_measure=format_rational(b_measure),
            tail_allowance=format_rational(Fraction(1, 2) * tail),
            missing_lower_bound=format_rational(lower),
            missing_lower_bound_decimal=decimal_str(lower),
        ),
        _check(
            certified_upper < 2,
            "cspm-upper-bound",
            "the certified upper bound on the difference-set measure",
            certified_upper=format_rational(certified_upper),
            certified_upper_decimal=decimal_str(certified_upper),
        ),
        # Holds by construction (the outer bracket is (-1, 1)); kept
        # because the report carries it.
        _check(
            all(m > Fraction(3, 2) for m in outer_measures),
            "cspm-outer-floor",
            "every stage's outer bracket keeps measure above 3/2",
            outer_measures=[format_rational(m) for m in outer_measures],
        ),
    ]
    cert = greedy_certificate(spec, max_stage, budget=budget)
    assertions.append(
        _check(
            cert.verified,
            "cspm-avoidance",
            "no admitted avoidance point is reachable as a stage sum",
            points=[
                {"value": format_rational(p.value), "stage": p.stage}
                for p in cert.points
            ],
            deferrals=len(cert.deferrals),
        )
    )
    return tuple(assertions)


def _suite_steinhaus(
    spec: FamilySpec, max_stage: int, budget: int
) -> tuple[Assertion, ...]:
    brackets = [
        difference_bracket(family_stage(spec, n, budget=budget))
        for n in range(max_stage + 1)
    ]
    rows = zone_measure_rows(brackets)
    assertions = [
        _check(
            all(a.middle >= b.middle for a, b in zip(rows, rows[1:])),
            "steinhaus-middle-monotone",
            "the middle-band missing measure never increases",
            rows=[exact_to_obj(asdict(r)) for r in rows],
        ),
        # Holds by construction, like cspm-outer-floor.
        _check(
            all(r.outer_total > Fraction(3, 2) for r in rows),
            "steinhaus-outer-floor",
            "every stage's outer bracket keeps measure above 3/2",
        ),
    ]
    final = rows[-1]
    # Binary families (2^n components) must empty the middle band;
    # composite families are held to an empirical threshold.
    if spec.binary:
        assertions.append(
            _check(
                final.middle == 0,
                f"steinhaus-middle-zero-{final.n}",
                "the middle band retains point parts only",
                middle=format_rational(final.middle),
            )
        )
    else:
        # Empirical threshold for composite families: flagged, not failed.
        below = final.middle < Fraction(1, 100)
        assertions.append(
            Assertion(
                f"steinhaus-middle-small-{final.n}",
                "middle-band missing measure falls below 1/100 "
                "(empirical threshold, flagged when missed)",
                "pass" if below else "flag",
                {"middle": format_rational(final.middle)},
            )
        )
    return tuple(assertions)


SUITES: dict[str, Callable[[FamilySpec, int, int], tuple[Assertion, ...]]] = {
    "ccp": _suite_ccp,
    "t13": _suite_t13,
    "ts3": _suite_ts3,
    "tab": _suite_tab,
    "tamc": _suite_tamc,
    "cspm": _suite_cspm,
    "steinhaus": _suite_steinhaus,
}


def run_suite(
    suite: str,
    spec: FamilySpec,
    max_stage: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> SuiteReport:
    if suite not in SUITES:
        raise InvalidSpecError(
            f"unknown suite {suite!r}; choose from {sorted(SUITES)}"
        )
    assertions = SUITES[suite](spec, max_stage, budget)
    return SuiteReport(suite, spec_to_obj(spec), max_stage, assertions)
