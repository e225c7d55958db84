"""Seeded workloads for the cantordiff CLI benchmark.

A workload is a list of slots, one command each per pass.  A slot holds
a menu of spec/stage entries of similar cost; the seed picks one entry
per slot and the cost-neutral knobs (which slots run diff-bounds and
which measure-scan, output format, plot data), so that every seed loads
the same layers with about the same amount of work.  Every command a
seed can draw was run with ``record.py``: it passes the output gate and
its output digest is stored in digests.json.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

WORKLOADS = ("brackets", "construct", "certify")


def central(ratio: str) -> dict:
    return {"family": "central", "ratios": {"rule": "constant", "value": ratio}}


def geometric(base: str) -> dict:
    return {"family": "central", "ratios": {"rule": "geometric", "base": base}}


def perturbed(c1: str) -> dict:
    return {"family": "perturbed", "c1": c1, "shrink": "1/2"}


def tab(a: str, b: str) -> dict:
    return {"family": "tab", "a": central(a), "b": central(b)}


def greedy(base: str) -> dict:
    return {"family": "greedy", "b": geometric(base)}


@dataclass(frozen=True)
class Entry:
    name: str
    spec: dict
    stage: int


@dataclass(frozen=True)
class Slot:
    """One command per pass.  ``argv`` is the subcommand (``None`` lets
    the seed alternate diff-bounds and measure-scan); ``brackets`` marks
    commands whose cost grows with gaps x endpoints, which are vetted."""

    argv: tuple[str, ...] | None
    entries: tuple[Entry, ...]
    brackets: bool
    formats: bool


# Why each workload exists (BENCHMARK.json repeats these):
# brackets  - nearly all time in analysis.inner/outer_difference through
#             IntervalUnion.minkowski_sum: central and perturbed stage 8
#             have the same pair count (130,560) but different grid
#             scales, tab 1/2,1/2 stage 6 is a composite on the dedup-set
#             path and tab 1/2,3/4 stage 7 (3.02M pairs) just passes
#             intervals._PRODUCT_DEDUP_LIMIT onto the chunked path;
# construct - stage builders, many small kernel calls, jsonio and file
#             writes, and no bracket at all;
# certify   - verify suites: shift-inclusion products, dominance
#             certificates, the greedy certificate and report assembly,
#             with the bracket-heavy suites kept shallow.
SLOTS: dict[str, tuple[Slot, ...]] = {
    "brackets": (
        Slot(None, (Entry("central-1_3", central("1/3"), 8),
                    Entry("central-2_5", central("2/5"), 8)), True, True),
        Slot(None, (Entry("perturbed-1_5", perturbed("1/5"), 8),
                    Entry("perturbed-1_7", perturbed("1/7"), 8)), True, True),
        Slot(None, (Entry("tab-1_2-1_2", tab("1/2", "1/2"), 6),), True, True),
        Slot(None, (Entry("tab-1_2-3_4", tab("1/2", "3/4"), 7),), True, True),
    ),
    "construct": (
        Slot(("construct",), (Entry("greedy-1_4", greedy("1/4"), 9),), False, False),
        Slot(("construct",), (Entry("tab-1_2-1_2", tab("1/2", "1/2"), 9),), False, False),
        Slot(("construct",), (Entry("central-1_3", central("1/3"), 12),
                               Entry("central-2_5", central("2/5"), 12)), False, False),
        Slot(("construct",), (Entry("perturbed-1_5", perturbed("1/5"), 11),
                               Entry("perturbed-1_7", perturbed("1/7"), 11)), False, False),
    ),
    "certify": (
        Slot(("verify", "tab"), (Entry("tab-1_2-1_2", tab("1/2", "1/2"), 8),), False, True),
        Slot(("verify", "cspm"), (Entry("greedy-1_4", greedy("1/4"), 8),), True, True),
        Slot(("verify", "t13"), (Entry("central-1_3", central("1/3"), 11),
                                 Entry("central-2_5", central("2/5"), 11)), False, True),
        Slot(("verify", "ts3"), (Entry("perturbed-1_5", perturbed("1/5"), 8),
                                 Entry("perturbed-1_7", perturbed("1/7"), 8)), True, True),
        Slot(("verify", "tamc"), (Entry("central-1_3", central("1/3"), 6),
                                  Entry("central-2_5", central("2/5"), 6)), False, True),
        Slot(("verify", "ccp"), (Entry("central-1_3", central("1/3"), 6),), True, True),
    ),
}

SHALLOW_STAGE = 3


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  ``key`` names it in the digest table."""

    key: str
    argv: tuple[str, ...]
    spec_name: str
    spec: dict
    stage: int
    brackets: bool

    def at_stage(self, stage: int) -> "Command":
        return _command(self.argv, self.spec_name, self.spec, stage, self.brackets)

    def spec_text(self) -> str:
        return json.dumps(self.spec, sort_keys=True) + "\n"


def _command(argv, spec_name, spec, stage, brackets) -> Command:
    key = "|".join((*argv, spec_name, str(stage)))
    return Command(key, tuple(argv), spec_name, spec, stage, brackets)


def _variants(slot: Slot, op: str | None) -> list[tuple[str, ...]]:
    argv = slot.argv if slot.argv is not None else (op,)
    if not slot.formats:
        return [argv]
    out = []
    for fmt in ("json", "csv"):
        out.append((*argv, "--format", fmt))
        if slot.argv is None:
            out.append((*argv, "--format", fmt, "--plot-data"))
    return out


def build_commands(workload: str, seed: int, *, shallow: bool = False) -> list[Command]:
    """The workload's command list for one seed, in slot order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = ["diff-bounds", "measure-scan"]
    rng.shuffle(ops)
    commands = []
    for index, slot in enumerate(SLOTS[workload]):
        entry = rng.choice(slot.entries)
        argv = rng.choice(_variants(slot, ops[index % 2]))
        stage = min(entry.stage, SHALLOW_STAGE) if shallow else entry.stage
        commands.append(_command(argv, entry.name, entry.spec, stage, slot.brackets))
    return commands


def all_commands(workload: str) -> list[Command]:
    """Every command any seed can draw, at full depth and at stage 0."""
    out = []
    for slot in SLOTS[workload]:
        ops = ("diff-bounds", "measure-scan") if slot.argv is None else (None,)
        for op in ops:
            for argv in _variants(slot, op):
                for entry in slot.entries:
                    cmd = _command(argv, entry.name, entry.spec, entry.stage, slot.brackets)
                    out.extend((cmd, cmd.at_stage(0)))
    return out
