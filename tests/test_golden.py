"""Byte-identity of CLI output files against recorded SHA-256 digests.

Each case runs ``cli.main`` in-process on one spec per family at small
stages and compares the exit code, the standard error text and the
SHA-256 digest of every file it wrote with ``golden_digests.json``.
Re-record the digests (only when an output change is intended) with:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import warnings
from pathlib import Path

import pytest

from cantordiff.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")

TERNARY = {"family": "central", "ratios": {"rule": "constant", "value": "1/3"}}
PERTURBED = {"family": "perturbed", "c1": "1/5", "shrink": "1/2"}
TAB = {
    "family": "tab",
    "a": {"family": "central", "ratios": "1/2"},
    "b": {"family": "central", "ratios": "1/2"},
}
LIST_CENTRAL = {
    "family": "central",
    "ratios": {"rule": "list", "values": ["1/2", "1/5"], "tail": "2/7"},
}
GEOMETRIC = {"family": "central", "ratios": {"rule": "geometric", "base": "1/3"}}
PERTURBED_INTERIOR = {
    "family": "perturbed",
    "c1": "1/5",
    "shrink": "2/5",
    "interior_gap_fraction": "1/3",
}
PERTURBED_REFUSED = {"family": "perturbed", "c1": "1/2"}
TAB_HALF_THREE_QUARTERS = {
    "family": "tab",
    "a": {"family": "central", "ratios": "1/2"},
    "b": {"family": "central", "ratios": "3/4"},
}
GREEDY = {
    "family": "greedy",
    "b": {"family": "central", "ratios": {"rule": "geometric", "base": "1/4"}},
}
# greedy with a perturbed B source and with a constant one
GREEDY_PERTURBED = {"family": "greedy", "b": PERTURBED}
GREEDY_TWO_THIRDS = {"family": "greedy", "b": {"family": "central", "ratios": "2/3"}}
GREEDY_TENTH = {"family": "greedy", "b": {"family": "central", "ratios": "1/10"}}

# name -> (spec, CLI arguments after the subcommand's --spec/--out)
CASES = {
    "construct-central": (TERNARY, ["construct", "--max-stage", "4"]),
    "construct-central-clamped": (
        TERNARY, ["construct", "--max-stage", "6", "--budget", "16"]
    ),
    "construct-perturbed": (PERTURBED, ["construct", "--max-stage", "4"]),
    "construct-central-list": (LIST_CENTRAL, ["construct", "--max-stage", "4"]),
    "construct-central-geometric": (GEOMETRIC, ["construct", "--max-stage", "4"]),
    "construct-perturbed-interior": (
        PERTURBED_INTERIOR, ["construct", "--max-stage", "4"]
    ),
    "construct-perturbed-refused": (
        PERTURBED_REFUSED, ["construct", "--max-stage", "3"]
    ),
    "construct-tab": (TAB, ["construct", "--max-stage", "5"]),
    "construct-tab-1_2-3_4": (
        TAB_HALF_THREE_QUARTERS, ["construct", "--max-stage", "5"]
    ),
    "construct-greedy": (GREEDY, ["construct", "--max-stage", "5"]),
    "construct-greedy-perturbed": (
        GREEDY_PERTURBED, ["construct", "--max-stage", "6"]
    ),
    # steps 1-4 reuse the previous sum (their children cover every pair)
    # and steps 5-6 do not: the hand-over between the two sum paths
    "construct-greedy-1_10": (GREEDY_TENTH, ["construct", "--max-stage", "6"]),
    "construct-tab-over-budget": (
        TAB, ["construct", "--max-stage", "4", "--budget", "8"]
    ),
    "bounds-central": (TERNARY, ["diff-bounds", "--max-stage", "4", "--plot-data"]),
    "bounds-perturbed": (
        PERTURBED, ["diff-bounds", "--max-stage", "4", "--format", "csv"]
    ),
    "bounds-tab": (TAB, ["diff-bounds", "--max-stage", "4"]),
    "bounds-greedy": (
        GREEDY, ["diff-bounds", "--max-stage", "3", "--format", "csv", "--plot-data"]
    ),
    "scan-central": (TERNARY, ["measure-scan", "--max-stage", "4", "--format", "csv"]),
    "scan-perturbed": (PERTURBED, ["measure-scan", "--max-stage", "4"]),
    "scan-tab": (TAB, ["measure-scan", "--max-stage", "3", "--plot-data"]),
    "scan-greedy": (GREEDY, ["measure-scan", "--max-stage", "3", "--format", "csv"]),
    "verify-ccp": (TERNARY, ["verify", "ccp", "--max-stage", "4", "--format", "csv"]),
    "verify-t13": (TERNARY, ["verify", "t13", "--max-stage", "4"]),
    "verify-tamc": (TERNARY, ["verify", "tamc", "--max-stage", "6"]),
    "verify-ts3": (PERTURBED, ["verify", "ts3", "--max-stage", "5"]),
    "verify-tab": (TAB, ["verify", "tab", "--max-stage", "5"]),
    "verify-tab-greedy": (GREEDY, ["verify", "tab", "--max-stage", "3"]),
    "verify-tab-greedy-2_3": (
        GREEDY_TWO_THIRDS, ["verify", "tab", "--max-stage", "6"]
    ),
    "verify-cspm": (GREEDY, ["verify", "cspm", "--max-stage", "5"]),
    # stages 7 and 8 defer the candidates 1/4 and 3/4
    "verify-cspm-deferrals": (GREEDY, ["verify", "cspm", "--max-stage", "8"]),
    "verify-steinhaus-central": (TERNARY, ["verify", "steinhaus", "--max-stage", "4"]),
    "verify-steinhaus-tab": (TAB, ["verify", "steinhaus", "--max-stage", "3"]),
}


def run_case(name: str, root: Path) -> dict:
    spec, args = CASES[name]
    spec_path = root / f"{name}.json"
    spec_path.write_text(json.dumps(spec))
    out = root / name
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("ignore")
        code = main([*args, "--spec", str(spec_path), "--out", str(out)])
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    return {
        "exit": code,
        "stderr": stderr.getvalue(),
        "files": {
            p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files
        },
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_recorded_digests(name, tmp_path):
    expected = json.loads(DIGESTS.read_text())[name]
    assert run_case(name, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: run_case(name, Path(tmp)) for name in sorted(CASES)}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} cases to {DIGESTS}", file=sys.stderr)
