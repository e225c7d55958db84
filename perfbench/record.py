#!/usr/bin/env python3
"""Regenerate digests.json: run every command any seed can draw, at full
depth and at stage 0, through the output gate, and store each output
digest.  Prints each command's wall time and peak RSS, so that the cost
of the entries in one menu slot can be compared.

    python3 perfbench/record.py

Run it only when an output change is intended; the benchmark counts any
other change of an output byte as a failure.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import DIGESTS, WORK, Bench, SetupError
from workloads import WORKLOADS, all_commands


def main() -> int:
    try:
        bench = Bench(WORK / "record", check_digests=False, limit_s=3600)
        groups = {name: all_commands(name) for name in WORKLOADS}
        bench.prepare(groups)
    except SetupError as exc:
        print(f"record: {exc}", file=sys.stderr)
        return 2
    for bench.current, commands in groups.items():
        for cmd in commands:
            sample = bench.run(cmd)
            if sample is not None:
                print(f"{sample.wall_s:8.3f} s {sample.rss_mb:7.1f} MB  {cmd.key}",
                      flush=True)
    shutil.rmtree(bench.work / "out", ignore_errors=True)
    for problem in bench.problems:
        print(f"failure: {problem}")
    if bench.failed:
        return 1
    DIGESTS.write_text(json.dumps(dict(sorted(bench.seen.items())), indent=1) + "\n")
    print(f"wrote {len(bench.seen)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
