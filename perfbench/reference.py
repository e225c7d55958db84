"""A fixed piece of interpreter work that shows how fast the host runs
Python right now.

On a shared host the same command can take twice as long from one
minute to the next.  run.py times this loop after every command and
scales the run's wall times by the loop's slowdown (see run.py).  The
loop does the kernel's kind of work (integer-tuple set products, a sort
and a merge sweep, Fraction sums, a JSON dump) with the standard library
only, so no change to cantordiff changes it.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

# What reference() takes on a 2-vCPU Xeon VM when the host is quiet; the
# scaled times are wall seconds at that speed.
REF_S = 0.06


def reference(n: int = 160) -> int:
    a = [(i * 7919 % 100_003, i & 1, i * 7919 % 100_003 + 17, i & 2) for i in range(n)]
    b = [(i * 104_729 % 99_991, i & 1, i * 104_729 % 99_991 + 5, i & 2) for i in range(n)]
    products = {(al + bl, asl | bsl, ah + bh, ash | bsh)
                for al, asl, ah, ash in a for bl, bsl, bh, bsh in b}
    merged: list[list[int]] = []
    for lo, _, hi, _ in sorted(products):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    head = merged[:2000]
    total = sum((Fraction(hi - lo, 3 ** 11) for lo, hi in head), Fraction(0))
    text = json.dumps([[str(Fraction(lo, 3 ** 11)), hi] for lo, hi in head])
    return len(text) + total.numerator % 7


def time_reference() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start
