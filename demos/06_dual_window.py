#!/usr/bin/env python3
"""How often the dual distance sits on an end of the paper's window.

For a non-degenerate offset h the paper bounds the dual distance by
q - 2h - 1 <= d_dual <= q + 1 - m, with m = max(gcd(2h, q+1), gcd(2h+2, q+1)).
This script measures d_dual by root counting for every non-degenerate offset
of every q up to --max-q and counts the offsets where it equals the lower end
and those where it equals the upper end.

    python3 demos/06_dual_window.py --max-q 64
"""

import argparse
import time

from bchlab import build_bch, build_field
from bchlab.distance import dual_min_distance
from bchlab.harness import prime_powers_upto
from bchlab.theory import dual_distance_bounds

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--max-q", type=int, default=64)
args = parser.parse_args()

start = time.perf_counter()
totals = [0, 0, 0]
print(f"{'q':>5} {'offsets':>8} {'at lower':>9} {'at upper':>9}")
for q, p, s in prime_powers_upto(args.max_q):
    ctx = build_field(p, s)
    counts = [0, 0, 0]  # non-degenerate offsets, at the lower end, at the upper end
    for h in range(q + 1):
        bounds = dual_distance_bounds(q, h)
        if bounds is None:
            continue
        d_dual = dual_min_distance(build_bch(ctx, 3, h)).value
        if not bounds[0] <= d_dual <= bounds[1]:
            raise AssertionError(f"q={q} h={h}: d_dual={d_dual} outside {bounds}")
        counts[0] += 1
        counts[1] += d_dual == bounds[0]
        counts[2] += d_dual == bounds[1]
    build_field.cache_clear()  # one field at a time
    print(f"{q:>5} {counts[0]:>8} {counts[1]:>9} {counts[2]:>9}")
    totals = [t + c for t, c in zip(totals, counts)]
print(f"{'all':>5} {totals[0]:>8} {totals[1]:>9} {totals[2]:>9}")
print(f"{time.perf_counter() - start:.1f} s")
