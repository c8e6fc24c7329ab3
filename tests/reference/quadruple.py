"""Reference quadruple search: one scalar ratio per (x, z, w) with a dict.

An independent, direct implementation of
``bchlab.theory.find_ratio_quadruple``: for every pair (z, w) it computes
E(x,z)/E(x,w) through ``theory.divided_difference`` for each x in U_{q+1} and
stops at the first repeated ratio.  It is the oracle for the Zech-log
collision kernel, and costs O(q^3) scalar field operations, so it is meant
for differential tests at small q only.
"""

from __future__ import annotations

from math import gcd

from bchlab.field import FieldContext
from bchlab.theory import divided_difference


def find_ratio_quadruple(ctx: FieldContext, h: int):
    """Search U_{q+1} for four distinct x, y, z, w with equal ratios.

    Collision method: for each pair (z, w) hash x -> E(x,z)/E(x,w) and stop
    at the first repeated value.  Iteration is by ascending exponent, so the
    returned quadruple is deterministic.  Returns None when no quadruple
    exists (q even, distance 5) or when U_{q+1} has fewer than 4 elements.
    """
    q = ctx.q
    circle = ctx.unit_circle()
    if len(circle) < 4:
        return None
    if gcd(2 * h + 1, q + 1) != 1:
        raise ValueError("quadruple search requires gcd(2h+1, q+1) = 1")
    for zi in range(len(circle)):
        z = circle[zi]
        for wi in range(zi + 1, len(circle)):
            w = circle[wi]
            seen: dict[int, int] = {}
            for xi in range(len(circle)):
                if xi == zi or xi == wi:
                    continue
                x = circle[xi]
                ratio = ctx.div(
                    divided_difference(ctx, x, z, h),
                    divided_difference(ctx, x, w, h),
                )
                if ratio in seen:
                    return (seen[ratio], x, z, w)
                seen[ratio] = x
    return None
