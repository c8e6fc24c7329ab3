"""Closed-form predictions for the length-(q+1), designed-distance-3 codes.

Everything here is arithmetic in (q, h) or small field identities; the
distance engines in :mod:`bchlab.distance` supply the ground truth these
predictions are checked against.

Key facts implemented:

* dimension case table (and its dual complement) from the cyclotomic-coset
  structure of Z_{q+1};
* minimum distance is 3 exactly when gcd(2h+1, q+1) > 1; otherwise it is
  4 or 5, and for q odd always 4;
* for gcd(2h+1, q+1) = 1 the distance is 4 exactly when four pairwise
  distinct x, y, z, w in U_{q+1} satisfy
  E(x,z)/E(x,w) = E(y,z)/E(y,w) with E the divided difference of t^(2h+1)
  (searched by sorting the ratios of the pairs (1, w) only, since a rotation
  of U_{q+1} moves any quadruple onto such a pair, and of one w per orbit
  of w -> p*w, since Frobenius and inversion move it between those pairs;
  every log is a gather from the (q+1) table log(beta^k - 1) of
  ``FieldContext.unit_zech``);
* the dual distance lies in [q-2h-1, q+1-m] for non-degenerate h, where m is
  the larger of gcd(2h, q+1) and gcd(2h+2, q+1);
* Singleton-like and Cadambe-Mazumdar (t = 1, Singleton estimate) bounds for
  locally repairable codes, with locality d_dual - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, gcd

import numpy as np

from . import cosets
from .field import FieldContext

# ratio cells (pairs x points of U_{q+1}) per quadruple-search block: a few MB
_QUADRUPLE_CELLS = 1 << 18

# -- dimension table ---------------------------------------------------------


def degenerate_offsets(q: int) -> set[int]:
    """Offsets where the two parity cosets collide or shrink."""
    out = {0, q}
    if q % 2 == 0:
        out.add(q // 2)
    else:
        out.add((q - 1) // 2)
        out.add((q + 1) // 2)
    return out


def predict_dimension(q: int, h: int) -> int:
    """Case-table dimension of the code with offset h."""
    if not 0 <= h <= q:
        raise ValueError(f"h={h} out of range [0, {q}]")
    # g has 4 roots, 3 at a degenerate offset, 2 at h = q/2, where its cosets coincide
    return q - 3 + (h in degenerate_offsets(q)) + (2 * h == q)


def predict_dual_dimension(q: int, h: int) -> int:
    return (q + 1) - predict_dimension(q, h)


# -- distance criteria -------------------------------------------------------


def d3_criterion(q: int, h: int) -> bool:
    """True exactly when the minimum distance is 3."""
    return gcd(2 * h + 1, q + 1) > 1


def minor_det(ctx: FieldContext, x: int, y: int, h: int) -> int:
    """det [[x^h, y^h], [x^(h+1), y^(h+1)]] = x^h * y^h * (y - x)."""
    return ctx.sub(
        ctx.mul(ctx.pow(x, h), ctx.pow(y, h + 1)),
        ctx.mul(ctx.pow(y, h), ctx.pow(x, h + 1)),
    )


def divided_difference(ctx: FieldContext, x: int, y: int, h: int) -> int:
    """(x^(2h+1) - y^(2h+1)) / (x - y) for x != y."""
    if x == y:
        raise ValueError("divided difference needs x != y")
    num = ctx.sub(ctx.pow(x, 2 * h + 1), ctx.pow(y, 2 * h + 1))
    return ctx.div(num, ctx.sub(x, y))


def ratio_equation_holds(
    ctx: FieldContext, h: int, x: int, y: int, z: int, w: int
) -> bool:
    """E(x,z)/E(x,w) == E(y,z)/E(y,w) for the divided difference E."""
    lhs = ctx.mul(divided_difference(ctx, x, z, h), divided_difference(ctx, y, w, h))
    rhs = ctx.mul(divided_difference(ctx, y, z, h), divided_difference(ctx, x, w, h))
    return lhs == rhs


def find_ratio_quadruple(ctx: FieldContext, h: int):
    """Search U_{q+1} for four distinct x, y, z, w with equal ratios.

    Collision method: for each pair (z, w) the ratios x -> E(x,z)/E(x,w) are
    compared and the search stops at the first repeated value.  Points are
    taken by ascending exponent (pairs in lex order, then the smallest x
    whose ratio an earlier y already took), so the returned (y, x, z, w) is
    deterministic.  Returns None when no quadruple exists (q even, distance
    5) or when U_{q+1} has fewer than 4 elements.

    Only the pairs with z = beta^0 = 1 are scanned, and that loses nothing:
    E is homogeneous of degree 2h, so E(tx, tz) = t^(2h) E(x, z) and the
    rotation of all four points by t = z^(-1) in U_{q+1} keeps the ratio
    equation and moves z to 1; those pairs come first in lex order, so the
    first hit is the one a scan of every pair would return.

    Of those pairs, only the row w that is the smallest of its orbit under
    w -> p*w mod q + 1 is scanned, and that loses nothing either.  Row w is
    the pair (1, beta^w).  The Frobenius map t -> t^p is a field
    automorphism that keeps U_{q+1} and 1, and E(x^p, z^p) = E(x, z)^p, so
    it maps a quadruple on row w to one on row p*w.  Inversion t -> t^(-1)
    also keeps U_{q+1} and 1, and E(1/x, 1/z) = E(x, z) (xz)^(1-e) with
    e = 2h + 1, so it multiplies both sides of the ratio equation by
    (z/w)^(1-e) and maps a quadruple on row w to one on row -w.  The orbit
    of w already holds -w, since p^s = q = -1 mod q + 1.  The rows with a
    hit therefore form a union of orbits, the first of them is the smallest
    of its orbit, and the scan of orbit minima stops on the same row, with
    the same (y, x) on it, as a scan of every row.  A search with no hit
    clears one row per orbit, about (q + 1)/(2s) rows, instead of q.

    Everything runs on discrete logs gathered from Z_U = ``ctx.unit_zech``
    (indices mod q + 1): with e = 2h + 1,
        log E(beta^x, beta^z) = (q-1)(e-1)z + Z_U[e(x-z)] - Z_U[x-z],
    so the ratios of the pair (1, beta^w), row z = 0 minus row z = w mod
    q^2 - 1, are four gathers.  Those rows are built in blocks of w that
    start at one row and double up to ``_QUADRUPLE_CELLS`` cells, so an early
    hit stays cheap; each ratio is packed with its x into one integer key, so
    one sort per row puts equal ratios next to each other in ascending x.
    """
    q, order = ctx.q, ctx.order
    n = q + 1
    if n < 4:
        return None
    if gcd(2 * h + 1, q + 1) != 1:
        raise ValueError("quadruple search requires gcd(2h+1, q+1) = 1")
    zu, e = ctx.unit_zech, 2 * h + 1
    xs = np.arange(n, dtype=np.int64)
    # t -> t^e permutes U_{q+1}, so no difference with x != z is zero
    base = zu[e * xs % n] - zu[xs]
    # the rows w >= 1 that are the smallest of their orbit under w -> p*w
    reps = cosets.coset_leaders(n, ctx.p)[1:]
    bits = n.bit_length()
    mask = (1 << bits) - 1
    max_rows = max(1, _QUADRUPLE_CELLS // n)
    lo, rows = 0, 1
    while lo < len(reps):
        ws = reps[lo : lo + rows]
        d = (xs - ws[:, None]) % n
        ratio = (base - zu[e * d % n] + zu[d] - (q - 1) * (e - 1) * ws[:, None]) % order
        ratio[:, 0] = -1  # x = z and x = w take no part
        ratio[np.arange(len(ws)), ws] = -2
        keys = np.sort((ratio << bits) | xs, axis=1)
        same = (keys[:, 1:] >> bits) == (keys[:, :-1] >> bits)
        cand = np.where(same, keys[:, 1:] & mask, n)
        hit = np.nonzero(cand.min(axis=1) < n)[0]
        if hit.size:
            r = int(hit[0])
            pos = int(np.argmin(cand[r]))
            yi, xi = (int(keys[r, i]) & mask for i in (pos, pos + 1))
            return _checked_quadruple(ctx, h, (yi, xi, 0, int(ws[r])))
        lo += rows
        rows = min(2 * rows, max_rows)
    return None


def _checked_quadruple(ctx: FieldContext, h: int, exponents: tuple) -> tuple:
    """(beta^y, beta^x, beta^z, beta^w), re-validated with scalar arithmetic."""
    quad = tuple(ctx.exp_at((ctx.q - 1) * j) for j in exponents)
    if len(set(quad)) != 4 or not ratio_equation_holds(ctx, h, *quad):
        raise AssertionError(f"quadruple search returned an invalid quadruple {quad}")
    return quad


def odd_q_quadruple(ctx: FieldContext, h: int):
    """The closed-form quadruple (x, x^(-1), 1, -1) available for odd q."""
    if ctx.q % 2 == 0:
        raise ValueError("construction requires q odd")
    one = 1
    minus_one = ctx.neg(1)
    for x in ctx.unit_circle():
        if x not in (one, minus_one):
            return (x, ctx.inv(x), one, minus_one)
    return None


@dataclass(frozen=True)
class MinDistancePrediction:
    outcome: str  # "3" | "4" | "4or5"
    resolved: int | None
    quadruple: tuple | None


def predict_min_distance(
    ctx: FieldContext, h: int, resolve: bool = False
) -> MinDistancePrediction:
    """Predicted minimum distance for the designed-distance-3 code.

    ``resolve`` runs the quadruple search for the q-even "4 or 5" case; the
    outcome stays "4or5" with a resolved value attached, because only the
    search (not a closed form) separates the two.
    """
    q = ctx.q
    if d3_criterion(q, h):
        return MinDistancePrediction("3", 3, None)
    if q % 2 == 1:
        return MinDistancePrediction("4", 4, None)
    if not resolve:
        return MinDistancePrediction("4or5", None, None)
    quad = find_ratio_quadruple(ctx, h)
    return MinDistancePrediction("4or5", 4 if quad else 5, quad)


def dual_distance_bounds(q: int, h: int) -> tuple[int, int] | None:
    """[q-2h-1, q+1-m] for non-degenerate h; None where the offset is
    degenerate and the dual dimension drops below 4."""
    if h in degenerate_offsets(q):
        return None
    m = max(gcd(2 * h, q + 1), gcd(2 * h + 2, q + 1))
    return (q - 2 * h - 1, q + 1 - m)


# -- classification and LRC bounds -------------------------------------------


def classify(n: int, k: int, d: int, k_dual: int, d_dual: int) -> str:
    """MDS / AMDS / NMDS / other from exact parameters."""
    if d == n - k + 1:
        return "MDS"
    if d == n - k:
        if d_dual == n - k_dual:
            return "NMDS"
        return "AMDS"
    return "other"


def locality(d_dual: int) -> int:
    """Locality of a nontrivial cyclic code: one less than its dual distance."""
    if d_dual < 2:
        raise ValueError("locality needs a nontrivial dual (d_dual >= 2)")
    return d_dual - 1


def singleton_like_max_d(n: int, k: int, r: int) -> int:
    """Largest distance allowed for an (n, k, d; r) locally repairable code."""
    if r < 1:
        raise ValueError("locality r must be >= 1")
    return n - k - ceil(k / r) + 2


def cm_rhs_t1(n: int, d: int, r: int) -> int:
    """t = 1 Cadambe-Mazumdar value with the Singleton dimension estimate:
    r + k_opt(n - (r+1), d) <= r + (n - (r+1) - d + 1)."""
    return r + (n - (r + 1) - d + 1)


def cm_k_optimal(n: int, k: int, d: int, r: int, q: int) -> bool:
    """Dimension optimality via the t = 1 bound; the Singleton estimate makes
    the check alphabet-free (q kept for signature symmetry)."""
    del q
    return k >= cm_rhs_t1(n, d, r)


@dataclass(frozen=True)
class LrcAudit:
    r: int
    singleton_like_rhs: int
    cm_rhs_t1: int
    d_optimal: bool
    k_optimal: bool


def lrc_audit(n: int, k: int, d: int, d_dual: int, q: int) -> LrcAudit:
    """Distance/dimension optimality audit with locality r = d_dual - 1."""
    r = locality(d_dual)
    rhs = singleton_like_max_d(n, k, r)
    cm = cm_rhs_t1(n, d, r)
    return LrcAudit(
        r=r,
        singleton_like_rhs=rhs,
        cm_rhs_t1=cm,
        d_optimal=(d == rhs),
        k_optimal=(k >= cm),
    )


__all__ = [
    "degenerate_offsets",
    "predict_dimension",
    "predict_dual_dimension",
    "d3_criterion",
    "minor_det",
    "divided_difference",
    "ratio_equation_holds",
    "find_ratio_quadruple",
    "odd_q_quadruple",
    "MinDistancePrediction",
    "predict_min_distance",
    "dual_distance_bounds",
    "classify",
    "locality",
    "singleton_like_max_d",
    "cm_rhs_t1",
    "cm_k_optimal",
    "LrcAudit",
    "lrc_audit",
]
