"""Reference root-count scan: per-digit polynomial evaluation on U_{q+1}.

An independent, direct implementation of
``bchlab.distance._root_count_scan``: for every representative (a, b) it
evaluates b*u^(2h+2) + a*u^(2h+1) + a^q*u + b^q at every u in U_{q+1} by
summing the base-p digits of the four terms, and counts the zeros.  It is the
oracle for the trace-kernel histogram, and costs O(q^3 * s), so it is meant
for differential tests at small q only.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from bchlab import bch


def root_count_scan(code: bch.BchCode, chunk: int | None = None):
    """Minimum positive weight over one (a, b) per symmetry class.

    Classes: (a, b) ~ (lam*a, lam*b) for lam in GF(q)^* and
    (a, b) ~ (a*beta^h, b*beta^(h+1)); both preserve the weight of the trace
    word.  Representatives are enumerated by exponent transversals, so a
    weight is computed for (q+1)(q-1) + O(q) pairs instead of q^4.
    """
    ctx = code.ctx
    q, h = ctx.q, code.h
    m_ord = ctx.order
    p = ctx.p
    dig = ctx.digits
    # a row of zero digits for absent terms
    dig_ext = np.vstack([dig, np.zeros((1, dig.shape[1]), dtype=dig.dtype)])
    zero_slot = dig.shape[0]
    exp = ctx.exp
    j = np.arange(q + 1, dtype=np.int64)
    c22 = ((2 * h + 2) * (q - 1)) % m_ord
    c21 = ((2 * h + 1) * (q - 1)) % m_ord
    c1 = (q - 1) % m_ord
    if chunk is None:
        # keep each (chunk, q+1, 2s) digit block around a few million entries
        chunk = max(128, 4_000_000 // ((q + 1) * dig.shape[1]))

    best_w = q + 2
    best_ab: tuple[int, int] | None = None

    def consider(weights: np.ndarray, la: np.ndarray | None, lb: np.ndarray | None):
        nonlocal best_w, best_ab
        pos = weights > 0
        if not pos.any():
            return
        masked = np.where(pos, weights, q + 2)
        wmin = int(masked.min())
        if wmin < best_w:
            idx = int(np.argmin(masked))
            a = int(exp[la[idx] % m_ord]) if la is not None else 0
            b = int(exp[lb[idx] % m_ord]) if lb is not None else 0
            best_w = wmin
            best_ab = (a, b)

    def weights_for(la: np.ndarray | None, lb: np.ndarray | None) -> np.ndarray:
        # root count of b*u^(2h+2) + a*u^(2h+1) + a^q*u + b^q over U_{q+1}
        rows = len(la) if la is not None else len(lb)
        t1 = (
            exp[(lb[:, None] + c22 * j[None, :]) % m_ord]
            if lb is not None
            else np.full((rows, q + 1), zero_slot, dtype=np.int64)
        )
        t2 = (
            exp[(la[:, None] + c21 * j[None, :]) % m_ord]
            if la is not None
            else np.full((rows, q + 1), zero_slot, dtype=np.int64)
        )
        t3 = (
            exp[((la[:, None] * q) % m_ord + c1 * j[None, :]) % m_ord]
            if la is not None
            else np.full((rows, q + 1), zero_slot, dtype=np.int64)
        )
        t4 = (
            np.broadcast_to(exp[(lb * q) % m_ord][:, None], (rows, q + 1))
            if lb is not None
            else np.full((rows, q + 1), zero_slot, dtype=np.int64)
        )
        total = (
            dig_ext[t1].astype(np.int32)
            + dig_ext[t2]
            + dig_ext[t3]
            + dig_ext[t4]
        ) % p
        roots = (total == 0).all(axis=2).sum(axis=1)
        return (q + 1) - roots

    def scan(la_all: np.ndarray | None, lb_all: np.ndarray | None):
        rows = len(la_all) if la_all is not None else len(lb_all)
        for lo in range(0, rows, chunk):
            hi = min(lo + chunk, rows)
            la = la_all[lo:hi] if la_all is not None else None
            lb = lb_all[lo:hi] if lb_all is not None else None
            consider(weights_for(la, lb), la, lb)

    # a = 0, b != 0: orbits of log b under +(q+1) and +(q-1)(h+1)
    g_b = gcd(gcd(q + 1, (q - 1) * (h + 1)), m_ord)
    scan(None, np.arange(g_b, dtype=np.int64))
    # b = 0, a != 0
    g_a = gcd(gcd(q + 1, (q - 1) * h), m_ord)
    scan(np.arange(g_a, dtype=np.int64), None)
    # both nonzero: transversal (log a mod q+1, (log b - log a) mod q-1)
    i0 = np.repeat(np.arange(q + 1, dtype=np.int64), q - 1)
    v0 = np.tile(np.arange(q - 1, dtype=np.int64), q + 1)
    scan(i0, (i0 + v0) % m_ord)

    return best_w, best_ab
