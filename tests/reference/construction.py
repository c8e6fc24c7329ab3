"""Reference code construction: scalar loops over single field elements.

An independent, direct implementation of the array construction in
``bchlab.bch``: the parity rows entry by entry, the {1, alpha} split of each
entry, the trace words of the dual code, and the generator polynomial as an
lcm of minimal polynomials, each the product of x - omega^i over a
cyclotomic coset rather than the closed form of ``bchlab.polynomial``.
Addition and negation are digit loops, so no Zech logarithm enters;
products, quotients and powers come from the exp/log tables.  It is the
oracle for differential tests at small q.

``in_dual`` is the dual-membership check that ``distance.verify_witness``
made before it correlated the word with g: the word against every row of the
full generator matrix.
"""

from __future__ import annotations

import numpy as np

from bchlab import bch, cosets, gflin
from bchlab.field import FieldContext
from bchlab.polynomial import TAG_Q, TAG_Q2, Poly, poly_lcm


def add(ctx: FieldContext, a: int, b: int) -> int:
    """Digit-wise sum of two element indices, mod p."""
    p = ctx.p
    acc = 0
    pp = 1
    while a or b:
        acc += ((a + b) % p) * pp
        a //= p
        b //= p
        pp *= p
    return acc


def neg(ctx: FieldContext, a: int) -> int:
    p = ctx.p
    acc = 0
    pp = 1
    while a:
        acc += (-(a % p) % p) * pp
        a //= p
        pp *= p
    return acc


def sub(ctx: FieldContext, a: int, b: int) -> int:
    return add(ctx, a, neg(ctx, b))


def trace(ctx: FieldContext, a: int) -> int:
    return add(ctx, a, ctx.pow(a, ctx.q))


def minimal_polynomial(ctx: FieldContext, e: int, n: int) -> Poly:
    """Product of x - omega^i over the q-cyclotomic coset of e mod n, with
    omega a primitive n-th root of unity, n | q^2 - 1.

    Expanded in GF(q^2)[x]; re-tagging it to GF(q) checks that every
    coefficient lies in the subfield.
    """
    omega = ctx.exp_at((ctx.q2 - 1) // n)
    acc = Poly.one(ctx, TAG_Q2)
    for i in cosets.coset_of(e % n, n, ctx.q).members:
        acc = acc * Poly.make(ctx, TAG_Q2, [neg(ctx, ctx.pow(omega, i)), 1])
    return Poly.make(ctx, TAG_Q, acc.coeffs)


def generator(ctx: FieldContext, delta: int, h: int) -> Poly:
    """lcm of the minimal polynomials of beta^h, ..., beta^(h+delta-2)."""
    n = ctx.q + 1
    g = Poly.one(ctx, TAG_Q)
    for r in range(delta - 1):
        g = poly_lcm(g, minimal_polynomial(ctx, (h + r) % n, n))
    return g


def parity_rows(ctx: FieldContext, delta: int, h: int) -> np.ndarray:
    """(delta-1, n) matrix over GF(q^2): row r is [(beta^(h+r))^i]_i."""
    n = ctx.q + 1
    step = ctx.q - 1  # log of beta
    rows = np.zeros((delta - 1, n), dtype=np.int64)
    for r in range(delta - 1):
        e = (h + r) * step
        for i in range(n):
            rows[r, i] = ctx.exp_at(e * i)
    return rows


def label(ctx: FieldContext, x: int) -> int:
    """Compact label of x in GF(q): its position in ``sub_sorted``, found by
    binary search rather than through the context's label tables."""
    i = int(np.searchsorted(ctx.sub_sorted, x))
    if i == ctx.q or ctx.sub_sorted[i] != x:
        raise ValueError(f"{x} is outside the embedded GF(q)")
    return i


def split_on_basis(ctx: FieldContext, e: int) -> tuple[int, int]:
    """Coordinates (c0, c1) of e in the GF(q)-basis {1, alpha} of GF(q^2)."""
    denom = sub(ctx, ctx.alpha, ctx.pow(ctx.alpha, ctx.q))
    c1 = ctx.div(sub(ctx, e, ctx.pow(e, ctx.q)), denom)
    c0 = sub(ctx, e, ctx.mul(c1, ctx.alpha))
    return c0, c1


def expanded_parity_matrix(ctx: FieldContext, delta: int, h: int) -> np.ndarray:
    """(2(delta-1), n) compact labels: rows 2r and 2r+1 split parity row r."""
    rows = parity_rows(ctx, delta, h)
    out = np.zeros((2 * rows.shape[0], rows.shape[1]), dtype=np.int64)
    for r in range(rows.shape[0]):
        for i in range(rows.shape[1]):
            c0, c1 = split_on_basis(ctx, int(rows[r, i]))
            out[2 * r, i] = label(ctx, c0)
            out[2 * r + 1, i] = label(ctx, c1)
    return out


def dual_codeword(ctx: FieldContext, h: int, a: int, b: int) -> tuple[int, ...]:
    """(Tr(a*beta^(h*i) + b*beta^((h+1)*i)))_i as compact labels (delta = 3)."""
    step = ctx.q - 1
    word = []
    for i in range(ctx.q + 1):
        u_h = ctx.exp_at(h * step * i)
        u_h1 = ctx.exp_at((h + 1) * step * i)
        t = trace(ctx, add(ctx, ctx.mul(a, u_h), ctx.mul(b, u_h1)))
        word.append(label(ctx, t))
    return tuple(word)


def in_dual(code: bch.BchCode, word) -> bool:
    """Whether a compact-label word is orthogonal to every generator row."""
    gen = bch.generator_matrix(code)
    return not gflin.combine_rows(code.ctx, np.asarray(word, dtype=np.int64), gen.T).any()
