"""Construction of the BCH codes of length n = q+1 over GF(q).

A code is generated by g = lcm of the minimal polynomials of beta^h, ...,
beta^(h+delta-2), beta a primitive (q+1)-th root of unity in GF(q^2).  A
codeword c(x) lies in the code exactly when it vanishes at those beta powers,
so the rows [(beta^(h+r))^i]_{i=0..q} over GF(q^2) act as a parity check; the
same rows rewritten in the basis {1, alpha} give a 2(delta-1)-row parity
matrix over GF(q) whose right kernel is the code.

The dual code admits a second, independent description: the words
(Tr(a*beta^(h*i) + b*beta^((h+1)*i)))_i for (a, b) in GF(q^2)^2 (delta = 3).
Both views are exposed so they can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cosets, gflin
from .field import FieldContext
from .polynomial import TAG_Q, Poly, minimal_polynomial


@dataclass(frozen=True, eq=False)
class BchCode:
    """Code of length q+1 over GF(q) with designed distance delta, offset h."""

    ctx: FieldContext
    n: int
    delta: int
    h: int
    g: Poly
    k: int

    @property
    def q(self) -> int:
        return self.ctx.q

    def __repr__(self) -> str:
        return (
            f"BchCode(q={self.q}, n={self.n}, delta={self.delta}, "
            f"h={self.h}, k={self.k})"
        )


def build_bch(ctx: FieldContext, delta: int = 3, h: int = 0) -> BchCode:
    """Construct the code from its generator polynomial.

    g is the product of the distinct minimal polynomials of beta^h, ...,
    beta^(h+delta-2), one per cyclotomic coset; distinct minimal polynomials
    are distinct monic irreducibles, so the product is their lcm.
    Requires 0 <= h <= q and 2 <= delta <= n.

    g is then checked against its defining set D, the union of those cosets:
    monic, of degree |D| and zero at every beta^e, e in D, it equals the
    product of (x - beta^e) over D and so divides x^n - 1.  The check
    evaluates g through Zech logarithms, which the digit-loop arithmetic of
    the product never uses.
    """
    n = ctx.q + 1
    if not 0 <= h <= ctx.q:
        raise ValueError(f"h={h} out of range [0, {ctx.q}]")
    if not 2 <= delta <= n:
        raise ValueError(f"delta={delta} out of range [2, {n}]")
    members = {}
    for r in range(delta - 1):
        coset = cosets.coset_of((h + r) % n, n, ctx.q)
        members[coset.leader] = coset.members
    g = Poly.one(ctx, TAG_Q)
    for e in members:
        g = g * minimal_polynomial(ctx, e, n)
    root_logs = (ctx.q - 1) * np.array([e for m in members.values() for e in m], dtype=np.int64)
    vanishes = not (_eval_logs(ctx, g, root_logs) >= 0).any()
    if g.leading != 1 or g.degree != len(root_logs) or not vanishes:
        raise AssertionError("generator is not the product of x - beta^e over its defining set")
    return BchCode(ctx=ctx, n=n, delta=delta, h=h, g=g, k=n - g.degree)


def _times(ctx: FieldContext, logs, shift, power: int = 1) -> np.ndarray:
    """Logs of (alpha^logs)^power * alpha^shift; -1 (zero) stays -1."""
    logs = np.asarray(logs, dtype=np.int64)
    return np.where(logs < 0, -1, (power * logs + shift) % ctx.order)


def _eval_logs(ctx: FieldContext, f: Poly, logs: np.ndarray) -> np.ndarray:
    """log f(alpha^logs) elementwise, -1 where it is zero: Horner over logs."""
    acc = np.full(len(logs), -1, dtype=np.int64)
    for c in reversed(f.coeffs):
        acc = ctx.log_add(_times(ctx, acc, logs), ctx.log[c])
    return acc


def _parity_logs(code: BchCode) -> np.ndarray:
    """(delta-1, n) logs of the parity rows: (h+r)(q-1)i mod q^2-1."""
    r = np.arange(code.delta - 1, dtype=np.int64)[:, None]
    i = np.arange(code.n, dtype=np.int64)
    return (code.h + r) * (code.ctx.q - 1) * i % code.ctx.order


def parity_rows(code: BchCode) -> np.ndarray:
    """(delta-1, n) matrix over GF(q^2): row r is [(beta^(h+r))^i]_i."""
    return code.ctx.exp[_parity_logs(code)]


def generator_matrix(code: BchCode) -> np.ndarray:
    """(k, n) compact-label matrix whose rows are x^i * g(x), i = 0..k-1."""
    ctx = code.ctx
    mat = np.zeros((code.k, code.n), dtype=np.int64)
    gc = ctx.to_compact(np.array(code.g.coeffs, dtype=np.int64))
    for i in range(code.k):
        mat[i, i : i + len(gc)] = gc
    return mat


def expanded_parity_matrix(code: BchCode) -> np.ndarray:
    """(2(delta-1), n) compact-label parity matrix over GF(q).

    Row 2r holds the {1}-coordinates and row 2r+1 the {alpha}-coordinates of
    parity row r.  Its right kernel over GF(q) is the code; the rank equals
    n - k (it drops below 2(delta-1) for the degenerate offsets).

    For e = c0 + c1*alpha with c0, c1 in GF(q), e^q = c0 + c1*alpha^q, so
    c1 = (e - e^q)/(alpha - alpha^q) and c0 = e - c1*alpha, all in logs.
    """
    ctx = code.ctx
    m = ctx.log_minus_one
    e = _parity_logs(code)
    diff = ctx.log_add(e, _times(ctx, e, m, ctx.q))  # e - e^q
    denom = ctx.log_add(1, _times(ctx, 1, m, ctx.q))  # alpha - alpha^q, nonzero
    c1 = _times(ctx, diff, -denom)
    c0 = ctx.log_add(e, _times(ctx, c1, 1 + m))
    out = np.empty((2 * len(e), code.n), dtype=np.int64)
    out[0::2] = ctx.sub_index[ctx.from_log(c0)]
    out[1::2] = ctx.sub_index[ctx.from_log(c1)]
    return out


def dual_basis(code: BchCode) -> np.ndarray:
    """(n-k, n) compact-label basis of the dual code.

    Computed as the kernel of the generator matrix by elimination, which keeps
    it independent of the trace representation below.
    """
    return gflin.kernel_basis(code.ctx, generator_matrix(code))


@dataclass(frozen=True)
class DualCodeword:
    """Trace word (Tr(a*beta^(h*i) + b*beta^((h+1)i)))_i as compact labels."""

    a: int
    b: int
    word: tuple[int, ...]

    def weight(self) -> int:
        return sum(1 for c in self.word if c)


def dual_codeword(code: BchCode, a: int, b: int) -> DualCodeword:
    """The dual codeword attached to (a, b) in GF(q^2)^2 (delta = 3 only).

    Entry i is Tr(X) = X + X^q with X = u^h (a + b*u) and u = beta^i,
    computed on logs for all i at once.
    """
    if code.delta != 3:
        raise ValueError("trace representation applies to delta = 3")
    ctx = code.ctx
    lu = (ctx.q - 1) * np.arange(code.n, dtype=np.int64)  # log u
    lx = _times(ctx, ctx.log_add(ctx.log[a], _times(ctx, ctx.log[b], lu)), code.h * lu)
    tr = ctx.log_add(lx, _times(ctx, lx, 0, ctx.q))
    word = ctx.sub_index[ctx.from_log(tr)]
    return DualCodeword(a=a, b=b, word=tuple(word.tolist()))


__all__ = [
    "BchCode",
    "DualCodeword",
    "build_bch",
    "parity_rows",
    "generator_matrix",
    "expanded_parity_matrix",
    "dual_basis",
    "dual_codeword",
]
