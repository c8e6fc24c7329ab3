"""Construction of the BCH codes of length n = q+1 over GF(q).

A code is generated by g = lcm of the minimal polynomials of beta^h, ...,
beta^(h+delta-2), beta a primitive (q+1)-th root of unity in GF(q^2).  A
codeword c(x) lies in the code exactly when it vanishes at those beta powers,
so the rows [(beta^(h+r))^i]_{i=0..q} over GF(q^2) act as a parity check; the
same rows rewritten in the basis {1, alpha} give a 2(delta-1)-row parity
matrix over GF(q) whose right kernel is the code.  Its entries depend only on
(h+r)*i mod q+1, so they are gathered from the field's ``unit_coords``.

g is built as compact labels over GF(q).  beta^e lies on U_(q+1), so its
norm is 1 and its minimal polynomial is x^2 - Tr(beta^e)*x + 1, or x - beta^e
when beta^e = +-1; the trace is read from ``unit_coords`` and the factors are
multiplied on the subfield tables.  g is checked by evaluating it at every
root with ``FieldContext.sums_vanish``, which sums the terms as base-p digit
vectors and reads neither those tables nor ``unit_coords``.

The dual code admits a second description: the words
(Tr(a*beta^(h*i) + b*beta^((h+1)*i)))_i for (a, b) in GF(q^2)^2 (delta = 3).
Tr is GF(q)-linear, so each is four traces times the rows of the expanded
parity matrix, combined on the subfield tables; it reads none of the Zech
residues that root-count counts with.  The kernel basis of the generator
matrix is the other view; both are exposed so they can be cross-checked.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import cosets, gflin
from .field import FieldContext
# minimal_polynomial is unused here; the benchmark traces it as bch.minimal_polynomial
from .polynomial import TAG_Q, Poly, minimal_polynomial  # noqa: F401


@dataclass(frozen=True, eq=False)
class BchCode:
    """Code of length q+1 over GF(q) with designed distance delta, offset h."""

    ctx: FieldContext
    n: int
    delta: int
    h: int
    compact_g: np.ndarray  # the coefficients of g as compact labels, lowest degree first
    k: int

    @property
    def q(self) -> int:
        return self.ctx.q

    @functools.cached_property
    def parity_matrix(self) -> np.ndarray:
        """The expanded parity matrix, formed on first use and kept read-only;
        read it through ``expanded_parity_matrix``."""
        coords = self.ctx.unit_coords[:, _parity_exponents(self)]  # (2, delta-1, n)
        mat = coords.transpose(1, 0, 2).reshape(-1, self.n).astype(np.int64)
        mat.flags.writeable = False
        return mat

    @functools.cached_property
    def g(self) -> Poly:
        """g as a Poly over the embedded GF(q), a view of ``compact_g`` through
        ``from_compact``, formed on first use; no kernel reads it."""
        coeffs = self.ctx.from_compact(self.compact_g).tolist()
        return Poly(self.ctx, TAG_Q, tuple(coeffs))

    def __repr__(self) -> str:
        return (
            f"BchCode(q={self.q}, n={self.n}, delta={self.delta}, "
            f"h={self.h}, k={self.k})"
        )


def build_bch(ctx: FieldContext, delta: int = 3, h: int = 0) -> BchCode:
    """Construct the code from its generator polynomial.

    g is the product of the distinct minimal polynomials of beta^h, ...,
    beta^(h+delta-2), one per cyclotomic coset (``_factor_labels``); distinct
    minimal polynomials are distinct monic irreducibles, so the product is
    their lcm.  It is formed as compact labels, the stored and read-only
    ``compact_g``.  Requires 0 <= h <= q and 2 <= delta <= n.

    g is then checked against its defining set D, the union of those cosets:
    monic, of degree |D| and zero at every beta^e, e in D, it equals the
    product of (x - beta^e) over D and so divides x^n - 1.  The check forms
    every term g_k * beta^(e*k) at once from ``exp`` and ``log`` and sums each
    root's terms as digit vectors mod p, arithmetic the factors and their
    product do not use.
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
    factors = [_factor_labels(ctx, m) for m in members.values()]
    labels = functools.reduce(functools.partial(_mul_labels, ctx), factors)
    root_logs = (ctx.q - 1) * np.array([e for m in members.values() for e in m], dtype=np.int64)
    coeffs = ctx.from_compact(labels)
    lg = ctx.log[coeffs]
    terms = np.where(lg < 0, -1, lg + root_logs[:, None] * np.arange(len(lg)))
    if coeffs[-1] != 1 or len(coeffs) - 1 != len(root_logs) or not ctx.sums_vanish(terms):
        raise AssertionError("generator is not the product of x - beta^e over its defining set")
    labels.flags.writeable = False
    return BchCode(ctx=ctx, n=n, delta=delta, h=h, compact_g=labels, k=n - len(root_logs))


def _factor_labels(ctx: FieldContext, members: tuple[int, ...]) -> np.ndarray:
    """Compact labels, lowest degree first, of the minimal polynomial over
    GF(q) of beta^e for the cyclotomic coset ``members`` of e mod q+1.

    Under x -> x^q the coset of e is {e, -e}.  For a coset of two, beta^e has
    the conjugate beta^(-e) and norm 1, so the factor is x^2 - Tr(beta^e)*x + 1.
    With beta^e = c0 + c1*alpha and alpha^q = Tr(alpha) - alpha, the
    conjugate's 1-coordinate is c0 + c1*Tr(alpha), so the c0 of beta^e and of
    beta^(-e) sum to Tr(beta^e).  A coset of one has beta^e = +-1 in GF(q):
    c1 = 0 and the factor is x - c0.
    """
    c0 = ctx.unit_coords[0]
    if len(members) == 1:
        return np.array([ctx.neg_table[c0[members[0]]], 1], dtype=np.int16)
    e, f = members
    return np.array([1, ctx.neg_table[ctx.add_table[c0[e], c0[f]]], 1], dtype=np.int16)


def _mul_labels(ctx: FieldContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of two compact-label polynomials, on the subfield tables."""
    add, mul = ctx.add_table, ctx.mul_table
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a.tolist()):
        for j, y in enumerate(b.tolist()):
            out[i + j] = add[out[i + j], mul[x, y]]
    return np.array(out, dtype=np.int16)


def _parity_exponents(code: BchCode) -> np.ndarray:
    """(delta-1, n) exponents of beta in the parity rows: (h+r)i mod n."""
    r = np.arange(code.delta - 1, dtype=np.int64)[:, None]
    return (code.h + r) * np.arange(code.n, dtype=np.int64) % code.n


def parity_rows(code: BchCode) -> np.ndarray:
    """(delta-1, n) matrix over GF(q^2): row r is [(beta^(h+r))^i]_i."""
    return code.ctx.exp[(code.ctx.q - 1) * _parity_exponents(code)]


def generator_matrix(code: BchCode) -> np.ndarray:
    """(k, n) compact-label matrix whose rows are x^i * g(x), i = 0..k-1."""
    mat = np.zeros((code.k, code.n), dtype=np.int64)
    gc = code.compact_g
    for i in range(code.k):
        mat[i, i : i + len(gc)] = gc
    return mat


def expanded_parity_matrix(code: BchCode) -> np.ndarray:
    """(2(delta-1), n) compact-label parity matrix over GF(q).

    Row 2r holds the {1}-coordinates and row 2r+1 the {alpha}-coordinates of
    parity row r.  Its right kernel over GF(q) is the code; the rank equals
    n - k (it drops below 2(delta-1) for the degenerate offsets).

    Entry i of parity row r is beta^((h+r)i), so both coordinates are column
    (h+r)i mod q+1 of ``unit_coords``.  The matrix is formed once per code and
    is read-only (``BchCode.parity_matrix``): column search and every dual
    trace word read the same array.
    """
    return code.parity_matrix


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
        return len(self.word) - self.word.count(0)


def dual_codeword(code: BchCode, a: int, b: int) -> DualCodeword:
    """The dual codeword attached to (a, b) in GF(q^2)^2 (delta = 3 only).

    Entry i is Tr(a*beta^(hi)) + Tr(b*beta^((h+1)i)), so the word is
    (Tr a, Tr a*alpha, Tr b, Tr b*alpha) times the four rows of the expanded
    parity matrix, (c0, c1) of beta^(hi) then of beta^((h+1)i): with
    beta^e = c0 + c1*alpha, c0, c1 in GF(q), Tr(a*beta^e) = c0*Tr(a) + c1*Tr(a*alpha).
    a and b are element indices in [0, q^2); ValueError otherwise.
    """
    if code.delta != 3:
        raise ValueError("trace representation applies to delta = 3")
    ctx = code.ctx
    if not (0 <= a < ctx.q2 and 0 <= b < ctx.q2):
        raise ValueError(f"(a, b) = ({a}, {b}) outside [0, {ctx.q2})^2")
    scalars = (a, ctx.mul(a, ctx.alpha), b, ctx.mul(b, ctx.alpha))
    traces = ctx.to_compact([ctx.trace(x) for x in scalars])
    word = gflin.combine_rows(ctx, traces, expanded_parity_matrix(code))
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
