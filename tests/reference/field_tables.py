"""Reference field construction: full lex modulus scan and per-entry tables.

An independent, direct implementation of ``bchlab.field.FieldContext``'s
construction: it tries every monic polynomial of degree 2s in lex order
(coefficients low degree first, all of them, including those with a root at
0 or 1), finds the generator by scalar square-and-multiply, and fills the
exp/log tables one schoolbook product per entry.  It costs O(q^2 * s^2)
interpreted steps, so it is meant for differential tests at small q only.

The second half of the file keeps the blocked matrix-product construction,
the oracle for the library's fill at large q.
"""

from __future__ import annotations

import itertools

import numpy as np

from bchlab.field import prime_factors
from bchlab.polynomial import is_irreducible


def find_modulus(p: int, s: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree 2s over GF(p)."""
    for low in itertools.product(range(p), repeat=2 * s):
        f = list(low) + [1]
        if is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _to_digits(a: int, p: int, deg: int) -> list[int]:
    out = []
    for _ in range(deg):
        out.append(a % p)
        a //= p
    return out


def mul_raw(a: int, b: int, p: int, modulus: tuple[int, ...]) -> int:
    """Table-free product of two element indices."""
    deg = len(modulus) - 1
    da = _to_digits(a, p, deg)
    db = _to_digits(b, p, deg)
    out = [0] * (2 * deg - 1)
    for i, ai in enumerate(da):
        if ai:
            for j, bj in enumerate(db):
                out[i + j] = (out[i + j] + ai * bj) % p
    for top in range(len(out) - 1, deg - 1, -1):
        c = out[top]
        if c:
            shift = top - deg
            for j in range(deg):
                out[shift + j] = (out[shift + j] - c * modulus[j]) % p
        out[top] = 0
    return sum(out[i] * p**i for i in range(deg))


def pow_raw(a: int, e: int, p: int, modulus: tuple[int, ...]) -> int:
    acc = 1
    base = a
    while e:
        if e & 1:
            acc = mul_raw(acc, base, p, modulus)
        base = mul_raw(base, base, p, modulus)
        e >>= 1
    return acc


def field_tables(p: int, s: int):
    """(modulus, alpha, exp, log) of GF(p^(2s)), built entry by entry."""
    modulus = find_modulus(p, s)
    q2 = p ** (2 * s)
    order = q2 - 1
    checks = [order // r for r in prime_factors(order)]
    alpha = next(
        g
        for g in range(2, q2)
        if all(pow_raw(g, e, p, modulus) != 1 for e in checks)
    )
    exp = np.zeros(order, dtype=np.int64)
    log = np.full(q2, -1, dtype=np.int64)
    cur = 1
    for i in range(order):
        exp[i] = cur
        if log[cur] != -1:
            raise AssertionError("generator order too small")  # unreachable
        log[cur] = i
        cur = mul_raw(cur, alpha, p, modulus)
    if cur != 1:
        raise AssertionError("exp table does not close")  # unreachable
    return modulus, alpha, exp, log


# -- the blocked matrix-product construction --------------------------------
#
# Multiplication by c is GF(p)-linear on digit vectors: digits(a * c) =
# digits(a) @ M_c mod p, where row j of M_c holds the digits of c * x^j mod f.
# The functions below test every candidate generator from 2 by matrix powers
# and fill exp by multiplying blocks of digit rows by M_(g^B), one (B, 2s) @
# (2s, 2s) product per block.  They cost O(q^2 * s^2) vectorised steps, so
# they reach q = 4099 in seconds, and are the oracle for the fill on packed
# indices at large q.


def mul_matrix(c: int, p: int, modulus: tuple[int, ...]) -> np.ndarray:
    deg = len(modulus) - 1
    low = np.array(modulus[:deg], dtype=np.int64)
    out = np.empty((deg, deg), dtype=np.int64)
    row = c // p ** np.arange(deg, dtype=np.int64) % p
    for j in range(deg):
        out[j] = row
        row = (np.concatenate(([0], row[:-1])) - row[-1] * low) % p  # x * row mod f
    return out


def _pow_matrix(m: np.ndarray, e: int, p: int) -> np.ndarray:
    acc = np.eye(len(m), dtype=np.int64)
    while e:
        if e & 1:
            acc = acc @ m % p
        m = m @ m % p
        e >>= 1
    return acc


def matrix_generator(p: int, modulus: tuple[int, ...]) -> int:
    """First g >= 2, constants included, whose order is p^(2s) - 1."""
    deg = len(modulus) - 1
    order = p**deg - 1
    checks = [order // r for r in prime_factors(order)]
    one = np.eye(deg, dtype=np.int64)
    for g in range(2, order + 1):
        m = mul_matrix(g, p, modulus)
        if not any(np.array_equal(_pow_matrix(m, e, p), one) for e in checks):
            return g
    raise AssertionError("no generator found")  # unreachable


def matrix_fill(p: int, modulus: tuple[int, ...], g: int, block: int = 1 << 14):
    """(exp, log) as int32: each block of digit rows is the last one times M_(g^B)."""
    deg = len(modulus) - 1
    order = p**deg - 1
    rows = np.zeros((1, deg), dtype=np.int64)
    rows[0, 0] = 1
    step = mul_matrix(g, p, modulus)
    while len(rows) < block:
        rows = np.vstack((rows, rows @ step % p))
        step = step @ step % p
    pack = p ** np.arange(deg, dtype=np.int64)
    exp = np.empty(order, dtype=np.int32)
    log = np.full(order + 1, -1, dtype=np.int32)
    for start in range(0, order, len(rows)):
        if start:
            rows = rows @ step % p
        idx = rows[: order - start] @ pack
        exp[start : start + len(idx)] = idx
        log[idx] = np.arange(start, start + len(idx), dtype=np.int32)
    return exp, log


def divmod_digits(p: int, s: int) -> np.ndarray:
    """(q^2, 2s) base-p digits of every index, one divmod pass per digit."""
    q2 = p ** (2 * s)
    digits = np.empty((q2, 2 * s), dtype=np.min_scalar_type(p - 1))
    idx = np.arange(q2, dtype=np.int64)
    for j in range(2 * s):
        digits[:, j] = idx % p
        idx //= p
    return digits
