"""Reference field construction: full lex modulus scan and per-entry tables.

An independent, direct implementation of ``bchlab.field.FieldContext``'s
construction: it tries every monic polynomial of degree 2s in lex order
(coefficients low degree first, all of them, including those with a root at
0 or 1), finds the generator by scalar square-and-multiply, and fills the
exp/log tables one schoolbook product per entry.  It is the oracle for the
blocked GF(p)-linear fill, and costs O(q^2 * s^2) interpreted steps, so it is
meant for differential tests at small q only.
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
