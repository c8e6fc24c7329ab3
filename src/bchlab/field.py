"""Exact arithmetic in GF(p^(2s)) via discrete-log tables.

Elements are integers in [0, q^2) whose base-p digits are the coefficients
(lowest degree first) of the residue polynomial modulo a fixed irreducible of
degree 2s over GF(p).  Index 0 is the zero element and is excluded from the
log domain; every operation branches on zero explicitly.

Construction is deterministic: the modulus is the lexicographically smallest
monic irreducible (coefficient tuples compared low degree first) and the
generator ``alpha`` is the first element, in enumeration order, of
multiplicative order q^2 - 1.  ``beta = alpha^(q-1)`` generates the group
U_{q+1} of (q+1)-th roots of unity, and the embedded GF(q) is the fixed field
of the Frobenius map x -> x^q.

For bulk kernels the context also exposes elementwise addition of discrete
logs through Zech logarithms (``log_add``), and a compact relabelling of the
subfield onto [0, q) (sorted by element index) with q x q add/mul tables and
the (2, q+1) table ``unit_coords`` of the {1, alpha} coordinates of every
beta^k, from which the expanded parity matrices are gathered.  Checks that
must not share arithmetic with the tables, such as whether a generator
polynomial vanishes on its defining set, use ``sums_vanish``: base-p digit
vectors summed mod p, with no Zech logarithm.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

import numpy as np

from .polynomial import is_irreducible

MAX_TABLE_Q = 1 << 12  # default cap: exp/log tables of ~2^24 entries

# Cells of the (rows, 2s) digit block the exp/log fill multiplies at a time:
# 128 KB of int64, so the allocator recycles the blocks instead of mapping
# fresh pages for each one.  The scatter into log dominates at large q, where
# the block size makes no measurable difference.
_FILL_CELLS = 1 << 14

# Cells per block of rows for the (q, q) add table and the digit sums of
# sums_vanish, so that their int64 temporaries stay at a few MB at q = 4096;
# up to q = 243 the add table is one block.
_BLOCK_CELLS = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_table_cap(q: int, max_q: int) -> None:
    """Raise ValueError when q is past the table cap ``max_q``."""
    if q > max_q:
        raise ValueError(f"q={q} exceeds the table cap {max_q}; raise the cap explicitly")


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FieldContext:
    """Immutable description of GF(p^(2s)) with its embedded GF(q).

    Built through :func:`build_field`; safe to share across workers.
    """

    def __init__(self, p: int, s: int, max_q: int):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if s < 1:
            raise ValueError(f"s={s} must be >= 1")
        q = p**s
        check_table_cap(q, max_q)
        if q > 1 << 15:
            # compact labels are int16, element indices and logs int32
            raise ValueError(f"q={q} is too large for the int16 subfield tables")
        self.p = p
        self.s = s
        self.q = q
        self.q2 = q * q
        self.order = self.q2 - 1
        self.modulus = self._find_modulus()
        self.alpha = self._find_generator()
        self.exp, self.log = self._exp_log_tables(self.alpha)
        self.beta = int(self.exp[(q - 1) % self.order])
        # alpha^log_minus_one = -1
        self.log_minus_one = 0 if p == 2 else self.order // 2

    # -- construction ------------------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        """Lex-smallest monic irreducible of degree 2s over GF(p).

        A candidate with f(0) = 0 is divisible by x, and for p = 2 one with
        f(1) = 0 by x + 1, so neither is tested.  The constant term varies
        slowest in the lex order, so looping over it outermost visits the
        remaining candidates in the same order.
        """
        p, deg = self.p, 2 * self.s
        for c0 in range(1, p):
            for middle in itertools.product(range(p), repeat=deg - 1):
                if p == 2 and sum(middle) % 2 == 0:  # f(1) = sum(middle) mod 2
                    continue
                f = [c0, *middle, 1]
                if is_irreducible(f, p):
                    return tuple(f)
        raise AssertionError("no irreducible polynomial found")  # unreachable

    # Multiplication by a fixed element c is GF(p)-linear on digit vectors:
    # digits(a * c) = digits(a) @ M_c mod p, where row j of M_c holds the
    # digits of c * x^j mod f, and M_(ab) = M_a @ M_b.  The matrices are
    # int64: numpy multiplies those in its own loop, not through BLAS, whose
    # worker threads stay spinning on the other cores after a large product.

    def _mul_matrix(self, c: int) -> np.ndarray:
        p, deg = self.p, 2 * self.s
        low = np.array(self.modulus[:deg], dtype=np.int64)
        out = np.empty((deg, deg), dtype=np.int64)
        row = c // p ** np.arange(deg, dtype=np.int64) % p
        for j in range(deg):
            out[j] = row
            row = (np.concatenate(([0], row[:-1])) - row[-1] * low) % p  # x * row mod f
        return out

    def _pow_matrix(self, m: np.ndarray, e: int) -> np.ndarray:
        acc = np.eye(len(m), dtype=np.int64)
        while e:
            if e & 1:
                acc = acc @ m % self.p
            m = m @ m % self.p
            e >>= 1
        return acc

    def _find_generator(self) -> int:
        """First g >= 2 with g^(order/r) != 1 for every prime r | order."""
        checks = [self.order // r for r in prime_factors(self.order)]
        one = np.eye(2 * self.s, dtype=np.int64)
        for g in range(2, self.q2):
            m = self._mul_matrix(g)
            if not any(np.array_equal(self._pow_matrix(m, e), one) for e in checks):
                return g
        raise AssertionError("no generator found")  # unreachable

    def _exp_log_tables(self, g: int) -> tuple[np.ndarray, np.ndarray]:
        """exp[i] = g^i for i < order, and log, its inverse, with log[0] = -1.

        The digit rows of g^i are filled in blocks of B rows, a power of two
        with B * 2s <= _FILL_CELLS: the first block by doubling, each next
        one as the previous block times M_(g^B).  A block is packed to
        indices with one dot against p^j and scattered into log.  Both tables
        are int32 (every index and log is below q^2); arithmetic on logs
        widens to int64 first, since a log times q overflows int32.
        """
        p, deg, order = self.p, 2 * self.s, self.order
        block = min(order, 1 << ((_FILL_CELLS // deg).bit_length() - 1))
        rows = np.zeros((1, deg), dtype=np.int64)
        rows[0, 0] = 1
        mul_g = step = self._mul_matrix(g)
        while len(rows) < block:
            rows = np.vstack((rows, rows @ step % p))
            step = step @ step % p
        pack = p ** np.arange(deg, dtype=np.int64)
        exp = np.empty(order, dtype=np.int32)
        log = np.full(self.q2, -1, dtype=np.int32)
        for start in range(0, order, len(rows)):
            if start:
                rows = rows @ step
                rows %= p
            chunk = rows[: order - start]
            idx = chunk @ pack
            exp[start : start + len(idx)] = idx
            log[idx] = np.arange(start, start + len(idx), dtype=np.int32)
        closing = chunk[-1] @ mul_g % p
        if closing[0] != 1 or closing[1:].any():
            raise AssertionError("exp table does not close")
        if (log[1:] < 0).any():
            raise AssertionError("generator order too small")
        return exp, log

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        acc = 0
        pp = 1
        while a or b:
            acc += ((a + b) % p) * pp
            a //= p
            b //= p
            pp *= p
        return acc

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        acc = 0
        pp = 1
        while a:
            d = a % p
            if d:
                acc += (p - d) * pp
            a //= p
            pp *= p
        return acc

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[(int(self.log[a]) + int(self.log[b])) % self.order])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return int(self.exp[(-int(self.log[a])) % self.order])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("zero to a negative power")
            return 0
        return int(self.exp[(int(self.log[a]) * e) % self.order])

    def exp_at(self, e: int) -> int:
        """alpha^e for any integer e."""
        return int(self.exp[e % self.order])

    def frobenius(self, a: int) -> int:
        """x -> x^q; an involution whose fixed field is the embedded GF(q)."""
        return self.pow(a, self.q)

    def trace(self, a: int) -> int:
        """Relative trace x + x^q, mapping GF(q^2) onto GF(q)."""
        return self.add(a, self.frobenius(a))

    def in_subfield(self, a: int) -> bool:
        return self.frobenius(a) == a

    def unit_circle(self) -> list[int]:
        """[beta^0, ..., beta^q]: the q+1 roots of x^(q+1) - 1, by exponent."""
        step = self.q - 1
        return [self.exp_at(step * j) for j in range(self.q + 1)]

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p}, s={self.s}, q={self.q})"

    # -- compact subfield view and numpy tables ------------------------------

    @cached_property
    def digits(self) -> np.ndarray:
        """(q^2, 2s) matrix of base-p digits of every element index, in the
        smallest unsigned type that holds p - 1."""
        digits = np.empty((self.q2, 2 * self.s), dtype=np.min_scalar_type(self.p - 1))
        idx = np.arange(self.q2, dtype=np.int64)
        for j in range(2 * self.s):
            digits[:, j] = idx % self.p
            idx //= self.p
        return digits

    @cached_property
    def zech(self) -> np.ndarray:
        """Zech logarithms: zech[k] = log(1 + alpha^k), or -1 where 1 + alpha^k = 0.

        Adding 1 raises the lowest base-p digit of the element index by one
        (mod p; XOR 1 for p = 2), and log[0] = -1 marks the zero sum.  The
        only -1 entry sits at the k with alpha^k = -1, ``log_minus_one``.
        The index of 1 + alpha^k is built in place, so at most two int32
        temporaries of q^2 entries are alive next to ``exp`` and ``log``.
        """
        low = self.exp % self.p
        idx = self.exp - low
        low += 1
        low %= self.p
        idx += low
        del low
        return self.log[idx]

    @cached_property
    def zech_residues(self) -> np.ndarray:
        """(q-1, q+1) uint16 table: row v, column j holds
        zech[v + (q-1)j] mod (q+1).

        Row v lists the Zech logarithms of 1 + alpha^v * u over u = beta^j in
        U_{q+1}, reduced mod q+1, the size of U_{q+1}; the rows are contiguous
        so that a block of rows is one slice.  The one k with zech[k] = -1,
        ``log_minus_one``, lies in row 0 (it is a multiple of q - 1), and its
        cell holds 0: a reader must correct that cell itself.
        """
        q = self.q
        # reduce and narrow in the zech order, then transpose the narrow copy
        flat = (self.zech % (q + 1)).astype(np.uint16)
        res = np.ascontiguousarray(flat.reshape(q + 1, q - 1).T)
        res[0, self.log_minus_one // (q - 1)] = 0
        return res

    def log_add(self, la, lb) -> np.ndarray:
        """log(alpha^la + alpha^lb) elementwise (broadcast), -1 where the sum is 0.

        Logs lie in [0, order), and -1 stands for the zero element, on input
        and output.  alpha^a + alpha^b = alpha^a * (1 + alpha^(b - a)), so the
        log is a + zech[b - a], and the Zech sentinel -1 marks b = -a.
        """
        la, lb = np.asarray(la, dtype=np.int64), np.asarray(lb, dtype=np.int64)
        z = self.zech[(lb - la) % self.order]
        total = np.where(z < 0, -1, (la + z) % self.order)
        return np.where(la < 0, lb, np.where(lb < 0, la, total))

    def sums_vanish(self, logs) -> bool:
        """Whether every row of alpha^logs sums to zero; a log of -1 is a zero term.

        ``logs`` is 2-D.  The terms are summed as base-p digit vectors mod p,
        in blocks of rows, so neither the Zech table nor ``add`` is involved.
        """
        logs = np.asarray(logs, dtype=np.int64)
        pows = self.p ** np.arange(2 * self.s, dtype=np.int64)
        rows = max(1, _BLOCK_CELLS // (logs.shape[1] * len(pows)))
        for start in range(0, len(logs), rows):
            block = logs[start : start + rows]
            terms = np.where(block < 0, 0, self.exp[block % self.order])
            # x // p^j is digit j of x mod p, so one reduction after the sum
            if ((terms[..., None] // pows).sum(axis=1) % self.p).any():
                return False
        return True

    @cached_property
    def unit_coords(self) -> np.ndarray:
        """(2, q+1) int16 table: column k holds the compact labels of c0 and c1,
        where beta^k = c0 + c1*alpha with c0, c1 in GF(q).

        For e = c0 + c1*alpha, e^q = c0 + c1*alpha^q, so
        c1 = (e - e^q)/(alpha - alpha^q) and c0 = e - c1*alpha, all in logs.
        """
        q, m, order = self.q, self.log_minus_one, self.order
        e = (q - 1) * np.arange(q + 1, dtype=np.int64)  # log beta^k, never -1
        diff = self.log_add(e, (q * e + m) % order)  # e - e^q
        denom = self.log_add(1, (q + m) % order)  # alpha - alpha^q, nonzero
        c1 = np.where(diff < 0, -1, (diff - denom) % order)
        c0 = self.log_add(e, np.where(c1 < 0, -1, (c1 + 1 + m) % order))
        return self.sub_index[self.from_log(np.stack((c0, c1)))]

    def from_log(self, logs) -> np.ndarray:
        """Elements alpha^logs for logs in [0, order), and 0 where a log is -1."""
        logs = np.asarray(logs, dtype=np.int64)
        return np.where(logs < 0, 0, self.exp[logs])

    @cached_property
    def sub_sorted(self) -> np.ndarray:
        """Element indices of GF(q), ascending; position = compact label."""
        elems = [0] + [self.exp_at((self.q + 1) * t) for t in range(self.q - 1)]
        out = np.array(sorted(elems), dtype=np.int64)
        if len(out) != self.q:
            raise AssertionError("subfield size mismatch")  # unreachable
        return out

    @cached_property
    def sub_index(self) -> np.ndarray:
        """Inverse of sub_sorted: element index -> int16 compact label, -1 outside."""
        inv = np.full(self.q2, -1, dtype=np.int16)
        inv[self.sub_sorted] = np.arange(self.q, dtype=np.int16)
        return inv

    def to_compact(self, arr: np.ndarray) -> np.ndarray:
        out = self.sub_index[np.asarray(arr, dtype=np.int64)]
        if (out < 0).any():
            raise ValueError("element outside the embedded GF(q)")
        return out

    def from_compact(self, arr: np.ndarray) -> np.ndarray:
        return self.sub_sorted[np.asarray(arr, dtype=np.int64)]

    @cached_property
    def add_table(self) -> np.ndarray:
        """(q, q) addition table over compact subfield labels, from log_add,
        filled in blocks of rows of at most _BLOCK_CELLS cells."""
        q = self.q
        logs = self.log[self.sub_sorted]  # -1 at label 0, the zero element
        table = np.empty((q, q), dtype=np.int16)
        rows = max(1, _BLOCK_CELLS // q)
        for start in range(0, q, rows):
            total = self.log_add(logs[start : start + rows, None], logs[None, :])
            table[start : start + rows] = self.sub_index[self.from_log(total)]
        return table

    @cached_property
    def mul_table(self) -> np.ndarray:
        """(q, q) multiplication table over compact subfield labels."""
        logs = np.zeros(self.q, dtype=np.int32)
        nz = self.sub_sorted[1:]
        logs[1:] = self.log[nz]
        esum = logs[:, None] + logs[None, :]  # below 2^25: int32 suffices
        esum %= self.order
        prod = self.sub_index[self.exp[esum]]
        prod[0, :] = 0
        prod[:, 0] = 0
        return prod

    @cached_property
    def neg_table(self) -> np.ndarray:
        """Compact negatives: -a = alpha^(log a + log(-1))."""
        t = np.zeros(self.q, dtype=np.int16)
        nz = self.sub_sorted[1:]
        t[1:] = self.sub_index[self.exp[(self.log[nz] + self.log_minus_one) % self.order]]
        return t

    @cached_property
    def inv_table(self) -> np.ndarray:
        """Compact inverses; entry 0 is a sentinel and must not be used."""
        t = np.zeros(self.q, dtype=np.int16)
        nz = self.sub_sorted[1:]
        t[1:] = self.sub_index[self.exp[(-self.log[nz]) % self.order]]
        return t


@lru_cache(maxsize=32)
def _cached_field(p: int, s: int) -> FieldContext:
    # build_field has checked the caller's cap
    return FieldContext(p, s, max_q=p**s)


def build_field(p: int, s: int, max_q: int = MAX_TABLE_Q) -> FieldContext:
    """Deterministic GF(p^(2s)) context, cached per (p, s).

    The context does not depend on ``max_q``, so the cap is not part of the
    cache key: it is checked on every call, before the cache is read.
    ``build_field.cache_info()`` and ``build_field.cache_clear()`` reach the
    cache.
    """
    if p**s > max_q:
        return FieldContext(p, s, max_q)  # raises: a bad p, or q over the cap
    return _cached_field(p, s)


build_field.cache_info = _cached_field.cache_info
build_field.cache_clear = _cached_field.cache_clear


__all__ = [
    "FieldContext",
    "build_field",
    "check_table_cap",
    "is_prime",
    "prime_factors",
    "MAX_TABLE_Q",
]
