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
of the Frobenius map x -> x^q.  The exp table is filled on packed indices,
one GF(p)-linear map per stride through two size-q tables; no per-element
matrix product is formed past its first block.

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
from collections import OrderedDict, namedtuple
from functools import cached_property

import numpy as np

from .polynomial import is_irreducible

MAX_TABLE_Q = 1 << 12  # default cap: exp/log tables of ~2^24 entries

# Cells of the (B, 2s) digit rows of the exp fill's first block, built by
# matrix doubling: 128 KB of int64.  Every q <= 32 field fits in one block.
_FILL_CELLS = 1 << 14

# Longest stride of the exp fill past its first block (its temporaries stay
# under 1 MB), and the most lane bits one packing table of the odd-p fill
# reads: 2^15 int32 entries, 128 KB.  The scatter into log dominates at large
# q: a random write per entry.
_FILL_STRIDE = 1 << 16
_PACK_BITS = 15

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
        self.alpha, squares = self._find_generator()
        self.exp, self.log = self._exp_log_tables(self.alpha, squares)
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

    def _mul_matrix(self, c) -> np.ndarray:
        """M_c, or for an array of indices c the stack (..., 2s, 2s).

        Row j of M_c is sum_k c_k x^(j+k) mod f, so one product of the digits
        of c with the digits of x^0 .. x^(4s-2) mod f gives every row.
        """
        p, deg = self.p, 2 * self.s
        xs = [[1] + [0] * (deg - 1)]
        for _ in range(2 * deg - 2):
            top = xs[-1][-1]
            xs.append([(a - top * b) % p for a, b in zip([0] + xs[-1][:-1], self.modulus)])
        k = np.arange(deg)
        shifted = np.array(xs, dtype=np.int64)[k[:, None] + k].reshape(deg, deg * deg)
        digits = np.asarray(c, dtype=np.int64)[..., None] // p**k % p
        return (digits @ shifted % p).reshape(digits.shape[:-1] + (deg, deg))

    def _find_generator(self) -> tuple[int, list[np.ndarray]]:
        """First g >= 2 with g^(order/r) != 1 for every prime r | order, and
        the squares M_g^(2^k) its test computed, which seed the exp fill.

        The search starts at max(2, p): an index g < p is a constant of
        GF(p)^*, whose order divides p - 1 < q^2 - 1, so it is never a
        generator and is not tested.  Candidates are tested in batches that
        start at two and double: each batch is a stack of matrices M_g whose
        repeated squares are shared by every exponent order/r.  The first
        passing candidate of the first batch that has one is returned.
        """
        p = self.p
        checks = [self.order // r for r in prime_factors(self.order)]
        one = np.eye(2 * self.s, dtype=np.int64)
        start, batch = max(2, p), 2
        while start < self.q2:
            cands = np.arange(start, min(start + batch, self.q2))
            squares = [self._mul_matrix(cands)]  # M_g^(2^k) for every bit k
            while len(squares) < max(checks).bit_length():
                squares.append(squares[-1] @ squares[-1] % p)
            ok = np.ones(len(cands), dtype=bool)
            for e in checks:
                power = one
                for k, square in enumerate(squares):
                    if e >> k & 1:
                        power = power @ square % p
                ok &= (power != one).any(axis=(1, 2))
            if ok.any():
                i = int(ok.argmax())
                return int(cands[i]), [square[i] for square in squares]
            start += batch
            batch *= 2
        raise AssertionError("no generator found")  # unreachable

    def _exp_log_tables(self, g: int, squares=None) -> tuple[np.ndarray, np.ndarray]:
        """exp[i] = g^i for i < order, and log, its inverse, with log[0] = -1.

        ``squares`` lists M_g^(2^k) for k = 0, 1, ...; the fill extends it as
        far as it needs, and builds it from M_g when it is not given.

        The first block of B entries, a power of two with B * 2s <=
        _FILL_CELLS, is built as digit rows: rows n..2n-1 are rows 0..n-1
        times M_(g^n), for n = 1, 2, 4, ...; every q <= 32 field fits in it.
        Past it, exp[n + i] = g^n * exp[i] for a stride n that keeps doubling
        up to _FILL_STRIDE, on packed indices.  Multiplication by c = g^n is
        GF(p)-linear on digit vectors, so the image of an index lo + q*hi
        (lo, hi < q) is the sum of two size-q tables, the images of lo and of
        q*hi (``_half_images``), built only once a second block is needed.
        For p = 2 the sum is one XOR.  For odd p the two images hold their
        digits in bit lanes wide enough for a sum of two digits, so one
        integer addition adds every digit, and ``_lane_packers`` reduce the
        lanes mod p and pack them a few lanes at a time.  No (B, 2s) digit
        matrix is formed past the first block.

        Both tables are int32 (every index and log is below q^2); arithmetic
        on logs widens to int64 first, since a log times q overflows int32.
        The table must close (g^order = 1) and reach every nonzero index.
        """
        p, q, deg, order = self.p, self.q, 2 * self.s, self.order
        squares = [self._mul_matrix(g)] if squares is None else list(squares)

        def power(n: int) -> np.ndarray:  # M_(g^n) for a power of two n
            while len(squares) < n.bit_length():
                squares.append(squares[-1] @ squares[-1] % p)
            return squares[n.bit_length() - 1]

        block = min(order, 1 << ((_FILL_CELLS // deg).bit_length() - 1))
        rows = np.zeros((1, deg), dtype=np.int64)
        rows[0, 0] = 1
        while len(rows) < block:
            rows = np.vstack((rows, rows @ power(len(rows)) % p))
        pack = p ** np.arange(deg, dtype=np.int64)
        exp = np.empty(order, dtype=np.int32)
        log = np.full(self.q2, -1, dtype=np.int32)
        exp[:block] = rows[:block] @ pack
        start = stride = block
        if start < order:
            lo_img, hi_img = self._half_images(power(stride))
            packers = None if p == 2 else self._lane_packers()
        while start < order:
            stop = min(start + stride, order)
            src = exp[start - stride : stop - stride]
            if p == 2:
                new = lo_img[src & (q - 1)]
                new ^= hi_img[src >> self.s]
            else:
                hi, lo = np.divmod(src, q)
                lanes = lo_img[lo]
                lanes += hi_img[hi]
                new = sum(table[lanes >> shift & mask] for shift, mask, table in packers)
            exp[start:stop] = new
            start = stop
            if stride < _FILL_STRIDE and start < order:
                stride *= 2  # start == stride: the next block reads exp[:stride]
                lo_img, hi_img = self._half_images(power(stride))
        for start in range(0, order, _FILL_STRIDE):
            stop = min(start + _FILL_STRIDE, order)
            log[exp[start:stop]] = np.arange(start, stop, dtype=np.int32)
        closing = (int(exp[-1]) // pack % p) @ squares[0] % p
        if closing[0] != 1 or closing[1:].any():
            raise AssertionError("exp table does not close")
        if (log[1:] < 0).any():
            raise AssertionError("generator order too small")
        return exp, log

    def _lane_width(self) -> int:
        """Bits per digit lane: 1 for p = 2, else enough for a sum of two digits."""
        return 1 if self.p == 2 else (2 * self.p - 2).bit_length()

    def _half_images(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Images of lo and of q*hi (lo, hi < q) under the map with matrix m.

        For p = 2 the images are int32 indices.  For odd p they are int64
        lane words, digit j in bits [j*w, (j+1)*w) for w = ``_lane_width``,
        so that two images add digit by digit with no carry between lanes.
        """
        s, w, half = self.s, self._lane_width(), self._half_digits
        weights = np.int64(1) << (w * np.arange(2 * s, dtype=np.int64))
        dtype = np.int32 if self.p == 2 else np.int64
        lo_img = (half @ m[:s] % self.p @ weights).astype(dtype)
        hi_img = (half @ m[s:] % self.p @ weights).astype(dtype)
        return lo_img, hi_img

    def _lane_packers(self) -> list[tuple[int, int, np.ndarray]]:
        """(shift, mask, table) per group of at most _PACK_BITS bits of digit
        lanes: table[(word >> shift) & mask] is that group's lane sums, each
        reduced mod p, packed into its part of an element index.  A group's
        table is the outer sum of its lanes' own tables of 2^w entries."""
        p, deg, w = self.p, 2 * self.s, self._lane_width()
        lane = np.arange(1 << w, dtype=np.int32) % p
        per = max(1, _PACK_BITS // w)  # lanes per group
        out = []
        for j in range(0, deg, per):
            table = np.zeros(1, dtype=np.int32)
            for i in range(j, min(j + per, deg)):
                table = (lane[:, None] * p**i + table[None, :]).ravel()
            out.append((j * w, len(table) - 1, table))
        return out

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
    def _half_digits(self) -> np.ndarray:
        """(q, s) base-p digits of 0..q-1, in the smallest unsigned type that
        holds p - 1."""
        half = np.empty((self.q, self.s), dtype=np.min_scalar_type(self.p - 1))
        idx = np.arange(self.q, dtype=np.int64)
        for j in range(self.s):
            half[:, j] = idx % self.p
            idx //= self.p
        return half

    @cached_property
    def digits(self) -> np.ndarray:
        """(q^2, 2s) matrix of base-p digits of every element index, in the
        smallest unsigned type that holds p - 1.

        Index lo + q*hi has the digits of lo, then those of hi, so the matrix
        tiles the (q, s) digits of 0..q-1: along the rows for lo, repeated
        for hi.
        """
        q, s, half = self.q, self.s, self._half_digits
        digits = np.empty((q, q, 2 * s), dtype=half.dtype)
        digits[:, :, :s] = half[None, :, :]
        digits[:, :, s:] = half[:, None, :]
        return digits.reshape(self.q2, 2 * s)

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
        """(q, q) multiplication table over compact subfield labels, filled in
        blocks of rows of at most _BLOCK_CELLS cells, like ``add_table``."""
        q = self.q
        logs = self.log[self.sub_sorted].astype(np.int64)  # -1 at label 0
        table = np.zeros((q, q), dtype=np.int16)  # row and column 0 stay 0
        rows = max(1, _BLOCK_CELLS // q)
        for start in range(1, q, rows):
            esum = logs[start : start + rows, None] + logs[None, 1:]
            esum %= self.order
            table[start : start + rows, 1:] = self.sub_index[self.exp[esum]]
        return table

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


# q^2 cells of the fields that build_field keeps.  A miss first drops the
# least recently used fields until the new one fits beside the rest, so a run
# over fields past q = 1024 holds one field's tables at a time, while the small
# fields a sweep or a benchmark revisits stay built.
_CACHE_CELLS = 1 << 20
_fields: OrderedDict[tuple[int, int], FieldContext] = OrderedDict()
_misses = 0

CacheInfo = namedtuple("CacheInfo", "misses currsize")


def build_field(p: int, s: int, max_q: int = MAX_TABLE_Q) -> FieldContext:
    """Deterministic GF(p^(2s)) context, cached per (p, s) within _CACHE_CELLS.

    The context does not depend on ``max_q``, so the cap is not part of the
    cache key: it is checked on every call, before the cache is read.
    ``build_field.cache_info()`` and ``build_field.cache_clear()`` reach the
    cache.
    """
    if p**s > max_q:
        return FieldContext(p, s, max_q)  # raises: a bad p, or q over the cap
    global _misses
    key = (p, s)
    if key in _fields:
        _fields.move_to_end(key)
        return _fields[key]
    _misses += 1
    cells = p ** (2 * s)
    while _fields and cells + sum(ctx.q2 for ctx in _fields.values()) > _CACHE_CELLS:
        _fields.popitem(last=False)
    _fields[key] = FieldContext(p, s, max_q=p**s)  # build_field has checked the cap
    return _fields[key]


def _cache_info() -> CacheInfo:
    return CacheInfo(_misses, len(_fields))


def _cache_clear() -> None:
    global _misses
    _fields.clear()
    _misses = 0


build_field.cache_info = _cache_info
build_field.cache_clear = _cache_clear


__all__ = [
    "FieldContext",
    "build_field",
    "check_table_cap",
    "is_prime",
    "prime_factors",
    "MAX_TABLE_Q",
]
