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

For root-count the context holds the Zech logarithms log(1 + alpha^k)
reduced mod q+1 (``zech_residues``, uint16), gathered from ``exp`` and ``log``
a block at a time; for the other kernels, the (q+1) logs log(beta^k - 1) on
U_{q+1} (``unit_zech``), read the same way.
The subfield has compact labels in [0, q), its elements sorted by element
index; a label's base-p digits are its F_p-coordinates, so the q x q add
table is a digit-wise sum, and the mul table and every log -> label
conversion (``label_of_log``) read two size-q tables on logs to the base
alpha^(q+1).  No subfield table reads a Zech logarithm or a q^2 table other
than ``exp`` and ``log``.  The (2, q+1) table ``unit_coords`` holds the
{1, alpha} coordinates of every beta^k, from which the expanded parity
matrices are gathered.  Checks that must not share arithmetic with the
tables, such as whether a generator polynomial vanishes on its defining set,
use ``sums_vanish``: base-p digit vectors summed mod p, with no Zech
logarithm.
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

# Cells per block of rows for the (q, q) mul table and the digit sums of
# sums_vanish, and per block of columns of zech_residues, so that their int64
# temporaries stay at a few MB at q = 4096; up to q = 243 the mul table is
# one block.
_BLOCK_CELLS = 1 << 16


def check_field(p: int, s: int, max_q: int) -> None:
    """Raise ValueError unless p is prime, s >= 1, q = p^s fits the int16
    subfield labels (q <= 2^15) and q is within the table cap ``max_q``.

    Each message states the reason; the cap's alone adds advice, after a
    ``"; "``, which ``harness.check_conjecture`` drops from its notes.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if s < 1:
        raise ValueError(f"s={s} must be >= 1")
    q = p**s
    if q > 1 << 15:
        # compact labels are int16, element indices and logs int32
        raise ValueError(f"q={q} is too large for the int16 subfield tables")
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


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


class FieldContext:
    """Immutable description of GF(p^(2s)) with its embedded GF(q).

    Built through :func:`build_field`; safe to share across workers.
    """

    def __init__(self, p: int, s: int):
        check_field(p, s, p**s)  # a context does not depend on the table cap
        q = p**s
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
        generator and is not tested.  Candidates are tested in contiguous
        batches that start at eight and double: each batch is a stack of
        matrices M_g whose repeated squares are shared by every exponent
        order/r, and each power g^(order/r) is the digit row of 1 times the
        squares its exponent's bits select.  The batches cover the candidates
        in index order with no gap, so the first passing candidate of the
        first batch that has one is the first generator.  On the fields with
        q <= 256, alpha is at most the 32nd candidate, and on 58 of those 70
        fields it lies in the first batch.
        """
        p = self.p
        checks = [self.order // r for r in prime_factors(self.order)]
        one = np.eye(1, 2 * self.s, dtype=np.int64)  # the digits of 1, as a row
        start, batch = max(2, p), 8
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
        """a + b on element indices; ValueError on an index outside [0, q^2)."""
        if not (0 <= a < self.q2 and 0 <= b < self.q2):
            raise ValueError(f"element index outside [0, {self.q2}): {a}, {b}")
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
        return self.mul(a, self.exp_at(self.log_minus_one))

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
        return self.exp[(self.q - 1) * np.arange(self.q + 1)].tolist()  # (q-1)q < order

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
    def zech_residues(self) -> np.ndarray:
        """(q-1, q+1) uint16 table: row v, column j holds Z[v + (q-1)j] mod
        (q+1), where Z[k] = log(1 + alpha^k) is the Zech logarithm (Huber,
        IEEE Trans. IT, 1990).

        Row v lists the Zech logarithms of 1 + alpha^v * u over u = beta^j in
        U_{q+1}, reduced mod q+1, the size of U_{q+1}; the rows are contiguous
        so that a block of rows is one slice.  Adding 1 raises the lowest
        base-p digit of the element index by one (mod p), so Z is a gather
        from ``exp`` and ``log``, formed a block of columns at a time: no
        table of q^2 Zech logarithms is built.  The one k with 1 + alpha^k = 0,
        ``log_minus_one``, lies in row 0 (it is a multiple of q - 1), and its
        cell holds 0: a reader must correct that cell itself.
        """
        q, n = self.q, self.q + 1
        res = np.empty((q - 1, n), dtype=np.uint16)
        cols = max(1, _BLOCK_CELLS // (q - 1))
        for j in range(0, n, cols):
            elems = self.exp[(q - 1) * j : (q - 1) * (j + cols)]
            low = elems % self.p
            zech = self.log[elems - low + (low + 1) % self.p]  # -1 where the sum is 0
            res[:, j : j + cols] = (zech % n).reshape(-1, q - 1).T
        res[0, self.log_minus_one // (q - 1)] = 0
        return res

    def sums_vanish(self, logs) -> bool:
        """Whether every row of alpha^logs sums to zero; a log of -1 is a zero term.

        ``logs`` is 2-D.  The terms are summed as base-p digit vectors mod p,
        in blocks of rows, so neither a Zech logarithm nor ``add`` is involved.
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
    def unit_zech(self) -> np.ndarray:
        """Z_U[k] = log(beta^k - 1) for 0 < k <= q, -1 at k = 0, as int64: the
        Zech logarithms of U_{q+1} (Huber, IEEE Trans. IT, 1990).  Subtracting
        1 lowers the lowest base-p digit of the element index by one (mod p),
        so Z_U is a gather from ``exp`` and ``log`` on q + 1 entries; beta^0 - 1
        is 0, whose log is -1.  The log of beta^a - beta^b =
        beta^b (beta^(a-b) - 1) is one gather."""
        units = self.exp[(self.q - 1) * np.arange(self.q + 1)]  # (q-1)q < order
        low = units % self.p
        return self.log[units - low + (low - 1) % self.p].astype(np.int64)

    @cached_property
    def unit_coords(self) -> np.ndarray:
        """(2, q+1) int16 table: column k holds the compact labels of c0 and c1,
        where beta^k = c0 + c1*alpha with c0, c1 in GF(q).

        Conjugating, beta^(-k) = c0 + c1*alpha*beta; with Z_U = ``unit_zech``
        (indices mod q+1) and m = log(-1), a coordinate is 0 where its Z_U
        entry is -1, and otherwise
            log c1 = -(q-1)k + Z_U[2k] - (1 + m + Z_U[1])
            log c0 = -(q-1)k + Z_U[2k+1] - Z_U[1]
        """
        q, n, zu = self.q, self.q + 1, self.unit_zech
        k = np.arange(n, dtype=np.int64)
        z = zu[np.stack((2 * k + 1, 2 * k)) % n]  # rows: c0, c1
        logs = z - (q - 1) * k - zu[1] - np.array([[0], [1 + self.log_minus_one]])
        return self.label_of_log(np.where(z < 0, -1, logs % self.order))

    @cached_property
    def _sub_log(self) -> np.ndarray:
        """Compact label -> t, where the element is alpha^((q+1)t), t < q - 1;
        -1 at label 0, the zero element.

        alpha^(q+1) generates GF(q)^*.  Its q - 1 powers, then 0 in slot
        q - 1, are sorted; 0 sorts first, and -1 reaches its slot from the
        end, so ``_sub_exp`` inverts this table with one scatter."""
        elems = np.append(self.exp[(self.q + 1) * np.arange(self.q - 1)], 0)
        tlog = np.argsort(elems)
        tlog[0] = -1  # the zero element sorts first
        return tlog

    @cached_property
    def _sub_exp(self) -> np.ndarray:
        """t -> int16 compact label of alpha^((q+1)t) for t < q - 1, and 0, the
        label of the zero element, in the last slot: the inverse of
        ``_sub_log``, whose -1 reaches that slot."""
        out = np.empty(self.q, dtype=np.int16)
        out[self._sub_log] = np.arange(self.q, dtype=np.int16)
        return out

    def label_of_log(self, logs) -> np.ndarray:
        """Compact labels of alpha^logs, for logs of GF(q) elements: multiples
        of q + 1 in [0, order), or -1 for the zero element, whose floor
        quotient -1 reads the last slot of ``_sub_exp``.  x is in GF(q) iff
        x = 0 or q + 1 divides log x; other logs give wrong labels."""
        return self._sub_exp[np.asarray(logs, dtype=np.int64) // (self.q + 1)]

    @cached_property
    def sub_sorted(self) -> np.ndarray:
        """Element indices of GF(q), ascending; position = compact label.

        Labels are F_p-coordinates.  GF(q) is an s-dimensional F_p-subspace
        of the digit vectors of GF(q^2) (Lidl and Niederreiter, *Finite
        Fields*, ch. 2).  Take its reduced echelon basis e_0, ..., e_(s-1):
        e_j has its highest nonzero digit, a 1, at position d_j with
        d_0 < ... < d_(s-1), and digit 0 at every other d_i.  In
        x = sum c_j e_j, digit d_j is c_j, and each digit above d_j depends
        only on c_(j+1), ..., c_(s-1).  So two elements first differ, from the
        highest digit down, at the pivot of the highest coordinate where they
        differ, and sorting by index sorts the coordinates as the base-p
        numbers sum c_j p^j: label L has coordinates the base-p digits of L.
        Hence labels add and negate digit by digit mod p (``add_table``,
        ``neg_table``), whatever the modulus.
        """
        out = self.exp[(self.q + 1) * self._sub_log].astype(np.int64)
        out[0] = 0  # label 0 is the zero element
        return out

    def to_compact(self, arr: np.ndarray) -> np.ndarray:
        """int16 compact labels of the element indices ``arr``; ValueError
        if one lies outside GF(q)."""
        logs = self.log[np.asarray(arr, dtype=np.int64)]
        if ((logs >= 0) & (logs % (self.q + 1) != 0)).any():
            raise ValueError("element outside the embedded GF(q)")
        return self.label_of_log(logs)

    def from_compact(self, arr: np.ndarray) -> np.ndarray:
        return self.sub_sorted[np.asarray(arr, dtype=np.int64)]

    @cached_property
    def add_table(self) -> np.ndarray:
        """(q, q) int16 addition table over compact labels.

        Labels add digit by digit mod p (see ``sub_sorted``), so the table is
        the (p, p) digit-sum table tiled s times, a Kronecker sum that depends
        only on (p, s); for p = 2 it is XOR.  Each step puts one more digit
        above the table's: the digit sums index the outer axes and the table
        the inner ones, so every inner loop runs over a whole row.
        """
        p, d = self.p, np.arange(self.p, dtype=np.uint16)
        digit = np.add.outer(d, d)  # a sum of two digits fits uint16: p < 2^15
        digit %= p
        digit = digit.view(np.int16)  # every sum mod p is below 2^15
        table = digit
        for n in [p**k for k in range(1, self.s)]:
            table = digit[:, None, :, None] * n + table[None, :, None, :]
            table = table.reshape(n * p, n * p)
        return table

    @cached_property
    def mul_table(self) -> np.ndarray:
        """(q, q) multiplication table over compact labels: logs to the base
        alpha^(q+1) add mod q - 1.  Filled in blocks of rows of at most
        _BLOCK_CELLS cells; row and column 0 stay 0."""
        q, t = self.q, self._sub_log[1:]
        table = np.zeros((q, q), dtype=np.int16)
        rows = max(1, _BLOCK_CELLS // q)
        for start in range(1, q, rows):
            tsum = t[start - 1 : start - 1 + rows, None] + t[None, :]
            tsum %= q - 1
            table[start : start + rows, 1:] = self._sub_exp[tsum]
        return table

    @cached_property
    def neg_table(self) -> np.ndarray:
        """Compact negatives: each base-p digit of the label negated mod p."""
        neg = -self._half_digits.astype(np.int64) % self.p
        return (neg @ self.p ** np.arange(self.s)).astype(np.int16)

    @cached_property
    def inv_table(self) -> np.ndarray:
        """Compact inverses; entry 0 is a sentinel and must not be used."""
        t = self._sub_exp[-self._sub_log % (self.q - 1)]
        t[0] = 0
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
    cache key: ``check_field`` runs on every call, before the cache is read.
    ``build_field.cache_info()`` and ``build_field.cache_clear()`` reach the
    cache.
    """
    check_field(p, s, max_q)
    global _misses
    key = (p, s)
    if key in _fields:
        _fields.move_to_end(key)
        return _fields[key]
    _misses += 1
    cells = p ** (2 * s)
    while _fields and cells + sum(ctx.q2 for ctx in _fields.values()) > _CACHE_CELLS:
        _fields.popitem(last=False)
    _fields[key] = FieldContext(p, s)
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
    "check_field",
    "is_prime",
    "prime_factors",
    "MAX_TABLE_Q",
]
