"""Ground-truth minimum-distance engines.

Three independent routes to the same numbers:

* ``min_distance_by_columns`` scans support sets of the expanded parity
  matrix in lexicographic order and reports the smallest dependent set.
* ``exhaustive_min_distance`` enumerates every codeword of a generator
  matrix (blockwise, vectorised), with a MacWilliams fallback through the
  dual when the direct enumeration would blow the cap.
* ``dual_min_distance`` measures the dual code either by enumerating the
  span of a kernel basis (``dual-enum``) or by counting the roots of
  b*u^(2h+2) + a*u^(2h+1) + a^q*u + b^q over U_{q+1} for one representative
  (a, b) per weight-preserving symmetry class (``root-count``).  On U_{q+1}
  that polynomial is u^(h+1) * Tr(u^h (a + b*u)), and the trace vanishes on
  one residue class of the discrete log mod q+1, so the root counts of every
  class come from one histogram of Zech logarithms: O(q^2) work per code.

Every engine that finds a value emits a witness that ``verify_witness``
re-validates from scratch.

The engines carry no cap on q: which engine runs on which code is decided in
``harness``.  The only limit here is ``EXHAUSTIVE_CAP`` on the number of
words an exhaustive enumeration may visit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, gcd

import numpy as np

from . import bch, gflin
from .field import FieldContext

# enumerated words (q^k) per exhaustive run
EXHAUSTIVE_CAP = 1 << 26

_BLOCK_ROWS = 1 << 19
# reduced cells (prefixes x rows x columns) per column-search block: a few MB
_COLLISION_CELLS = 1 << 18
# histogram cells per root-count block: small enough that the allocator
# recycles its arrays instead of mapping fresh pages on every call
_ROOT_COUNT_CELLS = 1 << 14


@dataclass(frozen=True)
class ColumnsWitness:
    """Dependent columns of the expanded parity matrix with the relation."""

    cols: tuple[int, ...]
    coeffs: tuple[int, ...]  # compact labels, all nonzero


@dataclass(frozen=True)
class CodewordWitness:
    """A concrete codeword (compact labels) and where it came from."""

    word: tuple[int, ...]
    source: tuple


@dataclass(frozen=True)
class DistanceResult:
    value: int | None
    witness: ColumnsWitness | CodewordWitness | None
    method: str
    searched_up_to: int | None = None  # set when value is None ("> w_max")


# ---------------------------------------------------------------------------
# column search
# ---------------------------------------------------------------------------


def _gather(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``table[a, b]`` for a (q, q) table, as one take from the flat table."""
    return table.ravel().take(a.astype(np.intp) * table.shape[1] + b)


def _eliminate(ctx: FieldContext, imgs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Reduce every column of ``imgs[b]`` (B, rows, n) modulo ``vecs[b]`` (B, rows).

    Subtracts the multiple of ``vecs[b]`` that clears its first nonzero row, so
    that row reads 0 in every reduced column.  Applied to a sequence of
    independent vectors this projects onto a fixed complement of their span:
    two columns agree modulo the span iff their reductions are equal.
    """
    piv = (vecs != 0).argmax(axis=1)
    lead = vecs[np.arange(len(vecs)), piv]
    row = imgs[np.arange(len(imgs)), piv]
    factor = _gather(ctx.mul_table, row, ctx.neg_table[ctx.inv_table[lead]][:, None])
    shift = _gather(ctx.mul_table, factor[:, None, :], vecs[:, :, None])
    return _gather(ctx.add_table, imgs, shift)


def _first_collision(ctx: FieldContext, imgs: np.ndarray, lo: np.ndarray) -> tuple | None:
    """First (b, k, l) with lo[b] < k < l and imgs[b][:, l] a nonzero multiple
    of imgs[b][:, k]: the smallest b, then the smallest such k, then l.

    Each column is scaled so its first nonzero entry is 1 and packed into
    integer keys; a stable sort per batch row puts equal images next to each
    other in ascending column order.
    """
    _, rows, n = imgs.shape
    piv = (imgs != 0).argmax(axis=1)
    lead = np.take_along_axis(imgs, piv[:, None, :], axis=1)
    unit = _gather(ctx.mul_table, ctx.inv_table[lead], imgs).astype(np.int64)
    # as many rows per 63-bit key word as fit; one word for 4 rows up to q = 2^15
    bits = max(1, (ctx.q - 1).bit_length())
    per_word = 63 // bits
    keys = np.stack(
        [
            sum(unit[:, r] << (bits * (r - r0)) for r in range(r0, min(r0 + per_word, rows)))
            for r0 in range(0, rows, per_word)
        ]
    )
    order = np.lexsort(keys, axis=-1)
    ranked = np.take_along_axis(keys, order[None], axis=-1)
    same = (ranked[:, :, 1:] == ranked[:, :, :-1]).all(axis=0)
    # equal images sit in ascending column order, so a valid k (> lo) is
    # followed by its smallest partner l
    cand = np.where(same & (order[:, :-1] > lo[:, None]), order[:, :-1], n)
    hit = np.nonzero(cand.min(axis=1) < n)[0]
    if not hit.size:
        return None
    b = int(hit[0])
    pos = int(np.argmin(cand[b]))
    return b, int(order[b, pos]), int(order[b, pos + 1])


def _lex_first_dependent(ctx: FieldContext, mat: np.ndarray, w: int) -> tuple | None:
    """First (lex) w-subset of dependent columns, given that no smaller
    dependent subset exists.  Returns (cols, coeffs) or None.

    Every (w-2)-prefix P is independent, so {P, k, l} is dependent iff the
    images of columns k and l modulo span(P) are projectively equal.  The
    prefixes are walked in lex order: each head (the first w-3 prefix
    columns) is eliminated once, then its successors j are eliminated in
    blocks of at most ``_COLLISION_CELLS`` cells.  The first collision is the
    lex-first dependent set; its relation comes from the kernel of the w
    found columns, scaled so that the last coefficient is -1.
    """
    rows, n = mat.shape
    if w == 1:
        zero = np.nonzero(~mat.any(axis=0))[0]
        return ((int(zero[0]),), (1,)) if zero.size else None

    def relation(cols: tuple) -> tuple:
        kern = gflin.kernel_basis(ctx, mat[:, cols])
        return cols, tuple(int(c) for c in ctx.neg_table[kern[0]])

    if w == 2:
        found = _first_collision(ctx, mat[None], np.full(1, -1))
        return relation(found[1:]) if found else None
    per_block = max(1, _COLLISION_CELLS // (rows * n))
    for head in itertools.combinations(range(n - 3), w - 3):
        red = mat[None]
        for c in head:
            red = _eliminate(ctx, red, red[:, :, c])
        for lo in range(head[-1] + 1 if head else 0, n - 2, per_block):
            js = np.arange(lo, min(lo + per_block, n - 2))
            imgs = np.broadcast_to(red, (len(js), rows, n))
            found = _first_collision(ctx, _eliminate(ctx, imgs, red[0][:, js].T), js)
            if found:
                b, k, l = found
                return relation(head + (int(js[b]), k, l))
    return None


def min_distance_by_columns(code: bch.BchCode, w_max: int = 5) -> DistanceResult:
    """Smallest w <= w_max with w linearly dependent parity columns.

    Support sets are scanned in lexicographic order per weight level, so the
    witness is the lex-first dependent set.  When every subset up to w_max is
    independent the result carries value None with searched_up_to = w_max.
    """
    if w_max < 2:
        raise ValueError("w_max must be >= 2")
    ctx = code.ctx
    mat = bch.expanded_parity_matrix(code)
    rk = gflin.rank(ctx, mat)
    for w in range(1, w_max + 1):
        if w > rk:
            # every w-subset is dependent; the lex-first is the first w columns
            if w > mat.shape[1]:
                break
            cols = tuple(range(w))
            kern = gflin.kernel_basis(ctx, mat[:, cols])
            coeffs = tuple(int(c) for c in kern[0])
            return DistanceResult(w, ColumnsWitness(cols, coeffs), "column-search")
        found = _lex_first_dependent(ctx, mat, w)
        if found:
            cols, coeffs = found
            return DistanceResult(
                w, ColumnsWitness(tuple(cols), tuple(coeffs)), "column-search"
            )
    return DistanceResult(None, None, "column-search", searched_up_to=w_max)


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------


def _enumerate_weights(ctx: FieldContext, mat: np.ndarray):
    """Yield (start_index, words_block) over all q^k messages in lex order."""
    q = ctx.q
    k, n = mat.shape
    add, mul = ctx.add_table, ctx.mul_table
    t = 0
    while t < k and q ** (t + 1) <= _BLOCK_ROWS:
        t += 1
    inner_rows = mat[k - t :] if t else mat[:0]
    block = np.zeros((1, n), dtype=np.int64)
    for row in inner_rows:
        scaled = mul[np.arange(q)[:, None], row[None, :]]
        block = add[block[:, None, :], scaled[None, :, :]].reshape(-1, n)
    outer_rows = mat[: k - t]
    if len(outer_rows) == 0:
        yield 0, block
        return
    start = 0
    for prefix in itertools.product(range(q), repeat=k - t):
        word0 = gflin.combine_rows(ctx, np.array(prefix, dtype=np.int64), outer_rows)
        yield start, add[word0[None, :], block]
        start += block.shape[0]


def _index_to_message(index: int, q: int, k: int) -> tuple[int, ...]:
    digits = []
    for _ in range(k):
        digits.append(index % q)
        index //= q
    return tuple(reversed(digits))


def weight_distribution(ctx: FieldContext, mat: np.ndarray, cap: int = EXHAUSTIVE_CAP) -> list[int]:
    """Exact weight distribution [A_0, ..., A_n] of the row space of mat."""
    k, n = mat.shape
    if ctx.q**k > cap:
        raise ValueError(f"q^k = {ctx.q**k} exceeds cap {cap}")
    counts = np.zeros(n + 1, dtype=np.int64)
    for _start, block in _enumerate_weights(ctx, mat):
        w = (block != 0).sum(axis=1)
        counts += np.bincount(w, minlength=n + 1)
    return [int(c) for c in counts]


def krawtchouk(n: int, q: int, j: int, i: int) -> int:
    """Krawtchouk polynomial K_j(i) over an alphabet of size q."""
    return sum(
        (-1) ** t * (q - 1) ** (j - t) * comb(i, t) * comb(n - i, j - t)
        for t in range(min(i, j) + 1)
    )


def macwilliams_transform(dist: list[int], n: int, q: int) -> list[int]:
    """Weight distribution of the dual of a code with distribution ``dist``."""
    size = sum(dist)
    out = []
    for j in range(n + 1):
        total = sum(dist[i] * krawtchouk(n, q, j, i) for i in range(n + 1))
        if total % size:
            raise AssertionError("MacWilliams transform is not integral")
        out.append(total // size)
    return out


def exhaustive_min_distance(
    ctx: FieldContext,
    mat: np.ndarray,
    cap: int = EXHAUSTIVE_CAP,
    via_dual_fallback: bool = True,
) -> DistanceResult:
    """Exact minimum weight of the row space of ``mat`` by full enumeration.

    When q^k exceeds the cap but the dual is small enough, the weight
    distribution of the kernel is enumerated instead and transformed back;
    that route yields no witness (method ``exhaustive-dual``).
    """
    q = ctx.q
    k, n = mat.shape
    if k == 0:
        raise ValueError("zero-dimensional code has no minimum distance")
    if q**k > cap:
        if via_dual_fallback and q ** (n - k) <= cap:
            kern = gflin.kernel_basis(ctx, mat)
            dual_dist = weight_distribution(ctx, kern, cap)
            dist = macwilliams_transform(dual_dist, n, q)
            if sum(dist) != q**k:
                raise AssertionError("transformed distribution has wrong size")
            value = next(i for i in range(1, n + 1) if dist[i])
            return DistanceResult(value, None, "exhaustive-dual")
        raise ValueError(f"q^k = {q**k} exceeds cap {cap}")
    best_w = n + 1
    best_index = -1
    best_word: tuple[int, ...] | None = None
    for start, block in _enumerate_weights(ctx, mat):
        w = (block != 0).sum(axis=1)
        if start == 0:
            w[0] = n + 1  # the zero message
        wmin = int(w.min())
        if wmin < best_w:
            local = int(np.argmin(w))
            best_w = wmin
            best_index = start + local
            best_word = tuple(int(c) for c in block[local])
    witness = CodewordWitness(
        word=best_word, source=("message", _index_to_message(best_index, q, k))
    )
    return DistanceResult(best_w, witness, "exhaustive")


# ---------------------------------------------------------------------------
# dual distance
# ---------------------------------------------------------------------------


def _root_count_scan(code: bch.BchCode):
    """Minimum positive weight over one (a, b) per symmetry class, with its (a, b).

    Classes: (a, b) ~ (lam*a, lam*b) for lam in GF(q)^* and
    (a, b) ~ (a*beta^h, b*beta^(h+1)); both preserve the weight of the trace
    word.  The representatives, in the order the first minimum is taken, are
    a = 0 with log b < g_b, then b = 0 with log a < g_a, then a = alpha^i,
    b = alpha^(i+v) for i < q+1 (major) and v < q-1 (minor).

    On U_{q+1}, b*u^(2h+2) + a*u^(2h+1) + a^q*u + b^q = u^(h+1) * Tr(X) with
    X = u^h * (a + b*u), so the weight is q+1 minus the number of u with
    Tr(X) = 0, that is with X = 0 or log X = c (mod q+1), where c = 0 for
    even q and (q+1)/2 for odd q.  For u = beta^j,
    log X = i + h(q-1)j + zech[v + (q-1)j], and the indices v + (q-1)j run
    over every residue mod q^2-1 once.  One histogram H[v, r] of
    (zech[v + (q-1)j] + h(q-1)j) mod (q+1) over j therefore gives every
    root count: roots(i, v) = H[v, (c-i) mod (q+1)] + zeros[v], with zeros[v]
    the number of j where X = 0.  The axis classes are pure exponent
    arithmetic.  All of it is O(q^2) work.
    """
    ctx = code.ctx
    q, h = ctx.q, code.h
    n = q + 1
    c = 0 if ctx.p == 2 else n // 2
    j = np.arange(n, dtype=np.int64)

    def first_min(weights: np.ndarray, offset: int) -> tuple[int, int]:
        # (smallest positive weight, its first flat index); n+1 stands for none
        masked = np.where(weights > 0, weights, n + 1)
        pos = int(np.argmin(masked))
        return int(masked.flat[pos]), offset + pos

    def monomial_weights(e: int, logs: np.ndarray) -> np.ndarray:
        # weights of x * u^e for x = alpha^logs: log X = log x + e(q-1)j
        hist = np.bincount((e * (q - 1) * j) % n, minlength=n)
        return n - hist[(c - logs) % n]

    # a = 0, b != 0: orbits of log b under +(q+1) and +(q-1)(h+1)
    g_b = gcd(q + 1, (q - 1) * (h + 1))
    # b = 0, a != 0
    g_a = gcd(q + 1, (q - 1) * h)
    best = [
        first_min(monomial_weights(h + 1, np.arange(g_b, dtype=np.int64)), 0),
        first_min(monomial_weights(h, np.arange(g_a, dtype=np.int64)), g_b),
    ]
    # both nonzero: zech[j, v] = log(1 + alpha^(v + (q-1)j)), in blocks of v
    zech = ctx.zech.reshape(n, q - 1)
    shift = ((h * (q - 1) * j) % n)[:, None]
    step = max(1, _ROOT_COUNT_CELLS // n)
    for v0 in range(0, q - 1, step):
        block = zech[:, v0 : v0 + step]
        width = block.shape[1]
        absent = block < 0
        cell = np.arange(width, dtype=np.int64) * n + (block + shift) % n
        hist = np.bincount(cell[~absent], minlength=width * n).reshape(width, n)
        # roots[i, v] for i < q+1, which runs over the same range as j
        roots = hist[:, (c - j) % n].T + absent.sum(axis=0)
        value, pos = first_min(n - roots, 0)
        i, dv = divmod(pos, width)
        best.append((value, g_b + g_a + i * (q - 1) + v0 + dv))
    value, idx = min(best)
    if idx < g_b:
        la, lb = None, idx
    elif idx < g_b + g_a:
        la, lb = idx - g_b, None
    else:
        la, v = divmod(idx - g_b - g_a, q - 1)
        lb = la + v
    a = ctx.exp_at(la) if la is not None else 0
    b = ctx.exp_at(lb) if lb is not None else 0
    return (value if value <= n else 0), (a, b)


def dual_min_distance(code: bch.BchCode, method: str = "root-count") -> DistanceResult:
    """Exact minimum distance of the dual code.

    ``root-count`` walks (a, b) symmetry classes of the trace representation
    (delta = 3 only); ``dual-enum`` enumerates the span of a kernel basis of
    the generator matrix.  The two agree wherever both apply.
    """
    ctx = code.ctx
    if method == "dual-enum":
        basis = bch.dual_basis(code)
        res = exhaustive_min_distance(ctx, basis, via_dual_fallback=False)
        return DistanceResult(res.value, res.witness, "dual-enum")
    if method == "root-count":
        if code.delta != 3:
            raise ValueError("root-count requires delta = 3")
        value, ab = _root_count_scan(code)
        word = bch.dual_codeword(code, ab[0], ab[1])
        if word.weight() != value:
            raise AssertionError("root count disagrees with direct trace weight")
        return DistanceResult(
            value,
            CodewordWitness(word=word.word, source=("trace", ab[0], ab[1])),
            "root-count",
        )
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# witness re-validation
# ---------------------------------------------------------------------------


def _in_code(code: bch.BchCode, word: np.ndarray) -> bool:
    """Whether a length-n compact-label word vanishes on every parity row.

    The products w_i * beta^((h+r)i) are formed through logs and summed as
    base-p digit vectors mod p, so no field addition of the code under test
    is involved.
    """
    ctx = code.ctx
    lw = ctx.log[ctx.from_compact(word)]
    r = np.arange(code.delta - 1, dtype=np.int64)[:, None]
    shift = (code.h + r) * (ctx.q - 1) * np.arange(code.n, dtype=np.int64)
    terms = np.where(lw < 0, 0, ctx.exp[(lw + shift) % ctx.order])
    digits = terms[..., None] // ctx.p ** np.arange(2 * ctx.s, dtype=np.int64) % ctx.p
    return not (digits.sum(axis=1) % ctx.p).any()


def _in_dual(code: bch.BchCode, word: np.ndarray) -> bool:
    """Whether a length-n compact-label word is orthogonal to the code.

    The shifts x^i * g, i < k, span the code, so the word is in the dual iff
    sum_j w[i+j] * g_j = 0 for every i < k: one length-k gather on the
    subfield tables per coefficient of g.
    """
    ctx = code.ctx
    acc = np.zeros(code.k, dtype=np.int16)
    for j, c in enumerate(ctx.to_compact(code.g.coeffs)):
        acc = ctx.add_table[acc, ctx.mul_table[c, word[j : j + code.k]]]
    return not acc.any()


def verify_witness(code: bch.BchCode, result: DistanceResult) -> bool:
    """Re-validate a result's witness from scratch; False on any defect."""
    if result is None or result.value is None or result.witness is None:
        return False
    wit = result.witness
    if isinstance(wit, ColumnsWitness):
        if len(wit.cols) != result.value or len(wit.coeffs) != len(wit.cols):
            return False
        if list(wit.cols) != sorted(set(wit.cols)):
            return False
        if any(not 0 <= c < code.n for c in wit.cols):
            return False
        if any(c == 0 for c in wit.coeffs):
            return False
        word = np.zeros(code.n, dtype=np.int64)
        word[list(wit.cols)] = wit.coeffs
        return _in_code(code, word)
    if isinstance(wit, CodewordWitness):
        word = np.array(wit.word, dtype=np.int64)
        if len(word) != code.n or ((word < 0) | (word >= code.q)).any():
            return False
        if int((word != 0).sum()) != result.value or result.value == 0:
            return False
        if result.method in ("exhaustive", "exhaustive-dual"):
            return _in_code(code, word)
        return _in_dual(code, word)
    return False


__all__ = [
    "DistanceResult",
    "ColumnsWitness",
    "CodewordWitness",
    "min_distance_by_columns",
    "exhaustive_min_distance",
    "dual_min_distance",
    "verify_witness",
    "weight_distribution",
    "macwilliams_transform",
    "krawtchouk",
    "EXHAUSTIVE_CAP",
]
