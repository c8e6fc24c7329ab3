"""Ground-truth minimum-distance engines.

Three independent routes to the same numbers:

* ``min_distance_by_columns`` scans support sets of the expanded parity
  matrix in lexicographic order and reports the smallest dependent set
  (delta <= 3, so at most 4 rows and sets of at most 4 columns to scan).
  It reduces the matrix H once, to R = rref(H) = E * H with E invertible,
  so every linear relation among columns, every set of columns equal up
  to factors and every relation of a minimal dependent set is the same on
  R as on H; the cyclic check, the search and the witness relation all
  read R.
* ``exhaustive_min_distance`` enumerates every codeword of a generator
  matrix (blockwise, vectorised), with a MacWilliams fallback through the
  dual when the direct enumeration would blow the cap.
* ``dual_min_distance`` measures the dual code either by enumerating the
  span of a kernel basis (``dual-enum``) or by counting the roots of
  b*u^(2h+2) + a*u^(2h+1) + a^q*u + b^q over U_{q+1} for one representative
  (a, b) per weight-preserving symmetry class (``root-count``).  On U_{q+1}
  that polynomial is u^(h+1) * Tr(u^h (a + b*u)), and the trace vanishes on
  one residue class of the discrete log mod q+1, so the root counts of every
  class with a, b nonzero come from one histogram of Zech logarithms mod q+1
  (``FieldContext.zech_residues``): O(q^2) work per code, in contiguous
  blocks of rows with one subtraction and one ``bincount`` each; the
  classes with a = 0 or b = 0 take one gcd each.  The minimum's trace word, whose weight must equal the count, is formed by
  ``bch.dual_codeword`` from the rows of the expanded parity matrix, and
  reads none of those residues.

Every engine that finds a value emits a witness that ``verify_witness``
re-validates from scratch.

The engines carry no cap on q: the one limit on q is the table cap that
``build_field`` checks.  The only limit here is ``EXHAUSTIVE_CAP`` on the
number of words an exhaustive enumeration may visit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, gcd

import numpy as np

from . import bch, cosets, gflin
from .field import FieldContext

# enumerated words (q^k) per exhaustive run
EXHAUSTIVE_CAP = 1 << 26

_BLOCK_ROWS = 1 << 19
# stream rows in the first column-search block: lo = -1, 0 and 1, that is
# w = 2, w = 3 and w = 4 through columns 0 and 1, which hold every d <= 4
# witness with q <= 64
_FIRST_ROWS = 3
# reduced cells (rows x matrix rows x columns) per later column-search block:
# each block holds twice the cells of the one before, up to _COLLISION_CELLS
# (a few MB)
_COLLISION_CELLS = 1 << 18
# histogram cells (2(q+1) per row) per root-count block: 96 KiB of int64
# bins, and half that for the lane differences and the root counts, so that
# each temporary of a block stays below glibc's 128 KiB mmap and trim
# thresholds and the allocator recycles it instead of faulting in fresh pages
_ROOT_COUNT_CELLS = 3 << 12


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
    return table.ravel().take(np.multiply(a, table.shape[1], dtype=np.intp) + b)


def _pack_heads(unit: np.ndarray, bits: int) -> np.ndarray:
    """One int64 key per column of ``unit`` (count, rows <= 4, n), whose
    columns are scaled so that their first nonzero entry is 1.

    Row 0 then reads 0 or 1 and takes 1 bit, and rows 1 .. rows - 1 take
    ``bits`` bits each: 46 bits at q = 2^15, which leaves room for a 16-bit
    column index.  Equal keys mean equal columns, and a zero column keeps
    key 0.
    """
    unit = unit.astype(np.int64)
    return unit[:, 0] + sum(unit[:, r] << (1 + bits * (r - 1)) for r in range(1, unit.shape[1]))


def _head_keys(ctx: FieldContext, imgs: np.ndarray) -> np.ndarray:
    """Keys of the columns of ``imgs`` (count, rows <= 4, n) that are equal
    iff the columns are nonzero multiples of each other (``_pack_heads``)."""
    lead = np.choose((imgs != 0).argmax(axis=1), imgs.transpose(1, 0, 2))
    unit = _gather(ctx.mul_table, ctx.inv_table[lead][:, None], imgs)
    return _pack_heads(unit, max(1, (ctx.q - 1).bit_length()))


# the rows of a 3-row matrix other than row p, for p = 0, 1, 2
_OTHER_ROWS = np.array([[1, 2], [0, 2], [0, 1]])


def _p1_keys(ctx: FieldContext, r1: np.ndarray, js: np.ndarray) -> np.ndarray:
    """(len(js), n) keys of the columns of ``r1`` (3 rows) modulo column j,
    one row per j in ``js``, each a point of P^1(GF(q)) or q + 1.

    With p the first nonzero row of column j, adding f_x * r1[:, j] to
    column x, where f_x = -r1[p, x] / r1[p, j], clears row p and leaves the
    image I_x, whose two other rows (u, v) are the coordinates of column x
    in a complement of span(r1[:, j]).  Two columns are equal modulo
    column j up to a nonzero factor iff their images are, so the key u / v
    (v != 0), q (v = 0 != u) or q + 1 (a zero image) is equal iff they are.
    """
    cols = r1[:, js]  # (3, B)
    batch = np.arange(len(js))
    p = (cols != 0).argmax(axis=0)
    rest = _OTHER_ROWS[p]  # (B, 2)
    scale = ctx.neg_table[ctx.inv_table[cols[p, batch]]]
    # scale first: each row of n products then reads one row of the table
    f = _gather(ctx.mul_table, scale[:, None], r1[p])
    shift = _gather(ctx.mul_table, cols[rest, batch[:, None]][:, :, None], f[:, None])
    u, v = _gather(ctx.add_table, r1[rest], shift).transpose(1, 0, 2)
    ratio = _gather(ctx.mul_table, u, ctx.inv_table[v])
    return np.where(v != 0, ratio, ctx.q + (u == 0))


def _first_collision(keys: np.ndarray, lo: np.ndarray) -> tuple | None:
    """First (b, k, l) with lo[b] < k < l and keys[b, k] == keys[b, l]: the
    smallest b, then the smallest such k, then l.

    The column index goes into the low bits of each key, so one plain sort
    of each row puts equal keys next to each other in column order.
    """
    n = keys.shape[1]
    col_bits = (n - 1).bit_length()
    packed = (keys << col_bits) | np.arange(n)
    packed.sort(axis=-1)
    order = packed & ((1 << col_bits) - 1)
    ranked = packed >> col_bits
    same = ranked[:, 1:] == ranked[:, :-1]
    # a valid k (> lo) is followed by its smallest partner l
    cand = np.where(same & (order[:, :-1] > lo[:, None]), order[:, :-1], n)
    hit = np.nonzero(cand.min(axis=1) < n)[0]
    if not hit.size:
        return None
    b = int(hit[0])
    pos = int(np.argmin(cand[b]))
    return b, int(order[b, pos]), int(order[b, pos + 1])


def _relation(ctx: FieldContext, r_mat: np.ndarray, cols: tuple) -> tuple:
    """Coefficients of the one relation among the minimal dependent columns
    ``cols`` of the reduced matrix, scaled so that the last one is -1.

    Read off by scalar lookups.  With (k, l) the last two columns, their
    images (the columns themselves, the rows below row 0, or those rows
    modulo column j as in ``_p1_keys``) satisfy I_l = c * I_k.  Then
    (k, l) has coefficients (c, -1); (0, k, l) has (a, c, -1) with
    a = R[0, l] - c * R[0, k]; and (0, j, k, l) has (a, b, c, -1) with
    b = c * f_k - f_l and a = R[0, l] - b * R[0, j] - c * R[0, k].
    """
    add, mul, neg, inv = ctx.add_table, ctx.mul_table, ctx.neg_table, ctx.inv_table

    def first(vec):
        return next(i for i, x in enumerate(vec) if x)

    k, l = (r_mat[:, x].tolist() for x in cols[-2:])
    if len(cols) > 2:
        (top_k, *k), (top_l, *l) = k, l  # modulo column 0, which is e_0
    b = top_j = 0
    if len(cols) == 4:
        top_j, *j = r_mat[:, cols[1]].tolist()
        p = first(j)
        scale = neg[inv[j[p]]]
        f_k, f_l = int(mul[scale, k[p]]), int(mul[scale, l[p]])
        k = [add[x, mul[f_k, y]] for x, y in zip(k, j)]
        l = [add[x, mul[f_l, y]] for x, y in zip(l, j)]
    t = first(k)
    c = int(mul[l[t], inv[k[t]]])
    if len(cols) == 2:
        return c, int(neg[1])
    if len(cols) == 4:
        b = int(add[mul[c, f_k], neg[f_l]])
    a = int(add[top_l, neg[add[mul[b, top_j], mul[c, top_k]]]])
    return ((a, b) if len(cols) == 4 else (a,)) + (c, int(neg[1]))


def _row_keys(ctx: FieldContext, r_mat: np.ndarray, js: np.ndarray) -> np.ndarray:
    """(len(js), n) keys of the rows named by the ascending ``js``.

    Row j <= 1 is R with rows 0 .. j cleared, keyed by its scaled columns
    (``_head_keys``): the columns of R (j = -1), R modulo column 0, which is
    e_0 (j = 0), and R modulo columns 0 and 1 (j = 1), since column 1 is e_1
    when it is independent of column 0.  When it is not, the two are equal
    up to a factor, and row -1, which comes first, collides.  Row j >= 2 is
    R[1:] modulo column j, keyed by points of P^1(GF(q)) (``_p1_keys``).
    """
    heads = []
    # a block's rows -1 .. 1 are consecutive stream rows
    for j in range(max(-1, int(js[0])), min(1, int(js[-1])) + 1):
        heads.append(r_mat.copy())
        heads[-1][: j + 1] = 0
    keys = [_head_keys(ctx, np.stack(heads))] if heads else []
    if js[-1] > 1:
        keys.append(_p1_keys(ctx, r_mat[1:], js[js > 1]))
    return np.concatenate(keys)


def _walk(
    ctx: FieldContext, r_mat: np.ndarray, js: np.ndarray, lo: np.ndarray, cells: int
) -> tuple | None:
    """First collision (j, k, l) with lo < k < l over the rows ``js`` in
    order (``_first_collision``), walked in blocks of about ``cells`` reduced
    cells that double up to _COLLISION_CELLS; None if no row has one."""
    rows, n = r_mat.shape
    start = 0
    while start < len(js):
        stop = start + max(1, cells // (rows * n))
        found = _first_collision(_row_keys(ctx, r_mat, js[start:stop]), lo[start:stop])
        if found:
            b, k, l = found
            return int(js[start + b]), k, l
        start, cells = stop, min(2 * cells, _COLLISION_CELLS)
    return None


def _lex_first_dependent(ctx: FieldContext, r_mat: np.ndarray, top: int) -> tuple | None:
    """Lex-first dependent set of the smallest size w in 2..top <= 4, given
    the reduced echelon form ``r_mat`` of a matrix with no zero column whose
    row space the cyclic shift of the columns maps onto itself.  Returns
    (cols, coeffs) or None.

    The reduced form R = E * H, with E invertible, has exactly the linear
    relations among its columns that H has: every dependent set, every set
    of columns equal up to factors and every relation of a minimal dependent
    set is the same on R as on H.  Column 0 is nonzero, so it is the first
    pivot and R's column 0 is e_0.

    Under the shift a dependent set stays dependent, so every dependent set
    has a shift that contains column 0, and the lex-first one starts at 0.
    From w = 3 on only the sets through column 0 are therefore scanned.

    A row of the stream holds the independent columns P of a candidate set
    and a lower bound lo: P + (k, l) with lo < k < l is dependent iff the
    images of columns k and l modulo span(P) are nonzero multiples of each
    other.  There are three kinds of row, each named by its lo:

    * lo = -1, P = (): the columns of R (w = 2);
    * lo = 0, P = (0,): R with row 0 cleared, since column 0 is e_0 (w = 3);
    * lo = j = 1 .. n - 3, P = (0, j): the rows R1 = R[1:] modulo column j,
      each column keyed by its point of P^1(GF(q)) (``_p1_keys``; w = 4).

    The first two kinds are keyed by their scaled columns (``_head_keys``),
    and so is row j = 1 (``_row_keys``).  The stream is cut at level
    ``top``.  Its first _FIRST_ROWS rows, lo = -1, 0 and 1, are one block;
    the rows after them are walked in blocks of cells that double, each
    block searched for its first collision over all its rows at once
    (``_walk``).

    The first collision in stream order is the answer.  Let d be the
    smallest size of a dependent set.  A row of level w <= d has a prefix of
    w - 2 < d columns, which is independent, so its collisions are exactly
    its dependent sets; rows of level w < d therefore have none.  (At w = 4
    the zero images are then columns 0 and j only, both at most lo.)  A row
    of level w > d may have a dependent prefix and report a false collision,
    but it comes after every row of level d, and when d <= top some row of
    level d holds the lex-first dependent set.  Its relation is read off R
    (``_relation``), scaled so that the last coefficient is -1.

    When the first block has no collision and the stream goes on to the
    w = 4 rows, d >= 4 and the rank is 4.  Before the rest of the stream, the
    w = 4 level is then cleared on one row j per p-cyclotomic coset of Z_n,
    each a full row: every column modulo columns 0 and j, with lo = 0 (as
    d >= 4, only columns 0 and j have zero images).  A full row j collides
    iff some {0, j, k, l} is dependent, that is iff j lies in the set J of
    the j that share the support of a weight-4 codeword with 0.  J is a
    union of p-cyclotomic cosets:

    * The row space absorbs the shift, so the code, its orthogonal
      complement, is a cyclic code of length n = q + 1 over GF(q).  Its zeros
      are closed under multiplication by q, which is -1 mod n, so the
      reflection (c_i) -> (c_(-i)) keeps the code.
    * So does the semilinear map that moves c_i to position p * i and raises
      it to the p-th power: sum_i c_i^p beta^(e p i) = (sum_i c_i beta^(e i))^p
      vanishes wherever the code's words do.
    * The two maps take a codeword on {0, j, k, l} to codewords on
      {0, -j, -k, -l} and {0, pj, pk, pl}, and -1 = p^s mod n, so they
      generate the p-cyclotomic coset of j.  Both follow from the shift
      check, so neither is checked on its own.

    A coset whose leader is at most the first block's last lo is skipped:
    stream rows -1 .. lo hold every dependent {0, a, b, c} with a <= lo,
    whichever of a, b, c is j.  When no coset row collides, J is empty and
    d >= 5.  Otherwise the stream goes on from the row after the first
    block, so every witness is the one the whole stream gives.
    """
    rows, n = r_mat.shape
    lo = np.arange(-1, n - 2)
    lo = lo[np.minimum(lo, 1) + 3 <= top]  # level w = 2, 3, 4 by kind
    head, tail = lo[:_FIRST_ROWS], lo[_FIRST_ROWS:]
    found = _walk(ctx, r_mat, head, head, len(head) * rows * n)
    later = min(2 * len(head) * rows * n, _COLLISION_CELLS)
    if found is None and tail.size:
        if tail[0] > 0:  # levels 2 and 3 cleared: d >= 4
            leaders = cosets.coset_leaders(n, ctx.p)
            leaders = leaders[leaders > head[-1]]
            if _walk(ctx, r_mat, leaders, np.zeros_like(leaders), later) is None:
                return None
        found = _walk(ctx, r_mat, tail, tail, later)
    if found is None:
        return None
    j, k, l = found
    cols = (() if j < 0 else (0,) if j == 0 else (0, j)) + (k, l)
    return cols, _relation(ctx, r_mat, cols)


def _check_cyclic(ctx: FieldContext, mat: np.ndarray, r_mat: np.ndarray, pivots: list) -> None:
    """Raise AssertionError unless the shifted columns ``np.roll(mat, 1, axis=1)``
    lie in the row space of ``mat``, given its reduced echelon form.

    Row i of R has 1 at pivot i and 0 at the other pivots, so a shifted row
    s lies in the row space iff s equals the sum of s[pivot_i] * R[i]: one
    gather of every product, one gather per further pivot to sum them and
    one compare.
    """
    rk = len(pivots)
    # column c of the shifted matrix is column c - 1 of mat
    prods = _gather(ctx.mul_table, mat[:, [c - 1 for c in pivots], None], r_mat[None, :rk])
    span = np.zeros_like(mat) if rk == 0 else prods[:, 0]
    for i in range(1, rk):
        span = _gather(ctx.add_table, span, prods[:, i])
    if (span[:, 1:] != mat[:, :-1]).any() or (span[:, 0] != mat[:, -1]).any():
        raise AssertionError("parity matrix is not invariant under the cyclic shift")


def min_distance_by_columns(code: bch.BchCode, w_max: int = 5) -> DistanceResult:
    """Smallest w <= w_max with w linearly dependent parity columns.

    Support sets are scanned in lexicographic order per weight level, so the
    witness is the lex-first dependent set.  The matrix is reduced once;
    the cyclic check, the search and every relation read that one reduced
    form.  The code is cyclic, which is checked rather than assumed: its
    row space must absorb the one-column shift.  So from w = 3 on only the
    sets through column 0 are scanned, and clearing the w = 4 level of a
    d = 5 code takes O(n) rows and O(n^2) work, not O(n^2) rows.  Levels 2
    to min(rank, w_max) share one stream of rows (``_lex_first_dependent``);
    past the rank every set is dependent.  A code with delta <= 3 has at
    most 4 parity rows over GF(q), so the stream never passes level 4;
    delta >= 4 raises ValueError.  When every subset up to w_max is
    independent the result carries value None with searched_up_to = w_max.
    """
    if w_max < 2:
        raise ValueError("w_max must be >= 2")
    if code.delta > 3:
        raise ValueError("column search requires delta <= 3")
    ctx = code.ctx
    mat = bch.expanded_parity_matrix(code)
    r_mat, pivots = gflin.rref(ctx, mat)
    _check_cyclic(ctx, mat, r_mat, pivots)
    rk = len(pivots)
    top = min(rk, w_max)
    zero = np.nonzero(~mat.any(axis=0))[0]
    if top >= 1 and zero.size:
        return DistanceResult(1, ColumnsWitness((int(zero[0]),), (1,)), "column-search")
    found = _lex_first_dependent(ctx, r_mat, top)
    if found:
        cols, coeffs = found
        return DistanceResult(len(cols), ColumnsWitness(cols, coeffs), "column-search")
    w = rk + 1
    if w <= min(w_max, mat.shape[1]):
        # every w-subset is dependent and the first rk columns are the
        # pivots, so the lex-first is the first w columns, with the kernel
        # vector of free column rk
        coeffs = tuple(int(c) for c in ctx.neg_table[r_mat[:rk, rk]]) + (1,)
        return DistanceResult(w, ColumnsWitness(tuple(range(w)), coeffs), "column-search")
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
        if q ** (n - k) <= cap:
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


def _axis_min(q: int, e: int) -> tuple[int, int]:
    """(smallest positive weight, its first log x) over x*u^e for log x < g,
    g = gcd(e(q-1), q+1): the axis class with that e (see ``_root_count_scan``)."""
    n = q + 1
    c = 0 if q % 2 == 0 else n // 2
    g = gcd(e * (q - 1), n)
    if g < n:
        return n - g, c % g
    # every u is a root of the zero word's cell L = c and of no other cell
    return n, int(c == 0)


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
    even q and (q+1)/2 for odd q.

    The axis classes are in closed form (``_axis_min``).  There X = x * u^e
    with x = b, e = h+1 (a = 0) or x = a, e = h (b = 0), so for u = beta^j,
    log X = L + e(q-1)j with L = log x, and u is a root iff
    e(q-1)j = c - L (mod q+1).  The map j -> e(q-1)j is an endomorphism of
    Z_(q+1) whose kernel has g = gcd(e(q-1), q+1) elements, so its image is
    gZ_(q+1) and each point of it is hit g times (Lidl and Niederreiter,
    *Finite Fields*, ch. 2).  Hence x has g roots, weight q+1-g, when
    L = c (mod g), and weight q+1 otherwise.  L mod g is also what tells the
    classes apart, log x < g: scaling by GF(q)^* moves L by multiples of q+1,
    and the second symmetry moves it by e(q-1).  The first positive minimum
    is L = c mod g with weight q+1-g, except for g = q+1, where that cell is
    the zero word and the first other L has weight q+1; for g = 1 the one
    cell, L = 0, has one root.

    For both nonzero and u = beta^j, log X = i + h(q-1)j + zech[v + (q-1)j],
    and the indices v + (q-1)j run over every residue mod q^2-1 once.  So u
    is a root for exactly one i, i = c - h(q-1)j - zech[v + (q-1)j]
    (mod q+1), and a histogram of that i over j gives the root counts
    roots[v, i] of a whole row v at once.  X = 0 for one (v, j) only, v = 0
    and alpha^((q-1)j) = -1, where every i has a root.

    The rows come from ``ctx.zech_residues`` (the Zech logs mod q+1) in
    contiguous blocks of _ROOT_COUNT_CELLS // (2(q+1)) rows.  A block is one
    subtraction from per-code lanes, which puts row r's bins in
    [2(q+1)r, 2(q+1)(r+1)) and keeps each bin below 2(q+1) within its row;
    one ``bincount``; and one fold of each row's two halves, which does the
    mod.  Only a block that reaches the running most roots (below q+1) is
    searched for its first (i, v), and a tie can win only with a smaller i,
    since v grows from block to block.  All of it is O(q^2) work.
    """
    ctx = code.ctx
    q, h = ctx.q, code.h
    n = q + 1
    c = 0 if ctx.p == 2 else n // 2
    j = np.arange(n, dtype=np.int64)
    # (weight, class rank, log a, log b): a = 0, then b = 0, then both nonzero
    wb, lb = _axis_min(q, h + 1)
    wa, la = _axis_min(q, h)
    best = [(wb, 0, None, lb), (wa, 1, la, None)]
    # both nonzero: u = beta^j is a root iff i = target_j - res[v, j] (mod n);
    # row r's lanes are 2nr + n + target_j, so lane - res[v, j] falls in row
    # r's 2n bins, and adding the two halves of a row reduces it mod n
    res = ctx.zech_residues
    step = max(1, _ROOT_COUNT_CELLS // (2 * n))
    target = (c - h * (q - 1) * j) % n
    lanes = np.arange(n, 2 * n * min(step, q - 1), 2 * n, dtype=np.int64)[:, None] + target
    absent = target[ctx.log_minus_one // (q - 1)]
    top, first = -1, None  # most roots below n, and its first (i, v)
    for v0 in range(0, q - 1, step):
        block = res[v0 : v0 + step]
        width = len(block)
        hist = np.bincount((lanes[:width] - block).ravel(), minlength=2 * n * width)
        hist = hist.reshape(width, 2 * n)
        roots = hist[:, :n] + hist[:, n:]
        if v0 == 0:
            # the cell of -1 holds 0 and was counted at its bin; X = 0 there
            # instead, a root for every i
            roots[0, absent] -= 1
            roots[0] += 1
        most = int(roots.max())
        if most >= n:
            most = int(roots[roots < n].max(initial=-1))
        if most < top or most < 0:
            continue
        # first (i, v) in scan order among the block's cells with most roots;
        # v grows from block to block, so a tie wins only with a smaller i
        hit = roots[:, : n if most > top else first[0]].T == most
        if hit.any():
            i, dv = divmod(int(hit.argmax()), width)
            top, first = most, (i, v0 + dv)
    if first is not None:
        best.append((n - top, 2, first[0], first[0] + first[1]))
    value, _, la, lb = min(best)
    a = ctx.exp_at(la) if la is not None else 0
    b = ctx.exp_at(lb) if lb is not None else 0
    return value, (a, b)


def dual_min_distance(code: bch.BchCode, method: str = "root-count") -> DistanceResult:
    """Exact minimum distance of the dual code.

    ``root-count`` walks (a, b) symmetry classes of the trace representation
    (delta = 3 only); ``dual-enum`` enumerates the span of a kernel basis of
    the generator matrix.  The two agree wherever both apply.
    """
    ctx = code.ctx
    if method == "dual-enum":
        basis = bch.dual_basis(code)
        res = exhaustive_min_distance(ctx, basis)
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

    The products w_i * beta^((h+r)i) are formed through logs and summed by
    ``FieldContext.sums_vanish``, so no field addition of the code under test
    is involved.  Only the nonzero entries are read, since a zero entry adds
    a zero term: a column witness sums at most 5 terms per row.
    """
    ctx = code.ctx
    support = np.flatnonzero(word)
    lw = ctx.log[ctx.from_compact(word[support])]
    r = np.arange(code.delta - 1, dtype=np.int64)[:, None]
    return not support.size or ctx.sums_vanish(lw + (code.h + r) * (ctx.q - 1) * support)


def _in_dual(code: bch.BchCode, word: np.ndarray) -> bool:
    """Whether a length-n compact-label word is orthogonal to the code.

    The shifts x^i * g, i < k, span the code, so the word is in the dual iff
    sum_j w[i+j] * g_j = 0 for every i < k: one length-k gather on the
    subfield tables per coefficient of g.
    """
    ctx = code.ctx
    acc = np.zeros(code.k, dtype=np.int16)
    for j, c in enumerate(code.compact_g):
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
        if any(not 0 < c < code.q for c in wit.coeffs):
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
