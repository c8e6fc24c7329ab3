"""Column search against the per-subset reference and the golden witnesses.

``reference/column_search.py`` holds the per-subset ``rref`` loop that the
collision kernel replaced, on the row-by-row ``rref`` of
``reference/linalg.py``; both must return equal ``DistanceResult``s (value,
lex-first columns, coefficients and ``searched_up_to``).  The golden file
``column_witnesses.json`` was recorded from that loop;
``column_witnesses_q64.json`` pins every delta = 3 witness with q <= 64 as
the full lex scan gave it before the search was restricted to the sets
through column 0.

Column search reduces the parity matrix once, to R, and walks one stream of
rows, each named by its lower bound lo: the columns of R (lo = -1, w = 2),
R modulo column 0 (lo = 0, w = 3) and R modulo columns 0 and j, keyed by
points of P^1(GF(q)) (lo = j, w = 4).  The first block is the rows
lo = -1, 0 and 1; when it finds nothing, the w = 4 level is cleared on one
full row per p-cyclotomic coset of Z_(q+1) before the rest of the stream.
The tests below pin how the blocks cut that stream, which coset rows are
keyed and that the rows that collide are a union of cosets, that the one
reduction is the only elimination and carries the cyclic check, which
rejects a matrix before any row is keyed, the keys and their packing into
one word per column, and that codes with delta >= 4, whose search would
pass level 4, are refused; delta = 2 and delta = 3 codes are compared with
the reference, whose elimination is its own.
"""

import functools
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from bchlab import bch, distance, gflin
from bchlab.bch import build_bch, expanded_parity_matrix
from bchlab.cosets import all_cosets
from bchlab.distance import min_distance_by_columns, verify_witness
from bchlab.field import build_field
from bchlab.harness import prime_powers_upto
from bchlab.theory import degenerate_offsets

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "column_witnesses.json"
GOLDEN_Q64 = HERE / "golden" / "column_witnesses_q64.json"

# loaded by path: a top-level ``reference`` name would clash with other
# modules of that name on sys.path
_spec = importlib.util.spec_from_file_location(
    "column_search_reference", HERE / "reference" / "column_search.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)
linalg = reference.linalg


def codes(max_q, delta):
    """Every code with q <= max_q at this designed distance, offset by offset."""
    for q, p, s in prime_powers_upto(max_q):
        ctx = build_field(p, s)
        for h in range(q + 1):
            try:
                yield build_bch(ctx, delta, h)
            except ValueError:  # delta out of range for this q
                continue


@functools.lru_cache(maxsize=None)
def reference_result(p, s, delta, h, w_max):
    # shared by the tests that compare the same codes under different blocks
    code = build_bch(build_field(p, s), delta, h)
    return reference.min_distance_by_columns(code, w_max=w_max)


def assert_matches_reference(code, w_max=5):
    fast = min_distance_by_columns(code, w_max=w_max)
    slow = reference_result(code.ctx.p, code.ctx.s, code.delta, code.h, w_max)
    assert fast == slow, (code.ctx.q, code.delta, code.h, w_max)
    if fast.value is not None:
        assert verify_witness(code, fast)


def test_matches_reference_delta3_every_offset():
    checked = 0
    for code in codes(16, 3):
        assert_matches_reference(code)
        checked += 1
    assert checked == sum(q + 1 for q, _, _ in prime_powers_upto(16))


def test_matches_reference_delta2_every_offset():
    # two parity rows: the stream holds the columns themselves (w = 2) and
    # the w = 3 level comes from the w > rank shortcut
    checked = 0
    for code in codes(9, 2):
        assert_matches_reference(code)
        checked += 1
    assert checked == 45


@pytest.mark.parametrize("delta", [4, 5])
def test_larger_delta_rejected(monkeypatch, delta):
    # the stream stops at level 4: a code with 6 or more parity rows is
    # refused before its matrix is built
    monkeypatch.setattr(bch, "expanded_parity_matrix", None)
    code = build_bch(build_field(3, 2), delta, 1)
    with pytest.raises(ValueError, match="delta <= 3"):
        min_distance_by_columns(code)


def test_matches_reference_w_max_3():
    for code in codes(9, 3):
        assert_matches_reference(code, w_max=3)


def test_golden_witnesses():
    for case in json.loads(GOLDEN.read_text()):
        code = build_bch(build_field(case["p"], case["s"]), case["delta"], case["h"])
        res = min_distance_by_columns(code)
        got = {
            "value": res.value,
            "cols": list(res.witness.cols),
            "coeffs": list(res.witness.coeffs),
            "searched_up_to": res.searched_up_to,
        }
        want = {k: case[k] for k in got}
        assert got == want, (case["p"], case["s"], case["h"])
        assert verify_witness(code, res)


def test_golden_witnesses_every_delta3_code_q64():
    lines = []
    for code in codes(64, 3):
        res = min_distance_by_columns(code)
        wit = res.witness
        row = {
            "p": code.ctx.p,
            "s": code.ctx.s,
            "h": code.h,
            "value": res.value,
            "cols": list(wit.cols) if wit else None,
            "coeffs": list(wit.coeffs) if wit else None,
        }
        lines.append(json.dumps(row))
    assert "[\n  " + ",\n  ".join(lines) + "\n]\n" == GOLDEN_Q64.read_text()


def test_d5_code_at_q512_clears():
    # q/2 - 1 is a d = 5 offset; only the scan through column 0 makes the
    # w = 4 level quadratic in n (a full scan clears every 4-subset)
    code = build_bch(build_field(2, 9), 3, 255)
    res = min_distance_by_columns(code)
    assert res.value == 5 and res.witness.cols == (0, 1, 2, 3, 4)
    assert verify_witness(code, res)


def test_non_cyclic_matrix_rejected(monkeypatch):
    # the rejection comes from the one reduction, before any row is keyed
    code = build_bch(build_field(2, 4), 3, 3)
    mat = expanded_parity_matrix(code)
    perm = list(range(code.n))
    perm[1], perm[2] = perm[2], perm[1]
    monkeypatch.setattr(bch, "expanded_parity_matrix", lambda code: mat[:, perm])
    monkeypatch.setattr(distance, "_row_keys", None)
    with pytest.raises(AssertionError, match="cyclic shift"):
        min_distance_by_columns(code)


def _shift_residual(ctx, mat):
    # each shifted row s minus the sum of s[pivot_i] * R[i], R = rref(mat) by
    # the reference loop: zero iff s lies in the row space
    red, piv = linalg.rref(ctx, mat)
    shifted = np.roll(mat, 1, axis=1)
    out = shifted.copy()
    for i, c in enumerate(piv):
        out = ctx.add_table[out, ctx.mul_table[ctx.neg_table[shifted[:, c]][:, None], red[i]]]
    return out, piv


def test_shift_residual_off_the_pivots_rejected(monkeypatch):
    # rows m_(c+k) = lam^-k (indices mod n), for four ratios lam with
    # lam^n = lam^2 != 1: the shift takes each row to lam times itself plus
    # a multiple of e_c, so the residual is nonzero in column c alone, past
    # the pivots 0 .. 3, where the reduction leaves every carried row zero
    ctx = build_field(2, 4)
    code = build_bch(ctx, 3, 3)
    n, c = code.n, 9
    mat = np.zeros((4, n), dtype=np.int64)
    for row, lam in zip(mat, [2, 3, 4, 5]):
        x = 1
        for k in range(n):
            row[(c + k) % n] = x
            x = ctx.mul_table[x, ctx.inv_table[lam]]
    residual, piv = _shift_residual(ctx, mat)
    assert piv == [0, 1, 2, 3]
    assert np.flatnonzero(residual.any(axis=0)).tolist() == [c]
    monkeypatch.setattr(bch, "expanded_parity_matrix", lambda code: mat)
    monkeypatch.setattr(distance, "_row_keys", None)
    with pytest.raises(AssertionError, match="cyclic shift"):
        min_distance_by_columns(code)


def test_degenerate_offsets_pass_the_shift_check():
    # at a degenerate offset the parity matrix has rank < 4 and its shift
    # still lies in the row space, so every carried row reduces to zero
    checked = 0
    for q, p, s in prime_powers_upto(32):
        ctx = build_field(p, s)
        for h in sorted(degenerate_offsets(q)):
            code = build_bch(ctx, 3, h)
            mat = expanded_parity_matrix(code)
            assert not _shift_residual(ctx, mat)[0].any()
            assert gflin.rank(ctx, mat) < 4
            assert_matches_reference(code)
            checked += 1
    assert checked == 67


def _spy_blocks(monkeypatch):
    """Record every block the search keys, as (js, lo) lists, in order."""
    blocks = []
    row_keys, first_collision = distance._row_keys, distance._first_collision

    def spy_keys(ctx, r_mat, js):
        blocks.append([[int(j) for j in js]])
        return row_keys(ctx, r_mat, js)

    def spy_collision(keys, lo):
        assert keys.shape[0] == len(lo) == len(blocks[-1][0])
        blocks[-1].append([int(j) for j in lo])
        return first_collision(keys, lo)

    monkeypatch.setattr(distance, "_row_keys", spy_keys)
    monkeypatch.setattr(distance, "_first_collision", spy_collision)
    return blocks


def _stream_and_coset_rows(blocks):
    # a stream block names its rows by their lo; a coset block keys full rows
    # (lo = 0) named by their j >= 1
    stream = [j for js, lo in blocks if js == lo for j in js]
    full = [j for js, lo in blocks if js != lo for j in js]
    assert all(lo == [0] * len(js) for js, lo in blocks if js != lo)
    return stream, full


@pytest.mark.parametrize("start, cap", [(1, 1), (100, 300)])
def test_small_blocks_match_reference(monkeypatch, start, cap):
    # a first block of ``start`` stream rows and later blocks of at most
    # ``cap`` cells.  (1, 1): the first block is the w = 2 row alone, and
    # every later row, the w = 3 row first, is a block of its own; the w = 4
    # level is not yet known to be the first, so no coset row is keyed.
    # (100, 300): the first block is the whole stream of every code with
    # q <= 16.
    monkeypatch.setattr(distance, "_FIRST_ROWS", start)
    monkeypatch.setattr(distance, "_COLLISION_CELLS", cap)
    blocks = _spy_blocks(monkeypatch)
    for code in codes(16, 3):
        first = len(blocks)
        assert_matches_reference(code)
        stream, full = _stream_and_coset_rows(blocks[first:])
        # the blocks walk the stream -1, 0, 1, 2, ... in order
        assert stream == list(range(-1, len(stream) - 1))
        assert not full
        if cap == 1:
            assert {len(js) for js, _ in blocks[first:]} == {1}
        else:
            assert len(blocks) == first + 1


def test_first_block_holds_one_prefix_at_q1024(monkeypatch):
    # the witness of this d = 4 code sits on the third row of the stream,
    # lo = 1 (the columns modulo columns 0 and 1), which the first block
    # ends with: that block, rows -1, 0 and 1, is the only one, and R with
    # rows 0 and 1 cleared keys it, so no column is keyed by its P^1 point
    blocks = _spy_blocks(monkeypatch)
    monkeypatch.setattr(distance, "_p1_keys", None)
    code = build_bch(build_field(2, 10), 3, 746)
    res = min_distance_by_columns(code)
    assert res.value == 4 and res.witness.cols == (0, 1, 2, 415)
    assert blocks == [[[-1, 0, 1], [-1, 0, 1]]]


def test_one_block_unless_d5(monkeypatch):
    # every delta = 3 code with q <= 32 stops in the first block, rows -1,
    # 0 and 1, unless d = 5; a d = 5 code then keys one full row per
    # p-cyclotomic coset of Z_n, all but the cosets of 0 and 1
    blocks = _spy_blocks(monkeypatch)
    d5 = 0
    for code in codes(32, 3):
        first = len(blocks)
        res = min_distance_by_columns(code)
        mine = blocks[first:]
        top = min(gflin.rank(code.ctx, expanded_parity_matrix(code)), 5)
        assert mine[0][0] == list(range(-1, min(top - 2, 2)))
        if res.value != 5:
            assert len(mine) == 1, (code.ctx.q, code.h, res.value)
            continue
        d5 += 1
        stream, full = _stream_and_coset_rows(mine)
        assert stream == [-1, 0, 1]
        leaders = [c.leader for c in all_cosets(code.n, code.ctx.p)]
        assert full == [j for j in leaders if j > 1]
    assert d5 == 18


def test_two_row_first_block_matches_reference(monkeypatch):
    # with the w = 4 row j = 1 out of the first block, every code with
    # d >= 4 takes the coset rows, the coset of 1 among them, and a d = 4
    # code then the stream from j = 1 on, in blocks of about two rows
    monkeypatch.setattr(distance, "_FIRST_ROWS", 2)
    monkeypatch.setattr(distance, "_COLLISION_CELLS", 300)
    blocks = _spy_blocks(monkeypatch)
    d4 = 0
    for code in codes(32, 3):
        first = len(blocks)
        assert_matches_reference(code)
        stream, full = _stream_and_coset_rows(blocks[first:])
        value = min_distance_by_columns(code).value
        if full:
            # the stream goes on past the first block iff a coset row collides
            assert full[0] == 1 and value in (4, 5)
            assert (len(stream) > 2) == (value == 4)
            d4 += value == 4
    assert d4 == 152


def test_full_rows_that_collide_are_a_union_of_cosets():
    # for d >= 4, the full row j (every column modulo columns 0 and j)
    # collides iff some {0, j, k, l} is dependent; the reflection and the
    # Frobenius map of the cyclic code make those j a union of p-cyclotomic
    # cosets, empty exactly when d = 5
    checked = 0
    for code in codes(32, 3):
        res = min_distance_by_columns(code)
        ctx, n = code.ctx, code.n
        r_mat, pivots = gflin.rref(ctx, expanded_parity_matrix(code))
        if res.value not in (4, 5) or len(pivots) < 4:  # d = 4 = rank + 1 has no w = 4 rows
            continue
        js = np.arange(1, n)
        keys = distance._p1_keys(ctx, r_mat[1:], js)
        hit = set()
        for j, row in zip(js, keys):
            others = np.delete(row, [0, j])
            assert (others <= ctx.q).all()  # only columns 0 and j have zero images
            if len(set(others.tolist())) < len(others):
                hit.add(int(j))
        for coset in all_cosets(n, ctx.p):
            members = set(coset.members) - {0}
            assert members <= hit or not members & hit, (ctx.q, code.h, coset)
        assert (not hit) == (res.value == 5)
        checked += 1
    assert checked == 170


@pytest.mark.parametrize("split", [False, True])
def test_column_0_is_eliminated_once(monkeypatch, split):
    # a q = 32, d = 4 code, its stream in one block or cut after the w = 3
    # row: column 0 is eliminated once, in the one reduction of the matrix,
    # which carries the shifted rows for the cyclic check and which the
    # search and the relation read
    code = build_bch(build_field(2, 5), 3, 2)
    rows, n = expanded_parity_matrix(code).shape
    if split:
        monkeypatch.setattr(distance, "_FIRST_ROWS", 2)
    calls = []
    rref = gflin.rref

    def spy_rref(ctx, mat, carry=None):
        calls.append(mat.shape)
        assert np.array_equal(carry, np.roll(mat, 1, axis=1))
        return rref(ctx, mat, carry)

    def no_kernel(ctx, mat):
        raise AssertionError("column search took a kernel basis")

    monkeypatch.setattr(gflin, "rref", spy_rref)
    monkeypatch.setattr(gflin, "kernel_basis", no_kernel)
    res = min_distance_by_columns(code)
    assert res.value == 4
    assert res == reference_result(2, 5, 3, 2, 5)
    assert calls == [(rows, n)]


def _brute_first_collision(keys, lo):
    # per row, the smallest k > lo with a later equal key, then its first l
    for b, row in enumerate(keys):
        first = {}
        best = None
        for c in range(int(lo[b]) + 1, len(row)):
            k = first.setdefault(row[c], c)
            if k != c and (best is None or k < best[0]):
                best = (k, c)
        if best:
            return (b, *best)
    return None


@pytest.mark.parametrize("bits", [13, 15])
def test_first_collision_matches_brute_force(bits):
    # 4-row columns scaled so that their last nonzero entry is 1, with labels
    # of q = 2^13 and 2^15 and one more column than q: the packed word and
    # the column index fill one int64
    rng = np.random.default_rng(bits)
    count, rows, n = 6, 4, (1 << bits) + 1
    unit = rng.integers(0, 1 << bits, size=(count, rows, n))
    # a few last nonzero entries above the last row, none in the last batch
    # row, so that it has no collision
    last = rng.choice(rows, size=(count, n), p=[0.01, 0.01, 0.01, 0.97])
    last[-1] = rows - 1
    unit[np.arange(rows)[None, :, None] > last[:, None, :]] = 0
    np.put_along_axis(unit, last[:, None], 1, axis=1)
    unit[1, :, 7] = 0  # a zero column
    for b in range(count - 1):  # the last row keeps its random columns
        for k, l in rng.choice(n, size=(b % 3, 2), replace=False):
            unit[b, :, l] = unit[b, :, k]
    unit[2, :-1, -2:] = (1 << bits) - 1  # the largest labels, as a collision
    unit[2, -1, -2:] = 1
    keys = distance._pack_words(unit, bits)
    assert keys.dtype == np.int64 and int(keys.max()) < 1 << (63 - (n - 1).bit_length())
    assert int(keys[2, -1]) == (1 << (1 + 3 * bits)) - 1
    columns = [[tuple(unit[b, :, c]) for c in range(n)] for b in range(count)]
    lo = rng.integers(-1, n // 2, size=count)
    lo[2] = n - 4
    found = [_brute_first_collision(columns[i:], lo[i:]) for i in range(count)]
    assert found[0] is not None and None in found
    assert found[2] == (0, n - 2, n - 1)
    for i in range(count):
        assert distance._first_collision(keys[i:], lo[i:]) == found[i]


def _first_block_codes():
    yield from codes(32, 2)
    yield from codes(32, 3)
    for p, s in [(3, 5), (2, 8)]:
        ctx = build_field(p, s)
        for h in np.random.default_rng(ctx.q).choice(ctx.q + 1, size=4, replace=False):
            yield build_bch(ctx, 3, int(h))
        yield build_bch(ctx, 3, ctx.q // 2)  # a degenerate offset


def test_first_block_keys_match_suffix_points():
    # row j <= 1 keys column c by rows j + 1 .. of R: two keys are equal iff
    # the two suffixes are nonzero multiples of each other or both zero, that
    # is iff the reference reduction of each suffix, as one row, is the same;
    # a zero suffix, and only it, has key 0
    checked = 0
    for code in _first_block_codes():
        ctx = code.ctx
        r_mat, _ = gflin.rref(ctx, expanded_parity_matrix(code))
        rows, n = r_mat.shape
        js = np.arange(-1, min(2, rows - 1))
        keys = distance._row_keys(ctx, r_mat, js)
        assert keys.shape == (len(js), n)
        for j, row in zip(js, keys.tolist()):
            points = [tuple(linalg.rref(ctx, r_mat[j + 1 :, c][None])[0][0]) for c in range(n)]
            assert [k == 0 for k in row] == [not any(pt) for pt in points]
            assert len(set(zip(row, points))) == len(set(row)) == len(set(points))
        checked += 1
    assert checked == 608


@pytest.mark.parametrize("p, s", [(2, 4), (3, 2), (5, 2)])
def test_p1_keys_match_canonical_points(p, s):
    # two columns get one key modulo column j iff span(column j, column) is
    # the same plane, taken as its reduced form, or the column lies in
    # span(column j) (key q + 1)
    ctx = build_field(p, s)
    q = ctx.q
    rng = np.random.default_rng(q)
    n = 3 * q
    r1 = rng.integers(0, q, size=(3, n))
    r1[:, 0] = 0
    r1[:, 1] = [0, 0, 1]  # pivot in the last row
    r1[:, 2] = [0, 3 % q, 1]
    for c in range(3, 3 + q):  # multiples of a few columns and of column j
        r1[:, c] = ctx.mul_table[rng.integers(0, q), r1[:, rng.integers(1, 8)]]
    js = np.flatnonzero(r1[:, :9].any(axis=0))  # a zero column j has no quotient
    assert len(js) >= 4
    keys = distance._p1_keys(ctx, r1, js)
    assert keys.shape == (len(js), n)
    for row, j in zip(keys, js):
        canon = []
        for c in range(n):
            red, piv = linalg.rref(ctx, np.stack([r1[:, j], r1[:, c]]))
            canon.append(None if len(piv) < 2 else tuple(red.ravel()))
        assert all((k == q + 1) == (pt is None) for k, pt in zip(row, canon))
        assert ((0 <= row) & (row <= q + 1)).all()
        pairs = set(zip(row.tolist(), canon))
        assert len(pairs) == len(set(row.tolist())) == len(set(canon))
