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
points of P^1(GF(q)) (lo = j, w = 4).  The tests below pin how the blocks
cut that stream, that the one reduction is the only elimination, the keys
and their packing into one word per column, and that codes with delta >= 4,
whose search would pass level 4, are refused; delta = 2 and delta = 3 codes
are compared with the reference, whose elimination is its own.
"""

import functools
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from bchlab import bch, distance, gflin
from bchlab.bch import build_bch, expanded_parity_matrix
from bchlab.distance import min_distance_by_columns, verify_witness
from bchlab.field import build_field
from bchlab.harness import prime_powers_upto

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
    code = build_bch(build_field(2, 4), 3, 3)
    mat = expanded_parity_matrix(code)
    perm = list(range(code.n))
    perm[1], perm[2] = perm[2], perm[1]
    monkeypatch.setattr(bch, "expanded_parity_matrix", lambda code: mat[:, perm])
    with pytest.raises(AssertionError, match="cyclic shift"):
        min_distance_by_columns(code)


@pytest.mark.parametrize("start, cap", [(1, 1), (100, 300)])
def test_small_blocks_match_reference(monkeypatch, start, cap):
    # one stream row per block, or a few: blocks then start and end inside a
    # level and inside the run of w = 4 rows
    monkeypatch.setattr(distance, "_COLLISION_START", start)
    monkeypatch.setattr(distance, "_COLLISION_CELLS", cap)
    blocks = []
    first_collision = distance._first_collision

    def spy_collision(keys, lo):
        assert keys.shape[0] == len(lo)
        blocks.append([int(j) for j in lo])
        return first_collision(keys, lo)

    monkeypatch.setattr(distance, "_first_collision", spy_collision)
    for code in codes(16, 3):
        first = len(blocks)
        assert_matches_reference(code)
        # the blocks walk the stream -1, 0, 1, 2, ... in order
        stream = [j for block in blocks[first:] for j in block]
        assert stream == list(range(-1, len(stream) - 1))
    if cap == 1:
        assert {len(block) for block in blocks} == {1}
    else:
        levels = [{min(j, 1) + 3 for j in block} for block in blocks]
        assert {2, 3, 4} in levels and {3, 4} in levels


def test_first_block_holds_one_prefix_at_q1024(monkeypatch):
    # the witness of this d = 4 code sits on the third row of the stream,
    # lo = 1 (the columns modulo columns 0 and 1): the w = 4 rows keyed up to
    # the hit stay within a small multiple of its position, however large
    # the later blocks would be
    keyed = []
    p1_keys = distance._p1_keys

    def spy(ctx, r1, js):
        keyed.append([int(j) for j in js])
        return p1_keys(ctx, r1, js)

    monkeypatch.setattr(distance, "_p1_keys", spy)
    code = build_bch(build_field(2, 10), 3, 746)
    res = min_distance_by_columns(code)
    assert res.value == 4 and res.witness.cols == (0, 1, 2, 415)
    assert keyed and keyed[0][0] == 1
    assert sum(map(len, keyed)) <= 3


@pytest.mark.parametrize("split", [False, True])
def test_column_0_is_eliminated_once(monkeypatch, split):
    # a q = 32, d = 4 code, its stream in one block or cut after the w = 3
    # row: column 0 is eliminated once, in the one reduction of the matrix,
    # which the search, the cyclic check and the relation all read
    code = build_bch(build_field(2, 5), 3, 2)
    rows, n = expanded_parity_matrix(code).shape
    if split:
        monkeypatch.setattr(distance, "_COLLISION_START", 2 * rows * n)
    calls = []
    rref = gflin.rref

    def spy_rref(ctx, mat):
        calls.append(mat.shape)
        return rref(ctx, mat)

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
    # scaled 4-row columns with labels of q = 2^13 and 2^15 and one more
    # column than q: the packed key and the column index fill one int64
    rng = np.random.default_rng(bits)
    count, rows, n = 6, 4, (1 << bits) + 1
    unit = rng.integers(0, 1 << bits, size=(count, rows, n))
    # a few pivots below row 0, none in the last row, so that it has no
    # collision
    piv = rng.choice(rows, size=(count, n), p=[0.97, 0.01, 0.01, 0.01])
    piv[-1] = 0
    unit[np.arange(rows)[None, :, None] < piv[:, None, :]] = 0
    np.put_along_axis(unit, piv[:, None], 1, axis=1)
    unit[1, :, 7] = 0  # a zero column
    for b in range(count - 1):  # the last row keeps its random columns
        for k, l in rng.choice(n, size=(b % 3, 2), replace=False):
            unit[b, :, l] = unit[b, :, k]
    unit[2, 1:, -2:] = (1 << bits) - 1  # the largest labels, as a collision
    unit[2, 0, -2:] = 1
    keys = distance._pack_heads(unit, bits)
    assert keys.dtype == np.int64 and int(keys.max()) < 1 << (63 - (n - 1).bit_length())
    columns = [[tuple(unit[b, :, c]) for c in range(n)] for b in range(count)]
    lo = rng.integers(-1, n // 2, size=count)
    lo[2] = n - 4
    found = [_brute_first_collision(columns[i:], lo[i:]) for i in range(count)]
    assert found[0] is not None and None in found
    assert found[2] == (0, n - 2, n - 1)
    for i in range(count):
        assert distance._first_collision(keys[i:], lo[i:]) == found[i]


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
