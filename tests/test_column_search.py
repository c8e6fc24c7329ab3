"""Column search against the per-subset reference and the golden witnesses.

``reference/column_search.py`` holds the per-subset ``rref`` loop that the
collision kernel replaced; both must return equal ``DistanceResult``s (value,
lex-first columns, coefficients and ``searched_up_to``).  The golden file
``column_witnesses.json`` was recorded from that loop;
``column_witnesses_q64.json`` pins every delta = 3 witness with q <= 64 as
the full lex scan gave it before the search was restricted to the sets
through column 0.

Column search walks one stream of rows, each named by its lower bound lo:
the columns (lo = -1, w = 2), the columns modulo column 0 (lo = 0, w = 3)
and the columns modulo columns 0 and j (lo = j, w = 4).  The tests below pin
how the blocks cut that stream, that column 0 is eliminated once, and that
codes with delta >= 4, whose search would pass level 4, are refused; delta = 2
and delta = 3 codes are compared with the reference.
"""

import functools
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from bchlab import bch, distance
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

    def spy_collision(ctx, imgs, lo):
        blocks.append([int(j) for j in lo])
        return first_collision(ctx, imgs, lo)

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
    # lo = 1 (the columns modulo columns 0 and 1): the rows eliminated up to
    # the hit stay within a small multiple of its position, however large
    # the later blocks would be
    eliminated = []
    eliminate = distance._eliminate

    def spy(ctx, imgs, vecs):
        eliminated.append(len(vecs))
        return eliminate(ctx, imgs, vecs)

    monkeypatch.setattr(distance, "_eliminate", spy)
    code = build_bch(build_field(2, 10), 3, 746)
    res = min_distance_by_columns(code)
    assert res.value == 4 and res.witness.cols == (0, 1, 2, 415)
    assert sum(eliminated) <= 3 * 3


@pytest.mark.parametrize("split", [False, True])
def test_column_0_is_eliminated_once(monkeypatch, split):
    # a q = 32, d = 4 code: the w = 3 row (0,) and the w = 4 head (0,) share
    # one reduction, in one block (29 batched rows, not 30 with the w = 3
    # row) or across a block boundary after (0,) (two calls, not three)
    code = build_bch(build_field(2, 5), 3, 2)
    rows, n = expanded_parity_matrix(code).shape
    if split:
        monkeypatch.setattr(distance, "_COLLISION_START", 2 * rows * n)
    eliminated = []
    eliminate = distance._eliminate

    def spy(ctx, imgs, vecs):
        eliminated.append(len(vecs))
        return eliminate(ctx, imgs, vecs)

    monkeypatch.setattr(distance, "_eliminate", spy)
    res = min_distance_by_columns(code)
    assert res.value == 4
    assert eliminated == ([1, 4] if split else [1, 29])


@pytest.mark.parametrize("p, s, rows, n", [(2, 4, 4, 17), (3, 2, 6, 10), (2, 7, 10, 40)])
def test_first_collision_matches_brute_force(p, s, rows, n):
    # 10 rows at q = 128 need two key words per column: the lexsort path
    ctx = build_field(p, s)
    rng = np.random.default_rng(ctx.q)
    imgs = rng.integers(0, ctx.q, size=(8, rows, n))
    imgs[1, :, 3] = 0
    for b in range(7):  # the last row keeps its random columns
        for _ in range(b % 3):
            k, l = rng.choice(n, 2, replace=False)
            imgs[b][:, l] = ctx.mul_table[rng.integers(1, ctx.q), imgs[b][:, k]]
    lo = rng.integers(-1, n // 2, size=8)

    def canon(col):
        nz = np.nonzero(col)[0]
        return tuple(ctx.mul_table[ctx.inv_table[col[nz[0]]], col]) if nz.size else ()

    def brute(imgs, lo):
        for b, img in enumerate(imgs):
            keys = [canon(img[:, c]) for c in range(n)]
            for k in range(lo[b] + 1, n):
                for l in range(k + 1, n):
                    if keys[k] == keys[l]:
                        return b, k, l
        return None

    found = [brute(imgs[i:], lo[i:]) for i in range(8)]
    assert found[0] is not None and None in found
    for i in range(8):
        assert distance._first_collision(ctx, imgs[i:], lo[i:]) == found[i]
