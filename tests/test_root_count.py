"""Root-count against the digit-sum reference and the golden witnesses.

The closed form of the axis classes (``_axis_min``) is checked on its own
against a direct count of the trace word's roots, for every class of every
code with q <= 256, also the classes that do not win the scan.

``reference/root_count.py`` holds the per-digit evaluation scan that the
trace-kernel histogram replaced; both must return the same minimum weight and
the same first (a, b) witness.  The golden file was recorded from that scan.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from bchlab import distance
from bchlab.bch import build_bch, dual_codeword
from bchlab.distance import _axis_min, _root_count_scan, dual_min_distance, verify_witness
from bchlab.field import build_field
from bchlab.harness import prime_powers_upto

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "root_count_witnesses.json"

# loaded by path: a top-level ``reference`` name would clash with other
# modules of that name on sys.path
_spec = importlib.util.spec_from_file_location(
    "root_count_reference", HERE / "reference" / "root_count.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


@pytest.mark.parametrize("p,s", [(p, s) for _, p, s in prime_powers_upto(32)] + [(2, 6)])
def test_matches_reference_every_offset(p, s):
    ctx = build_field(p, s)
    for h in range(ctx.q + 1):
        code = build_bch(ctx, 3, h)
        assert _root_count_scan(code) == reference.root_count_scan(code), (ctx.q, h)


@pytest.mark.parametrize("p,s", [(2, 3), (3, 2), (2, 4), (5, 2)])
def test_one_column_blocks_match_reference(p, s, monkeypatch):
    # every v column in its own block, so the block minima must combine in
    # the scan order
    monkeypatch.setattr(distance, "_ROOT_COUNT_CELLS", 1)
    ctx = build_field(p, s)
    for h in range(ctx.q + 1):
        code = build_bch(ctx, 3, h)
        assert _root_count_scan(code) == reference.root_count_scan(code), (ctx.q, h)


def _tied_cells(code):
    """(i, v) of every both-nonzero representative with the most roots below
    q+1, straight from the Zech logarithms log(1 + alpha^k), each formed by
    the scalar digit addition."""
    ctx, h = code.ctx, code.h
    q, n = ctx.q, ctx.q + 1
    c = 0 if ctx.p == 2 else n // 2
    zech = np.array([ctx.log[ctx.add(int(x), 1)] for x in ctx.exp], dtype=np.int64)
    zech = zech.reshape(n, q - 1)  # [j, v]
    log_x = (h * (q - 1) * np.arange(n)[:, None] + zech) % n
    i = np.arange(n)[:, None, None]
    roots = (((i + log_x) % n == c) | (zech < 0)).sum(axis=1)  # [i, v]
    most = roots[roots < n].max()
    return [tuple(cell) for cell in np.argwhere(roots == most)]


def test_few_row_blocks_match_reference(monkeypatch):
    # blocks of 2 to 5 rows v whose width does not divide q - 1, so the last
    # block is narrower; the scan must pick the first (i, v) of the tied
    # cells also when a later block holds a smaller i than the first block
    # that reaches the most roots
    straddled = 0
    for q, p, s in prime_powers_upto(27):
        if q < 4:
            continue
        ctx = build_field(p, s)
        width = next(w for w in range(2, q - 1) if (q - 1) % w)
        monkeypatch.setattr(distance, "_ROOT_COUNT_CELLS", 2 * (q + 1) * width)
        for h in range(q + 1):
            code = build_bch(ctx, 3, h)
            got = _root_count_scan(code)
            assert got == reference.root_count_scan(code), (q, h)
            cells = _tied_cells(code)
            if all(got[1]):
                straddled += min(v // width for _, v in cells) < min(cells)[1] // width
    assert straddled


def test_golden_witnesses():
    for case in json.loads(GOLDEN.read_text()):
        code = build_bch(build_field(case["p"], case["s"]), 3, case["h"])
        res = dual_min_distance(code, "root-count")
        assert res.value == case["value"], (case["p"], case["s"], case["h"])
        assert res.witness.source == ("trace", case["a"], case["b"])
        assert verify_witness(code, res)


def _trace_is_zero(ctx):
    """Whether Tr(alpha^k) = alpha^k + alpha^(qk) is 0, for every k below the
    order, from the sum of the two base-p digit vectors."""
    k = np.arange(ctx.order, dtype=np.int64)
    total = ctx.digits[ctx.exp[k]].astype(np.int32) + ctx.digits[ctx.exp[k * ctx.q % ctx.order]]
    return ~(total % ctx.p).any(axis=1)


def test_axis_classes_match_direct_root_count():
    # the trace word of x * u^e is (Tr(x * beta^(ej)))_j; its weight depends
    # on log x mod q+1 (scaling by GF(q)^*) and mod e(q-1) (u -> beta*u), so
    # the first positive minimum over log x < q+1 is the class's first one
    classes = 0
    for q, p, s in prime_powers_upto(256):
        ctx = build_field(p, s)
        n = q + 1
        zero = _trace_is_zero(ctx)
        j = np.arange(n, dtype=np.int64)
        for h in range(n):
            for e in (h + 1, h):
                logs = (j[:, None] + e * (q - 1) * j) % ctx.order  # [log x, j]
                weights = n - zero[logs].sum(axis=1)
                masked = np.where(weights > 0, weights, n + 1)
                first = int(np.argmin(masked))
                assert _axis_min(q, e) == (masked[first], first), (q, h, e)
                classes += 1
        # the counted word is the dual codeword of (0, x) or (x, 0)
        for h in (0, 1, q // 2, q):
            code = build_bch(ctx, 3, h)
            for e, ab in ((h + 1, (0, 1)), (h, (1, 0))):
                roots = zero[e * (q - 1) * j % ctx.order].sum()
                assert dual_codeword(code, *ab).weight() == n - roots, (q, h, e)
    assert classes == 15_016
