"""Root-count against the digit-sum reference and the golden witnesses.

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
from bchlab.bch import build_bch
from bchlab.distance import _root_count_scan, dual_min_distance, verify_witness
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
