"""``gflin.rref``, which clears each pivot column from every other row in one
gather, against the row-by-row loop in ``reference/linalg.py``: the same
reduced matrix and the same pivots."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bchlab import gflin
from bchlab.bch import build_bch, expanded_parity_matrix, generator_matrix
from bchlab.field import build_field
from bchlab.harness import prime_powers_upto

# loaded by path: ``tests/reference`` is not a package
_spec = importlib.util.spec_from_file_location(
    "linalg_reference", Path(__file__).resolve().parent / "reference" / "linalg.py"
)
linalg = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linalg)


def assert_same_rref(ctx, mat):
    got, got_piv = gflin.rref(ctx, mat)
    want, want_piv = linalg.rref(ctx, mat)
    assert got.dtype == want.dtype == np.int64
    assert got_piv == want_piv
    assert np.array_equal(got, want)


def test_rref_matches_loop_on_every_delta3_code_q32():
    checked = 0
    for q, p, s in prime_powers_upto(32):
        ctx = build_field(p, s)
        for h in range(q + 1):
            code = build_bch(ctx, 3, h)
            assert_same_rref(ctx, expanded_parity_matrix(code))
            if code.k:
                assert_same_rref(ctx, generator_matrix(code))
            checked += 1
    assert checked == 299


@pytest.mark.parametrize("p, s", [(2, 1), (2, 4), (3, 2), (7, 1), (5, 2)])
def test_rref_matches_loop_on_random_matrices(p, s):
    ctx = build_field(p, s)
    rng = np.random.default_rng(ctx.q)
    for rows, cols in [(1, 1), (3, 7), (6, 4), (9, 3), (5, 12)]:
        for _ in range(4):
            mat = rng.integers(0, ctx.q, size=(rows, cols))
            mat[:, rng.integers(0, cols)] = 0  # a zero column
            if rows > 1:
                mat[-1] = mat[0]  # a repeated row
            assert_same_rref(ctx, mat)
            assert np.array_equal(gflin.kernel_basis(ctx, mat), linalg.kernel_basis(ctx, mat))
        # a matrix of low rank: every row a combination of two
        base = rng.integers(0, ctx.q, size=(2, cols))
        coef = rng.integers(0, ctx.q, size=(rows, 2))
        low = ctx.add_table[ctx.mul_table[coef[:, :1], base[0]], ctx.mul_table[coef[:, 1:], base[1]]]
        assert_same_rref(ctx, low)
    assert_same_rref(ctx, np.zeros((3, 5), dtype=np.int64))


@pytest.mark.parametrize("shape", [(0, 0), (0, 1), (0, 5), (1, 0), (4, 0)])
def test_rank_and_kernel_of_empty_matrices(shape):
    # rref finds no pivot: rank 0, and the kernel is the whole space, whose
    # identity basis has no row when there is no column
    ctx = build_field(3, 2)
    mat = np.zeros(shape, dtype=np.int64)
    assert gflin.rank(ctx, mat) == 0
    basis = gflin.kernel_basis(ctx, mat)
    assert basis.dtype == np.int64
    assert np.array_equal(basis, np.eye(shape[1], dtype=np.int64))
