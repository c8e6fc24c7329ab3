"""Reference linear algebra over the embedded GF(q): one row operation at a time.

The row-by-row ``rref`` that ``bchlab.gflin.rref`` replaced, with the rank
and kernel basis built on it.  It is the oracle for the batched ``rref`` and
the elimination of the reference column search, which therefore shares no
elimination code with the engine it checks.
"""

from __future__ import annotations

import numpy as np


def rref(ctx, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column list."""
    add, mul = ctx.add_table, ctx.mul_table
    inv, neg = ctx.inv_table, ctx.neg_table
    r_mat = np.array(mat, dtype=np.int64, copy=True)
    rows, cols = r_mat.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = -1
        for i in range(r, rows):
            if r_mat[i, c] != 0:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            r_mat[[r, pr]] = r_mat[[pr, r]]
        scale = inv[r_mat[r, c]]
        r_mat[r] = mul[scale, r_mat[r]]
        for i in range(rows):
            if i != r and r_mat[i, c] != 0:
                f = neg[r_mat[i, c]]
                r_mat[i] = add[r_mat[i], mul[f, r_mat[r]]]
        pivots.append(c)
        r += 1
    return r_mat, pivots


def rank(ctx, mat: np.ndarray) -> int:
    return len(rref(ctx, mat)[1])


def kernel_basis(ctx, mat: np.ndarray) -> np.ndarray:
    """Basis of the right kernel, one row per free column in ascending order:
    1 at the free column and the negated reduced entries at the pivots."""
    r_mat, pivots = rref(ctx, mat)
    cols = mat.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for b_idx, fc in enumerate(free):
        basis[b_idx, fc] = 1
        for row_idx, pc in enumerate(pivots):
            basis[b_idx, pc] = ctx.neg_table[r_mat[row_idx, fc]]
    return basis
