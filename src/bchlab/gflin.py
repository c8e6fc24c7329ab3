"""Small dense linear algebra over the embedded GF(q).

Matrices are numpy arrays of compact subfield labels (0..q-1, as produced by
``FieldContext.to_compact``); arithmetic goes through the context's q x q
add/mul tables.  These routines serve one-off questions per code (rank, a
kernel basis, re-checking a witness), not inner loops: ``rref`` loops over
the pivots and reduces every row against each pivot in one gather.  It can
carry extra rows through those steps without pivoting on them, which tells
in the same pass whether they lie in the row space (column search checks
the cyclic shift so).
"""

from __future__ import annotations

import numpy as np


def rref(ctx, mat: np.ndarray, carry: np.ndarray | None = None) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column list.

    Each pivot takes one pass over the whole matrix: row i gains f_i times
    the pivot row scaled to 1, with f_i = -r_mat[i, c] off the pivot row and
    f_r = 1 - a on it, which turns a * row into row.

    The rows of ``carry``, if given, are carried through every pivot step
    below the rows of ``mat`` and are never pivots themselves; they come
    back below the reduced rows.  Each ends as s - v with v in the row space
    of ``mat`` and s - v zero at every pivot, so it is zero iff s lies in
    that row space.
    """
    add, mul = ctx.add_table, ctx.mul_table
    inv, neg = ctx.inv_table, ctx.neg_table
    rows, cols = mat.shape
    parts = [mat] if carry is None else [mat, carry]
    r_mat = np.concatenate(parts, dtype=np.int64)
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        below = r_mat[r:rows, c].tolist()
        pr = next((i for i, x in enumerate(below) if x), -1)
        if pr < 0:
            continue
        if pr:
            r_mat[[r, r + pr]] = r_mat[[r + pr, r]]
        a = below[pr]
        factor = neg[r_mat[:, c]]
        factor[r] = add[1, neg[a]]
        r_mat[:] = add[r_mat, mul[factor[:, None], mul[inv[a], r_mat[r]]]]
        pivots.append(c)
    return r_mat, pivots


def rank(ctx, mat: np.ndarray) -> int:
    return len(rref(ctx, mat)[1])


def kernel_basis(ctx, mat: np.ndarray) -> np.ndarray:
    """Basis of the right kernel {v : mat @ v = 0}, one row per basis vector.

    Rows are ordered by ascending free column, so the result is deterministic.
    A matrix with no rows yields the identity basis of the full space.
    """
    r_mat, pivots = rref(ctx, mat)
    free = [c for c in range(mat.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), mat.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = ctx.neg_table[r_mat[: len(pivots), free]].T
    return basis


def combine_rows(ctx, coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Linear combination sum_i coeffs[i] * rows[i]: every product in one
    gather, then one gather per row to sum them."""
    add = ctx.add_table
    out = np.zeros(rows.shape[1], dtype=np.int64)
    for prod in ctx.mul_table[np.asarray(coeffs)[:, None], rows]:
        out = add[out, prod]
    return out


__all__ = ["rref", "rank", "kernel_basis", "combine_rows"]
