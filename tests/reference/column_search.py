"""Reference column search: one ``rref`` per candidate subset.

An independent, direct implementation of
``bchlab.distance.min_distance_by_columns``: every (w-1)-subset in lex order
is row-reduced together with the columns after it.  It is the oracle for the
prefix-quotient collision kernel, and slow (C(n, w-1) row reductions per
weight level), so it is meant for differential tests at small q only.  Its
elimination is the row-by-row loop of ``linalg.py`` beside it, not the
engine's ``gflin.rref``.
"""

from __future__ import annotations

import importlib.util
import itertools
from pathlib import Path

import numpy as np

from bchlab import bch
from bchlab.distance import ColumnsWitness, DistanceResult
from bchlab.field import FieldContext

# loaded by path, as the tests load this module
_spec = importlib.util.spec_from_file_location(
    "linalg_reference", Path(__file__).resolve().parent / "linalg.py"
)
linalg = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linalg)


def _first_w2(ctx: FieldContext, mat: np.ndarray) -> tuple | None:
    inv, mul, neg = ctx.inv_table, ctx.mul_table, ctx.neg_table
    n = mat.shape[1]
    canon = []
    first_nz = []
    for j in range(n):
        col = mat[:, j]
        nz = np.nonzero(col)[0]
        t = int(nz[0])
        first_nz.append(t)
        canon.append(tuple(mul[inv[col[t]], col]))
    for i in range(n):
        for j in range(i + 1, n):
            if canon[i] == canon[j]:
                c = mul[mat[first_nz[i], j], inv[mat[first_nz[i], i]]]
                return (i, j), (int(c), int(neg[1]))
    return None


def _first_dependent(ctx: FieldContext, mat: np.ndarray, w: int) -> tuple | None:
    """First (lex) w-subset of dependent columns, given that no smaller
    dependent subset exists.  Returns (cols, coeffs) or None."""
    n = mat.shape[1]
    if w > n:
        return None
    if w == 1:
        for j in range(n):
            if not mat[:, j].any():
                return (j,), (1,)
        return None
    if w == 2:
        return _first_w2(ctx, mat)
    m = w - 1
    neg = ctx.neg_table
    neg_one = int(neg[1])
    for subset in itertools.combinations(range(n), m):
        last = subset[-1]
        if last == n - 1:
            continue
        aug = np.concatenate([mat[:, subset], mat[:, last + 1 :]], axis=1)
        red, piv = linalg.rref(ctx, aug)
        # the subset is independent, so its m columns hold the pivots
        ok = (red[m:, m:] == 0).all(axis=0) if red.shape[0] > m else np.ones(
            aug.shape[1] - m, dtype=bool
        )
        hits = np.nonzero(ok)[0]
        if hits.size:
            t = int(hits[0])
            col = last + 1 + t
            coeffs = [int(c) for c in red[:m, m + t]] + [neg_one]
            return subset + (col,), tuple(coeffs)
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
    rk = linalg.rank(ctx, mat)
    for w in range(1, w_max + 1):
        if w > rk:
            # every w-subset is dependent; the lex-first is the first w columns
            if w > mat.shape[1]:
                break
            cols = tuple(range(w))
            kern = linalg.kernel_basis(ctx, mat[:, cols])
            coeffs = tuple(int(c) for c in kern[0])
            return DistanceResult(w, ColumnsWitness(cols, coeffs), "column-search")
        found = _first_dependent(ctx, mat, w)
        if found:
            cols, coeffs = found
            return DistanceResult(
                w, ColumnsWitness(tuple(cols), tuple(coeffs)), "column-search"
            )
    return DistanceResult(None, None, "column-search", searched_up_to=w_max)
