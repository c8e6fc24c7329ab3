"""Array construction against the scalar reference construction.

``reference/construction.py`` holds the per-entry loops that the array
expressions of ``bchlab.bch`` replaced, with its own digit-loop addition, and the coset products that the closed-form minimal polynomials
replaced.  Both must give the same minimal polynomials, generator
polynomial, parity rows, {1, alpha} coordinates of the unit circle, expanded
parity matrix and trace words.  Its generator-matrix dual check must
accept and reject the same words as the correlation with g in
``bchlab.distance``.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from bchlab.bch import build_bch, dual_codeword, expanded_parity_matrix, parity_rows
from bchlab.distance import _in_dual, dual_min_distance
from bchlab.field import FieldContext, build_field
from bchlab.harness import prime_powers_upto
from bchlab.polynomial import minimal_polynomial

HERE = Path(__file__).resolve().parent

# loaded by path: a top-level ``reference`` name would clash with other
# modules of that name on sys.path
_spec = importlib.util.spec_from_file_location(
    "construction_reference", HERE / "reference" / "construction.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def _grid():
    for q, p, s in prime_powers_upto(64):
        yield pytest.param(p, s, 3, id=f"q{q}-delta3")
        for delta in (2, 4, 5, 6):
            if q <= 16 and delta <= q + 1:
                yield pytest.param(p, s, delta, id=f"q{q}-delta{delta}")


def _check_unit_coords(ctx, ks):
    coords = ctx.unit_coords
    assert coords.shape == (2, ctx.q + 1) and coords.dtype == np.int16
    for k in ks:
        c0, c1 = reference.split_on_basis(ctx, ctx.exp_at((ctx.q - 1) * k))
        want = (reference.label(ctx, c0), reference.label(ctx, c1))
        assert (coords[0, k], coords[1, k]) == want, k
    assert ctx.unit_coords is coords  # built once


def test_unit_coords_every_golden_field():
    for g in json.loads((HERE / "golden" / "fields.json").read_text()):
        ctx = FieldContext(g["p"], g["s"])  # not cached: 70 fields
        _check_unit_coords(ctx, range(ctx.q + 1))


def test_unit_coords_q4096_sample():
    ctx = build_field(2, 12)
    ks = np.random.default_rng(4096).integers(0, ctx.q + 1, size=256)
    _check_unit_coords(ctx, [int(k) for k in ks])


@pytest.mark.parametrize("p,s", [(p, s) for _, p, s in prime_powers_upto(16)])
def test_minimal_polynomial_matches_coset_product(p, s):
    # every e modulo every n | q^2 - 1, not only the n = q + 1 of the codes
    ctx = build_field(p, s)
    for n in (d for d in range(1, ctx.q2) if (ctx.q2 - 1) % d == 0):
        for e in range(n):
            assert minimal_polynomial(ctx, e, n) == reference.minimal_polynomial(ctx, e, n)


@pytest.mark.parametrize("p,s,delta", _grid())
def test_matches_reference_construction(p, s, delta):
    ctx = build_field(p, s)
    for h in range(ctx.q + 1):
        code = build_bch(ctx, delta, h)
        assert code.g == reference.generator(ctx, delta, h)
        np.testing.assert_array_equal(parity_rows(code), reference.parity_rows(ctx, delta, h))
        np.testing.assert_array_equal(
            expanded_parity_matrix(code), reference.expanded_parity_matrix(ctx, delta, h)
        )
        if delta != 3:
            continue
        rng = np.random.default_rng(1000 * ctx.q + h)
        pairs = [(0, 0), (0, 1), (1, 0)] + [
            (int(a), int(b)) for a, b in rng.integers(0, ctx.q2, size=(20, 2))
        ]
        for a, b in pairs:
            assert dual_codeword(code, a, b).word == reference.dual_codeword(ctx, h, a, b)



@pytest.mark.parametrize("q,p,s", prime_powers_upto(32))
def test_dual_check_matches_reference(q, p, s):
    # the root-count witness (in the dual), 20 random words (almost surely
    # not) and three random trace words (in the dual)
    ctx = build_field(p, s)
    for h in range(q + 1):
        code = build_bch(ctx, 3, h)
        witness = dual_min_distance(code, "root-count").witness.word
        assert _in_dual(code, np.array(witness)) and reference.in_dual(code, witness)
        rng = np.random.default_rng(100 * q + h)
        words = list(rng.integers(0, q, size=(20, code.n)))
        words += [
            np.array(dual_codeword(code, int(a), int(b)).word)
            for a, b in rng.integers(0, ctx.q2, size=(3, 2))
        ]
        for word in words:
            assert _in_dual(code, word) == reference.in_dual(code, word)
