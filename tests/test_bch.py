import dataclasses
import functools
import operator
import os
import subprocess
import sys

import numpy as np
import pytest

from bchlab import bch, cosets, distance, gflin, harness
from bchlab.bch import (
    build_bch,
    dual_basis,
    dual_codeword,
    expanded_parity_matrix,
    generator_matrix,
    parity_rows,
)
from bchlab.field import FieldContext, build_field
from bchlab.harness import prime_powers_upto
from bchlab.polynomial import Poly, minimal_polynomial


def eval_word_on_row(ctx, word_compact, row_raw):
    acc = 0
    for w, r in zip(ctx.from_compact(np.asarray(word_compact)), row_raw):
        acc = ctx.add(acc, ctx.mul(int(w), int(r)))
    return acc


@pytest.mark.parametrize(
    "p,s,h,deg,k",
    [
        (2, 3, 4, 2, 7),  # q=8, h=q/2
        (3, 2, 0, 3, 7),  # q=9, h=0
        (3, 2, 2, 4, 6),  # q=9 generic offset
    ],
)
def test_dimension_examples(p, s, h, deg, k):
    ctx = build_field(p, s)
    code = build_bch(ctx, 3, h)
    assert code.g.degree == deg
    assert code.k == k


@pytest.mark.parametrize("p,s", [(2, 1), (2, 2), (3, 1), (5, 1), (2, 3), (3, 2)])
def test_generator_divides_x_n_minus_1(p, s):
    ctx = build_field(p, s)
    for h in range(ctx.q + 1):
        code = build_bch(ctx, 3, h)
        assert (Poly.x_pow_minus_one(ctx, "q", code.n) % code.g).is_zero()
        assert code.k == code.n - code.g.degree


def test_generator_rows_annihilated_by_parity_rows():
    ctx = build_field(2, 3)
    code = build_bch(ctx, 3, 4)
    gen = generator_matrix(code)
    assert gen.shape == (7, 9)
    rows = parity_rows(code)
    for grow in gen:
        for prow in rows:
            assert eval_word_on_row(ctx, grow, prow) == 0


@pytest.mark.parametrize("p,s", [(2, 2), (3, 2), (2, 3)])
def test_generator_matrix_rank(p, s):
    ctx = build_field(p, s)
    for h in range(ctx.q + 1):
        code = build_bch(ctx, 3, h)
        gen = generator_matrix(code)
        assert gflin.rank(ctx, gen) == code.k


def test_zero_dimensional_edge():
    ctx = build_field(2, 1)
    code = build_bch(ctx, 3, 0)  # q=2: k = q-2 = 0
    assert code.k == 0
    assert generator_matrix(code).shape == (0, 3)
    assert dual_basis(code).shape == (3, 3)


def test_expanded_parity_ranks():
    ctx9 = build_field(3, 2)
    assert gflin.rank(ctx9, expanded_parity_matrix(build_bch(ctx9, 3, 2))) == 4
    ctx8 = build_field(2, 3)
    assert gflin.rank(ctx8, expanded_parity_matrix(build_bch(ctx8, 3, 4))) == 2


@pytest.mark.parametrize("p,s", [(2, 2), (3, 2), (2, 3), (5, 1)])
def test_expanded_kernel_dimension_is_k(p, s):
    ctx = build_field(p, s)
    for h in range(ctx.q + 1):
        code = build_bch(ctx, 3, h)
        mat = expanded_parity_matrix(code)
        assert gflin.kernel_basis(ctx, mat).shape[0] == code.k
        assert gflin.rank(ctx, mat) == code.n - code.k


@pytest.mark.parametrize("q,p,s", prime_powers_upto(27))
def test_expanded_rows_rebuild_parity_rows(q, p, s):
    # rows 2r and 2r+1 are the coordinates c0, c1 of parity row r in the
    # basis {1, alpha}: c0 + c1*alpha gives the row back
    ctx = build_field(p, s)
    for h in range(q + 1):
        code = build_bch(ctx, 3, h)
        rows = parity_rows(code)
        mat = expanded_parity_matrix(code)
        c0, c1 = ctx.from_compact(mat[0::2]), ctx.from_compact(mat[1::2])
        for r, i in np.ndindex(rows.shape):
            rebuilt = ctx.add(int(c0[r, i]), ctx.mul(int(c1[r, i]), ctx.alpha))
            assert rebuilt == rows[r, i]


def test_parity_matrix_is_read_only_and_formed_once_per_analyze(monkeypatch):
    # column search and the dual trace word of one analyze read one array,
    # which nobody can write to
    formed = []
    exponents = bch._parity_exponents

    def spy(code):
        formed.append(code.h)
        return exponents(code)

    monkeypatch.setattr(bch, "_parity_exponents", spy)
    rec = harness.analyze(2, 5, 2)
    assert rec.d == 4 and rec.d_dual is not None
    assert formed == [2]
    code = build_bch(build_field(3, 2), 3, 1)
    mat = expanded_parity_matrix(code)
    assert expanded_parity_matrix(code) is mat and len(formed) == 2
    assert not mat.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        mat[0, 0] = 1


def test_compact_generator_is_read_only_and_converted_once(monkeypatch):
    # g is stored as labels: building, verifying and generator_matrix convert
    # nothing, and the Poly view of g is formed once, on first read
    ctx = build_field(3, 2)
    res = distance.dual_min_distance(build_bch(ctx, 3, 2), "root-count")
    converted = []
    to_compact = FieldContext.to_compact

    def spy(self, arr):
        converted.append(len(arr))
        return to_compact(self, arr)

    monkeypatch.setattr(FieldContext, "to_compact", spy)
    code = build_bch(ctx, 3, 2)
    for _ in range(2):
        assert distance.verify_witness(code, res)
        gen = generator_matrix(code)
    assert converted == []
    labels = code.compact_g
    assert gen[0, : len(labels)].tolist() == labels.tolist()
    assert not labels.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        labels[0] = 1
    g = code.g
    assert code.g is g
    assert g.coeffs == tuple(ctx.from_compact(labels).tolist())
    assert g == Poly.make(ctx, "q", g.coeffs)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.coeffs = ()


def test_build_bch_makes_no_scalar_field_call(monkeypatch):
    # every factor of g comes from unit_coords and the subfield tables
    fields = [build_field(2, 3), build_field(3, 2), build_field(5, 2)]
    for ctx in fields:
        build_bch(ctx, 3, 1)  # forms the tables outside the spy
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ["add", "mul", "pow", "exp_at", "neg", "frobenius"]:
        monkeypatch.setattr(FieldContext, name, spy(name, getattr(FieldContext, name)))
    monkeypatch.setattr(Poly, "__mul__", spy("Poly.__mul__", Poly.__mul__))
    for ctx in fields:
        for h in range(ctx.q + 1):
            build_bch(ctx, 3, h)
    assert calls == []


@pytest.mark.parametrize("p,s", [(13, 2), (3, 5), (2, 8), (2, 10)])
def test_compact_generator_matches_minimal_polynomial_product(p, s):
    # q = 169, 243, 256, 1024: the labels equal those of the product of the
    # closed-form minimal polynomials, at offsets spread over [0, q]
    ctx = build_field(p, s)
    n = ctx.q + 1
    rng = np.random.default_rng(q := ctx.q)
    offsets = {0, q // 2, (q - 1) // 2, (q + 1) // 2, q, *rng.integers(0, n, size=12).tolist()}
    for h in sorted(offsets):
        leaders = {cosets.coset_of((h + r) % n, n, q).leader for r in range(2)}
        product = functools.reduce(
            operator.mul, [minimal_polynomial(ctx, e, n) for e in leaders]
        )
        expected = ctx.to_compact(np.array(product.coeffs, dtype=np.int64))
        assert build_bch(ctx, 3, h).compact_g.tolist() == expected.tolist(), h


def test_kernel_of_expanded_equals_code():
    # the kernel of the 4-row GF(q) parity matrix spans the same space as
    # the generator matrix
    ctx = build_field(3, 2)
    code = build_bch(ctx, 3, 1)
    mat = expanded_parity_matrix(code)
    kern = gflin.kernel_basis(ctx, mat)
    gen = generator_matrix(code)
    stacked = np.vstack([kern, gen])
    assert gflin.rank(ctx, stacked) == code.k


def test_dual_codeword_zero_pair():
    ctx = build_field(3, 2)
    code = build_bch(ctx, 3, 1)
    assert set(dual_codeword(code, 0, 0).word) == {0}


def test_dual_codewords_orthogonal_to_code():
    ctx = build_field(3, 2)
    code = build_bch(ctx, 3, 1)
    gen = generator_matrix(code)
    add, mul = ctx.add_table, ctx.mul_table
    rng = np.random.default_rng(22)
    for _ in range(50):
        a, b = (int(x) for x in rng.integers(0, ctx.q2, size=2))
        word = np.array(dual_codeword(code, a, b).word)
        for row in gen:
            acc = 0
            for wi, ri in zip(word, row):
                acc = add[acc, mul[wi, ri]]
            assert acc == 0


def test_dual_codeword_weight_equals_root_count():
    # wt(c_(a,b)) = (q+1) - #{u in U : b u^(2h+2) + a u^(2h+1) + a^q u + b^q = 0}
    for (p, s, h) in [(3, 2, 1), (2, 3, 2), (3, 2, 2)]:
        ctx = build_field(p, s)
        code = build_bch(ctx, 3, h)
        rng = np.random.default_rng(23)
        for _ in range(40):
            a, b = (int(x) for x in rng.integers(0, ctx.q2, size=2))
            roots = 0
            for u in ctx.unit_circle():
                val = ctx.add(
                    ctx.add(
                        ctx.mul(b, ctx.pow(u, 2 * h + 2)),
                        ctx.mul(a, ctx.pow(u, 2 * h + 1)),
                    ),
                    ctx.add(ctx.mul(ctx.frobenius(a), u), ctx.frobenius(b)),
                )
                roots += val == 0
            assert dual_codeword(code, a, b).weight() == (ctx.q + 1) - roots


def test_dual_basis_matches_trace_span():
    # kernel-of-G basis and the trace words span the same GF(q)-space
    ctx = build_field(3, 2)
    for h in range(ctx.q + 1):
        code = build_bch(ctx, 3, h)
        kern = dual_basis(code)
        trace_rows = [
            dual_codeword(code, a, b).word
            for (a, b) in [(1, 0), (ctx.alpha, 0), (0, 1), (0, ctx.alpha)]
        ]
        stacked = np.vstack([kern, np.array(trace_rows, dtype=np.int64)])
        assert gflin.rank(ctx, stacked) == kern.shape[0]


@pytest.mark.parametrize("q,p,s", prime_powers_upto(64))
def test_offset_q_minus_h_is_the_same_code(q, p, s):
    # under x -> x^q the cosets mod q+1 are {e, -e}, so C_h and C_(q-h) both
    # have the defining set {+-h, +-(h+1)}
    ctx = build_field(p, s)
    for h in range(q + 1):
        assert build_bch(ctx, 3, h).g == build_bch(ctx, 3, q - h).g, h


def test_delta_is_a_real_parameter():
    ctx = build_field(3, 2)
    code2 = build_bch(ctx, 2, 1)
    assert code2.g.degree == 2  # single quadratic minimal polynomial
    code4 = build_bch(ctx, 4, 1)
    assert code4.g.degree == 6
    assert (Poly.x_pow_minus_one(ctx, "q", 10) % code4.g).is_zero()


def test_build_errors():
    ctx = build_field(3, 2)
    with pytest.raises(ValueError):
        build_bch(ctx, 3, -1)
    with pytest.raises(ValueError):
        build_bch(ctx, 3, ctx.q + 1)
    with pytest.raises(ValueError):
        build_bch(ctx, 1, 0)
    with pytest.raises(ValueError):
        build_bch(ctx, ctx.q + 2, 0)
    with pytest.raises(ValueError):
        dual_codeword(build_bch(ctx, 4, 0), 1, 1)


def _wrong_coset(ctx, h):
    """A coset outside the defining set of (delta = 3, h), as large as that of h."""
    n = ctx.q + 1
    defining = set(cosets.coset_of(h, n, ctx.q).members)
    defining |= set(cosets.coset_of((h + 1) % n, n, ctx.q).members)
    size = len(cosets.coset_of(h, n, ctx.q))
    return next(
        c.leader
        for c in cosets.all_cosets(n, ctx.q)
        if len(c) == size and not defining & set(c.members)
    )


@pytest.mark.parametrize("p,s,h", [(3, 2, 1), (2, 3, 2), (5, 2, 3), (2, 4, 5)])
@pytest.mark.parametrize("mutation", ["wrong-coset", "squared", "scaled"])
def test_build_bch_rejects_wrong_generator(monkeypatch, p, s, h, mutation):
    # each mutation breaks one clause of the root check: a wrong coset keeps
    # g monic of the right degree but moves its roots; a square keeps the
    # roots but doubles a factor; a scalar multiple keeps roots and degree
    ctx = build_field(p, s)
    n = ctx.q + 1
    coset = cosets.coset_of(h, n, ctx.q).members
    wrong = cosets.coset_of(_wrong_coset(ctx, h), n, ctx.q).members
    factor_labels = bch._factor_labels

    def patched(ctx_, members):
        m = factor_labels(ctx_, members)
        if members != coset:
            return m
        if mutation == "wrong-coset":
            return factor_labels(ctx_, wrong)
        if mutation == "squared":
            return bch._mul_labels(ctx_, m, m)
        return ctx.mul_table[2, m]

    build_bch(ctx, 3, h)
    monkeypatch.setattr(bch, "_factor_labels", patched)
    with pytest.raises(AssertionError, match="defining set"):
        build_bch(ctx, 3, h)


def test_add_rejects_an_index_outside_the_field():
    for p, s in [(2, 2), (3, 2)]:
        ctx = build_field(p, s)
        for a, b in [(ctx.q2, 0), (0, ctx.q2), (-1, 3)] if p == 2 else [(ctx.q2, 0), (0, ctx.q2)]:
            with pytest.raises(ValueError, match="outside"):
                ctx.add(a, b)


@pytest.mark.parametrize("call", ["ctx.add(-1, 3)", "ctx.add(3, -1)", "dual_codeword(code, -1, 0)"])
def test_negative_index_raises_rather_than_hangs_at_odd_p(call):
    # at odd p a negative operand once kept add's digit loop at -1 for ever,
    # so the call runs in a child with a timeout
    script = (
        "from bchlab import build_field, build_bch\n"
        "from bchlab.bch import dual_codeword\n"
        "ctx = build_field(3, 2)\n"
        "code = build_bch(ctx, 3, 1)\n"
        "try:\n"
        f"    {call}\n"
        "except ValueError:\n"
        "    print('ValueError')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert out.stdout.strip() == "ValueError", out.stderr


@pytest.mark.parametrize("p,s", [(2, 3), (3, 2)])
def test_dual_codeword_rejects_a_pair_outside_the_field(p, s):
    # at p = 2, a = -1 once built a word from log[-1]; a = q^2 raised IndexError
    ctx = build_field(p, s)
    code = build_bch(ctx, 3, 1)
    pairs = [(ctx.q2, 0), (0, ctx.q2)] + ([(-1, 0), (0, -1)] if p == 2 else [])
    for a, b in pairs:
        with pytest.raises(ValueError, match="outside"):
            dual_codeword(code, a, b)
