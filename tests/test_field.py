import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from bchlab.field import FieldContext, build_field, check_field, is_prime, prime_factors
from bchlab.harness import prime_powers_upto

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "fields.json"

# loaded by path: a top-level ``reference`` name would clash with other
# modules of that name on sys.path
_spec = importlib.util.spec_from_file_location(
    "field_tables_reference", HERE / "reference" / "field_tables.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def rng_elements(ctx, count, seed=0, nonzero=False):
    rng = np.random.default_rng(seed)
    lo = 1 if nonzero else 0
    return [int(x) for x in rng.integers(lo, ctx.q2, size=count)]


def multiplicative_order(ctx, x):
    """Direct order by exponentiation over the divisors of q^2 - 1."""
    n = ctx.order
    divisors = sorted(d for d in range(1, n + 1) if n % d == 0)
    for d in divisors:
        if ctx.pow(x, d) == 1:
            return d
    raise AssertionError("element has no order")


def test_build_gf4():
    ctx = build_field(2, 1)
    assert ctx.q == 2 and ctx.q2 == 4
    assert multiplicative_order(ctx, ctx.alpha) == 3
    assert multiplicative_order(ctx, ctx.beta) == 3


def test_build_gf9():
    ctx = build_field(3, 1)
    assert ctx.q2 == 9
    assert multiplicative_order(ctx, ctx.beta) == 4


def test_build_gf625_beta_order():
    ctx = build_field(5, 2)
    # order verified by direct exponentiation over all divisors of 26
    assert multiplicative_order(ctx, ctx.beta) == 26


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 3)])
def test_exp_log_roundtrip_and_orders(p, s):
    ctx = build_field(p, s)
    for x in range(1, ctx.q2):
        assert int(ctx.exp[int(ctx.log[x])]) == x
    assert multiplicative_order(ctx, ctx.alpha) == ctx.order
    assert multiplicative_order(ctx, ctx.beta) == ctx.q + 1


@pytest.mark.parametrize("p,s", [(2, 2), (3, 2), (5, 1), (7, 1)])
def test_unit_circle(p, s):
    ctx = build_field(p, s)
    circle = ctx.unit_circle()
    assert len(circle) == ctx.q + 1
    assert len(set(circle)) == ctx.q + 1
    for u in circle:
        assert ctx.pow(u, ctx.q + 1) == 1
        assert ctx.mul(u, ctx.frobenius(u)) == 1  # norm-1 characterization


def test_frobenius_involution_and_zero():
    ctx = build_field(3, 2)
    assert ctx.frobenius(0) == 0
    for x in rng_elements(ctx, 100, seed=1):
        assert ctx.frobenius(ctx.frobenius(x)) == x
    for x in ctx.sub_sorted:
        assert ctx.frobenius(int(x)) == int(x)


@pytest.mark.parametrize(
    "call",
    [
        "mul(-1, 3)",
        "mul(9, 1)",
        "mul(0, -1)",
        "inv(-1)",
        "pow(-2, 2)",
        "neg(-1)",
        "sub(3, -1)",
        "div(3, -1)",
        "frobenius(-1)",
        "trace(9)",
        "in_subfield(-3)",
    ],
)
def test_scalar_op_rejects_an_index_outside_the_field(call):
    # at q = 3 each of these once wrapped a negative index through the log
    # table, or raised IndexError past q^2 = 9, instead of naming the index
    ctx = build_field(3, 1)
    with pytest.raises(ValueError, match=r"outside \[0, 9\)"):
        eval("ctx." + call)


def test_trace_into_subfield():
    ctx = build_field(3, 2)
    assert ctx.trace(0) == 0
    for x in rng_elements(ctx, 200, seed=2):
        assert ctx.in_subfield(ctx.trace(x))
    # on the subfield the trace is doubling (zero in characteristic 2)
    ctx2 = build_field(2, 3)
    for x in ctx2.sub_sorted:
        assert ctx2.trace(int(x)) == 0
    for x in ctx.sub_sorted:
        assert ctx.trace(int(x)) == ctx.add(int(x), int(x))


def test_subfield_closure():
    ctx = build_field(5, 2)
    rng = np.random.default_rng(3)
    sub = ctx.sub_sorted
    assert len(sub) == ctx.q
    for _ in range(200):
        x = int(sub[rng.integers(0, ctx.q)])
        y = int(sub[rng.integers(0, ctx.q)])
        assert ctx.in_subfield(ctx.add(x, y))
        assert ctx.in_subfield(ctx.mul(x, y))


@pytest.mark.parametrize("p,s", [(2, 2), (3, 1), (5, 1)])
def test_field_axioms_sampled(p, s):
    ctx = build_field(p, s)
    rng = np.random.default_rng(4)
    for _ in range(300):
        a, b, c = (int(x) for x in rng.integers(0, ctx.q2, size=3))
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
        assert ctx.add(a, ctx.add(b, c)) == ctx.add(ctx.add(a, b), c)
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.add(a, ctx.neg(a)) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
            assert ctx.pow(a, ctx.order) == 1


def test_zero_handling():
    ctx = build_field(3, 1)
    assert ctx.mul(0, 5) == 0
    assert ctx.pow(0, 0) == 1
    assert ctx.pow(0, 3) == 0
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)
    with pytest.raises(ZeroDivisionError):
        ctx.pow(0, -1)


def test_determinism_of_two_builds():
    a = FieldContext(3, 2)
    b = FieldContext(3, 2)
    assert a.modulus == b.modulus
    assert a.alpha == b.alpha and a.beta == b.beta
    assert (a.exp == b.exp).all() and (a.log == b.log).all()


def test_build_errors():
    with pytest.raises(ValueError):
        build_field(4, 1)  # not prime
    with pytest.raises(ValueError):
        build_field(2, 13)  # q = 8192 over the default cap
    with pytest.raises(ValueError):
        build_field(2, 0)


def test_build_field_cache_ignores_the_cap():
    # the context does not depend on max_q, so both call forms share one build
    build_field.cache_clear()
    a = build_field(2, 3)
    assert build_field(2, 3, 4096) is a and build_field(2, 3, 8) is a
    assert build_field.cache_info().misses == 1
    # a lower cap still raises on the cached field
    with pytest.raises(ValueError, match="table cap 4"):
        build_field(2, 3, 4)
    assert build_field.cache_info().currsize == 1


def test_build_field_cache_keeps_a_budget_of_cells(monkeypatch):
    # a miss drops the least recently used fields until the new one fits
    monkeypatch.setattr("bchlab.field._CACHE_CELLS", 16**2 + 9**2)
    build_field.cache_clear()
    q16, q9 = build_field(2, 4), build_field(3, 2)
    assert build_field(2, 4) is q16  # now the most recently used
    build_field(5, 1)  # 25 more cells: q = 9 goes
    assert build_field.cache_info() == (3, 2)
    assert build_field(2, 4) is q16 and build_field(3, 2) is not q9
    build_field(2, 5)  # 1024 cells, past the budget alone: held by itself
    assert build_field.cache_info() == (5, 1)
    build_field.cache_clear()


def test_tables_too_large_for_int16_labels():
    # compact labels are int16; the check comes before any table is built
    with pytest.raises(ValueError, match="int16"):
        FieldContext(2, 16)
    check_field(2, 15, 1 << 15)  # q = 2^15 is the largest the labels hold


@pytest.mark.parametrize(
    "p, s, max_q, message",
    [
        (4, 1, 4096, "p=4 is not prime"),
        (4, 0, 4096, "p=4 is not prime"),
        (2, 0, 4096, "s=0 must be >= 1"),
        (2, 16, 8, "q=65536 is too large for the int16 subfield tables"),
        (3, 3, 8, "q=27 exceeds the table cap 8; raise the cap explicitly"),
    ],
)
def test_check_field_rejects_in_order(p, s, max_q, message):
    # p, then s, then the int16 labels, then the cap; no cap lifts the labels
    with pytest.raises(ValueError) as exc:
        check_field(p, s, max_q)
    assert str(exc.value) == message


def _label(ctx, x):
    """Compact label of x by binary search in ``sub_sorted``, a route that
    shares nothing with the context's label tables."""
    i = int(np.searchsorted(ctx.sub_sorted, x))
    assert i < ctx.q and ctx.sub_sorted[i] == x, x
    return i


def _digitwise(p, s, a, b, sign=1):
    """Labels a + sign * b, digit by digit mod p (broadcast)."""
    out = 0
    for j in range(s):
        out = out + (a // p**j % p + sign * (b // p**j % p)) % p * p**j
    return out


def _label_pairs(q, count):
    """Every (i, j) for small q; otherwise a fixed sample plus pairs with the
    zero label."""
    if q * q <= count:
        return [(i, j) for i in range(q) for j in range(q)]
    rng = np.random.default_rng(q)
    pairs = [tuple(int(v) for v in pair) for pair in rng.integers(0, q, size=(count, 2))]
    return pairs + [(0, j) for j in range(4)] + [(i, 0) for i in range(4)]


def test_compact_tables_match_scalar_ops():
    # q = 343 fills the add table in two blocks of rows, the last one partial
    for p, s in [(2, 2), (3, 2), (7, 2), (2, 6), (2, 7), (7, 3)]:
        ctx = build_field(p, s)
        q = ctx.q
        for i, j in _label_pairs(q, 2000):
            a, b = int(ctx.sub_sorted[i]), int(ctx.sub_sorted[j])
            assert _label(ctx, ctx.add(a, b)) == int(ctx.add_table[i, j])
            assert _label(ctx, ctx.mul(a, b)) == int(ctx.mul_table[i, j])
        for i in range(q):
            a = int(ctx.sub_sorted[i])
            assert _label(ctx, ctx.neg(a)) == int(ctx.neg_table[i])
            if i:
                assert _label(ctx, ctx.inv(a)) == int(ctx.inv_table[i])
        # a + (-a) = 0 in every row
        assert all(int(ctx.add_table[i, ctx.neg_table[i]]) == 0 for i in range(q))


def test_labels_add_and_negate_digitwise_every_golden_field():
    """Labels are F_p-coordinates of GF(q): the add and neg tables are
    digit-wise sum and negation of the labels, checked against scalar
    ``add``/``neg`` read back by binary search; full tables up to q = 64."""
    for g in json.loads(GOLDEN.read_text()):
        ctx = FieldContext(g["p"], g["s"])  # not cached: 70 fields
        p, s, q, sub = ctx.p, ctx.s, ctx.q, ctx.sub_sorted
        assert (np.diff(sub) > 0).all() and sub[0] == 0
        assert all(ctx.frobenius(int(x)) == int(x) for x in sub)
        labels = np.arange(q)
        assert np.array_equal(ctx.neg_table, _digitwise(p, s, 0, labels, -1))
        if q <= 64:
            assert np.array_equal(ctx.add_table, _digitwise(p, s, labels[:, None], labels))
        for i, j in _label_pairs(q, 4096 if q <= 64 else 2000):
            want = _digitwise(p, s, i, j)
            assert int(ctx.add_table[i, j]) == want, (q, i, j)
            assert _label(ctx, ctx.add(int(sub[i]), int(sub[j]))) == want, (q, i, j)
        for i in labels:
            assert _label(ctx, ctx.neg(int(sub[i]))) == ctx.neg_table[i], (q, i)


@pytest.mark.parametrize("p,s", [(p, s) for _, p, s in prime_powers_upto(32)])
def test_zech_logarithms(p, s):
    """Every cell of ``zech_residues`` against log(1 + alpha^k) through the
    scalar digit addition, which reads no Zech table; the one zero sum, at
    k = ``log_minus_one``, leaves its cell at 0."""
    ctx = build_field(p, s)
    q, res = ctx.q, ctx.zech_residues
    zero_sums = []
    for k in range(ctx.order):
        total = ctx.add(int(ctx.exp[k]), 1)
        cell = res[k % (q - 1), k // (q - 1)]
        if total == 0:
            zero_sums.append(k)
            assert cell == 0
        else:
            assert cell == ctx.log[total] % (q + 1), k
    assert zero_sums == [0 if p == 2 else ctx.order // 2]


def _check_unit_zech(ctx, ks):
    """Z_U[k] against log(beta^k - 1) with the scalar digit subtraction,
    which uses no Zech table; -1 only at k = 0."""
    zu = ctx.unit_zech
    assert zu.shape == (ctx.q + 1,)
    assert np.flatnonzero(zu < 0).tolist() == [0]
    for k in ks:
        assert zu[k] == ctx.log[ctx.sub(ctx.exp_at((ctx.q - 1) * k), 1)], k
    assert ctx.unit_zech is zu  # built once


def test_unit_zech_every_golden_field():
    for g in json.loads(GOLDEN.read_text()):
        ctx = build_field(g["p"], g["s"])
        _check_unit_zech(ctx, range(ctx.q + 1))


def test_unit_zech_q4096_sample():
    ctx = build_field(2, 12)
    ks = np.random.default_rng(4096).integers(0, ctx.q + 1, size=256)
    _check_unit_zech(ctx, [int(k) for k in ks])


def _zech(ctx):
    """log(1 + alpha^k) for every k, -1 where the sum is 0: 1 is added to the
    lowest base-p digit of the index of alpha^k, a digit p - 1 wrapping to 0
    with no carry."""
    e = ctx.exp.astype(np.int64)
    return ctx.log[np.where(e % ctx.p == ctx.p - 1, e + 1 - ctx.p, e + 1)]


def test_zech_residues_every_golden_field():
    """Row v, column j is log(1 + alpha^(v + (q-1)j)) mod (q+1), and the one
    cell of a zero sum, in row 0, holds 0."""
    for g in json.loads(GOLDEN.read_text()):
        ctx = FieldContext(g["p"], g["s"])  # not cached: 70 fields
        q = ctx.q
        res = ctx.zech_residues
        assert res.shape == (q - 1, q + 1) and res.dtype == np.uint16
        assert res.flags.c_contiguous
        zech = _zech(ctx)
        want = zech.reshape(q + 1, q - 1).T % (q + 1)
        absent = (0, ctx.log_minus_one // (q - 1))
        assert absent == ((0, 0) if g["p"] == 2 else (0, (q + 1) // 2))
        assert np.flatnonzero(zech < 0).tolist() == [absent[0] + (q - 1) * absent[1]]
        assert res[absent] == 0
        keep = np.ones(res.shape, dtype=bool)
        keep[absent] = False
        assert np.array_equal(res[keep], want[keep]), (g["p"], g["s"])
        assert ctx.zech_residues is res  # built once


def test_prime_helpers():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_factors(360) == [2, 3, 5]
    brute = [n for n in range(2, 2000) if all(n % d for d in range(2, n))]
    assert [n for n in range(-3, 2000) if is_prime(n)] == brute


@pytest.mark.parametrize(
    "p,s,count",
    [(p, s, None) for _, p, s in prime_powers_upto(27)] + [(3, 5, 10**4), (3, 7, 10**4)],
)
def test_neg_is_digitwise_negation(p, s, count):
    """``neg`` through the log tables against each base-p digit of the
    element index negated mod p: every element, or 0 and ``count`` random
    ones."""
    ctx = build_field(p, s)
    elems = range(ctx.q2) if count is None else [0] + rng_elements(ctx, count, seed=ctx.q)
    for a in elems:
        assert ctx.neg(a) == _digitwise(p, 2 * s, 0, a, -1), (ctx.q, a)


def test_sums_vanish_in_row_blocks():
    """A large-delta generator check at q = 64 shape: 400 rows of 400 terms,
    each row pairs of equal terms (zero in characteristic 2).  The digit sums
    run in row blocks, so the int64 temporaries stay far below the 15 MB that
    one pass over all rows would take, and the last block is still read."""
    import tracemalloc

    ctx = build_field(2, 6)
    rng = np.random.default_rng(26)
    half = rng.integers(-1, ctx.order, size=(400, 200))
    logs = np.repeat(half, 2, axis=1)
    tracemalloc.start()
    try:
        assert ctx.sums_vanish(logs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    logs[-1, -1] = -1 if logs[-1, -2] >= 0 else 0  # one lone term in the last row
    assert not ctx.sums_vanish(logs)


def test_golden_fields():
    """Modulus, alpha, beta, exp and log for every q <= 256, recorded with the
    per-entry scalar construction that ``reference/field_tables.py`` keeps."""
    golden = json.loads(GOLDEN.read_text())
    assert [(g["p"], g["s"]) for g in golden] == [(p, s) for _, p, s in prime_powers_upto(256)]
    for g in golden:
        ctx = FieldContext(g["p"], g["s"])
        got = {
            "p": ctx.p,
            "s": ctx.s,
            "modulus": list(ctx.modulus),
            "alpha": ctx.alpha,
            "beta": ctx.beta,
            "exp_sha256": hashlib.sha256(ctx.exp.astype(np.int64).tobytes()).hexdigest(),
            "log_sha256": hashlib.sha256(ctx.log.astype(np.int64).tobytes()).hexdigest(),
        }
        assert got == g


@pytest.mark.parametrize("p,s", [(p, s) for _, p, s in prime_powers_upto(64)])
def test_matches_reference_construction(p, s):
    """The reference scans every candidate modulus, so an equal modulus also
    shows that skipping roots at 0 (and at 1 for p = 2) passes over no
    irreducible."""
    ctx = build_field(p, s)
    modulus, alpha, exp, log = reference.field_tables(p, s)
    assert ctx.modulus == modulus and ctx.alpha == alpha
    assert np.array_equal(ctx.exp, exp) and np.array_equal(ctx.log, log)
    assert ctx.exp.dtype == ctx.log.dtype == np.int32
    assert ctx.digits.dtype == np.min_scalar_type(p - 1)


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


@pytest.mark.parametrize("p,s", [(2, 9), (3, 6), (2, 10), (3, 7), (4099, 1)])
def test_fill_matches_matrix_product_fill(p, s):
    """q = 512, 729, 1024, 2187 and 4099: many blocks on the XOR path and on
    the odd-p lane path, against the per-block matrix product.  At q = 4099
    the reference also tests the 4097 constants below p that the search
    skips."""
    ctx = FieldContext(p, s)
    assert ctx.alpha == reference.matrix_generator(p, ctx.modulus)
    exp, log = reference.matrix_fill(p, ctx.modulus, ctx.alpha)
    assert (ctx.exp.dtype, ctx.log.dtype) == (exp.dtype, log.dtype) == (np.int32, np.int32)
    assert _sha(ctx.exp) == _sha(exp) and _sha(ctx.log) == _sha(log)
    digits = reference.divmod_digits(p, s)
    assert ctx.digits.dtype == digits.dtype and _sha(ctx.digits) == _sha(digits)


def test_alpha_is_the_first_generator_by_log():
    """On every golden field alpha is the first g >= 2 with
    gcd(log g, q^2 - 1) = 1, that is, the first generator in index order."""
    for g in json.loads(GOLDEN.read_text()):
        ctx = FieldContext(g["p"], g["s"])  # not cached: 70 fields
        generators = np.gcd(ctx.log[2:].astype(np.int64), ctx.order) == 1
        assert ctx.alpha == g["alpha"] == 2 + int(np.argmax(generators))


@pytest.mark.parametrize("p,s", [(2, 2), (3, 2), (7, 1), (2, 5)])
def test_fill_rejects_non_primitive_element(p, s):
    ctx = FieldContext(p, s)
    g = ctx.exp_at(ctx.q + 1)  # order q - 1
    with pytest.raises(AssertionError, match="generator order too small"):
        ctx._exp_log_tables(g)


def test_fill_rejects_table_that_does_not_close():
    ctx = FieldContext(2, 2)
    ctx.modulus = (0, 0, 0, 0, 1)  # x^4: multiplication by x is nilpotent
    with pytest.raises(AssertionError, match="exp table does not close"):
        ctx._exp_log_tables(2)
