import pytest

from bchlab.bch import build_bch, dual_basis, generator_matrix
from bchlab.distance import (
    CodewordWitness,
    ColumnsWitness,
    DistanceResult,
    dual_min_distance,
    exhaustive_min_distance,
    krawtchouk,
    macwilliams_transform,
    min_distance_by_columns,
    verify_witness,
    weight_distribution,
)
from bchlab.field import FieldContext, build_field
from bchlab.theory import predict_min_distance


def code_for(p, s, h):
    return build_bch(build_field(p, s), 3, h)


# -- column search -------------------------------------------------------------


@pytest.mark.parametrize(
    "p,s,h,expected",
    [
        (3, 2, 2, 3),  # gcd(5, 10) = 5 > 1
        (3, 2, 1, 4),  # gcd(3, 10) = 1, q odd
        (2, 3, 0, 4),  # MDS [9, 6, 4]
        (2, 3, 4, 3),  # MDS [9, 7, 3]
        (5, 1, 1, 3),  # gcd(3, 6) = 3
    ],
)
def test_column_search_examples(p, s, h, expected):
    code = code_for(p, s, h)
    res = min_distance_by_columns(code)
    assert res.value == expected
    assert res.method == "column-search"
    assert verify_witness(code, res)


def test_column_search_lex_first_witness_is_stable():
    code = code_for(3, 2, 2)
    r1 = min_distance_by_columns(code)
    r2 = min_distance_by_columns(code)
    assert r1 == r2


def test_column_search_respects_w_max():
    code = code_for(3, 2, 1)  # true distance 4
    res = min_distance_by_columns(code, w_max=3)
    assert res.value is None
    assert res.searched_up_to == 3


def test_column_search_zero_dimensional():
    code = code_for(2, 1, 0)  # k = 0: no dependent columns at all
    res = min_distance_by_columns(code)
    assert res.value is None


def test_column_search_finds_distance_five():
    # q=4, h=1: [5, 1, 5] full repetition-style code
    code = code_for(2, 2, 1)
    assert code.k == 1
    res = min_distance_by_columns(code)
    assert res.value == 5
    assert verify_witness(code, res)
    oracle = exhaustive_min_distance(code.ctx, generator_matrix(code))
    assert oracle.value == 5


def test_column_search_builds_no_zech_table():
    """Column search, witness re-validation and the quadruple search read
    O(q) unit-circle tables and the (q, q) subfield tables, never the Zech
    residues that root-count reads."""
    for p, s in [(2, 4), (3, 2)]:
        ctx = FieldContext(p, s)  # fresh: no table built yet
        for h in range(ctx.q + 1):
            code = build_bch(ctx, 3, h)
            res = min_distance_by_columns(code)
            assert res.value is None or verify_witness(code, res)
            predict_min_distance(ctx, h, resolve=True)
        assert "unit_coords" in vars(ctx) and "unit_zech" in vars(ctx)
        assert "zech_residues" not in vars(ctx), (p, s)


def test_root_count_keeps_only_the_zech_residues():
    """Root-count and its witness check leave the (q-1, q+1) residues as the
    one Zech table of the context: the trace word is formed on the subfield
    tables, and no q^2 table of Zech logarithms is kept."""
    for p, s in [(2, 4), (3, 2)]:
        ctx = FieldContext(p, s)  # fresh: no table built yet
        code = build_bch(ctx, 3, 1)
        assert verify_witness(code, dual_min_distance(code, "root-count"))
        assert "zech_residues" in vars(ctx) and "zech" not in vars(ctx), (p, s)


# -- exhaustive enumeration ----------------------------------------------------


def test_exhaustive_small_example():
    code = code_for(5, 1, 1)
    assert code.k == 2  # 25 words
    res = exhaustive_min_distance(code.ctx, generator_matrix(code))
    assert res.value == 3
    assert verify_witness(code, res)
    assert res.value == min_distance_by_columns(code).value


def test_exhaustive_zero_dimensional_errors():
    code = code_for(2, 1, 0)
    with pytest.raises(ValueError):
        exhaustive_min_distance(code.ctx, generator_matrix(code))


def test_exhaustive_cap_errors_without_fallback():
    code = code_for(3, 2, 1)
    with pytest.raises(ValueError):
        exhaustive_min_distance(code.ctx, generator_matrix(code), cap=100)


def test_exhaustive_dual_fallback_matches_direct():
    # force the MacWilliams route and compare with the direct enumeration
    code = code_for(2, 3, 4)  # k=7: 2M words vs dual of 64
    gen = generator_matrix(code)
    direct = exhaustive_min_distance(code.ctx, gen)
    via_dual = exhaustive_min_distance(code.ctx, gen, cap=10_000)
    assert via_dual.method == "exhaustive-dual"
    assert via_dual.value == direct.value == 3
    assert via_dual.witness is None


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)])
def test_oracle_agreement_small_fields(p, s):
    ctx = build_field(p, s)
    for h in range(ctx.q + 1):
        code = build_bch(ctx, 3, h)
        col = min_distance_by_columns(code)
        if code.k == 0:
            assert col.value is None
            continue
        exh = exhaustive_min_distance(ctx, generator_matrix(code))
        assert exh.value == col.value, (ctx.q, h)
        assert verify_witness(code, exh)
        assert verify_witness(code, col)


# -- dual distance ---------------------------------------------------------------


def test_dual_distance_example_q9_h1():
    code = code_for(3, 2, 1)
    enum = dual_min_distance(code, "dual-enum")
    root = dual_min_distance(code, "root-count")
    assert enum.value == root.value == 6
    assert verify_witness(code, enum)
    assert verify_witness(code, root)


def test_dual_distance_q25_h2():
    code = code_for(5, 2, 2)
    assert dual_min_distance(code, "root-count").value == 20


def test_dual_distance_q27_h4():
    code = code_for(3, 3, 4)
    res = dual_min_distance(code, "root-count")
    assert 18 <= res.value <= 24
    assert res.value == 24  # exact value, fixed by full dual enumeration
    assert dual_min_distance(code, "dual-enum").value == 24


@pytest.mark.parametrize("p,s", [(2, 3), (3, 2)])
def test_dual_engines_agree_all_offsets(p, s):
    ctx = build_field(p, s)
    for h in range(ctx.q + 1):
        code = build_bch(ctx, 3, h)
        enum = dual_min_distance(code, "dual-enum")
        root = dual_min_distance(code, "root-count")
        assert enum.value == root.value, (ctx.q, h)


def test_dual_distance_method_validation():
    code = code_for(3, 2, 1)
    with pytest.raises(ValueError):
        dual_min_distance(code, "weights")
    with pytest.raises(ValueError):
        dual_min_distance(build_bch(code.ctx, 4, 1), "root-count")


# -- witnesses -------------------------------------------------------------------


def test_witness_tampering_detected():
    code = code_for(3, 2, 2)
    res = min_distance_by_columns(code)
    cols = list(res.witness.cols)
    cols[-1] = (cols[-1] + 1) % code.n
    if cols[-1] in cols[:-1]:
        cols[-1] = (cols[-1] + 1) % code.n
    tampered = DistanceResult(
        res.value, ColumnsWitness(tuple(sorted(cols)), res.witness.coeffs), res.method
    )
    assert not verify_witness(code, tampered)


@pytest.mark.parametrize("p,s,h", [(3, 2, 2), (2, 3, 2), (2, 5, 8), (5, 2, 2)])
def test_column_witness_coefficient_tampering_detected(p, s, h):
    # the columns stay; one coefficient takes every other nonzero value
    code = code_for(p, s, h)
    res = min_distance_by_columns(code)
    assert verify_witness(code, res)
    for pos in range(len(res.witness.coeffs)):
        for c in range(1, code.q):
            coeffs = list(res.witness.coeffs)
            if coeffs[pos] == c:
                continue
            coeffs[pos] = c
            tampered = DistanceResult(
                res.value, ColumnsWitness(res.witness.cols, tuple(coeffs)), res.method
            )
            assert not verify_witness(code, tampered)


@pytest.mark.parametrize("p,s,h", [(5, 1, 1), (2, 2, 1), (3, 2, 1)])
def test_exhaustive_witness_tampering_detected(p, s, h):
    # one nonzero symbol changed to another nonzero value keeps the weight
    # but leaves the code
    code = code_for(p, s, h)
    res = exhaustive_min_distance(code.ctx, generator_matrix(code))
    assert res.method == "exhaustive" and verify_witness(code, res)
    word = list(res.witness.word)
    for i in (k for k, c in enumerate(word) if c):
        for c in range(1, code.q):
            if c == res.witness.word[i]:
                continue
            word[i] = c
            tampered = DistanceResult(
                res.value, CodewordWitness(tuple(word), res.witness.source), res.method
            )
            assert not verify_witness(code, tampered)
        word[i] = res.witness.word[i]


@pytest.mark.parametrize("p,s,h", [(3, 2, 1), (2, 3, 2), (5, 2, 2)])
def test_dual_witness_tampering_detected(p, s, h):
    # one nonzero symbol changed to another nonzero value keeps the weight
    # but leaves the dual code
    code = code_for(p, s, h)
    res = dual_min_distance(code, "root-count")
    assert verify_witness(code, res)
    word = list(res.witness.word)
    i = next(k for k, c in enumerate(word) if c)
    word[i] = word[i] % (code.q - 1) + 1
    tampered = DistanceResult(
        res.value, CodewordWitness(tuple(word), res.witness.source), res.method
    )
    assert not verify_witness(code, tampered)


@pytest.mark.parametrize("p,s,h", [(2, 2, 1), (3, 2, 2), (5, 1, 1)])
def test_dual_witness_every_tampering_detected(p, s, h):
    # every nonzero symbol, changed to every other nonzero value: a word one
    # symbol away from a dual codeword is in the dual only if a weight-1 word
    # is, and no nonzero cyclic code has a coordinate that is always zero
    code = code_for(p, s, h)
    res = dual_min_distance(code, "root-count")
    assert verify_witness(code, res)
    word = list(res.witness.word)
    for i in (k for k, c in enumerate(word) if c):
        for c in range(1, code.q):
            if c == res.witness.word[i]:
                continue
            word[i] = c
            tampered = DistanceResult(
                res.value, CodewordWitness(tuple(word), res.witness.source), res.method
            )
            assert not verify_witness(code, tampered)
        word[i] = res.witness.word[i]


@pytest.mark.parametrize("method", ["root-count", "exhaustive"])
def test_out_of_range_labels_rejected(method):
    # a label outside [0, q) is a defect, not an index error
    code = code_for(3, 2, 1)
    if method == "root-count":
        res = dual_min_distance(code, method)
    else:
        res = exhaustive_min_distance(code.ctx, generator_matrix(code))
    assert verify_witness(code, res)
    i = next(k for k, c in enumerate(res.witness.word) if c)
    for bad in (-1, code.q):
        word = list(res.witness.word)
        word[i] = bad
        tampered = DistanceResult(
            res.value, CodewordWitness(tuple(word), res.witness.source), res.method
        )
        assert not verify_witness(code, tampered)


@pytest.mark.parametrize("bad", [-7, 8])
def test_column_witness_out_of_range_coefficients_rejected(bad):
    # -7 would wrap to label 1 and still give a codeword; 8 = q would index
    # past the tables
    code = code_for(2, 3, 2)
    res = min_distance_by_columns(code)
    assert res.witness == ColumnsWitness((0, 1, 2, 3, 4), (1, 5, 4, 5, 1))
    assert verify_witness(code, res)
    tampered = DistanceResult(
        res.value, ColumnsWitness(res.witness.cols, (bad,) + res.witness.coeffs[1:]), res.method
    )
    assert not verify_witness(code, tampered)


def test_zero_word_witness_rejected():
    code = code_for(3, 2, 1)
    zero = DistanceResult(
        0, CodewordWitness(word=(0,) * code.n, source=("message",)), "exhaustive"
    )
    assert not verify_witness(code, zero)


def test_missing_witness_rejected():
    code = code_for(3, 2, 1)
    assert not verify_witness(code, DistanceResult(None, None, "column-search"))


def test_codeword_witness_weight_mismatch_rejected():
    code = code_for(3, 2, 1)
    res = dual_min_distance(code, "dual-enum")
    lied = DistanceResult(res.value + 1, res.witness, res.method)
    assert not verify_witness(code, lied)


# -- weight distributions ---------------------------------------------------------


def test_macwilliams_identity_small_code():
    # independent oracle: distribution of the code enumerated directly vs the
    # transform of the dual's distribution
    code = code_for(5, 1, 1)
    ctx = code.ctx
    direct = weight_distribution(ctx, generator_matrix(code))
    dual_direct = weight_distribution(ctx, dual_basis(code))
    assert macwilliams_transform(dual_direct, code.n, ctx.q) == direct
    assert macwilliams_transform(direct, code.n, ctx.q) == dual_direct


def test_krawtchouk_binomial_row():
    # K_j(0) = (q-1)^j * C(n, j)
    from math import comb

    for j in range(6):
        assert krawtchouk(5, 3, j, 0) == 2**j * comb(5, j)
