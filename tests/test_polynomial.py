import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from bchlab import cosets
from bchlab.field import build_field, prime_factors
from bchlab.polynomial import (
    Poly,
    all_minimal_polynomials,
    is_irreducible,
    minimal_polynomial,
    poly_gcd,
    poly_lcm,
)

HERE = Path(__file__).resolve().parent

# loaded by path: a top-level ``reference`` name would clash with other
# modules of that name on sys.path
_spec = importlib.util.spec_from_file_location(
    "field_tables_reference", HERE / "reference" / "field_tables.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def random_poly(ctx, tag, max_deg, rng):
    if tag == "q":
        pool = [int(x) for x in ctx.sub_sorted]
    else:
        pool = list(range(ctx.q2))
    coeffs = [pool[rng.integers(0, len(pool))] for _ in range(rng.integers(0, max_deg + 1))]
    return Poly.make(ctx, tag, coeffs)


@pytest.mark.parametrize("tag", ["q", "q2"])
def test_ring_axioms_sampled(tag):
    ctx = build_field(3, 2)
    rng = np.random.default_rng(11)
    for _ in range(60):
        a = random_poly(ctx, tag, 6, rng)
        b = random_poly(ctx, tag, 6, rng)
        c = random_poly(ctx, tag, 4, rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a - a == Poly.zero(ctx, tag)


def test_divmod_multiply_back():
    ctx = build_field(3, 2)
    rng = np.random.default_rng(12)
    for _ in range(80):
        a = random_poly(ctx, "q", 8, rng)
        b = random_poly(ctx, "q", 5, rng)
        if b.is_zero():
            continue
        quot, rem = divmod(a, b)
        assert quot * b + rem == a
        assert rem.is_zero() or rem.degree < b.degree


def test_divmod_example_over_gf4():
    # (x^3 - 1) / (x - 1) over GF(4): quotient x^2 + x + 1, remainder 0
    ctx = build_field(2, 2)
    num = Poly.x_pow_minus_one(ctx, "q", 3)
    den = Poly.make(ctx, "q", [ctx.neg(1), 1])
    quot, rem = divmod(num, den)
    assert rem.is_zero()
    assert quot == Poly.make(ctx, "q", [1, 1, 1])
    assert quot * den == num


def test_gcd_lcm_examples():
    ctx = build_field(3, 2)  # coefficients in GF(9)
    f = Poly.make(ctx, "q", [ctx.neg(1), 0, 1])  # x^2 - 1
    g = Poly.make(ctx, "q", [ctx.neg(1), 1])  # x - 1
    assert poly_gcd(f, g) == g
    assert poly_lcm(g, g) == g  # idempotent, monic
    lcm = poly_lcm(f, g)
    assert (lcm % f).is_zero() and (lcm % g).is_zero()
    prod = f.monic() * g.monic()
    assert poly_lcm(f, g) * poly_gcd(f, g) == prod


def test_gcd_lcm_random_properties():
    ctx = build_field(2, 2)
    rng = np.random.default_rng(13)
    for _ in range(40):
        a = random_poly(ctx, "q", 6, rng)
        b = random_poly(ctx, "q", 6, rng)
        if a.is_zero() or b.is_zero():
            continue
        g = poly_gcd(a, b)
        assert (a % g).is_zero() and (b % g).is_zero()
        assert g.leading == 1
        m = poly_lcm(a, b)
        assert (m % a.monic()).is_zero() and (m % b.monic()).is_zero()
        assert m * g == a.monic() * b.monic()


def test_errors():
    ctx = build_field(3, 1)
    other = build_field(2, 1)
    a = Poly.make(ctx, "q", [1])
    with pytest.raises(ZeroDivisionError):
        divmod(a, Poly.zero(ctx, "q"))
    with pytest.raises(ValueError):
        a + Poly.make(ctx, "q2", [1])
    with pytest.raises(ValueError):
        a + Poly.make(other, "q", [1])
    with pytest.raises(ValueError):
        Poly.make(ctx, "q", [ctx.alpha])  # alpha generates GF(9), not GF(3)


# -- minimal polynomials ------------------------------------------------------


def test_minimal_polynomial_e0_is_x_minus_1():
    ctx = build_field(3, 1)
    f = minimal_polynomial(ctx, 0, ctx.q + 1)
    assert f.degree == 1
    assert f == Poly.make(ctx, "q", [ctx.neg(1), 1])


def test_minimal_polynomial_q2_n3():
    # q=2, n=3: multiply (x - beta)(x - beta^2) in GF(4) by hand and compare
    ctx = build_field(2, 1)
    b = ctx.beta
    b2 = ctx.pow(b, 2)
    c0 = ctx.mul(b, b2)
    c1 = ctx.neg(ctx.add(b, b2))
    expected = (c0, c1, 1)
    f = minimal_polynomial(ctx, 1, 3)
    assert f.coeffs == expected == (1, 1, 1)


@pytest.mark.parametrize("p,s", [(2, 2), (2, 3)])
def test_minimal_polynomial_half_q_even(p, s):
    # q even, e = q/2: the coset {q/2, q/2 + 1} gives degree 2
    ctx = build_field(p, s)
    f = minimal_polynomial(ctx, ctx.q // 2, ctx.q + 1)
    assert f.degree == 2


@pytest.mark.parametrize("p,s", [(2, 3), (3, 2), (5, 1)])
def test_minimal_polynomial_coset_invariance_and_degree(p, s):
    ctx = build_field(p, s)
    n = ctx.q + 1
    for c in cosets.all_cosets(n, ctx.q):
        f = minimal_polynomial(ctx, c.leader, n)
        assert f.degree == len(c.members)
        for e in c.members:
            assert minimal_polynomial(ctx, e, n) == f


@pytest.mark.parametrize("p,s", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
def test_minimal_polynomials_factor_x_n_minus_1(p, s):
    ctx = build_field(p, s)
    n = ctx.q + 1
    acc = Poly.one(ctx, "q")
    for f in all_minimal_polynomials(ctx, n):
        acc = acc * f
    assert acc == Poly.x_pow_minus_one(ctx, "q", n)


def test_minimal_polynomials_irreducible_prime_field():
    # for s=1 the subfield labels are plain residues mod p, so the Rabin
    # test applies directly
    ctx = build_field(5, 1)
    n = ctx.q + 1
    for c in cosets.all_cosets(n, ctx.q):
        f = minimal_polynomial(ctx, c.leader, n)
        assert is_irreducible([int(x) for x in f.coeffs], 5)


# -- irreducibility over prime fields ----------------------------------------


def test_is_irreducible_examples():
    assert is_irreducible([1, 0, 1], 3)  # x^2 + 1, -1 a non-residue mod 3
    assert not is_irreducible([2, 0, 1], 3)  # x^2 - 1
    assert is_irreducible([1, 1, 0, 0, 1], 2)  # x^4 + x + 1


def test_is_irreducible_degree4_exhaustive_oracle():
    # brute-force product oracle over GF(2): a quartic is irreducible iff it
    # is not a product of lower-degree monic polynomials
    def poly_from_bits(bits):
        return list(bits)

    def pmul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] ^= ai & bj
        return out

    reducible = set()
    monics = {
        d: [list(bits) + [1] for bits in itertools.product([0, 1], repeat=d)]
        for d in range(1, 4)
    }
    for d1 in range(1, 4):
        for d2 in range(1, 4):
            if d1 + d2 != 4:
                continue
            for f in monics[d1]:
                for g in monics[d2]:
                    reducible.add(tuple(pmul(f, g)))
    for bits in itertools.product([0, 1], repeat=4):
        f = list(bits) + [1]
        assert is_irreducible(f, 2) == (tuple(f) not in reducible)


def _irreducible_count(p, n):
    """Monic irreducibles of degree n over GF(p): (1/n) sum_(d | n) mu(d) p^(n/d)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0 and all(d % (r * r) for r in prime_factors(d)):
            total += (-1) ** len(prime_factors(d)) * p ** (n // d)
    return total // n


@pytest.mark.parametrize("p,max_deg", [(2, 10), (3, 6), (5, 4), (7, 3), (13, 2)])
def test_is_irreducible_matches_rabin_every_monic(p, max_deg):
    """Ben-Or against the Rabin oracle on every monic polynomial, and the
    number of irreducibles per degree against Gauss's formula."""
    for n in range(1, max_deg + 1):
        count = 0
        for low in itertools.product(range(p), repeat=n):
            f = [*low, 1]
            fast = is_irreducible(f, p)
            assert fast == reference.is_irreducible(f, p), (p, f)
            count += fast
        assert count == _irreducible_count(p, n), (p, n)


def test_is_irreducible_rejects_non_monic():
    with pytest.raises(ValueError):
        is_irreducible([1, 2], 3)
