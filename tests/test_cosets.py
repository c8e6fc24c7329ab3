import pytest

from bchlab.cosets import all_cosets, coset_leaders, coset_of
from bchlab.harness import prime_powers_upto


def test_coset_of_zero():
    assert coset_of(0, 9, 8).members == (0,)


def test_cosets_pair_up_at_length_q_plus_1():
    # n = q+1: {i, q+1-i} for 0 < i, except the self-paired midpoint
    q = 9
    for i in range(1, q + 1):
        c = coset_of(i, q + 1, q)
        if i == (q + 1) // 2:
            assert c.members == (i,)
        else:
            assert set(c.members) == {i, q + 1 - i}


def test_midpoint_singleton_odd_q():
    assert coset_of(5, 10, 9).members == (5,)


def test_all_cosets_examples():
    assert [c.members for c in all_cosets(9, 8)] == [
        (0,),
        (1, 8),
        (2, 7),
        (3, 6),
        (4, 5),
    ]
    assert [c.members for c in all_cosets(10, 9)] == [
        (0,),
        (1, 9),
        (2, 8),
        (3, 7),
        (4, 6),
        (5,),
    ]


@pytest.mark.parametrize("n,q", [(3, 2), (5, 4), (9, 8), (10, 9), (15, 2), (26, 25), (21, 4)])
def test_partition(n, q):
    cs = all_cosets(n, q)
    seen = []
    for c in cs:
        assert c.leader == min(c.members)
        for m in c.members:
            assert (m * q) % n in c.members  # closed under multiplication by q
        seen.extend(c.members)
    assert sorted(seen) == list(range(n))
    assert sum(len(c) for c in cs) == n


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_length_q_plus_1_sizes(q):
    # sizes are 1 or 2; singletons are exactly {0} and, for odd q, the midpoint
    singles = []
    for c in all_cosets(q + 1, q):
        assert len(c) in (1, 2)
        if len(c) == 1:
            singles.append(c.leader)
    expected = [0] if q % 2 == 0 else [0, (q + 1) // 2]
    assert singles == expected


def test_gcd_requirement():
    with pytest.raises(ValueError):
        coset_of(1, 9, 3)
    with pytest.raises(ValueError):
        all_cosets(10, 5)
    with pytest.raises(ValueError):
        coset_of(9, 9, 8)
    with pytest.raises(ValueError):
        coset_leaders(10, 5)


def test_coset_leaders_match_brute_force():
    # e is a leader iff no e * m^t mod n is smaller; over the p-cyclotomic
    # cosets mod q + 1 that column search and the quadruple search walk, and
    # a few other moduli, with a multiplier of order 1 among them
    cases = [(q + 1, p) for q, p, _ in prime_powers_upto(256)]
    cases += [(1, 2), (2, 3), (7, 2), (15, 4), (21, 4), (26, 25), (12, 13)]
    for n, m in cases:
        brute = [e for e in range(n) if all(e <= e * pow(m, t, n) % n for t in range(n))]
        leaders = coset_leaders(n, m)
        assert leaders.tolist() == brute, (n, m)
        assert leaders.tolist() == [c.leader for c in all_cosets(n, m)]
        assert not leaders.flags.writeable
        assert coset_leaders(n, m) is leaders
