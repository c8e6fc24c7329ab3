"""q-cyclotomic cosets modulo n: orbits of Z_n under multiplication by q."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd

import numpy as np


@dataclass(frozen=True)
class CyclotomicCoset:
    """Orbit of an integer mod n under e -> e*q, with its smallest member."""

    leader: int
    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)


def coset_of(e: int, n: int, q: int) -> CyclotomicCoset:
    """The q-cyclotomic coset of e modulo n.

    Requires gcd(n, q) = 1 so that multiplication by q permutes Z_n.
    """
    if gcd(n, q) != 1:
        raise ValueError(f"gcd(n={n}, q={q}) must be 1")
    if not 0 <= e < n:
        raise ValueError(f"e={e} out of range [0, {n})")
    members = [e]
    cur = (e * q) % n
    while cur != e:
        members.append(cur)
        cur = (cur * q) % n
    members.sort()
    return CyclotomicCoset(leader=members[0], members=tuple(members))


def all_cosets(n: int, q: int) -> list[CyclotomicCoset]:
    """All distinct q-cyclotomic cosets mod n, sorted by leader.

    The cosets partition Z_n.
    """
    if gcd(n, q) != 1:
        raise ValueError(f"gcd(n={n}, q={q}) must be 1")
    seen = [False] * n
    out = []
    for e in range(n):
        if seen[e]:
            continue
        c = coset_of(e, n, q)
        for m in c.members:
            seen[m] = True
        out.append(c)
    return out


@functools.lru_cache(maxsize=None)
def coset_leaders(n: int, q: int) -> np.ndarray:
    """The leaders (smallest members) of all q-cyclotomic cosets mod n, in
    ascending order, as a read-only int64 array.

    e is a leader iff e <= e * q^t mod n for every t, so one multiplication
    of Z_n by q per t up to the order of q mod n marks them all.
    """
    if gcd(n, q) != 1:
        raise ValueError(f"gcd(n={n}, q={q}) must be 1")
    xs = np.arange(n, dtype=np.int64)
    image, leader = xs * q % n, np.ones(n, dtype=bool)
    while n > 1 and image[1] != 1:  # image = xs * q^t, until q^t = 1 mod n
        leader &= image >= xs
        image = image * q % n
    leaders = xs[leader]
    leaders.flags.writeable = False
    return leaders


__all__ = ["CyclotomicCoset", "coset_of", "all_cosets", "coset_leaders"]
