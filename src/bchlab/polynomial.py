"""Dense univariate polynomial arithmetic over the tower GF(q) inside GF(q^2).

Two layers live here:

* Plain helpers (`is_irreducible`, module-private `_p*` functions) work on
  coefficient lists of ints modulo a prime ``p``.  They have no field-context
  dependency and are used to pick the modulus when a field is built.

* :class:`Poly` wraps a coefficient tuple of field-element indices together
  with a :class:`~bchlab.field.FieldContext` and a subfield tag (``"q"`` or
  ``"q2"``).  Coefficients are stored lowest degree first with no trailing
  zeros; the zero polynomial has an empty tuple.  Operators +, -, *, divmod,
  //, % are overloaded; `gcd`/`lcm` return monic results.

Minimal polynomials over GF(q) of elements of GF(q^2) have degree 1 or 2, so
`minimal_polynomial` writes them in closed form from the trace and the norm,
with scalar exp/log lookups and the digit-wise addition of the context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import cosets

# ---------------------------------------------------------------------------
# Prime-field helpers: coefficient lists of ints mod p, lowest degree first.
# ---------------------------------------------------------------------------


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    # f monic
    r = list(a)
    df = len(f) - 1
    while len(r) - 1 >= df and r:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - df
            for i in range(df + 1):
                r[shift + i] = (r[shift + i] - lead * f[i]) % p
        r.pop()
    return _ptrim(r)


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(a, _monic_p(b, p), p)
        b = _ptrim(b)
    return _monic_p(a, p)


def _monic_p(a: Sequence[int], p: int) -> list[int]:
    a = _ptrim(list(a))
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], p - 2, p)
    return [(c * inv) % p for c in a]


def _pfrobenius_mod(a: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    """a^p mod f, with f monic: over GF(p), (sum a_j x^j)^p = sum a_j x^(jp)."""
    if not a:
        return []
    spread = [0] * ((len(a) - 1) * p + 1)
    spread[::p] = a
    return _pmod(spread, f, p)


def is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Ben-Or irreducibility test for a monic polynomial over GF(p).

    ``coeffs`` is lowest degree first; the polynomial must be monic of
    degree n >= 1.  f is irreducible exactly when gcd(f, x^(p^i) - x) = 1
    for every i <= n/2: a reducible f has a monic irreducible factor of some
    degree d <= n/2, which divides x^(p^d) - x, while an irreducible f of
    degree n shares no factor with x^(p^i) - x for i < n, whose irreducible
    factors all have degrees dividing i.  Each power x^(p^i) mod f is the
    previous one raised to the p-th power, which over GF(p) only spreads its
    coefficients to the degrees jp before the reduction mod f.  A candidate
    with a factor of small degree is rejected after few steps.
    """
    f = [c % p for c in coeffs]
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        raise ValueError("monic polynomial of degree >= 1 required")
    power = [0, 1]  # x^(p^i) mod f, from i = 0
    for _ in range(n // 2):
        power = _pfrobenius_mod(power, f, p)
        diff = power + [0] * (2 - len(power))
        diff[1] = (diff[1] - 1) % p
        if len(_pgcd(f, _ptrim(diff), p)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Polynomials over the embedded GF(q) / full GF(q^2)
# ---------------------------------------------------------------------------

TAG_Q = "q"
TAG_Q2 = "q2"


@dataclass(frozen=True)
class Poly:
    """Polynomial with coefficients given as field-element indices.

    ``tag`` declares where the coefficients must live: ``"q"`` for the
    embedded subfield, ``"q2"`` for the full field.  Mixing tags in
    arithmetic raises ValueError.
    """

    ctx: object
    tag: str
    coeffs: tuple[int, ...]

    @staticmethod
    def make(ctx, tag: str, coeffs: Iterable[int]) -> "Poly":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        if tag not in (TAG_Q, TAG_Q2):
            raise ValueError(f"unknown field tag {tag!r}")
        if tag == TAG_Q:
            for c in cs:
                if not ctx.in_subfield(c):
                    raise ValueError(
                        f"coefficient {c} lies outside the embedded GF({ctx.q})"
                    )
        return Poly(ctx, tag, tuple(cs))

    @staticmethod
    def zero(ctx, tag: str) -> "Poly":
        return Poly(ctx, tag, ())

    @staticmethod
    def one(ctx, tag: str) -> "Poly":
        return Poly(ctx, tag, (1,))

    @staticmethod
    def x_pow_minus_one(ctx, tag: str, n: int) -> "Poly":
        """x^n - 1."""
        cs = [ctx.neg(1)] + [0] * (n - 1) + [1]
        return Poly.make(ctx, tag, cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check(self, other: "Poly") -> None:
        if self.ctx is not other.ctx:
            raise ValueError("polynomials from different field contexts")
        if self.tag != other.tag:
            raise ValueError(f"field tag mismatch: {self.tag} vs {other.tag}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = ctx.add(out[i], c)
        return Poly.make(ctx, self.tag, out)

    def __neg__(self) -> "Poly":
        ctx = self.ctx
        return Poly(ctx, self.tag, tuple(ctx.neg(c) for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(ctx, self.tag)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = ctx.add(out[i + j], ctx.mul(ai, bj))
        return Poly.make(ctx, self.tag, out)

    def scale(self, c: int) -> "Poly":
        ctx = self.ctx
        return Poly.make(ctx, self.tag, [ctx.mul(c, x) for x in self.coeffs])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        ctx = self.ctx
        inv_lead = ctx.inv(other.leading)
        rem = list(self.coeffs)
        db = other.degree
        if self.degree < db:
            return Poly.zero(ctx, self.tag), self
        quot = [0] * (self.degree - db + 1)
        for i in range(len(quot) - 1, -1, -1):
            c = ctx.mul(rem[i + db], inv_lead)
            quot[i] = c
            if c:
                for j, bj in enumerate(other.coeffs):
                    if bj:
                        rem[i + j] = ctx.sub(rem[i + j], ctx.mul(c, bj))
        return Poly.make(ctx, self.tag, quot), Poly.make(ctx, self.tag, rem[:db])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero() or self.leading == 1:
            return self
        return self.scale(self.ctx.inv(self.leading))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append("x" if c == 1 else f"{c}*x")
            else:
                parts.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return " + ".join(reversed(parts))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    a._check(b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    """Monic least common multiple; lcm(0, f) = 0."""
    a._check(b)
    if a.is_zero() or b.is_zero():
        return Poly.zero(a.ctx, a.tag)
    g = poly_gcd(a, b)
    return ((a * b) // g).monic()


def minimal_polynomial(ctx, e: int, n: int) -> Poly:
    """Minimal polynomial over GF(q) of gamma = omega^e, omega a primitive n-th root.

    GF(q^2) has degree 2 over GF(q), so gamma has at most one conjugate,
    gamma^q: the result is x - gamma when gamma^q = gamma, else
    x^2 - Tr(gamma)*x + N(gamma) with Tr(gamma) = gamma + gamma^q and
    N(gamma) = gamma^(q+1), formed by scalar table lookups.  Poly.make checks
    that every coefficient lies in the subfield.  ``n`` must divide q^2 - 1
    (for the code family at hand, n = q + 1 and omega is beta).
    """
    if n <= 0 or (ctx.q2 - 1) % n != 0:
        raise ValueError(f"n={n} must divide q^2-1={ctx.q2 - 1}")
    le = e % n * ((ctx.q2 - 1) // n)  # log of gamma
    gamma, conj = ctx.exp_at(le), ctx.exp_at(le * ctx.q)
    if conj == gamma:
        return Poly.make(ctx, TAG_Q, [ctx.neg(gamma), 1])
    norm = ctx.exp_at(le * (ctx.q + 1))
    return Poly.make(ctx, TAG_Q, [norm, ctx.neg(ctx.add(gamma, conj)), 1])


def all_minimal_polynomials(ctx, n: int) -> list[Poly]:
    """One minimal polynomial per coset leader, ascending by leader."""
    return [minimal_polynomial(ctx, c.leader, n) for c in cosets.all_cosets(n, ctx.q)]


__all__ = [
    "Poly",
    "TAG_Q",
    "TAG_Q2",
    "is_irreducible",
    "poly_gcd",
    "poly_lcm",
    "minimal_polynomial",
    "all_minimal_polynomials",
]
