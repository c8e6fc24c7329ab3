#!/usr/bin/env python3
"""Tour of the field layer: GF(q^2), its unit circle, and the trace map.

Everything downstream builds on one object, the FieldContext.  It fixes a
deterministic irreducible modulus, a generator alpha of GF(q^2)^*, and
beta = alpha^(q-1), whose powers form the group U_{q+1} of (q+1)-th roots of
unity.  Run this file to see the machinery for q = 9.
"""

from bchlab import build_field

ctx = build_field(3, 2)  # p = 3, s = 2: q = 9, ambient field GF(81)

print("q =", ctx.q, " field size =", ctx.q2)
print("modulus coefficients (low degree first):", list(ctx.modulus))
print("alpha =", ctx.alpha, " beta = alpha^(q-1) =", ctx.beta)

# Elements are integers in [0, q^2); the base-p digits are the coordinates in
# the polynomial basis.  Index 0 is zero, index 1 is one.
x = ctx.alpha
coeffs = tuple(x // ctx.p**j % ctx.p for j in range(2 * ctx.s))
print("\nalpha as coefficient vector:", coeffs)
print("alpha * alpha^-1 =", ctx.mul(x, ctx.inv(x)))

# The Frobenius map x -> x^q is an involution; its fixed field is GF(q).
print("\nfrobenius(frobenius(alpha)) == alpha:", ctx.frobenius(ctx.frobenius(x)) == x)
print("subfield GF(q) labels:", list(ctx.sub_sorted))
print("is alpha in GF(q)?", ctx.in_subfield(x))
print("trace(alpha) =", ctx.trace(x), " (lands in GF(q):", ctx.in_subfield(ctx.trace(x)), ")")

# U_{q+1}: the norm-1 elements.  Every u satisfies u^q = u^-1.
circle = ctx.unit_circle()
print("\n|U_{q+1}| =", len(circle))
print("unit circle:", circle)
for u in circle:
    assert ctx.pow(u, ctx.q + 1) == 1
    assert ctx.frobenius(u) == ctx.inv(u)
print("all satisfy u^(q+1) = 1 and u^q = u^(-1)")

# Determinism: a rebuild gives byte-identical tables.
again = build_field(3, 2)
print("\nrebuild is identical:", (again.exp == ctx.exp).all())
