#!/usr/bin/env python3
"""Exact power-ratio expansions of polynomials.

Walks through the basic objects: transforms of polynomials as polynomials
in u = 1/lambda, the ratio L{f^n}/L{f^m} expanded at infinity, its exact
closed form as a rational function of lambda, and the sin test vector.
"""

from fractions import Fraction as F

from laplaceratio import (
    Poly,
    laplace_poly,
    ratio_expansion,
    ratio_rational,
    sin_maclaurin,
    sin_ratio_check,
)
from laplaceratio.transforms import sin_closed_form

print("=== transforms of polynomials ===")
f = Poly([1, 1])  # 1 + x
print(f"f(x) = {f}")
print(f"L{{f}} as a polynomial in u = 1/lambda: {laplace_poly(f).to_string('u')}")
print(f"L{{f^2}}: {laplace_poly(f ** 2).to_string('u')}")

print()
print("=== the power ratio H = L{f^2}/L{f} ===")
H = ratio_expansion(f, 2, 1, 6)
print(f"lead exponent: {H.lead}")
print(f"tail in u:     {H.tail!r}")

rf = ratio_rational(f, 2, 1)
print(f"exact closed form: {rf}")
print(f"closed form re-expanded agrees exactly: {rf.expansion(6) == H}")

print()
print("=== scaling and valuation behavior ===")
c = F(3, 2)
scaled, base = ratio_expansion(c * f, 2, 1, 4).tail, ratio_expansion(f, 2, 1, 4).tail
print(f"H(c*f) = c^(n-m) H(f): {scaled.coeffs == tuple(c * t for t in base.coeffs)}")
g = Poly([0, 0, 2, 1])  # starts at x^2, so the lead moves by k(m-n) = 2(1-2)
print(f"g(x) = {g} has lead {ratio_expansion(g, 2, 1, 4).lead}")

print()
print("=== the entire-function test vector: sin ===")
print(f"sin Maclaurin polynomial to degree 9: {sin_maclaurin(9)}")
cf = sin_closed_form()
print(f"its (2,1) power ratio equals {cf}")
for order in (4, 8, 12):
    print(f"identity verified exactly through order {order - 1}: {sin_ratio_check(order)}")
