#!/usr/bin/env python3
"""Recovering a polynomial from its power ratio.

The expansion of L{f^n}/L{f^m} at infinity pins down every Taylor
coefficient of f: the leading exponent reveals the valuation, the tail's
constant term gives the leading derivative up to an (n-m)-th root, and
each later coefficient is the unique solution of a linear equation whose
pivot never vanishes.
"""

from fractions import Fraction as F
from math import factorial

from laplaceratio import Poly, RatioSpec, identify, pivot_value, ratio_expansion

spec = RatioSpec(2, 1)
f = Poly([2, -1, 0, F(1, 3)])
print(f"source polynomial: f(x) = {f}")

H = ratio_expansion(f, spec.n, spec.m, 10)
print(f"observed expansion: lead {H.lead}, tail {[str(c) for c in H.tail.coeffs]}")

print()
print("=== one identify call, step by step ===")
result = identify(H, spec, f.degree)
k = result.k
print(f"valuation from the lead exponent: k = {k}")
a = factorial(k) * result.poly.coefficient(k)
print(f"leading derivative f^({k})(0) = {a}, sign ambiguous: {result.ambiguous_sign}")
for l in range(k + 1, f.degree + 1):
    c = result.poly.coefficient(l)
    print(f"recovered coefficient of x^{l}: {c}   (pivot {pivot_value(k, l, spec)})")
print(f"identify returns: {result.poly}")
print(f"exact match: {result.poly == f}")

print()
print("=== even exponent difference: sign is invisible ===")
even = RatioSpec(3, 1)
H_pos = ratio_expansion(f, even.n, even.m, 16)
H_neg = ratio_expansion(-f, even.n, even.m, 16)
print(f"H(f) == H(-f): {H_pos == H_neg}")
result = identify(H_neg, even, f.degree)
print(f"canonical representative: {result.poly}")
print(f"ambiguous_sign flag: {result.ambiguous_sign}")
print(f"equals +/- source: {result.poly in (f, -f)}")
