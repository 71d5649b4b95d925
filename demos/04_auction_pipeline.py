#!/usr/bin/env python3
"""The top-two-bids auction pipeline.

Bids are X_i = X* + eps_i.  The ratio K of Laplace transforms of the two
highest bids ignores the common part X* entirely and determines the law
of eps.  For exponential eps there is a closed form; in general K comes
from quadrature or simulation, and the germ of the CDF comes back through
the identification machinery.
"""

from laplaceratio import (
    AuctionModel,
    Exponential,
    Lognormal,
    McConfig,
    PointMass,
    Poly,
    auction_identify,
    h_from_k,
    k_analytic_exponential,
    k_from_h,
    k_monte_carlo,
    k_quadrature,
    memoryless_check,
    ratio_expansion,
    simulate_bids,
)

print("=== exponential bids: closed form vs quadrature vs Monte Carlo ===")
model = AuctionModel(common=Exponential(1.0), idiosyncratic=Exponential(1.0), n_bidders=5)
table = simulate_bids(model, McConfig(samples=400_000, seed=1))
for lam in (0.5, 1.0, 2.0):
    closed = k_analytic_exponential(1.0, lam)
    quad_val = k_quadrature(model, lam)
    mc, se = k_monte_carlo(table, lam)
    print(
        f"  lambda={lam}: closed {closed:.10f}  quadrature {quad_val:.10f}"
        f"  MC {mc:.6f} +/- {se:.6f}"
    )

print()
print("=== K ignores the common value ===")
for common in (PointMass(0.0), Exponential(0.3), Lognormal(0.0, 0.5)):
    m = AuctionModel(common, Lognormal(0.0, 1.0), 3)
    est, se = k_monte_carlo(simulate_bids(m, McConfig(400_000, seed=2)), 1.0)
    print(f"  common={common}: K ~ {est:.5f} +/- {se:.5f}")

print()
print("=== the memoryless fingerprint of the exponential ===")
cfg = McConfig(50_000, seed=3)
print(f"  top vs (second + fresh draw) KS statistic: {memoryless_check(1.0, 4, cfg):.4f}")
print(f"  without the fresh draw (control):          {memoryless_check(1.0, 4, cfg, control=True):.4f}")

print()
print("=== K and the power ratio convert back and forth ===")
# K = 1 / (N h - (N-1)); h = 1 for a degenerate law, and h = 1.5 for the
# exponential law at lambda = 2 theta, whose K is 1/3
for h in (1.0, 1.5, 3.0):
    k = k_from_h(h, 4)
    print(f"  h={h} -> K={k:.6f} -> h={h_from_k(k, 4):.6f}")

print()
print("=== recovering a CDF germ from its power ratio ===")
# uniform-on-[0,1] bids: F(x) = x near 0, two bidders
H = ratio_expansion(Poly([0, 1]), 1, 2, 8)
result = auction_identify(H, 2, target_degree=3)
print(f"  recovered germ coefficients: {[str(c) for c in result.poly.coeffs]}")
# a curved CDF germ with three bidders
germ = Poly(["0", "1", "1/2", "-1/6"])
H = ratio_expansion(germ, 2, 3, 14)
print(f"  source {germ} -> recovered {auction_identify(H, 3, 3).poly}")
