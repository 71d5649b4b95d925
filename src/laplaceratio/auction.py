"""Top-two-bids auction pipeline.

Bids are X_i = X* + eps_i with a common part X* and i.i.d. idiosyncratic
parts eps_i with CDF F.  The ratio K of the Laplace transforms of the
highest and second-highest bid does not depend on X* and relates to the
power ratio of F through

    K = H / (N + (N-1) H)      with H = L{F^(N-1)} / L{F^N},

so recovering F from K reduces to recovering F from its power ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfRange, QuadratureFailure
from .identify import IdentifyResult, RatioSpec, identify
from .transforms import RatioExpansion


@dataclass(frozen=True)
class Exponential:
    """Exponential law with rate theta: P(X > x) = exp(-theta x)."""

    theta: float

    def __post_init__(self):
        if not self.theta > 0:
            raise DomainError(f"exponential rate must be positive, got {self.theta}")


@dataclass(frozen=True)
class Lognormal:
    """X = exp(sigma*Z - mu) with Z standard normal (note the minus on mu)."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise DomainError(f"lognormal sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class PointMass:
    """Degenerate law concentrated at v >= 0."""

    v: float

    def __post_init__(self):
        if self.v < 0:
            raise DomainError(f"point mass location must be nonnegative, got {self.v}")


@dataclass(frozen=True)
class Shifted:
    """base + offset."""

    base: "DistSpec"
    offset: float


DistSpec = Exponential | Lognormal | PointMass | Shifted


@dataclass(frozen=True)
class AuctionModel:
    """Common-value law, idiosyncratic law, and the number of bidders."""

    common: DistSpec
    idiosyncratic: DistSpec
    n_bidders: int

    def __post_init__(self):
        if not isinstance(self.n_bidders, int) or self.n_bidders < 2:
            raise DomainError("an auction needs at least 2 bidders")


@dataclass(frozen=True)
class McConfig:
    """Deterministic Monte Carlo configuration.

    Draws come from a counter-based stream partitioned into chunks, so the
    output is fully determined by (samples, seed, chunk) no matter how the
    chunks are scheduled.
    """

    samples: int
    seed: int
    chunk: int = 100_000

    def __post_init__(self):
        if self.samples < 1:
            raise DomainError("samples must be positive")
        if self.chunk < 1:
            raise DomainError("chunk must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must fit in 64 unsigned bits")


def sample_draws(dist: DistSpec, rng: np.random.Generator, size) -> np.ndarray:
    """Draw from a distribution; consumes the generator in a fixed order."""
    if isinstance(dist, Exponential):
        return rng.exponential(scale=1.0 / dist.theta, size=size)
    if isinstance(dist, Lognormal):
        return np.exp(dist.sigma * rng.standard_normal(size) - dist.mu)
    if isinstance(dist, PointMass):
        return np.full(size, dist.v, dtype=float)
    if isinstance(dist, Shifted):
        return sample_draws(dist.base, rng, size) + dist.offset
    raise DomainError(f"unknown distribution {dist!r}")


def cdf_values(dist: DistSpec, x) -> np.ndarray:
    """CDF evaluated elementwise."""
    x = np.asarray(x, dtype=float)
    if isinstance(dist, Exponential):
        return np.where(x >= 0, -np.expm1(-dist.theta * np.maximum(x, 0.0)), 0.0)
    if isinstance(dist, Lognormal):
        from scipy.special import ndtr

        with np.errstate(divide="ignore"):
            return np.where(x > 0, ndtr((np.log(np.maximum(x, 1e-300)) + dist.mu) / dist.sigma), 0.0)
    if isinstance(dist, PointMass):
        return (x >= dist.v).astype(float)
    if isinstance(dist, Shifted):
        return cdf_values(dist.base, x - dist.offset)
    raise DomainError(f"unknown distribution {dist!r}")


def support_lower_bound(dist: DistSpec) -> float:
    if isinstance(dist, (Exponential, Lognormal)):
        return 0.0
    if isinstance(dist, PointMass):
        return dist.v
    if isinstance(dist, Shifted):
        return support_lower_bound(dist.base) + dist.offset
    raise DomainError(f"unknown distribution {dist!r}")


def cdf_jumps(dist: DistSpec) -> list[float]:
    """Discontinuity locations of the CDF, for quadrature subdivision."""
    if isinstance(dist, PointMass):
        return [dist.v]
    if isinstance(dist, Shifted):
        return [p + dist.offset for p in cdf_jumps(dist.base)]
    return []


def order_stat_cdfs(F_val: float, N: int) -> tuple[float, float]:
    """CDF values of the largest and second largest of N i.i.d. draws at a
    point where the single-draw CDF equals F_val: (F^N, N F^(N-1) - (N-1) F^N)."""
    if not 0.0 <= F_val <= 1.0:
        raise DomainError(f"a CDF value must lie in [0, 1], got {F_val}")
    if N < 2:
        raise DomainError("order statistics need N >= 2")
    top = F_val ** N
    second = N * F_val ** (N - 1) - (N - 1) * F_val ** N
    return top, second


def k_from_h(h: float, N: int) -> float:
    """Top-two transform ratio K from the power ratio value h >= 0:
    K = h / (N + (N-1) h), increasing in h with range [0, 1/(N-1))."""
    if h < 0:
        raise DomainError(f"power ratio value must be nonnegative, got {h}")
    if N < 2:
        raise DomainError("need N >= 2")
    return h / (N + (N - 1) * h)


def h_from_k(k: float, N: int) -> float:
    """Inverse of k_from_h: h = N k / (1 - (N-1) k)."""
    if N < 2:
        raise DomainError("need N >= 2")
    if not 0 <= k < 1.0 / (N - 1):
        raise OutOfRange(
            f"K = {k} is outside [0, {1.0 / (N - 1)}): no distribution produces it"
        )
    return N * k / (1.0 - (N - 1) * k)


def k_analytic_exponential(theta: float, lam: float) -> float:
    """Closed form of K when the idiosyncratic law is exponential: by the
    memoryless property the top two bids differ by an independent fresh
    draw, so K equals the draw's transform theta/(theta+lam) for every N."""
    if theta <= 0 or lam <= 0:
        raise DomainError(f"theta and lambda must be positive, got ({theta}, {lam})")
    return theta / (theta + lam)


def _transform_integrals(dist, N, lam, x_cut, epsabs, points):
    from scipy.integrate import quad

    def top_cdf(x):
        return cdf_values(dist, x) ** N

    def second_cdf(x):
        F = cdf_values(dist, x)
        return N * F ** (N - 1) - (N - 1) * F ** N

    results = []
    for cdf_pow in (top_cdf, second_cdf):
        val, err = quad(
            lambda x: lam * math.exp(-lam * x) * cdf_pow(x),
            0.0,
            x_cut,
            epsabs=epsabs,
            epsrel=1e-13,
            limit=400,
            points=points or None,
        )
        results.append((val, err))
    return results


def k_quadrature(model: AuctionModel, lam: float, tol: float = 1e-10) -> float:
    """K evaluated by adaptive quadrature of the order-statistic transforms.

    Both transforms are integrals of lam*exp(-lam*x) against powers of the
    idiosyncratic CDF on [0, x_cut], with x_cut set from the rigorous tail
    bound exp(-lam*x_cut) (the integrands are at most lam*exp(-lam*x)).
    The error budget is propagated through the ratio so the returned value
    is within tol of the exact K; QuadratureFailure means the budget could
    not be met.
    """
    if lam <= 0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    dist = model.idiosyncratic
    N = model.n_bidders
    lo = support_lower_bound(dist)
    if lo < 0:
        raise DomainError("quadrature requires a nonnegative idiosyncratic law")

    # first pass: locate the scale of the denominator
    rough_cut = lo + max(-math.log(tol / 10.0), 5.0) / lam
    pts = [p for p in cdf_jumps(dist) if 0.0 < p < rough_cut]
    (num0, _), (den0, _) = _transform_integrals(dist, N, lam, rough_cut, 1e-12, pts)
    if den0 <= 0.0:
        raise QuadratureFailure("denominator transform evaluated to zero")
    k0 = num0 / den0

    # per-component budget so the ratio error stays below tol
    budget = 0.25 * tol * den0 / (1.0 + k0)
    x_cut = lo + max(-math.log(budget / 2.0), 5.0) / lam
    pts = [p for p in cdf_jumps(dist) if 0.0 < p < x_cut]
    (num, e_num), (den, e_den) = _transform_integrals(dist, N, lam, x_cut, budget / 2.0, pts)
    if den <= 0.0:
        raise QuadratureFailure("denominator transform evaluated to zero")
    k = num / den
    tail = math.exp(-lam * (x_cut - lo))
    err = (e_num + tail + k * (e_den + tail)) / den
    if err > tol:
        raise QuadratureFailure(f"estimated error {err:.3e} exceeds tolerance {tol:.3e}")
    return k


def _chunked(cfg: McConfig):
    """Yield (chunk_index, rows, generator) triples; one independent
    counter-based stream per chunk so scheduling cannot change results."""
    for ci, start in enumerate(range(0, cfg.samples, cfg.chunk)):
        rows = min(cfg.chunk, cfg.samples - start)
        rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(ci))
        yield start, rows, rng


def simulate_bids(model: AuctionModel, cfg: McConfig) -> np.ndarray:
    """Simulate the two highest bids; returns an array of shape (samples, 2)
    with columns (highest, second highest).  Fully determined by cfg."""
    out = np.empty((cfg.samples, 2))
    N = model.n_bidders
    for start, rows, rng in _chunked(cfg):
        common = sample_draws(model.common, rng, rows)
        eps = sample_draws(model.idiosyncratic, rng, (rows, N))
        bids = common[:, None] + eps
        bids.sort(axis=1)
        out[start : start + rows, 0] = bids[:, -1]
        out[start : start + rows, 1] = bids[:, -2]
    return out


def k_monte_carlo(samples: np.ndarray, lam: float) -> tuple[float, float]:
    """Estimate K from a simulated table of (highest, second highest).

    Returns (estimate, stderr) where the standard error comes from the
    delta method for a ratio of two correlated sample means.
    """
    if lam <= 0:
        raise DomainError(f"lambda must be positive, got {lam}")
    table = np.asarray(samples, dtype=float)
    if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] == 0:
        raise DomainError("expected a nonempty (rows, 2) sample table")
    x = np.exp(-lam * table[:, 0])
    y = np.exp(-lam * table[:, 1])
    n = len(x)
    xbar, ybar = x.mean(), y.mean()
    ratio = xbar / ybar
    if n == 1:
        return float(ratio), 0.0
    var_x = x.var(ddof=1)
    var_y = y.var(ddof=1)
    cov_xy = float(np.cov(x, y, ddof=1)[0, 1])
    var_ratio = (var_x - 2.0 * ratio * cov_xy + ratio ** 2 * var_y) / (n * ybar ** 2)
    return float(ratio), float(math.sqrt(max(var_ratio, 0.0)))


def memoryless_check(theta: float, N: int, cfg: McConfig, control: bool = False) -> float:
    """Two-sample Kolmogorov-Smirnov statistic between the largest of N
    exponential draws and (second largest + an independent fresh draw).

    The two distributions coincide exactly for exponential laws, so the
    statistic stays at noise level.  With control=True the fresh draw is
    omitted; the distributions then differ and the statistic is large.
    """
    if theta <= 0:
        raise DomainError(f"theta must be positive, got {theta}")
    if N < 2:
        raise DomainError("need N >= 2")
    scale = 1.0 / theta
    top = np.empty(cfg.samples)
    second_side = np.empty(cfg.samples)
    for start, rows, rng in _chunked(cfg):
        draws_a = rng.exponential(scale, (rows, N))
        top[start : start + rows] = draws_a.max(axis=1)
        draws_b = rng.exponential(scale, (rows, N))
        draws_b.sort(axis=1)
        second = draws_b[:, -2]
        if not control:
            second = second + rng.exponential(scale, rows)
        second_side[start : start + rows] = second
    return ks_statistic(top, second_side)


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup|F_a - F_b|.

    The ECDF gap is taken in integer counts, |c_a n_b - c_b n_a|, over every
    sample point, and divided once, so the result is correctly rounded.
    """
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    ca = np.searchsorted(a, both, side="right")
    cb = np.searchsorted(b, both, side="right")
    return float(np.abs(ca * len(b) - cb * len(a)).max() / (len(a) * len(b)))


def auction_identify(H: RatioExpansion, N: int, target_degree: int) -> IdentifyResult:
    """Recover the Taylor germ of the idiosyncratic CDF from an expansion
    of its power ratio with exponents (N-1, N).

    The exponent difference is -1, which is odd, so a CDF (nonnegative by
    nature) is recovered without sign ambiguity.
    """
    if N < 2:
        raise DomainError("the second-highest bid needs at least 2 bidders")
    result = identify(H, RatioSpec(N - 1, N), target_degree)
    assert not result.ambiguous_sign
    return result
