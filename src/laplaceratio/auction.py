"""Top-two-bids auction pipeline.

Bids are X_i = X* + eps_i with a common part X* and i.i.d. idiosyncratic
parts eps_i with CDF F.  The ratio K of the Laplace transforms of the
highest and second-highest bid does not depend on X* and relates to the
power ratio of F through

    K = H / (N + (N-1) H)      with H = L{F^(N-1)} / L{F^N},

so recovering F from K reduces to recovering F from its power ratio.

Only the Monte Carlo functions, which draw or hold sample arrays, import
numpy, and they do so on first call; the laws, the quadrature and the
conversions run on the standard library.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .algebra import _int_text
from .errors import DomainError, OutOfRange, QuadratureFailure
from .identify import IdentifyResult, RatioSpec, identify
from .transforms import RatioExpansion

if TYPE_CHECKING:
    import numpy as np


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
    import numpy as np

    if isinstance(dist, Exponential):
        return rng.exponential(scale=1.0 / dist.theta, size=size)
    if isinstance(dist, Lognormal):
        # exp(sigma*z - mu) in place: the same roundings, no temporaries
        z = rng.standard_normal(size)
        z *= dist.sigma
        z -= dist.mu
        return np.exp(z, out=z)
    if isinstance(dist, PointMass):
        return np.full(size, dist.v, dtype=float)
    if isinstance(dist, Shifted):
        return sample_draws(dist.base, rng, size) + dist.offset
    raise DomainError(f"unknown distribution {dist!r}")


def _log_ndtr(z: float) -> float:
    """log Phi(z), the standard normal log-CDF, also where Phi underflows."""
    if z > 0:
        return math.log1p(-0.5 * math.erfc(z / math.sqrt(2.0)))
    if z > -30:
        return math.log(0.5 * math.erfc(-z / math.sqrt(2.0)))
    # erfc nears underflow: Phi(z) = phi(z)/|z| (1 - u + 3u^2 - ...) with
    # u = 1/z^2 (DLMF 7.12.1); the first omitted term is below 3e-16
    u = 1.0 / (z * z)
    series = 1 - u * (1 - 3 * u * (1 - 5 * u * (1 - 7 * u * (1 - 9 * u * (1 - 11 * u)))))
    return -0.5 * z * z - math.log(-z) - 0.5 * math.log(2.0 * math.pi) + math.log(series)


def _bid_at_score(dist: DistSpec, z: float) -> tuple[float, float]:
    """(lower bound, bid minus lower bound) at normal score z: Phi(z) = F(bid)."""
    if isinstance(dist, Lognormal):
        s = dist.sigma * z - dist.mu
        return 0.0, math.exp(s) if s < 709.0 else math.inf
    if isinstance(dist, Exponential):
        return 0.0, -_log_ndtr(-z) / dist.theta
    if isinstance(dist, PointMass):
        return dist.v, 0.0
    if isinstance(dist, Shifted):
        lower, excess = _bid_at_score(dist.base, z)
        return lower + dist.offset, excess
    raise DomainError(f"unknown distribution {dist!r}")


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
    if not (math.isfinite(theta) and theta > 0 and math.isfinite(lam) and lam > 0):
        raise DomainError(f"theta and lambda must be finite and positive, got ({theta}, {lam})")
    return theta / (theta + lam)


def _boundary(inside, z: float, step: float) -> float:
    """Where inside, true at z, turns false beyond z in step's direction."""
    while inside(z + step):
        z, step = z + step, 2 * step
        if math.isinf(z):
            raise QuadratureFailure("a log-integrand does not turn within the double range")
    out = z + step
    for _ in range(32):
        mid = 0.5 * (z + out)
        z, out = (mid, out) if inside(mid) else (z, mid)
    return out


def k_quadrature(model: AuctionModel, lam: float, tol: float = 1e-10) -> float:
    """K by the trapezoid rule in normal scores z, where Phi(z) = F(bid).

    With x(z) the bid less the law's lower bound (whose factor cancels),
    the order-statistic densities in z (David & Nagaraja 2.1) give
    K = A / ((N-1) B), A = int exp(-lam x) Phi^(N-1) phi dz and
    B = int exp(-lam x) Phi^(N-2) Phi(-z) phi dz.  Both integrands are
    positive and log-concave, so the trapezoid rule converges geometrically
    (Trefethen & Weideman 2014) on the bracket where either log-integrand
    is within 45 of its peak.  The step is halved until two levels agree
    to tol relative to K; their difference is the error estimate, and
    QuadratureFailure means it exceeds tol.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise DomainError(f"lambda must be finite and positive, got {lam}")
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    dist, N = model.idiosyncratic, model.n_bidders
    if _bid_at_score(dist, 0.0)[0] < 0:
        raise DomainError("quadrature requires a nonnegative idiosyncratic law")
    try:
        float(N)
    except OverflowError:
        raise DomainError(f"quadrature needs N within the double range, got {_int_text(N)}") from None

    def logs(z):
        # log-integrands of A and B, less the constant log sqrt(2 pi)
        common = -lam * _bid_at_score(dist, z)[1] + (N - 2) * _log_ndtr(z) - 0.5 * z * z
        return common + _log_ndtr(z), common + _log_ndtr(-z)

    def argmax(i):
        # log-integrand i is strictly concave: walk from 0 while its slope keeps its sign
        up = logs(1e-7)[i] > logs(0.0)[i]
        step = 1.0 if up else -1.0
        return _boundary(lambda z: (logs(z + 1e-7)[i] > logs(z)[i]) == up, 0.0, step)

    za, zb = argmax(0), argmax(1)
    peak_a, peak_b = logs(za)[0], logs(zb)[1]

    def sums(zs):
        # each integrand relative to its peak, so nothing underflows; one
        # that overflows there means the peak search stopped short
        pairs = [logs(z) for z in zs]
        try:
            return (math.fsum(math.exp(a - peak_a) for a, _ in pairs),
                    math.fsum(math.exp(b - peak_b) for _, b in pairs))
        except OverflowError:
            raise QuadratureFailure("the peak search stopped short of a log-integrand's peak") from None

    def near_peaks(z):
        a, b = logs(z)
        return max(a - peak_a, b - peak_b) > -45.0

    lo = _boundary(near_peaks, min(za, zb), -1.0)
    hi = _boundary(near_peaks, max(za, zb), 1.0)
    # both integrands are negligible at lo and hi, so the trapezoid rule is
    # the plain sum over the grid, and the step cancels in the ratio
    n, h = 16, (hi - lo) / 16
    sa, sb = sums(lo + i * h for i in range(n + 1))
    for _ in range(9):
        ma, mb = sums(lo + (i + 0.5) * h for i in range(n))
        rel_err = abs(ma - sa) / (sa + ma) + abs(mb - sb) / (sb + mb)
        sa, sb, n, h = sa + ma, sb + mb, 2 * n, 0.5 * h
        if rel_err <= tol:
            break
    # the top bid is never below the second, so K <= 1 holds exactly
    k = min(1.0, math.exp(peak_a - peak_b) * sa / ((N - 1) * sb))
    if k * rel_err > tol:
        raise QuadratureFailure(f"estimated error {k * rel_err:.3e} exceeds tolerance {tol:.3e}")
    return k


def _chunked(cfg: McConfig):
    """Yield (chunk_index, rows, generator) triples; one independent
    counter-based stream per chunk so scheduling cannot change results."""
    import numpy as np

    for ci, start in enumerate(range(0, cfg.samples, cfg.chunk)):
        rows = min(cfg.chunk, cfg.samples - start)
        rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(ci))
        yield start, rows, rng


def _check_arrays(cfg: McConfig, N: int) -> None:
    """Raise DomainError unless the (samples, 2) table and the (chunk rows,
    N) draws each fit one array of doubles, whose byte count numpy keeps
    within sys.maxsize."""
    rows = min(cfg.chunk, cfg.samples)
    if 8 * max(2 * cfg.samples, rows * N) > sys.maxsize:
        raise DomainError(
            f"{cfg.samples} samples in chunks of {rows} rows of {_int_text(N)} bids do not fit one array"
        )


def simulate_bids(model: AuctionModel, cfg: McConfig) -> np.ndarray:
    """Simulate the two highest bids; returns an array of shape (samples, 2)
    with columns (highest, second highest).  Fully determined by cfg.

    The common part is added after the sort, to the top two columns only:
    fl(c + x) is monotone in x, so this commutes with the sort bit for bit.
    Raises OutOfRange if a bid overflows the double range.
    """
    N = model.n_bidders
    _check_arrays(cfg, N)
    import numpy as np

    out = np.empty((cfg.samples, 2))
    with np.errstate(over="ignore"):
        for start, rows, rng in _chunked(cfg):
            common = sample_draws(model.common, rng, rows)
            eps = sample_draws(model.idiosyncratic, rng, (rows, N))
            eps.sort(axis=1)
            out[start : start + rows] = common[:, None] + eps[:, :-3:-1]
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        row = int(bad.argmax())
        top, second = out[row].tolist()
        raise OutOfRange(
            f"simulated bids ({top!r}, {second!r}) in row {row} are not finite doubles"
        )
    return out


def k_monte_carlo(samples: np.ndarray, lam: float) -> tuple[float, float]:
    """Estimate K from a simulated table of (highest, second highest).

    Returns (estimate, stderr) where the standard error comes from the
    delta method for a ratio of two correlated sample means.  Weights are
    taken relative to the smallest second bid, so they cannot all underflow.
    """
    import numpy as np

    if not (math.isfinite(lam) and lam > 0):
        raise DomainError(f"lambda must be finite and positive, got {lam}")
    table = np.asarray(samples, dtype=float)
    if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] == 0:
        raise DomainError("expected a nonempty (rows, 2) sample table")
    if not np.isfinite(table).all():
        raise DomainError("sample table holds a non-finite bid")
    x, y = np.exp(-lam * (table - table[:, 1].min())).T
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
    import numpy as np

    if theta <= 0:
        raise DomainError(f"theta must be positive, got {theta}")
    if N < 2:
        raise DomainError("need N >= 2")
    _check_arrays(cfg, N)
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
    import numpy as np

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
    return identify(H, RatioSpec(N - 1, N), target_degree)
