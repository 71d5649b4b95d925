"""Top-two-bids auction pipeline.

Bids are X_i = X* + eps_i with a common part X* and i.i.d. idiosyncratic
parts eps_i with CDF F.  The ratio K of the Laplace transforms of the
highest and second-highest bid does not depend on X* and relates to the
power ratio of F through the order-statistic identity

    K = 1 / (N H - (N-1))      with H = L{F^(N-1)} / L{F^N},

so recovering F from K reduces to recovering F from its power ratio.  The
top two bids have CDFs F^N and N F^(N-1) - (N-1) F^N (David & Nagaraja
2.1), and a variable Y >= 0 with CDF G has E exp(-lam Y) = lam L{G}(lam).
As F^(N-1) >= F^N, H >= 1 and K lies in (0, 1], with H = K = 1 exactly
for a degenerate law.

Only the Monte Carlo functions, which draw or hold sample arrays, import
numpy, and they do so on first call; the laws, the quadrature and the
conversions run on the standard library.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from .algebra import Frozen, Rational, _int_text, _rational_text, _shown
from .errors import DomainError, InsufficientSamples, OutOfRange, QuadratureFailure
from .identify import IdentifyResult, RatioSpec, identify
from .transforms import RatioExpansion

if TYPE_CHECKING:
    import numpy as np


def _finite(x) -> bool:
    """Whether float() holds x: False for a NaN or an infinity, and for an
    int or ratio beyond the double range, where float() overflows but a
    comparison with math.inf passes."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


class Exponential(Frozen):
    """Exponential law with rate theta: P(X > x) = exp(-theta x)."""

    __slots__ = ("theta",)

    def __init__(self, theta: float):
        if not theta > 0:
            raise DomainError(f"exponential rate must be positive, got {_shown(theta)}")
        if not _finite(theta):
            raise DomainError(f"exponential rate must be finite, got {_shown(theta)}")
        if not float(theta):
            raise DomainError(f"exponential rate {_shown(theta)} is below the least subnormal double")
        self._set_fields(theta)


class Lognormal(Frozen):
    """X = exp(sigma*Z - mu) with Z standard normal (note the minus on mu)."""

    __slots__ = ("mu", "sigma")

    def __init__(self, mu: float, sigma: float):
        if not sigma > 0:
            raise DomainError(f"lognormal sigma must be positive, got {_shown(sigma)}")
        if not (_finite(mu) and _finite(sigma)):
            raise DomainError(
                f"lognormal mu and sigma must be finite, got ({_shown(mu)}, {_shown(sigma)})"
            )
        self._set_fields(mu, sigma)


class PointMass(Frozen):
    """Degenerate law concentrated at v >= 0."""

    __slots__ = ("v",)

    def __init__(self, v: float):
        if v < 0:
            raise DomainError(f"point mass location must be nonnegative, got {_shown(v)}")
        if not _finite(v):
            raise DomainError(f"point mass location must be finite, got {_shown(v)}")
        self._set_fields(v)


class Shifted(Frozen):
    """base + offset."""

    __slots__ = ("base", "offset")

    def __init__(self, base: DistSpec, offset: float):
        if not _finite(offset):
            raise DomainError(f"shift offset must be finite, got {_shown(offset)}")
        self._set_fields(base, offset)


DistSpec = Exponential | Lognormal | PointMass | Shifted


class AuctionModel(Frozen):
    """Common-value law, idiosyncratic law, and the number of bidders."""

    __slots__ = ("common", "idiosyncratic", "n_bidders")

    def __init__(self, common: DistSpec, idiosyncratic: DistSpec, n_bidders: int):
        if not isinstance(n_bidders, int) or n_bidders < 2:
            raise DomainError("an auction needs at least 2 bidders")
        self._set_fields(common, idiosyncratic, n_bidders)


class McConfig(Frozen):
    """Deterministic Monte Carlo configuration: (samples, seed) fully
    determine the draws, which come in chunks of _CHUNK rows, one
    counter-based stream per chunk, however the chunks are scheduled."""

    __slots__ = ("samples", "seed")

    def __init__(self, samples: int, seed: int):
        for name, value in (("samples", samples), ("seed", seed)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if samples < 1:
            raise DomainError("samples must be positive")
        if not 0 <= seed < 2 ** 64:
            raise DomainError("seed must fit in 64 unsigned bits")
        self._set_fields(samples, seed)


def sample_draws(dist: DistSpec, rng: np.random.Generator, size) -> np.ndarray:
    """Draw from a distribution; consumes the generator in a fixed order,
    so consecutive calls give the draws of one call of their total size.
    Draws numpy cannot allocate raise OutOfRange naming their shape."""
    import numpy as np

    try:
        if isinstance(dist, Exponential):
            return rng.exponential(scale=1.0 / dist.theta, size=size)
        if isinstance(dist, Lognormal):
            # exp(sigma*z - mu) in place: the same roundings, no temporaries
            z = rng.standard_normal(size)
            z *= float(dist.sigma)
            z -= float(dist.mu)
            return np.exp(z, out=z)
        if isinstance(dist, PointMass):
            return np.full(size, dist.v, dtype=float)
        if isinstance(dist, Shifted):
            return sample_draws(dist.base, rng, size) + float(dist.offset)
    except MemoryError:
        shape = size if isinstance(size, tuple) else (size,)
        raise OutOfRange(f"draws of shape {shape} do not fit in memory") from None
    raise DomainError(f"unknown distribution {dist!r}")


def _log_ndtr_series(z: float) -> float:
    """log Phi(z) for z <= -30, where erfc nears underflow: Phi(z) =
    phi(z)/|z| (1 - u + 3u^2 - ...) with u = 1/z^2 (DLMF 7.12.1); the first
    omitted term is below 3e-16."""
    u = 1.0 / (z * z)
    series = 1 - u * (1 - 3 * u * (1 - 5 * u * (1 - 7 * u * (1 - 9 * u * (1 - 11 * u)))))
    return -0.5 * z * z - math.log(-z) - 0.5 * math.log(2.0 * math.pi) + math.log(series)


def _check_bidders(N: int) -> None:
    """Raise DomainError unless 2 <= N and float() holds N."""
    if N < 2:
        raise DomainError("need N >= 2")
    if not _finite(N):
        raise DomainError(f"need N within the double range, got {_shown(N)}")


def _nonzero_k(k: float, where: str) -> float:
    """k, or OutOfRange where a K, which is positive, rounded to 0.0: below
    the least subnormal double, no double in K's range (0, 1] holds it."""
    if k == 0:
        raise OutOfRange(f"K {where} is below the least subnormal double")
    return k


def k_from_h(h: float, N: int) -> float:
    """Top-two transform ratio K from the power ratio value h >= 1:
    K = 1 / (N h - (N-1)), decreasing in h with range (0, 1].  A K below
    the least subnormal double raises OutOfRange."""
    if h < 1:
        raise DomainError(f"power ratio value must be at least 1, got {_shown(h)}")
    if not _finite(h):
        raise DomainError(f"power ratio value must be finite, got {_shown(h)}")
    _check_bidders(N)
    try:
        k = 1.0 / (N * (h - 1) + 1)
    except OverflowError:  # an exact N (h - 1) + 1 past the double range
        k = 0.0
    # past where N (h - 1) overflows a double, K may still be a subnormal
    return _nonzero_k(k or (1 / N) / ((float(h) - 1) + 1 / N),
                      f"at power ratio value {_shown(h)} with N = {_shown(N)}")


def h_from_k(k: float, N: int) -> float:
    """Inverse of k_from_h: h = (1 + (N-1) k) / (N k), for 0 < k <= 1."""
    _check_bidders(N)
    if not 0 < k <= 1:
        raise OutOfRange(f"K = {_shown(k)} is outside (0, 1]: no distribution produces it")
    h = (1 - k) / (N * k) if N * k else math.inf  # N k underflows where h overflows
    if not _finite(h):
        raise OutOfRange(f"K = {_shown(k)} gives a power ratio beyond the double range")
    return 1.0 + h


def k_analytic_exponential(theta: float, lam: float) -> float:
    """Closed form of K when the idiosyncratic law is exponential: by the
    memoryless property the top two bids differ by an independent fresh
    draw, so K equals the draw's transform theta/(theta+lam) for every N.
    A K below the least subnormal double raises OutOfRange."""
    if not (_finite(theta) and theta > 0 and _finite(lam) and lam > 0):
        raise DomainError(
            f"theta and lambda must be finite and positive, got ({_shown(theta)}, {_shown(lam)})"
        )
    return _nonzero_k(theta / (theta + lam), f"at theta = {_shown(theta)}, lambda = {_shown(lam)}")


def _log_integrands(dist: DistSpec, N: int, lam: float):
    """The scalar kernel z -> (a, b): the log-integrands of k_quadrature's
    A and B at the normal score z, less the constant log sqrt(2 pi); each z
    takes one erfc.

    dist is an exponential or lognormal law: k_quadrature passes the
    innermost law of a Shifted chain, whose offsets only move the lower
    bound, which cancels.  One definition serves both laws, with the law's
    excess over that bound inlined.  log Phi(z) and log Phi(-z) come from
    one erfc, and every value is bit for bit the one the scalar definitions
    (the one-sided log-CDF and the law's quantile, kept in the tests as the
    reference) give: the kernel takes the same floating-point operations in
    the same order."""
    erfc, exp, log, log1p = math.erfc, math.exp, math.log, math.log1p
    root2, inf = math.sqrt(2.0), math.inf
    # -lam * x is (-lam) * x, and an int or ratio meets a float as its
    # float(), so the parameters' doubles give the same values
    neg_lam, n2 = -float(lam), float(N - 2)
    if isinstance(dist, Lognormal):
        lognormal, mu, sigma, theta = True, float(dist.mu), float(dist.sigma), None
    elif isinstance(dist, Exponential):
        lognormal, mu, sigma, theta = False, None, None, float(dist.theta)
    else:
        raise DomainError(f"unknown distribution {dist!r}")

    def pair(z):
        # with t = |z|: log Phi(-t) from erfc, log Phi(t) from log1p
        if z < 0:
            tail = erfc(-z / root2)
            log_sf = log1p(-0.5 * tail)
            log_cdf = log(0.5 * tail) if -z < 30 else _log_ndtr_series(z)
        else:
            tail = erfc(z / root2)
            log_cdf = log1p(-0.5 * tail) if z > 0 else log(0.5 * tail)
            log_sf = log(0.5 * tail) if z < 30 else _log_ndtr_series(-z)
        # the law's excess over its lower bound
        if lognormal:
            s = sigma * z - mu
            x = exp(s) if s < 709.0 else inf
        else:
            x = -log_sf / theta
        common = neg_lam * x + n2 * log_cdf - 0.5 * z * z
        return common + log_cdf, common + log_sf

    return pair


def _check_k_arguments(lam: float, tol: float) -> None:
    """Raise DomainError unless lam is finite and positive and tol > 0."""
    if not (_finite(lam) and lam > 0):
        raise DomainError(f"lambda must be finite and positive, got {_shown(lam)}")
    if not tol > 0:
        raise DomainError("tolerance must be positive")


def k_value(model: AuctionModel, lam: float, tol: float = 1e-10) -> float:
    """K at lam: k_analytic_exponential, which meets any tol > 0, for a bare
    Exponential idiosyncratic law, else k_quadrature (a Shifted exponential
    too).  Every law gets k_quadrature's checks of lam and tol."""
    _check_k_arguments(lam, tol)
    dist = model.idiosyncratic
    if isinstance(dist, Exponential):
        return k_analytic_exponential(dist.theta, lam)
    return k_quadrature(model, lam, tol)


# k_quadrature's least relative error estimate: one ulp of each of its two
# sums, relative to the sum
_SUMS_ROUNDING = 2 * sys.float_info.epsilon


def k_quadrature(model: AuctionModel, lam: float, tol: float = 1e-10) -> float:
    """K by the trapezoid rule in normal scores z, where Phi(z) = F(bid).

    With x(z) the bid less the law's lower bound (whose factor cancels),
    the order-statistic densities in z (David & Nagaraja 2.1) give
    K = A / ((N-1) B), A = int exp(-lam x) Phi^(N-1) phi dz and
    B = int exp(-lam x) Phi^(N-2) Phi(-z) phi dz.  Both integrands are
    positive and log-concave, so the trapezoid rule converges geometrically
    (Trefethen & Weideman 2014) on the bracket where either log-integrand
    is within 45 of its peak.

    The log-integrands come from _log_integrands' scalar kernel, one call
    per point.  The searches keep their points in a per-call memo, and
    each grid level takes from it the points it holds, so each z is
    evaluated once per call.  The searches are only as fine as their
    results need.  A peak only scales its sum and cancels in K, so each
    peak search halves until the tangent at the point found puts its value
    within 1 of the peak's; the cut then falls 45 to 46 below the true
    peak.  Any bracket edge past the cut serves, so each edge search
    halves until the edge lies within a sixteenth of its distance from the
    peak, which keeps the grid from spanning much beyond the cut.

    The step is halved until two levels agree to tol relative to K; their
    difference is the error estimate.  Two levels that agree bit for bit
    still carry the sums' rounding, so the relative estimate is floored at
    one ulp of each sum, 2**-51, and under quadrature a tol below that
    floor times K always raises.  Refining also stops once a level's estimate fails to shrink
    below the previous level's, since the levels then differ by rounding
    alone.  QuadratureFailure means the estimate exceeds tol, or that a
    peak is too narrow for the grid, every term of a level's sum
    underflowing; OutOfRange means a K below the least subnormal double.

    A degenerate law (a PointMass, shifted or not) puts all N bids at its
    lower bound, so A = 1/N = (N-1) B and K is exactly 1 for any tol > 0,
    with no quadrature.
    """
    _check_k_arguments(lam, tol)
    dist, N = model.idiosyncratic, model.n_bidders
    # the lower bound adds the offsets innermost first, as the bids do
    offsets = []
    while isinstance(dist, Shifted):
        offsets.append(dist.offset)
        dist = dist.base
    lower = dist.v if isinstance(dist, PointMass) else 0.0
    for offset in reversed(offsets):
        lower += offset
    if lower < 0:
        raise DomainError("quadrature requires a nonnegative idiosyncratic law")
    if not _finite(N):
        raise DomainError(f"quadrature needs N within the double range, got {_int_text(N)}")
    if isinstance(dist, PointMass):
        return 1.0

    pair = _log_integrands(dist, N, lam)
    # the searches' points, which they revisit, and the grid its bracket edges
    memo = {}

    def at(z):
        return memo.get(z) or memo.setdefault(z, pair(z))

    def argmax(i):
        # log-integrand i is strictly concave: walk from 0 while its slope
        # keeps its sign, then halve the bracket on the turn until the
        # tangent at out puts out's value within 1 of the peak's
        def slope(z):
            return (at(z + 1e-7)[i] - at(z)[i]) / 1e-7

        up = slope(0.0) > 0
        z, step = 0.0, 1.0 if up else -1.0
        while ((s := slope(z + step)) > 0) == up:
            z, step = z + step, 2 * step
            if math.isinf(z):
                raise QuadratureFailure("a log-integrand does not turn within the double range")
        out = z + step  # s is the slope at out, taken once
        while not abs(s * (out - z)) <= 1.0:
            mid = 0.5 * (z + out)
            if mid == z or mid == out:
                break
            if ((s_mid := slope(mid)) > 0) == up:
                z = mid
            else:
                out, s = mid, s_mid
        return out

    za, zb = argmax(0), argmax(1)
    peak_a, peak_b = at(za)[0], at(zb)[1]

    def sums(zs):
        # the memo gives the points the searches evaluated: the first
        # level's lo, hi where lo + 16 h meets it, and the dyadic points the
        # walks and halvings share with the grid when lo and h are dyadic
        # too.  Each integrand is taken relative to its peak, so nothing
        # underflows; one that overflows there means the search stopped short
        values = [memo.get(z) or pair(z) for z in zs]
        try:
            return (math.fsum([math.exp(a - peak_a) for a, _ in values]),
                    math.fsum([math.exp(b - peak_b) for _, b in values]))
        except OverflowError:
            raise QuadratureFailure("the peak search stopped short of a log-integrand's peak") from None

    def near_peaks(z):
        a, b = at(z)
        return max(a - peak_a, b - peak_b) > -45.0

    def edge(start, step):
        # any point past the cut will do: walk out while either
        # log-integrand is within 45 of its peak, then halve the bracket on
        # the cut until out lies within a sixteenth of its distance from
        # start, so the grid spans little beyond the cut
        z = start
        while near_peaks(z + step):
            z, step = z + step, 2 * step
            if math.isinf(z):
                raise QuadratureFailure("a log-integrand does not turn within the double range")
        out = z + step
        while not abs(out - z) <= abs(out - start) / 16:
            mid = 0.5 * (z + out)
            if mid == z or mid == out:
                break
            z, out = (mid, out) if near_peaks(mid) else (z, mid)
        return out

    lo = edge(min(za, zb), -1.0)
    hi = edge(max(za, zb), 1.0)
    # both integrands are negligible at lo and hi, so the trapezoid rule is
    # the plain sum over the grid, and the step cancels in the ratio
    n, h = 16, (hi - lo) / 16
    sa, sb = sums([lo + i * h for i in range(n + 1)])
    rel_err = math.inf
    for _ in range(9):
        ma, mb = sums([lo + (i + 0.5) * h for i in range(n)])
        if not (sa + ma and sb + mb):
            # a peak narrower than the grid's step, which no term reaches
            raise QuadratureFailure(
                "every grid term of a log-integrand underflows: the grid misses its peak"
            )
        # two levels that agree bit for bit still differ from the integrals
        # by the sums' rounding, so the estimate never falls below it
        prev = rel_err
        rel_err = max(abs(ma - sa) / (sa + ma) + abs(mb - sb) / (sb + mb), _SUMS_ROUNDING)
        sa, sb, n, h = sa + ma, sb + mb, 2 * n, 0.5 * h
        # an estimate that stops shrinking is rounding, which finer levels keep
        if rel_err <= max(tol, _SUMS_ROUNDING) or rel_err >= prev:
            break
    # the top bid is never below the second, so K <= 1 holds exactly
    k = min(1.0, math.exp(peak_a - peak_b) * sa / ((N - 1) * sb))
    if k * rel_err > tol:
        raise QuadratureFailure(f"estimated error {k * rel_err:.3e} exceeds tolerance {float(tol):.3e}")
    return _nonzero_k(k, f"at lambda = {_shown(lam)}")


# Rows per chunk, each drawn from its own stream keyed by seed and index.
_CHUNK = 100_000
# Draws per block: Monte Carlo draws a chunk in consecutive blocks of
# max(1, _BLOCK // N) rows of N bids, about 512 KB of scratch.
_BLOCK = 2 ** 16


def _chunked(cfg: McConfig):
    """Yield (start_row, rows, generator) triples; one independent
    counter-based stream per chunk so scheduling cannot change results."""
    import numpy as np

    for ci, start in enumerate(range(0, cfg.samples, _CHUNK)):
        rows = min(_CHUNK, cfg.samples - start)
        rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(ci))
        yield start, rows, rng


def _blocks(start: int, rows: int, width: int):
    """Yield (lo, hi) row ranges splitting rows [start, start + rows) into
    consecutive blocks of max(1, _BLOCK // width) rows of width draws.  A
    generator fills in sequence, so drawing the blocks in order gives the
    bits of one (rows, width) draw."""
    step = max(1, _BLOCK // width)
    for lo in range(start, start + rows, step):
        yield lo, min(lo + step, start + rows)


def _empty(shape: tuple) -> np.ndarray:
    """np.empty(shape), or OutOfRange naming the shape where numpy cannot
    allocate it."""
    import numpy as np

    try:
        return np.empty(shape)
    except MemoryError:
        raise OutOfRange(f"an array of shape {shape} does not fit in memory") from None


def _check_arrays(cfg: McConfig, N: int) -> None:
    """Raise DomainError unless the (samples, 2) table and one block of
    draws, at most max(_BLOCK, N) doubles, each fit one array, whose byte
    count numpy keeps within sys.maxsize."""
    if 8 * max(2 * cfg.samples, N) > sys.maxsize:
        raise DomainError(f"{cfg.samples} samples in chunks of {min(_CHUNK, cfg.samples)} rows"
                          f" of {_int_text(N)} bids do not fit one array")


def simulate_bids(model: AuctionModel, cfg: McConfig) -> np.ndarray:
    """Simulate the two highest bids; returns an array of shape (samples, 2)
    with columns (highest, second highest).  Fully determined by cfg.

    Each chunk draws its common parts, then its idiosyncratic bids in
    consecutive blocks of max(1, _BLOCK // N) rows, which are sorted one
    at a time: the scratch beside the table is one block, whatever N is.
    The common part is added after the sort, to the top two columns only:
    fl(c + x) is monotone in x, so this commutes with the sort bit for bit.
    Raises OutOfRange if a bid overflows the double range, or if numpy
    cannot allocate the table or a block.
    """
    N = model.n_bidders
    _check_arrays(cfg, N)
    import numpy as np

    out = _empty((cfg.samples, 2))
    with np.errstate(over="ignore"):
        for start, rows, rng in _chunked(cfg):
            # the common parts wait in the top column until their block's sort
            for lo, hi in _blocks(start, rows, 1):
                out[lo:hi, 0] = sample_draws(model.common, rng, hi - lo)
            for lo, hi in _blocks(start, rows, N):
                eps = sample_draws(model.idiosyncratic, rng, (hi - lo, N))
                eps.sort(axis=1)
                out[lo:hi, 1] = out[lo:hi, 0] + eps[:, -2]
                out[lo:hi, 0] += eps[:, -1]
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        row = int(bad.argmax())
        top, second = out[row].tolist()
        raise OutOfRange(
            f"simulated bids ({top!r}, {second!r}) in row {row} are not finite doubles"
        )
    return out


# Fewest effective draws k_monte_carlo estimates from.  Below about 10 the
# delta-method error bar misses the true K by many standard errors; the floor
# sits at the top of the 10-30 band where seeded corpora stop missing.
_MIN_ESS = 30


def _effective_size(w: np.ndarray) -> float:
    """The effective sample size (sum w)^2 / sum w^2 of nonnegative
    weights, taken relative to the largest so the squares cannot underflow;
    0.0 when every weight is 0."""
    top = w.max()
    if top == 0:
        return 0.0
    u = w / top
    return float(u.sum() ** 2 / (u @ u))


def k_monte_carlo(samples: np.ndarray, lam: float) -> tuple[float, float]:
    """Estimate K from a simulated table of (highest, second highest).

    Returns (estimate, stderr) where the standard error comes from the
    delta method for a ratio of two correlated sample means.  Weights are
    taken relative to the smallest second bid, so they cannot all underflow
    in the second column.  Raises InsufficientSamples when either weight
    column has an effective sample size (Kong 1992) below _MIN_ESS: then a
    few draws carry the weights, and the estimate and its error bar are
    both wrong.  A column whose weights all underflow has size 0.  A row
    whose top bid is below its second raises DomainError naming the first
    such row, counted from 0.

    The scratch beside the table is its weights, one array the table's
    size that the covariance centres in place, plus one column.
    """
    import numpy as np

    if not (_finite(lam) and lam > 0):
        raise DomainError(f"lambda must be finite and positive, got {_shown(lam)}")
    try:
        table = np.asarray(samples, dtype=float)
    except OverflowError:  # an int or ratio past the double range
        raise DomainError("sample table holds a non-finite bid") from None
    if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] == 0:
        raise DomainError("expected a nonempty (rows, 2) sample table")
    if not np.isfinite(table).all():
        raise DomainError("sample table holds a non-finite bid")
    below = table[:, 0] < table[:, 1]
    if below.any():
        i = int(below.argmax())
        top, second = table[i].tolist()
        raise DomainError(f"sample table row {i} has its top bid {top!r} below its second {second!r}")
    n = len(table)
    # C order, as np.cov's concatenate gives: without out= the difference
    # takes table.T's layout, over which means and dot products round
    # differently
    w = _empty((2, n))
    with np.errstate(over="ignore"):  # an exponent past the double range weighs 0
        np.subtract(table.T, table[:, 1].min(), out=w)
        w *= -float(lam)
        np.exp(w, out=w)
    x, y = w
    ess = min(_effective_size(x), _effective_size(y))
    if not ess >= _MIN_ESS:
        raise InsufficientSamples(
            f"effective sample size {ess:.4g} of {n} rows is below {_MIN_ESS} "
            f"at lambda {_shown(lam)}: too few draws carry the weights"
        )
    xbar, ybar = x.mean(), y.mean()
    ratio = xbar / ybar
    var_x = x.var(ddof=1)
    var_y = y.var(ddof=1)
    # np.cov(x, y, ddof=1)'s arithmetic on w itself, which it would copy
    w -= np.average(w, axis=1)[:, None]
    c = np.dot(w, w.T)
    c *= np.true_divide(1, n - 1)
    cov_xy = float(c[0, 1])
    var_ratio = (var_x - 2.0 * ratio * cov_xy + ratio ** 2 * var_y) / (n * ybar ** 2)
    return float(ratio), float(math.sqrt(max(var_ratio, 0.0)))


def memoryless_check(theta: float, N: int, cfg: McConfig, control: bool = False) -> float:
    """Two-sample Kolmogorov-Smirnov statistic between the largest of N
    exponential draws and (second largest + an independent fresh draw).

    The two distributions coincide exactly for exponential laws, so the
    statistic stays at noise level.  With control=True the fresh draw is
    omitted; the distributions then differ and the statistic is large.
    Each chunk draws the first set's blocks, then the second set's, then
    the fresh draws, as simulate_bids does, so the scratch beside the two
    columns is one block while drawing; ks_statistic then takes two sorted
    copies and two integer columns of one of them.
    """
    if not (_finite(theta) and theta > 0):
        raise DomainError(f"theta must be finite and positive, got {_shown(theta)}")
    if not isinstance(N, int) or N < 2:
        raise DomainError("need an integer N >= 2")
    _check_arrays(cfg, N)
    import numpy as np

    law = Exponential(theta)
    top = _empty((cfg.samples,))
    second_side = _empty((cfg.samples,))
    for start, rows, rng in _chunked(cfg):
        for lo, hi in _blocks(start, rows, N):
            top[lo:hi] = sample_draws(law, rng, (hi - lo, N)).max(axis=1)
        for lo, hi in _blocks(start, rows, N):
            draws = sample_draws(law, rng, (hi - lo, N))
            draws.sort(axis=1)
            second_side[lo:hi] = draws[:, -2]
        if not control:
            for lo, hi in _blocks(start, rows, 1):
                with np.errstate(over="ignore"):  # ks_statistic refuses an inf sum
                    second_side[lo:hi] += sample_draws(law, rng, hi - lo)
    return ks_statistic(top, second_side)


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup|F_a - F_b|.

    The ECDF gap is taken in integer counts, |c_a n_b - c_b n_a|, over a's
    points and then over b's, and divided once, so the result is correctly
    rounded.  The scratch is two sorted copies plus two integer columns of
    one sample.  Raises DomainError for a sample that is empty, not
    one-dimensional or holds a non-finite value.
    """
    import numpy as np

    a, b = np.asarray(a), np.asarray(b)
    # the common type the points are compared in
    dtype = np.result_type(a, b)
    a, b = a.astype(dtype), b.astype(dtype)
    for sample in (a, b):
        if sample.ndim != 1 or len(sample) == 0:
            raise DomainError("expected a nonempty one-dimensional sample")
        sample.sort()
        # sorting puts -inf first and inf and nan last; comparisons, unlike
        # np.isfinite, also take an object array of ints past int64
        if not (-math.inf < sample[0] and sample[-1] < math.inf):
            raise DomainError("sample holds a non-finite value")
    gap = max(_count_gap(a, b, a), _count_gap(a, b, b))
    return float(gap / (len(a) * len(b)))


def _count_gap(a: np.ndarray, b: np.ndarray, points: np.ndarray):
    """max |c_a n_b - c_b n_a| over points, where c_a and c_b count the
    sorted samples a and b at or below each point; in place, so two integer
    columns the length of points exist at once."""
    import numpy as np

    ca = np.searchsorted(a, points, side="right")
    cb = np.searchsorted(b, points, side="right")
    ca *= len(b)
    cb *= len(a)
    ca -= cb
    return np.abs(ca, out=ca).max()


def auction_identify(H: RatioExpansion, N: int, target_degree: int) -> IdentifyResult:
    """Recover the Taylor germ of the idiosyncratic CDF from an expansion
    of its power ratio with exponents (N-1, N).

    The exponent difference is -1, which is odd, so a CDF (nonnegative by
    nature) is recovered without sign ambiguity.
    """
    if N < 2:
        raise DomainError("the second-highest bid needs at least 2 bidders")
    return identify(H, RatioSpec(N - 1, N), target_degree)
