"""High-precision reference values for the float path, computed with mpmath.

Every function here works from the benchmark's own description of an input
(exact rationals, distribution parameters), never from the library's
objects, so a defect in the library cannot leak into its own reference.
The oracle runs after the timed region and outside set-up.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import mpmath as mp

DPS = 32  # digits carried: at least 30, far beyond the 1e-10 the checks need

# smallest positive normal double: an exact value below it cannot be
# returned with 1e-10 relative accuracy, only as 0 or a subnormal
DOUBLE_TINY = 2.2250738585072014e-308


def _mpq(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_pow(a: list[Fraction], n: int) -> list[Fraction]:
    out = [Fraction(1)]
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def laplace_local(pieces, lam: float, power: int = 1):
    """Laplace transform at lam of f**power, where f is given piece by piece
    in local coordinates: (start, width or None for the tail, q) with
    f(x) = q(x - start) on the piece.  Exact per-piece integrals through
    the lower incomplete gamma function."""
    with mp.workdps(DPS):
        lam_mp = mp.mpf(lam)
        total = mp.mpf(0)
        for start, width, q in pieces:
            qp = poly_pow(q, power)
            acc = mp.mpf(0)
            for j, c in enumerate(qp):
                if not c:
                    continue
                if width is None:
                    g = mp.factorial(j)
                else:
                    g = mp.gammainc(j + 1, 0, lam_mp * _mpq(width))
                acc += _mpq(c) * g / lam_mp ** (j + 1)
            total += mp.exp(-lam_mp * _mpq(start)) * acc
        return total


def ratio_local(pieces, n: int, m: int, lam: float):
    with mp.workdps(DPS):
        return laplace_local(pieces, lam, n) / laplace_local(pieces, lam, m)


def _log_parts(z, lam, mu, sigma):
    # log of lam*sigma*x*exp(-lam*x) with x = exp(sigma*z - mu), and log Phi(z)
    x = mp.exp(sigma * z - mu)
    return mp.log(lam * sigma) + (sigma * z - mu) - lam * x, mp.log(mp.ncdf(z))


def _bracket(h, lo, hi, drop=100):
    # h is concave: golden-section search for its peak, then step outward
    # until it has dropped by `drop` on both sides
    g = (mp.sqrt(5) - 1) / 2
    for _ in range(30):
        a = hi - g * (hi - lo)
        b = lo + g * (hi - lo)
        if h(a) < h(b):
            lo = a
        else:
            hi = b
    zpk = (lo + hi) / 2
    hpk = h(zpk)
    left = right = mp.mpf("0.25")
    while h(zpk - left) > hpk - drop:
        left *= 2
    while h(zpk + right) > hpk - drop:
        right *= 2
    return zpk - left, zpk + right, hpk


def k_lognormal(mu: float, sigma: float, N: int, lam: float):
    """Exact K for a lognormal idiosyncratic law exp(sigma*Z - mu) with N
    bidders, and log10 of its denominator transform B: K = A / B with
    B = N*C - (N-1)*A, where A and C are the transforms of F**N and
    F**(N-1) against lam*exp(-lam*x).

    Both are integrated in z = (ln x + mu)/sigma, where the integrands are
    log-concave.  Each is divided by its peak value first, because mpmath's
    quadrature stops on an absolute error and the integrals can be 1e-35."""
    with mp.workdps(DPS):
        lam_mp, mu_mp, sg = mp.mpf(lam), mp.mpf(mu), mp.mpf(sigma)
        cache = {}

        def parts(z):
            v = cache.get(z)
            if v is None:
                v = cache[z] = _log_parts(z, lam_mp, mu_mp, sg)
            return v

        lo, hi = mp.mpf(-60), (mp.log(mp.mpf(800) / lam_mp) + mu_mp) / sg + 1
        brackets = {}
        for p in (N, N - 1):
            brackets[p] = _bracket(lambda z: parts(z)[0] + p * parts(z)[1], lo, hi)
        pts = mp.linspace(
            min(b[0] for b in brackets.values()), max(b[1] for b in brackets.values()), 6
        )
        logs = {}
        for p, (_, _, hpk) in brackets.items():
            val, err = mp.quad(
                lambda z: mp.exp(parts(z)[0] + p * parts(z)[1] - hpk), pts, error=True
            )
            if not err <= val * mp.mpf(10) ** -25:
                raise ArithmeticError(f"oracle quadrature did not converge at lam={lam}")
            logs[p] = mp.log(val) + hpk
        k = 1 / (N * mp.exp(logs[N - 1] - logs[N]) - (N - 1))  # A / B
        return k, (logs[N] - mp.log(k)) / mp.log(10)


CATALOGUE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "k_catalogue.json")


def _key(mu, sigma, N, lam) -> str:
    return json.dumps([repr(float(mu)), repr(float(sigma)), N, repr(float(lam))])


class OracleCache:
    """Reference K values by model and lambda.  Lognormal values come from
    the shipped catalogue, else from a JSON cache inside the benchmark's
    output directory, else from the quadrature (then cached)."""

    def __init__(self, path):
        self.path = path
        self.shipped = self._load(CATALOGUE)
        self.values: dict[str, list[str]] = self._load(path)
        self.dirty = False

    @staticmethod
    def _load(path) -> dict:
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return {}

    def k_reference(self, desc, lam: float):
        """(K, log10 of the denominator transform) for a model description
        ("lognormal", mu, sigma, N), ("point_mass", v, offset, N) or
        ("exponential", theta, None, N)."""
        kind, a, b, N = desc
        if kind == "exponential":
            return mp.mpf(a) / (mp.mpf(a) + lam), 0.0
        if kind == "point_mass":
            # every bid sits at v + offset, so both transforms are
            # exp(-lam*(v + offset)) and K = 1
            return mp.mpf(1), -lam * (a + b) / 2.302585092994046
        key = _key(a, b, N, lam)
        if key not in self.shipped and key not in self.values:
            k, log10_den = k_lognormal(a, b, N, lam)
            self.values[key] = [mp.nstr(k, 30), mp.nstr(log10_den, 15)]
            self.dirty = True
        k, log10_den = self.shipped.get(key) or self.values[key]
        with mp.workdps(DPS):
            return mp.mpf(k), float(log10_den)

    def save(self):
        if self.dirty:
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self.values, fh)
            os.replace(tmp, self.path)


def build_catalogue() -> None:
    """Compute K for every lognormal law of floatpath.LOGNORMAL_CATALOGUE,
    N in {5, 50, 200} and lambda in floatpath.K_LAMBDAS; about two minutes."""
    from floatpath import K_LAMBDAS, LOGNORMAL_CATALOGUE

    values = {}
    for mu, sigma in LOGNORMAL_CATALOGUE:
        for N in (5, 50, 200):
            for lam in K_LAMBDAS:
                k, log10_den = k_lognormal(mu, sigma, N, lam)
                values[_key(mu, sigma, N, lam)] = [mp.nstr(k, 30), mp.nstr(log10_den, 15)]
    with open(CATALOGUE, "w", encoding="utf-8") as fh:
        json.dump(values, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    build_catalogue()
