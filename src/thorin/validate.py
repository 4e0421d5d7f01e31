"""Goodness-of-fit machinery and benchmark distributions.

Exact one-sample Kolmogorov-Smirnov testing, quantile-quantile data,
resampled p-value experiments, samplers for the reference distributions
(log-normal, Pareto, Weibull, Gaussian-copula bivariate log-normal,
survival-Clayton with Pareto/log-normal margins) and the uniform-Thorin
fixture used to exercise discretization convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np
from mpmath import mpf
from scipy.special import gammaln, ndtr, ndtri, rgamma

from .ggc import GgcModel, sample

__all__ = [
    "KsResult",
    "ks_exact",
    "qq_points",
    "resampled_pvalues",
    "bench_sampler",
    "bench_cdf",
    "bench_quantile",
    "bench_pdf",
    "bench_density_mp",
    "bench_params",
    "BENCH_NAMES",
    "curious_cgf",
    "curious_cgf_discrete",
]

# the parameters of each benchmark with their defaults, and the domain of
# each parameter name; every bench_* function reads its values from here
_BENCH_DEFAULTS = {
    "lognormal": {"mu": 0.0, "sigma": 0.83},
    "pareto": {"k": 2.5, "xm": 1.0},
    "weibull": {"k": 1.5},
    "mln_gaussian": {"mu": 0.0, "sigma": 1.0, "rho": 0.5},
    "clayton_pareto_lognormal": {"theta": 7.0, "k": 2.5, "xm": 1.0, "mu": 0.0, "sigma": 0.83},
}
_DOMAINS = {
    "mu": ("finite", lambda v: True),
    "sigma": ("> 0", lambda v: v > 0),
    "k": ("> 0", lambda v: v > 0),
    "xm": ("> 0", lambda v: v > 0),
    "rho": ("in (-1, 1)", lambda v: abs(v) < 1),
    "theta": ("> 0", lambda v: v > 0),
}

BENCH_NAMES = tuple(_BENCH_DEFAULTS)


@dataclass
class KsResult:
    d_stat: float
    p_value: float
    n: int


def _log_nfact_over_nn(n: int) -> float:
    """``log(n!/n^n)``; from n = 20 on by Stirling's series with ``-n``
    subtracted last, so no two terms of size ``n ln n`` cancel."""
    if n < 20:
        return math.lgamma(n + 1) - n * math.log(n)
    r2 = 1.0 / (n * n)
    series = (1.0 / 12 - r2 * (1.0 / 360 - r2 * (1.0 / 1260 - r2 / 1680))) / n
    return 0.5 * math.log(2.0 * math.pi * n) + series - n


def _renormalized(A, e: int):
    _, x = math.frexp(np.abs(A).max())
    return np.ldexp(A, -x), e + x


def _durbin_cdf(n: int, d: float) -> float:
    """``P(D_n < d)`` from Durbin's matrix in the Marsaglia-Tsang-Wang
    form: ``n!/n^n`` times the central entry of ``H^n``, with ``H`` of
    order ``2k - 1`` for ``k = ceil(n d)``."""
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    j = np.arange(1, m + 1)
    H = rgamma(j[:, None] - j[None, :] + 2.0)  # 1/(i-j+1)!, 0 above the subdiagonal
    v = (1.0 - h**j) * rgamma(j + 1.0)
    H[:, 0] = v
    H[-1, :] = v[::-1]
    H[-1, 0] = (1.0 - 2.0 * h**m + max(2.0 * h - 1.0, 0.0) ** m) * rgamma(m + 1.0)
    # H^n by squaring; each matrix carries a power-of-two exponent so
    # that its entries stay near 1
    P, e, Q, eq, r = np.eye(m), 0, H, 0, n
    while True:
        if r & 1:
            P, e = _renormalized(P @ Q, e + eq)
        r >>= 1
        if not r:
            break
        Q, eq = _renormalized(Q @ Q, 2 * eq)
    return math.exp(math.log(P[k - 1, k - 1]) + e * math.log(2.0) + _log_nfact_over_nn(n))


def _pelz_good_cdf(n: int, d: float) -> float:
    """``P(D_n < d)`` from the Pelz-Good (1976) expansion
    ``K0 + K1/sqrt(n) + K2/n + K3/n^1.5`` in ``z = d sqrt(n)``."""
    z = d * math.sqrt(n)
    z2 = z * z
    pi2 = math.pi**2
    kk = np.arange(1, math.ceil(16.0 * z / math.pi) + 1, dtype=float)
    m2 = (2.0 * kk - 1.0) ** 2
    odd = np.exp(-pi2 * m2 / (8.0 * z2))
    even = kk**2 * np.exp(-pi2 * kk**2 / (2.0 * z2))
    s0 = odd.sum()
    s1 = ((pi2 * m2 / 4.0 - z2) * odd).sum()
    s2 = ((6 * z2**3 + 2 * z2**2 + (2 * z2**2 - 5 * z2) * pi2 * m2 / 4.0
           + pi2**2 * (1 - 2 * z2) * m2**2 / 16.0) * odd).sum()
    s3 = ((-30 * z2**3 - 90 * z2**4 + pi2 * (135 * z2**2 - 96 * z2**3) * m2 / 4.0
           + pi2**2 * (212 * z2**2 - 60 * z2) * m2**2 / 16.0
           + pi2**3 * (5 - 30 * z2) * m2**3 / 64.0) * odd).sum()
    r2p = math.sqrt(2.0 * math.pi)
    k0 = r2p * s0 / z
    k1 = r2p * s1 / (6.0 * z**4)
    k2 = r2p * (s2 / (72.0 * z**7) - pi2 * even.sum() / (36.0 * z**3))
    k3 = r2p * (s3 / (6480.0 * z**10)
                + pi2 * ((3 * z2 - pi2 * kk**2) * even).sum() / (216.0 * z**6))
    return k0 + k1 / math.sqrt(n) + k2 / n + k3 / n**1.5


def _smirnov_sf(n: int, d: float) -> float:
    """One-sided ``P(D_n^+ >= d)`` by the Birnbaum-Tingey sum
    ``d sum_j C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1)``, every term
    formed in logs."""
    j = np.arange(math.floor(n * (1.0 - d)) + 1, dtype=float)
    with np.errstate(divide="ignore"):
        log_terms = (
            gammaln(n + 1.0) - gammaln(j + 1.0) - gammaln(n - j + 1.0)
            + (n - j) * np.log(np.maximum((n - j) / n - d, 0.0))
            + (j - 1.0) * np.log(d + j / n)
        )
    return d * float(np.exp(log_terms).sum())


def _ks_sf(n: int, d: float) -> float:
    """Exact ``P(D_n >= d)`` of the two-sided one-sample statistic, each
    region by the method Simard & L'Ecuyer (2011) assign to it."""
    t = n * d
    if t <= 0.5:
        return 1.0
    if d >= 1.0:
        return 0.0
    if t <= 1.0:  # Ruben-Gambino: P(D_n < d) = n!/n^n (2t - 1)^n
        return -math.expm1(_log_nfact_over_nn(n) + n * math.log(2.0 * t - 1.0))
    if t >= n - 1:  # Ruben-Gambino
        return 2.0 * (1.0 - d) ** n
    nd2 = t * d
    if n > 140 and nd2 >= 370.0:
        return 0.0
    # the two one-sided tails cannot both be crossed when d >= 1/2, and
    # their overlap is negligible beyond these n d^2
    if d >= 0.5 or (nd2 > 4.0 if n <= 140 else nd2 >= 2.2):
        return min(2.0 * _smirnov_sf(n, d), 1.0)
    if n <= 140 or n * d**1.5 <= 1.4:
        return 1.0 - _durbin_cdf(n, d)
    return 1.0 - _pelz_good_cdf(n, d)


def ks_exact(samples, cdf: Callable) -> KsResult:
    """One-sample two-sided Kolmogorov-Smirnov test.

    ``D`` comes from the order statistics. At every N the p-value is the
    exact finite-sample tail ``_ks_sf``, with the region choice of
    Simard & L'Ecuyer (2011, J. Stat. Softw. 39(11)):

    - Ruben & Gambino's (1982) closed forms for ``N D <= 1`` and
      ``N D >= N - 1``;
    - Durbin's (1968) matrix in the form of Marsaglia, Tsang & Wang
      (2003, J. Stat. Softw. 8(18)) for small ``N D^2``;
    - the Pelz & Good (1976) expansion in the middle for N > 140;
    - twice the one-sided Smirnov tail, by the Birnbaum & Tingey (1951)
      sum, in the upper tail.
    """
    xs = np.sort(np.asarray(samples, dtype=float).ravel())
    N = xs.size
    F = np.asarray(cdf(xs), dtype=float)
    steps = np.arange(1, N + 1) / N
    D = float(max((steps - F).max(), (F - steps + 1.0 / N).max()))
    D = min(max(D, 0.0), 1.0)
    return KsResult(D, min(max(_ks_sf(N, D), 0.0), 1.0), N)


def qq_points(samples, quantile_fn: Callable, count: int, drop_tail: int = 0):
    """Matched quantiles at the plotting positions ``(i - 0.5) / count``.

    Returns ``count - drop_tail`` pairs (theoretical, empirical); the
    excluded points are the largest ones, where heavy tails scatter.
    """
    xs = np.asarray(samples, dtype=float).ravel()
    if count > xs.size:
        raise ValueError("count exceeds the sample size")
    probs = (np.arange(1, count + 1) - 0.5) / count
    theo = np.asarray([quantile_fn(p) for p in probs], dtype=float)
    # Hazen interpolation places order statistics at (i - 0.5)/N, so for
    # count == N the empirical side is exactly the sorted sample
    emp = np.quantile(xs, probs, method="hazen")
    keep = count - drop_tail
    return np.column_stack([theo[:keep], emp[:keep]])


def resampled_pvalues(
    model: GgcModel, true_cdf: Callable, N: int, B: int, seed: int
) -> np.ndarray:
    """``B`` independent exact-KS p-values of size-``N`` model samples
    against a reference cdf; replicate RNG streams are split from the
    seed, so the output is reproducible."""
    if model.d != 1:
        raise ValueError("resampling validation is univariate")
    streams = np.random.SeedSequence(seed).spawn(B)
    return np.array(
        [ks_exact(sample(model, N, np.random.default_rng(ss)).ravel(), true_cdf).p_value
         for ss in streams]
    )


# ---------------------------------------------------------------------------
# benchmark distributions


def bench_params(name: str, params: dict = None) -> dict:
    """All parameters of a named benchmark: ``params`` over the defaults.

    An unknown distribution or parameter name, or a value that is not
    finite or lies outside its parameter's domain (``sigma, k, xm,
    theta > 0``, ``|rho| < 1``), raises ``ValueError`` naming it.
    """
    if name not in _BENCH_DEFAULTS:
        raise ValueError(f"unknown benchmark distribution {name!r}; "
                         f"choose from {', '.join(_BENCH_DEFAULTS)}")
    p = dict(_BENCH_DEFAULTS[name])
    for key, v in (params or {}).items():
        if key not in p:
            raise ValueError(f"{name} has no parameter {key!r} (it takes {', '.join(p)})")
        text, inside = _DOMAINS[key]
        if not (math.isfinite(v) and inside(v)):
            raise ValueError(f"{name} parameter {key}={v} is outside its domain ({text})")
        p[key] = v
    return p


def _pareto_q(p, k, xm):
    return xm * (1.0 - p) ** (-1.0 / k)


def _lognormal_q(p, mu, sigma):
    return np.exp(mu + sigma * ndtri(p))


def _weibull_q(p, k):
    return (-np.log1p(-p)) ** (1.0 / k)


def bench_sampler(name: str, params: dict, N: int, seed: int) -> np.ndarray:
    """Deterministic N x d samples of a named reference distribution."""
    if N < 1:
        raise ValueError("N must be >= 1")
    rng = np.random.default_rng(seed)
    p = bench_params(name, params)
    if name == "lognormal":
        return np.exp(p["mu"] + p["sigma"] * rng.standard_normal(N))[:, None]
    if name == "pareto":
        return _pareto_q(rng.random(N), p["k"], p["xm"])[:, None]
    if name == "weibull":
        return _weibull_q(rng.random(N), p["k"])[:, None]
    if name == "mln_gaussian":
        mu, sigma, rho = p["mu"], p["sigma"], p["rho"]
        z = rng.standard_normal((N, 2))
        y = np.column_stack([z[:, 0], rho * z[:, 0] + math.sqrt(1 - rho * rho) * z[:, 1]])
        return np.exp(mu + sigma * y)
    if name == "clayton_pareto_lognormal":
        theta, k, xm, mu, sigma = (p[v] for v in ("theta", "k", "xm", "mu", "sigma"))
        # Marshall-Olkin frailty construction, then the survival
        # reflection moves Clayton's lower-tail clustering to the upper
        # tail
        S = rng.gamma(1.0 / theta, 1.0, N)
        E = rng.exponential(1.0, (N, 2))
        U = (1.0 + E / S[:, None]) ** (-1.0 / theta)
        V = 1.0 - U
        return np.column_stack(
            [_pareto_q(V[:, 0], k, xm), _lognormal_q(V[:, 1], mu, sigma)]
        )


def bench_cdf(name: str, params: dict) -> Callable:
    """Analytic cdf of a univariate benchmark (the KS reference is always
    the true distribution, never a reconstruction)."""
    p = bench_params(name, params)
    if name == "lognormal":
        mu, sigma = p["mu"], p["sigma"]
        return lambda x: ndtr((np.log(np.maximum(x, 1e-300)) - mu) / sigma)
    if name == "pareto":
        k, xm = p["k"], p["xm"]
        return lambda x: np.where(x < xm, 0.0, 1.0 - (xm / np.maximum(x, xm)) ** k)
    if name == "weibull":
        k = p["k"]
        return lambda x: -np.expm1(-np.maximum(x, 0.0) ** k)
    raise ValueError(f"no univariate cdf for benchmark {name!r}")


def bench_pdf(name: str, params: dict):
    """Vectorized density of a benchmark with a formal one, and the points
    where it jumps: ``(pdf, jumps)``.  ``pdf`` takes one array per
    coordinate (broadcast against each other) and is zero off the support;
    the only jump is Pareto's at ``xm``."""
    p = bench_params(name, params)
    if name == "lognormal":
        mu, sigma = p["mu"], p["sigma"]
        norm = sigma * math.sqrt(2.0 * math.pi)

        def ln_pdf(x):
            lx = np.log(np.maximum(x, 1e-300))  # the density vanishes at 0
            z = (lx - mu) / sigma
            return np.exp(-0.5 * z * z - lx) / norm

        return ln_pdf, ()
    if name == "weibull":
        k = p["k"]

        def wb_pdf(x):
            x = np.maximum(x, 0.0)
            with np.errstate(divide="ignore"):
                return np.where(x > 0, k * x ** (k - 1) * np.exp(-(x ** k)), 0.0)

        return wb_pdf, ()
    if name == "pareto":
        k, xm = p["k"], p["xm"]

        def pa_pdf(x):
            return np.where(x < xm, 0.0, k * xm ** k / np.maximum(x, xm) ** (k + 1))

        return pa_pdf, (xm,)
    if name == "mln_gaussian":
        mu, sigma, rho = p["mu"], p["sigma"], p["rho"]
        one_m_rho2 = 1.0 - rho * rho
        norm = 2.0 * math.pi * sigma * sigma * math.sqrt(one_m_rho2)

        def mln_pdf(x, y):
            lx, ly = np.log(np.maximum(x, 1e-300)), np.log(np.maximum(y, 1e-300))
            u, v = (lx - mu) / sigma, (ly - mu) / sigma
            q = (u * u - 2.0 * rho * u * v + v * v) / one_m_rho2
            return np.exp(-0.5 * q - lx - ly) / norm

        return mln_pdf, ()
    raise ValueError(f"no formal density for benchmark {name!r}")


def bench_quantile(name: str, params: dict) -> Callable:
    p = bench_params(name, params)
    if name == "lognormal":
        return lambda q: _lognormal_q(q, p["mu"], p["sigma"])
    if name == "pareto":
        return lambda q: _pareto_q(q, p["k"], p["xm"])
    if name == "weibull":
        return lambda q: _weibull_q(q, p["k"])
    raise ValueError(f"no univariate quantile for benchmark {name!r}")


def _per_prec(make: Callable) -> Callable:
    """``make()`` evaluated once per working precision: a density's
    closure is built at 53 bits but called inside ``workprec``."""
    cache = {}

    def get():
        prec = mpmath.mp.prec
        if prec not in cache:
            cache[prec] = make()
        return cache[prec]

    return get


def bench_density_mp(name: str, params: dict) -> Callable:
    """Arbitrary-precision density of a benchmark, for the projection
    path (the integrand must follow the working precision)."""
    p = {k: mpf(v) for k, v in bench_params(name, params).items()}
    if name == "lognormal":
        mu, sigma = p["mu"], p["sigma"]

        norm = _per_prec(lambda: sigma * mpmath.sqrt(2 * mpmath.pi))

        def ln_pdf(x):
            if x <= 0:
                return mpf(0)
            z = (mpmath.log(x) - mu) / sigma
            return mpmath.exp(-z * z / 2) / (x * norm())

        return ln_pdf
    if name == "weibull":
        k = p["k"]

        def wb_pdf(x):
            if x <= 0:
                return mpf(0)
            return k * x ** (k - 1) * mpmath.exp(-(x ** k))

        return wb_pdf
    if name == "pareto":
        k, xm = p["k"], p["xm"]

        def pa_pdf(x):
            if x < xm:
                return mpf(0)
            return k * xm ** k / x ** (k + 1)

        return pa_pdf
    if name == "mln_gaussian":
        mu, sigma, rho = p["mu"], p["sigma"], p["rho"]

        consts = _per_prec(lambda: (
            1 - rho * rho, 2 * mpmath.pi * sigma * sigma * mpmath.sqrt(1 - rho * rho)
        ))

        def mln_pdf(x, y):
            if x <= 0 or y <= 0:
                return mpf(0)
            one_m_rho2, norm = consts()
            u = (mpmath.log(x) - mu) / sigma
            v = (mpmath.log(y) - mu) / sigma
            q = (u * u - 2 * rho * u * v + v * v) / one_m_rho2
            return mpmath.exp(-q / 2) / (norm * x * y)

        return mln_pdf
    raise ValueError(f"no formal density for benchmark {name!r}")


# ---------------------------------------------------------------------------
# uniform-Thorin fixture


def curious_cgf(t: float) -> float:
    """cgf value ``K(-t)`` of the distribution whose Thorin measure is
    uniform on [0, 1]: ``1 - (1 + t)/t ln(1 + t)`` for ``t > 0``."""
    if not t > 0:
        raise ValueError("t must be positive")
    return 1.0 - (1.0 + t) / t * math.log1p(t)


def curious_cgf_discrete(t: float, n: int) -> float:
    """Same cgf for the n-atom discretization of the uniform Thorin
    measure (atoms ``j/(n+1)`` with mass ``1/n``)."""
    if not t > 0:
        raise ValueError("t must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    j = np.arange(1, n + 1)
    return float(np.mean(-np.log1p(t * j / (n + 1.0))))
