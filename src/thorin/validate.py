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
from scipy.special import ndtr, ndtri
from scipy.stats import kstwo

from .ggc import GgcModel, sample

__all__ = [
    "KsResult",
    "ks_exact",
    "kolmogorov_sf",
    "qq_points",
    "resampled_pvalues",
    "bench_sampler",
    "bench_cdf",
    "bench_quantile",
    "bench_density_mp",
    "BENCH_NAMES",
    "curious_cgf",
    "curious_cgf_discrete",
]

_EXACT_N_MAX = 10_000

BENCH_NAMES = (
    "lognormal",
    "pareto",
    "weibull",
    "mln_gaussian",
    "clayton_pareto_lognormal",
)


@dataclass
class KsResult:
    d_stat: float
    p_value: float
    n: int


def kolmogorov_sf(lam: float) -> float:
    """Kolmogorov limiting survival function
    ``Q(lam) = 2 sum_j (-1)^{j-1} exp(-2 j^2 lam^2)``."""
    if lam <= 0:
        return 1.0
    total, sign = 0.0, 1.0
    for j in range(1, 200):
        term = math.exp(-2.0 * j * j * lam * lam)
        total += sign * term
        if term <= 1e-18 * max(total, 1e-300):
            break
        sign = -sign
    return min(max(2.0 * total, 0.0), 1.0)


def ks_exact(samples, cdf: Callable) -> KsResult:
    """One-sample two-sided Kolmogorov-Smirnov test.

    ``D`` comes from the order statistics; the p-value uses the exact
    finite-sample distribution up to N = 10^4 and a finite-N-corrected
    Kolmogorov series above (the correction keeps the two branches
    within ~1e-6 of each other at the switch point).
    """
    xs = np.sort(np.asarray(samples, dtype=float).ravel())
    N = xs.size
    F = np.asarray(cdf(xs), dtype=float)
    steps = np.arange(1, N + 1) / N
    D = float(max((steps - F).max(), (F - steps + 1.0 / N).max()))
    D = min(max(D, 0.0), 1.0)
    if N <= _EXACT_N_MAX:
        p = float(kstwo.sf(D, N))
    else:
        rtn = math.sqrt(N)
        lam = D * rtn + 1.0 / (6.0 * rtn) + (D * rtn - 1.0) / (4.0 * N)
        p = kolmogorov_sf(lam)
    return KsResult(D, min(max(p, 0.0), 1.0), N)


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
    p = dict(params or {})
    if name == "lognormal":
        mu, sigma = p.get("mu", 0.0), p.get("sigma", 0.83)
        return np.exp(mu + sigma * rng.standard_normal(N))[:, None]
    if name == "pareto":
        k, xm = p.get("k", 2.5), p.get("xm", 1.0)
        return _pareto_q(rng.random(N), k, xm)[:, None]
    if name == "weibull":
        k = p.get("k", 1.5)
        return _weibull_q(rng.random(N), k)[:, None]
    if name == "mln_gaussian":
        mu, sigma, rho = p.get("mu", 0.0), p.get("sigma", 1.0), p.get("rho", 0.5)
        z = rng.standard_normal((N, 2))
        y = np.column_stack([z[:, 0], rho * z[:, 0] + math.sqrt(1 - rho * rho) * z[:, 1]])
        return np.exp(mu + sigma * y)
    if name == "clayton_pareto_lognormal":
        theta = p.get("theta", 7.0)
        k, xm = p.get("k", 2.5), p.get("xm", 1.0)
        mu, sigma = p.get("mu", 0.0), p.get("sigma", 0.83)
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
    raise ValueError(f"unknown benchmark distribution: {name!r}")


def bench_cdf(name: str, params: dict) -> Callable:
    """Analytic cdf of a univariate benchmark (the KS reference is always
    the true distribution, never a reconstruction)."""
    p = dict(params or {})
    if name == "lognormal":
        mu, sigma = p.get("mu", 0.0), p.get("sigma", 0.83)
        return lambda x: ndtr((np.log(np.maximum(x, 1e-300)) - mu) / sigma)
    if name == "pareto":
        k, xm = p.get("k", 2.5), p.get("xm", 1.0)
        return lambda x: np.where(x < xm, 0.0, 1.0 - (xm / np.maximum(x, xm)) ** k)
    if name == "weibull":
        k = p.get("k", 1.5)
        return lambda x: -np.expm1(-np.maximum(x, 0.0) ** k)
    raise ValueError(f"no univariate cdf for benchmark {name!r}")


def bench_quantile(name: str, params: dict) -> Callable:
    p = dict(params or {})
    if name == "lognormal":
        mu, sigma = p.get("mu", 0.0), p.get("sigma", 0.83)
        return lambda q: _lognormal_q(q, mu, sigma)
    if name == "pareto":
        k, xm = p.get("k", 2.5), p.get("xm", 1.0)
        return lambda q: _pareto_q(q, k, xm)
    if name == "weibull":
        k = p.get("k", 1.5)
        return lambda q: _weibull_q(q, k)
    raise ValueError(f"no univariate quantile for benchmark {name!r}")


def bench_density_mp(name: str, params: dict) -> Callable:
    """Arbitrary-precision density of a benchmark, for the projection
    path (the integrand must follow the working precision)."""
    p = dict(params or {})
    if name == "lognormal":
        mu, sigma = mpf(p.get("mu", 0.0)), mpf(p.get("sigma", 0.83))

        def ln_pdf(x):
            if x <= 0:
                return mpf(0)
            z = (mpmath.log(x) - mu) / sigma
            return mpmath.exp(-z * z / 2) / (x * sigma * mpmath.sqrt(2 * mpmath.pi))

        return ln_pdf
    if name == "weibull":
        k = mpf(p.get("k", 1.5))

        def wb_pdf(x):
            if x <= 0:
                return mpf(0)
            return k * x ** (k - 1) * mpmath.exp(-(x ** k))

        return wb_pdf
    if name == "pareto":
        k, xm = mpf(p.get("k", 2.5)), mpf(p.get("xm", 1.0))

        def pa_pdf(x):
            if x < xm:
                return mpf(0)
            return k * xm ** k / x ** (k + 1)

        return pa_pdf
    if name == "mln_gaussian":
        mu, sigma, rho = (
            mpf(p.get("mu", 0.0)),
            mpf(p.get("sigma", 1.0)),
            mpf(p.get("rho", 0.5)),
        )

        def mln_pdf(x, y):
            if x <= 0 or y <= 0:
                return mpf(0)
            u = (mpmath.log(x) - mu) / sigma
            v = (mpmath.log(y) - mu) / sigma
            q = (u * u - 2 * rho * u * v + v * v) / (1 - rho * rho)
            norm = 2 * mpmath.pi * sigma * sigma * mpmath.sqrt(1 - rho * rho) * x * y
            return mpmath.exp(-q / 2) / norm

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
