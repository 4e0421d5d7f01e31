"""Goodness-of-fit machinery and benchmark distributions.

One-sample Kolmogorov-Smirnov testing (exact p-values but for the doubled
Smirnov tail, within 5e-8, and Pelz-Good, within 0.07/N^2 for N > 140),
quantile-quantile data, resampled p-value experiments, samplers for the
reference distributions (log-normal, Pareto, Weibull, Gaussian-copula
bivariate log-normal, survival-Clayton with Pareto/log-normal margins) and
the uniform-Thorin fixture used to exercise discretization convergence.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ggc import GgcModel, sample
from .numkit import _from_oracle

__all__ = [
    "KsResult",
    "ks_exact",
    "qq_points",
    "resampled_pvalues",
    "bench_sampler",
    "bench_cdf",
    "bench_quantile",
    "bench_pdf",
    "bench_params",
    "BENCH_NAMES",
    "curious_cgf",
    "curious_cgf_discrete",
]

__getattr__ = _from_oracle(__name__, "bench_density_mp")

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


# 1/k! correctly rounded for k = 0..170; beyond 170!, the largest
# factorial in doubles, it is subnormal and taken as 0
_INV_FACTORIALS = np.array([1 / math.factorial(k) for k in range(171)])


def _inv_factorial(k: np.ndarray) -> np.ndarray:
    """``1/k!`` of an integer array, 0 where ``k < 0`` (``1/Gamma`` at its
    poles) and where ``k > 170``."""
    inside = (k >= 0) & (k < _INV_FACTORIALS.size)
    return np.where(inside, _INV_FACTORIALS[np.where(inside, k, 0)], 0.0)


@functools.lru_cache(maxsize=8)
def _log_factorials(n: int) -> np.ndarray:
    """``log k!`` for ``k = 0..n``, built once per sample size."""
    table = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    table.setflags(write=False)
    return table


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
    H = _inv_factorial(j[:, None] - j[None, :] + 1)  # 1/(i-j+1)!, 0 above the subdiagonal
    v = (1.0 - h**j) * _inv_factorial(j)
    H[:, 0] = v
    H[-1, :] = v[::-1]
    H[-1, 0] = (1.0 - 2.0 * h**m + max(2.0 * h - 1.0, 0.0) ** m) * _inv_factorial(m)
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
    j = np.arange(math.floor(n * (1.0 - d)) + 1)
    log_fact = _log_factorials(n)
    with np.errstate(divide="ignore"):
        log_terms = (
            log_fact[n] - log_fact[j] - log_fact[n - j]
            + (n - j) * np.log(np.maximum((n - j) / n - d, 0.0))
            + (j - 1.0) * np.log(d + j / n)
        )
    return d * float(np.exp(log_terms).sum())


def _ks_sf(n: int, d: float) -> float:
    """``P(D_n >= d)`` of the two-sided one-sample statistic.  Past the two
    cut-offs each ``(n, d)`` takes one method, in Simard & L'Ecuyer's
    regions: twice the Smirnov tail (exact for ``d >= 1/2``, else within
    4e-14 at n <= 140 and 5e-8 above), Durbin's exact matrix, or Pelz-Good
    (within 0.07/n^2).  Their Ruben-Gambino closed forms for ``n d <= 1``
    and ``n d >= n - 1`` are left out: Durbin's matrix of order 1 and the
    Smirnov sum's one term ``(1 - d)^n`` give the same values there."""
    t = n * d
    if t <= 0.5:
        return 1.0
    nd2 = t * d
    if n > 140 and nd2 >= 370.0:
        return 0.0
    if d >= 0.5 or (nd2 > 4.0 if n <= 140 else nd2 >= 2.2):
        return min(2.0 * _smirnov_sf(n, d), 1.0)
    if n <= 140 or n * d**1.5 <= 1.4:
        return 1.0 - _durbin_cdf(n, d)
    return 1.0 - _pelz_good_cdf(n, d)


def ks_exact(samples, cdf: Callable) -> KsResult:
    """One-sample two-sided Kolmogorov-Smirnov test.

    ``D`` comes from the order statistics and the p-value from the tail
    ``_ks_sf``, by one method per region of Simard & L'Ecuyer (2011,
    J. Stat. Softw. 39(11)):

    - Durbin's (1968) matrix in the form of Marsaglia, Tsang & Wang
      (2003, J. Stat. Softw. 8(18)), exact, for small ``N D^2``;
    - twice the one-sided Smirnov tail, by the Birnbaum & Tingey (1951)
      sum, in the upper tail: exact for ``D >= 1/2``, else within 4e-14
      (N <= 140) or 5e-8 (N > 140) of the exact tail;
    - the Pelz & Good (1976) expansion in the middle for N > 140, within
      0.07/N^2 (3.1e-6 at N = 141, 6.6e-10 at N = 10^4).
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


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resampled_pvalues(
    model: GgcModel, true_cdf: Callable, N: int, B: int, seed: int
) -> np.ndarray:
    """``B`` independent exact-KS p-values of size-``N`` model samples
    against a reference cdf.

    Replicate ``i`` draws from the ``i``-th stream split from ``seed``
    (``SeedSequence(seed, spawn_key=(i,))``, the ``i``-th child of
    ``SeedSequence(seed).spawn(B)``, built when the replicate runs) and
    writes only the ``i``-th p-value, so the output is reproducible and does
    not depend on the thread count. The replicates run on as many threads
    as the process has CPUs, at most ``B``, the calling thread among them;
    sampling releases the interpreter lock. ``true_cdf`` is therefore
    called from several threads at once and must be thread-safe. The
    first exception a replicate raises stops the others and is raised
    here.
    """
    if model.d != 1:
        raise ValueError("resampling validation is univariate")
    if B < 1:
        raise ValueError("B must be >= 1")
    pv = np.empty(B)
    errors = []
    workers = min(_cpu_count(), B)

    def replicates(first: int) -> None:
        try:
            for i in range(first, B, workers):
                if errors:
                    return
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
                xs = sample(model, N, rng).ravel()
                pv[i] = ks_exact(xs, true_cdf).p_value
        except BaseException as exc:  # raised again in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=replicates, args=(k,)) for k in range(1, workers)]
    for t in threads:
        t.start()
    replicates(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return pv


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


# Hart's (1968) algorithm 5666 as published by West (2005, Wilmott 2005(3))
_HART_NUM = (0.0352624965998911, 0.700383064443688, 6.37396220353165,
             33.912866078383, 112.079291497871, 221.213596169931, 220.206867912376)
_HART_DEN = (0.0883883476483184, 1.75566716318264, 16.064177579207, 86.7807322029461,
             296.564248779674, 637.333633378831, 793.826512519948, 440.413735824752)


def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    out = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        out *= x
        out += c
    return out


def _ndtr(z) -> np.ndarray:
    """Standard normal cdf by Hart's algorithm 5666.

    The lower tail ``Phi(-|z|)`` is ``exp(-z^2/2)`` times a rational of
    degree 6/7 in ``|z|`` for ``|z| < 7.07``, a four-term continued
    fraction up to 37, and 0 beyond. It is within 2.3e-16 absolute of
    mpmath's ``ncdf`` on [-40, 40], and absolute error is all the KS
    statistic sees; the relative error of the lower tail reaches about
    9e-9 (near ``z = -7.8``).
    """
    z = np.asarray(z, dtype=float)
    a = np.abs(z).reshape(-1)
    with np.errstate(invalid="ignore", over="ignore"):
        tail = np.exp(-0.5 * a * a)
        tail *= _horner(_HART_NUM, a)
        tail /= _horner(_HART_DEN, a)
        far = a >= 7.07106781186547
        if far.any():
            x = a[far]
            cf = x + 1.0 / (x + 2.0 / (x + 3.0 / (x + 4.0 / (x + 0.65))))
            tail[far] = np.exp(-0.5 * x * x) / (cf * 2.506628274631)
            tail[a > 37.0] = 0.0
    tail = tail.reshape(z.shape)
    return np.where(z > 0, 1.0 - tail, tail)


def _pareto_q(p, k, xm):
    return xm * (1.0 - p) ** (-1.0 / k)


def _lognormal_q(p, mu, sigma):
    from scipy.special import ndtri  # the only scipy import; of the commands only bench needs it

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
        return lambda x: _ndtr((np.log(np.maximum(x, 1e-300)) - mu) / sigma)
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
