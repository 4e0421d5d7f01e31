"""Extended-precision oracles the double paths are tested against: the
reference chain behind :func:`model_coeffs` and the shifted moments of
:func:`theoretical_moments`, at the precision of a
:class:`PrecisionContext` (256 bits by default).

The only module that imports mpmath; ``import thorin`` and every command
load neither.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import mpmath
import numpy as np
from mpmath import mpf

from .estimator import _COEFF_LEVELS, _SPLIT, QuadratureError
from .ggc import GgcModel
from .laguerre import CoeffTensor
from .numkit import binom_prod, box_shape, iterate_box
from .validate import bench_params

__all__ = [
    "PrecisionContext",
    "COEFF_DEFAULT",
    "ModelCoeffs",
    "shifted_cumulants",
    "cumulants_to_moments",
    "model_coeffs",
    "coeffs_from_moments",
    "theoretical_moments",
    "bench_density_mp",
]


@dataclass(frozen=True)
class PrecisionContext:
    """Significand precision (in bits) of the working real type.

    Arithmetic performed under a context is reproducible given
    ``(bits, round-to-nearest)``; ``bits=53`` reproduces IEEE doubles
    bit for bit on the basic operations.
    """

    bits: int = 53

    def __post_init__(self):
        if self.bits < 53:
            raise ValueError(f"precision must be at least 53 bits, got {self.bits}")

    def workprec(self):
        """mpmath context manager setting this precision."""
        return mpmath.workprec(self.bits)


COEFF_DEFAULT = PrecisionContext(256)


@dataclass
class ModelCoeffs:
    """Result of the reference chain: the Laguerre tensor, rounded to
    doubles, and the precision it was computed at."""

    coeffs: CoeffTensor
    bits_used: int


def shifted_cumulants(
    model: GgcModel, m: Sequence[int], ctx: PrecisionContext = COEFF_DEFAULT
) -> np.ndarray:
    """Tensor of ``-1``-shifted cumulants over the box ``k <= m``.

    ``kappa_0 = sum_i alpha_i ln(1 - |x_i|)`` and, for ``k != 0``,
    ``kappa_k = (|k| - 1)! sum_i alpha_i x_i^k`` with ``x`` the simplex
    scales.  ``kappa_0`` is evaluated from the raw scales as
    ``-sum_i alpha_i log1p(|s_i|)`` to avoid cancellation for tiny rows.
    The box must have one axis per model dimension.
    """
    m = tuple(int(v) for v in m)
    if len(m) != model.d:
        raise ValueError(f"box has dimension {len(m)}, model {model.d}")
    with ctx.workprec():
        out = np.empty(box_shape(m), dtype=object)
        srows = [[mpf(v) for v in row] for row in model.scales]
        row_sums = [sum(r) for r in srows]
        x = [[v / (1 + rs) for v in r] for r, rs in zip(srows, row_sums)]
        al = [mpf(v) for v in model.alpha]
        k0 = -sum(a * mpmath.log1p(rs) for a, rs in zip(al, row_sums))
        for k in iterate_box(m):
            if sum(k) == 0:
                out[k] = k0
                continue
            acc = mpf(0)
            for a, xi in zip(al, x):
                term = a
                for j, kj in enumerate(k):
                    if kj:
                        term *= xi[j] ** kj
                acc += term
            out[k] = mpf(math.factorial(sum(k) - 1)) * acc
    return out


def cumulants_to_moments(
    kappa: np.ndarray, m: Sequence[int] = None, ctx: PrecisionContext = COEFF_DEFAULT
) -> np.ndarray:
    """Shifted moments from shifted cumulants by the exp-derivative
    recursion: ``mu_0 = exp(kappa_0)`` and

    ``mu_k = sum_{l <= p} mu_l kappa_{k-l} C(p, l)``,

    where ``p`` is ``k`` lowered by one in its first non-zero coordinate.
    The result equals the Taylor coefficients of ``exp o K``.
    """
    kappa = np.asarray(kappa)
    if m is None:
        m = tuple(s - 1 for s in kappa.shape)
    m = tuple(int(v) for v in m)
    if kappa.shape != box_shape(m):
        raise ValueError("cumulant tensor does not cover the box")
    obj = kappa.dtype == object
    with ctx.workprec():
        mu = np.empty(kappa.shape, dtype=object if obj else float)
        for k in iterate_box(m):
            if not any(k):
                mu[k] = mpmath.exp(kappa[k]) if obj else math.exp(kappa[k])
                continue
            j = next(i for i, v in enumerate(k) if v)
            p = k[:j] + (k[j] - 1,) + k[j + 1 :]
            # the binomial weights stay exact integers: they pass 2^53 at p = 57
            mu[k] = sum(
                binom_prod(p, l) * mu[l] * kappa[tuple(a - b for a, b in zip(k, l))]
                for l in itertools.product(*(range(v + 1) for v in p))
            )
    return mu


def model_coeffs(
    model: GgcModel, m: Sequence[int], ctx: PrecisionContext = COEFF_DEFAULT
) -> ModelCoeffs:
    """Laguerre coefficients of the model over the box ``k <= m``, in
    extended precision: the chain :func:`shifted_cumulants`,
    :func:`cumulants_to_moments` and ``coeffs_from_moments``,

    ``a_k = sqrt(2)^d sum_{l <= k} C(k,l) (-2)^{|l|} / l!  mu_l``.

    The chain restarts with doubled precision whenever a shifted cumulant
    or moment exceeds ``2^(bits/2)``, so the returned values are always
    finite and accurate; they are rounded to doubles at the end, and the
    final precision is reported.  This is the reference that
    :func:`thorin.ggc.batch_coeffs` is tested against.
    """
    m = tuple(int(v) for v in m)
    bits = ctx.bits
    while True:
        ctx = PrecisionContext(bits)
        limit = mpf(2) ** (bits // 2)
        kappa = shifted_cumulants(model, m, ctx)
        if all(abs(v) <= limit for v in kappa.flat):
            mu = cumulants_to_moments(kappa, m, ctx)
            if all(abs(v) <= limit for v in mu.flat):
                coeffs = coeffs_from_moments(mu, m, ctx)
                return ModelCoeffs(coeffs, bits)
        bits *= 2


def coeffs_from_moments(mu, m: Sequence[int] = None,
                        ctx: PrecisionContext = COEFF_DEFAULT) -> CoeffTensor:
    """Coefficients from ``-1``-shifted moments over the full box:

    ``a_k = sqrt(2)^d sum_{l <= k} C(k,l) (-2)^{|l|} / l! mu_l``.

    ``mu`` is a dense array over the box; its entries (mpf, or floats,
    which the first product promotes) are summed at the precision of
    ``ctx``, and the returned tensor holds doubles.  The weights factor
    over the axes, so the sum is applied one axis at a time.
    """
    a = np.asarray(mu, dtype=object)
    if m is None:
        m = tuple(s - 1 for s in a.shape)
    m = tuple(int(v) for v in m)
    if a.shape != box_shape(m):
        raise ValueError(f"moment tensor shape {a.shape} does not match box {m}")
    d = len(m)
    with ctx.workprec():
        for j, mj in enumerate(m):
            w = [mpf(-2) ** l / math.factorial(l) for l in range(mj + 1)]
            T = np.array(
                [[math.comb(k, l) * w[l] if l <= k else mpf(0) for l in range(mj + 1)]
                 for k in range(mj + 1)],
                dtype=object,
            )
            a = np.moveaxis(np.tensordot(T, a, axes=([1], [j])), 0, j)
        return CoeffTensor(m, mpf(2) ** (mpf(d) / 2) * a)


def theoretical_moments(
    density: Callable, m: Sequence[int], ctx: PrecisionContext = COEFF_DEFAULT
) -> np.ndarray:
    """Shifted moments ``mu_k = int x^k e^{-|x|} f(x) dx`` over the box,
    by one tanh-sinh quadrature of the whole box at the context precision.

    ``density`` maps ``d <= 2`` scalar arguments (mpf) to its value and is
    evaluated once per node of ``[0,1], [1,10], [10,inf]`` (per tensor-grid
    node when ``d = 2``); ``w e^{-|x|} f(x)`` feeds every moment.  The
    relative tolerance target is ``10^(-bits/8)``; failure raises
    :class:`QuadratureError` carrying the worst achieved tolerance.
    Through ``coeffs_from_moments`` this is the extended-precision oracle
    for :func:`thorin.estimator.theoretical_coeffs`.
    """
    m = tuple(int(v) for v in m)
    d = len(m)
    if d > 2:
        raise ValueError("quadrature mode supports d <= 2")
    tol = mpf(10) ** (-(ctx.bits // 8))
    rule = mpmath.calculus.quadrature.TanhSinh(mpmath.mp)
    total, seen, estimates = np.zeros(box_shape(m), dtype=object), [], []
    with ctx.workprec():
        for level in range(1, _COEFF_LEVELS[d - 1] + 1):
            fresh = [(x, w * mpmath.exp(-x)) for a, b in _SPLIT
                     for x, w in rule.get_nodes(a, b, level, ctx.bits)]
            for j in range(d):  # grid points new at this level, by first new axis
                for point in itertools.product(*[seen] * j, fresh, *[seen + fresh] * (d - 1 - j)):
                    g = density(*(x for x, _ in point))
                    for (x, wx), mi in zip(point, m):
                        g = np.multiply.outer(g, np.multiply.accumulate([wx] + [x] * mi))
                    total += g
            seen += fresh
            estimates = (estimates + [total * mpf(2) ** (-level * d)])[-3:]
            if level > 1:
                err, k = max(
                    (rule.estimate_error([e[k] for e in estimates], ctx.bits, tol)
                     / (abs(estimates[-1][k]) or 1), k) for k in np.ndindex(total.shape))
                if err <= tol:
                    return estimates[-1]
    raise QuadratureError(
        f"moment quadrature at k={k} reached relative tolerance "
        f"{mpmath.nstr(err, 5)} (requested {mpmath.nstr(tol, 5)})",
        float(err),
    )


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
    """Arbitrary-precision density of a benchmark, the integrand of
    :func:`theoretical_moments` (it must follow the working precision)."""
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
