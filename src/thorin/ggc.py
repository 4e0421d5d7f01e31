"""Convolutions of multivariate gamma distributions.

A model is parametrized by ``n`` shapes ``alpha`` and an ``n x d``
non-negative scale matrix ``s``; row ``s_i`` is the atom of the Thorin
measure ``nu = sum_i alpha_i delta_{s_i}`` and the cumulant generating
function is ``K(t) = -sum_i alpha_i ln(1 - <s_i, t>)``.  Equivalently
``X = s' Z`` for independent unit-scale gamma variables ``Z_i``.

The module provides the cgf, the ``-1``-shifted cumulant and moment
tensors, the Laguerre coefficients (a batched double kernel from the
generating function of the basis, which every command uses, and the
extended-precision reference chain through the shifted moments, which
tests and benchmarks check it against), exact
closed forms for the single-atom case (including its inversion), gamma
series baselines and sampling.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import mpmath
import numpy as np
from mpmath import mpf

from .laguerre import CoeffTensor, coeffs_from_moments
from .numkit import (
    COEFF_DEFAULT,
    MultiIndex,
    PrecisionContext,
    binom_prod,
    box_shape,
    iterate_box,
)

__all__ = [
    "GgcModel",
    "ShiftedTensors",
    "ModelCoeffs",
    "cgf",
    "simplex_scales",
    "shifted_cumulants",
    "cumulants_to_moments",
    "model_coeffs",
    "batch_coeffs",
    "float_coeffs",
    "gd1_coeffs",
    "gd1_invert",
    "sample",
    "moschopoulos_density",
    "marginal",
    "linear_combination",
    "concatenate",
]

_KERNEL_BYTES = 16 * 2**20  # series-division scratch of one particle block in batch_coeffs


@dataclass
class GgcModel:
    """Shapes ``alpha`` (n positive reals) and scale matrix ``scales``
    (n x d, non-negative, every row carrying at least one positive
    entry)."""

    alpha: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        self.alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        self.scales = np.asarray(self.scales, dtype=float)
        if self.scales.ndim == 1:
            self.scales = self.scales[:, None]
        if self.alpha.ndim != 1 or self.scales.ndim != 2:
            raise ValueError("alpha must be a vector and scales a matrix")
        if self.alpha.shape[0] != self.scales.shape[0]:
            raise ValueError("alpha and scales must have the same number of atoms")
        if self.n < 1 or self.d < 1:
            raise ValueError("model needs n >= 1 atoms in dimension d >= 1")
        if not np.all(np.isfinite(self.alpha)) or np.any(self.alpha <= 0):
            raise ValueError("shapes must be finite and strictly positive")
        if not np.all(np.isfinite(self.scales)) or np.any(self.scales < 0):
            raise ValueError("scales must be finite and non-negative")
        if np.any(self.scales.sum(axis=1) <= 0):
            raise ValueError("every scale row needs at least one positive entry")

    @property
    def n(self) -> int:
        return self.alpha.shape[0]

    @property
    def d(self) -> int:
        return self.scales.shape[1]

    @property
    def total_mass(self) -> float:
        return float(self.alpha.sum())

    def mean(self) -> np.ndarray:
        return self.alpha @ self.scales

    def to_json(self) -> str:
        return json.dumps(
            {"alpha": self.alpha.tolist(), "scales": self.scales.tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "GgcModel":
        obj = json.loads(text)
        return cls(np.asarray(obj["alpha"]), np.asarray(obj["scales"]))


@dataclass
class ShiftedTensors:
    """Tensors of ``-1``-shifted cumulants and moments over a box,
    with ``mu_0 = exp(kappa_0)`` exactly at working precision."""

    m: MultiIndex
    kappa: np.ndarray
    mu: np.ndarray


@dataclass
class ModelCoeffs:
    """Result of the coefficient recursion: the Laguerre tensor, the
    shifted cumulant/moment side products and the precision used."""

    coeffs: CoeffTensor
    shifted: ShiftedTensors
    bits_used: int


def cgf(model: GgcModel, t) -> complex:
    """Cumulant generating function ``K(t) = -sum_i alpha_i ln(1 - <s_i, t>)``.

    ``t`` may be real or complex; each ``1 - <s_i, t>`` must stay off the
    branch cut of the logarithm.
    """
    t = np.atleast_1d(np.asarray(t, dtype=complex))
    if t.size != model.d:
        raise ValueError(f"t must have dimension {model.d}")
    z = 1.0 - model.scales @ t
    on_axis = np.abs(z.imag) == 0.0
    if np.any(on_axis & (z.real <= 0.0)):
        raise ValueError("cgf undefined: some <s_i, t> >= 1 on the real axis")
    val = -(model.alpha @ np.log(z))
    return float(val.real) if np.all(np.abs(t.imag) == 0.0) else complex(val)


def simplex_scales(model: GgcModel) -> np.ndarray:
    """Rows mapped into the open unit simplex, ``x_i = s_i / (1 + |s_i|)``."""
    row_sum = model.scales.sum(axis=1, keepdims=True)
    return model.scales / (1.0 + row_sum)


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
    finite and accurate; the final precision is reported.  This is the
    reference that :func:`batch_coeffs` is tested against.
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
                return ModelCoeffs(coeffs, ShiftedTensors(m, kappa, mu), bits)
        bits *= 2


def batch_coeffs(alpha: np.ndarray, simplex: np.ndarray, m: Sequence[int]) -> np.ndarray:
    """Laguerre coefficients of ``P`` models at once, in doubles.

    ``alpha`` is ``P x n``; ``simplex`` is ``P x n x (d+1)``, each atom's
    simplex scales ``x_ij = s_ij / (1 + |s_i|)`` followed by its residual
    ``rho_i = 1 / (1 + |s_i|)``.  Returns ``P x B`` rows in the C-order
    raveling of the box.

    The generating function of the basis (Szego, Orthogonal Polynomials,
    5.1) gives ``sum_k a_k z^k = exp(C(z))`` with

    ``C = (d/2) ln 2 + sum_i alpha_i ln rho_i + sum_j -ln(1 - z_j)
    - sum_i alpha_i ln(1 + u_i)``,  ``u_i = 2 sum_j x_ij z_j / (1 - z_j)``.

    Each ``ln(1 + u_i)`` comes from one sparse series division free of
    cancellation: at ``k`` with first non-zero coordinate ``j`` its
    coefficient is ``M_k / k_j``, where
    ``(1 - z_j) R_i M = 2 x_ij z_j prod_{l != j} (1 - z_l)`` and
    ``R_i = prod_l (1 - z_l) (1 + u_i)`` is multilinear with ``R_i(0) = 1``.
    One power-series exponential (Knuth, TAOCP vol. 2, 4.7) finishes; its
    products over the trailing axes are FFT products at the smallest
    length ``2^a 3^b 5^c >= 2 m_j + 1`` per axis, which keeps the
    wrap-around out of the box and pocketfft off its prime-length path.

    The particles go through in blocks whose series-division scratch,
    ``8 n prod_j (m_j + 2)`` bytes per particle, fits ``_KERNEL_BYTES``
    (216 particles at ``n = 20`` and box ``(20, 20)``), so one call's
    scratch is bounded whatever ``P`` is.  Every row is computed on its
    own, so the blocks change no bit of the result.
    """
    alpha = np.asarray(alpha, dtype=float)
    simplex = np.asarray(simplex, dtype=float)
    P, n, d = simplex.shape[0], simplex.shape[1], simplex.shape[2] - 1
    m = tuple(int(v) for v in m)
    if len(m) != d:
        raise ValueError(f"box has dimension {len(m)}, simplex rows {d}")
    rows = max(1, _KERNEL_BYTES // (8 * n * math.prod(v + 2 for v in m)))
    if P > rows:
        return np.concatenate([batch_coeffs(alpha[i : i + rows], simplex[i : i + rows], m)
                               for i in range(0, P, rows)])
    x, rho = simplex[:, :, :d], simplex[:, :, d]
    shape = box_shape(m)
    # R_S = (-1)^{|S|} (1 - 2 sum_{l in S} x_il) on the multilinear monomials
    R = {
        S: (-1.0) ** sum(S) * (1.0 - 2.0 * sum(x[:, :, l] for l in range(d) if S[l]))
        for S in itertools.product((0, 1), repeat=d)
    }
    C = np.zeros((P,) + shape)
    for j in (j for j in range(d) if m[j]):
        # M over the entries with z_{<j} = 0 and k_j >= 1, padded by one
        # zero slot in front of every axis so the recurrence reads zeros
        # outside the box
        sub = shape[j:]
        M = np.zeros(tuple(v + 1 for v in sub) + (P, n))
        Mf = M.reshape(-1, P, n)
        strides = [math.prod(v + 1 for v in sub[i + 1 :]) for i in range(len(sub))]
        stencil = []  # (flat offset, coefficient) of (1 - z_j) R_i
        for t in itertools.product((0, 1, 2), *[(0, 1)] * (d - j - 1)):
            S = (0,) * j + tuple(min(v, 1) for v in t)
            if t[0] == 0:
                c = R[S]
            elif t[0] == 1:
                c = R[S] - R[S[:j] + (0,) + S[j + 1 :]]
            else:
                c = -R[S]
            if any(t):
                stencil.append((sum(a * b for a, b in zip(t, strides)), c))
        for tail in itertools.product(*(range(min(v, 2)) for v in sub[1:])):
            M[(2,) + tuple(v + 1 for v in tail)] = (-1.0) ** sum(tail) * 2.0 * x[:, :, j]
        inner = (slice(2, None),) + (slice(1, None),) * (len(sub) - 1)
        for q in np.arange(len(Mf)).reshape(M.shape[:-2])[inner].ravel().tolist():
            acc = Mf[q]
            for off, c in stencil:
                acc -= c * Mf[q - off]
        kj = np.arange(1, sub[0]).reshape((-1,) + (1,) * (len(sub) - 1))
        C[(slice(None),) + (0,) * j + (slice(1, None),)] -= (
            np.einsum("...pn,pn->p...", M[inner], alpha) / kj
        )
        del M, Mf
        C[(slice(None),) + (0,) * j + (slice(1, None),) + (0,) * (d - j - 1)] += (
            1.0 / np.arange(1, shape[j])
        )
    C[(slice(None),) + (0,) * d] = 0.5 * d * math.log(2.0) + (alpha * np.log(rho)).sum(axis=1)
    return _series_exp(C).reshape(P, -1)


def _series_exp(C: np.ndarray) -> np.ndarray:
    """``exp`` of ``P`` truncated power series (``P x box`` array) by
    ``k_0 E_k = sum_{l <= k, l_0 >= 1} l_0 C_l E_{k-l}``, with the
    ``k_0 = 0`` slice done recursively.  The products of slices over the
    trailing axes are truncated FFT products."""
    E = np.empty_like(C)
    E[:, 0] = _series_exp(C[:, 0]) if C.ndim > 2 else np.exp(C[:, 0])
    n0, rest = C.shape[1], C.shape[2:]
    lc = C * np.arange(n0).reshape((1, n0) + (1,) * len(rest))
    if not rest:
        for k in range(1, n0):
            E[:, k] = np.einsum("pl,pl->p", lc[:, 1 : k + 1], E[:, k - 1 :: -1]) / k
        return E
    # any length >= 2r - 1 per axis keeps the wrap-around out of the box
    fft_shape = tuple(_fft_len(2 * r - 1) for r in rest)
    axes = tuple(range(1, len(rest) + 1))
    box = (slice(None),) + tuple(slice(r) for r in rest)
    Ch = np.fft.rfftn(lc, fft_shape, tuple(a + 1 for a in axes))
    Eh = np.empty_like(Ch)
    Eh[:, 0] = np.fft.rfftn(E[:, 0], fft_shape, axes)
    for k in range(1, n0):
        acc = np.einsum("pl...,pl...->p...", Ch[:, 1 : k + 1], Eh[:, k - 1 :: -1])
        E[:, k] = np.fft.irfftn(acc, fft_shape, axes)[box] / k
        if k + 1 < n0:
            Eh[:, k] = np.fft.rfftn(E[:, k], fft_shape, axes)
    return E


def _fft_len(n: int) -> int:
    """Smallest ``2^a 3^b 5^c >= n``."""
    k = n
    while True:
        r = k
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return k
        k += 1


def float_coeffs(model: GgcModel, m: Sequence[int]) -> CoeffTensor:
    """Coefficients of one model from :func:`batch_coeffs`."""
    m = tuple(int(v) for v in m)
    row_sum = model.scales.sum(axis=1, keepdims=True)
    simplex = np.hstack([model.scales, np.ones_like(row_sum)]) / (1.0 + row_sum)
    a = batch_coeffs(model.alpha[None, :], simplex[None], m)[0]
    return CoeffTensor(m, a.reshape(box_shape(m)))


def gd1_coeffs(alpha: float, s: Sequence[float], m: Sequence[int]) -> CoeffTensor:
    """Closed-form coefficients of the single-atom model:

    ``a_k = sqrt(2)^d sum_{l <= k} C(k,l) (-2s)^l / l!
    Gamma(alpha + |l|) / Gamma(alpha) (1 + |s|)^{-alpha - |l|}``.
    """
    if alpha <= 0:
        raise ValueError("shape must be positive")
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s < 0) or s.sum() == 0:
        raise ValueError("scale vector must be non-negative and non-zero")
    m = tuple(int(v) for v in m)
    d = len(m)
    if s.size != d:
        raise ValueError("scale vector dimension must match the box")
    S = float(s.sum())
    lg_alpha = math.lgamma(alpha)
    out = np.zeros(box_shape(m))
    for k in iterate_box(m):
        acc = 0.0
        for l in iterate_box(k):
            L = sum(l)
            t = binom_prod(k, l) * math.exp(
                math.lgamma(alpha + L) - lg_alpha - (alpha + L) * math.log1p(S)
            )
            for li, si in zip(l, s):
                t *= (-2.0 * si) ** li / math.factorial(li)
            acc += t
        out[k] = 2.0 ** (d / 2.0) * acc
    return CoeffTensor(m, out)


def gd1_invert(a0: float, a1: Sequence[float]) -> Tuple[float, np.ndarray]:
    """Recover ``(alpha, s)`` of a single-atom model from its first
    ``d + 1`` coefficients ``a_0`` and ``a_{e_1}, ..., a_{e_d}``.

    With ``c1 = a_0 sqrt(2)^{-d}`` and
    ``c2 = d/2 - sum_i a_{e_i} / (2 a_0)``, the shape solves
    ``alpha = 1/c2 - W0((ln c1 / c2) e^{ln c1 / c2}) / ln c1``; the ratios
    ``(a_0 - a_{e_i}) / (2 alpha a_0)`` are the simplex scales, inverted
    back to raw scales.  The shape is found without the Lambert W: in
    ``v = c2 / alpha`` it solves ``ln(1 - v)/v = ln c1 / c2``, whose left
    side falls from -1 to -inf on (0, 1), so a safeguarded
    Newton-bisection from ``v = 1/2`` finds the one root.
    """
    a1 = np.atleast_1d(np.asarray(a1, dtype=float))
    d = a1.size
    if not a0 > 0:
        raise ValueError("inversion failure: a_0 must be positive")
    c1 = a0 * 2.0 ** (-d / 2.0)
    c2 = d / 2.0 - a1.sum() / (2.0 * a0)
    R = math.log(c1) / c2 if 0.0 < c1 < 1.0 and c2 > 0 else 0.0
    # ln(1 - v)/v = R has a root in (0, 1) only for R < -1
    if not R < -1.0:
        raise ValueError("inversion failure: coefficients outside the model image")
    v, lo, hi = 0.5, 1e-300, 1.0 - 1e-16
    for _ in range(200):
        f = math.log1p(-v) / v - R
        if f > 0:
            lo = v
        else:
            hi = v
        df = (-v / (1.0 - v) - math.log1p(-v)) / (v * v)
        vn = v - f / df
        v = vn if lo < vn < hi else 0.5 * (lo + hi)
        if hi - lo < 4e-16 * v:
            break
    alpha = c2 / v
    x = (a0 - a1) / (2.0 * alpha * a0)
    if np.any(x < -1e-12) or x.sum() >= 1.0:
        raise ValueError("inversion failure: simplex scales outside the unit simplex")
    x = np.maximum(x, 0.0)
    s = x / (1.0 - x.sum())
    return float(alpha), s


def sample(model: GgcModel, N: int, seed: int | np.random.Generator) -> np.ndarray:
    """``N`` i.i.d. draws of ``X = s' Z`` with ``Z_i ~ Gamma(alpha_i, 1)``
    independent.  Returns an N x d matrix.

    ``seed`` is an int seed, which makes the draws deterministic, or a
    ``np.random.Generator``, which is drawn from and so advances.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    rng = np.random.default_rng(seed)
    Z = rng.gamma(model.alpha, 1.0, size=(int(N), model.n))
    return Z @ model.scales


def moschopoulos_density(
    alpha: Sequence[float], s: Sequence[float], x, terms: int = 200
) -> np.ndarray:
    """Classical univariate gamma-series density, anchored on the
    smallest scale ``s_1``:

    ``f(x) = sum_k delta_k gammapdf(x; |alpha| + k, s_1)``,

    with the series normalizer ``prod_i (s_1/s_i)^{alpha_i}`` folded into
    the recursive weights ``delta_k``.  Deliberately evaluated in native
    doubles: when ``s_1`` is tiny the partial sums underflow to zero,
    which is the documented instability this series is kept to exhibit.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if alpha.shape != s.shape or alpha.ndim != 1:
        raise ValueError("alpha and s must be equal-length vectors")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0):
        raise ValueError("density is supported on x >= 0")
    s1 = s.min()
    rho = alpha.sum()
    C = np.prod((s1 / s) ** alpha)
    gam = np.array(
        [alpha @ (1.0 - s1 / s) ** k / k for k in range(1, terms + 1)]
    )
    delta = np.zeros(terms)
    delta[0] = 1.0
    for k in range(1, terms):
        delta[k] = np.dot(np.arange(1, k + 1) * gam[:k], delta[k - 1 :: -1]) / k
    out = np.zeros_like(x)
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        for k in range(terms):
            shape = rho + k
            logpdf = (
                (shape - 1.0) * np.log(x, where=x > 0, out=np.full_like(x, -np.inf))
                - x / s1
                - math.lgamma(shape)
                - shape * math.log(s1)
            )
            out += delta[k] * np.exp(logpdf)
    out = C * out
    return out if out.size > 1 else float(out[0])


def marginal(model: GgcModel, j: int) -> GgcModel:
    """The ``j``-th marginal (1-based), a univariate model on column
    ``j`` of the scales with zero-scale atoms dropped."""
    if not 1 <= j <= model.d:
        raise IndexError(f"marginal index must be in 1..{model.d}, got {j}")
    col = model.scales[:, j - 1]
    keep = col > 0
    return GgcModel(model.alpha[keep], col[keep, None])


def linear_combination(model: GgcModel, c: Sequence[float]) -> GgcModel:
    """Distribution of ``<c, X>`` for ``c >= 0``, ``c != 0``: a univariate
    model with scales ``s c`` (zero atoms dropped)."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.size != model.d:
        raise ValueError("weight vector dimension mismatch")
    if np.any(c < 0) or c.sum() == 0:
        raise ValueError("weights must be non-negative and not all zero")
    proj = model.scales @ c
    keep = proj > 0
    return GgcModel(model.alpha[keep], proj[keep, None])


def concatenate(a: GgcModel, b: GgcModel) -> GgcModel:
    """Model of the independent sum: atoms of both operands side by side."""
    if a.d != b.d:
        raise ValueError("operands must share the dimension")
    return GgcModel(
        np.concatenate([a.alpha, b.alpha]), np.vstack([a.scales, b.scales])
    )
