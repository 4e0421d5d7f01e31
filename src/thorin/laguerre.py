"""Tensorized Laguerre basis of L2(R+^d).

The univariate basis functions are ``phi_k(x) = sqrt(2) e^{-x} L_k(2x)``
with ``L_k`` the Laguerre polynomials; the d-variate basis is their
tensor product.  This module evaluates the basis, maps ``-1``-shifted
moments to coefficients, and maps each way between points and
coefficients by one contraction of the per-axis basis matrices
``phi_univariate(m_j, x[:, j])``: over the sample axis for the empirical
coefficients, over the index axes for the truncated density.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from mpmath import mpf

from .numkit import (
    COEFF_DEFAULT,
    MultiIndex,
    PrecisionContext,
    box_shape,
)

__all__ = [
    "CoeffTensor",
    "phi",
    "empirical_coeffs",
    "coeffs_from_moments",
    "density_grid",
    "l2_norm_sq",
    "phi_univariate",
    "validate_samples",
]

_SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)
_X_PLAIN = 700.0


@dataclass
class CoeffTensor:
    """Dense tensor of Laguerre coefficients ``a_k`` for ``k <= m``.

    ``a`` has shape ``(m_1+1, ..., m_d+1)``; entries are native floats
    or extended-precision mpf values depending on how the tensor was
    produced.
    """

    m: MultiIndex
    a: np.ndarray

    def __post_init__(self):
        self.m = tuple(int(v) for v in self.m)
        self.a = np.asarray(self.a)
        if self.a.shape != box_shape(self.m):
            raise ValueError(
                f"coefficient array shape {self.a.shape} does not match box {self.m}"
            )
        if self.a.dtype != object and not np.all(np.isfinite(self.a)):
            raise ValueError("coefficient tensor contains non-finite entries")

    @property
    def d(self) -> int:
        return len(self.m)

    def __getitem__(self, k) -> float:
        return self.a[tuple(k)]

    def as_float(self) -> np.ndarray:
        """Coefficients as a float64 array (exact cast of mpf entries)."""
        if self.a.dtype == object:
            return np.array([float(v) for v in self.a.ravel()]).reshape(self.a.shape)
        return self.a.astype(float)

    def to_json(self) -> str:
        return json.dumps(
            {"d": self.d, "m": list(self.m), "a": self.as_float().ravel().tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "CoeffTensor":
        obj = json.loads(text)
        m = tuple(obj["m"])
        a = np.asarray(obj["a"], dtype=float).reshape(box_shape(m))
        return cls(m, a)


def validate_samples(samples) -> np.ndarray:
    """Coerce to an N x d array of finite non-negative observations."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("samples must be an N x d matrix with N >= 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples contain non-finite entries")
    if np.any(arr < 0):
        i, j = np.argwhere(arr < 0)[0]
        raise ValueError(f"negative sample entry at row {i}, column {j}")
    return arr


def phi_univariate(kmax: int, xs: np.ndarray) -> np.ndarray:
    """Matrix ``phi_k(x)`` for ``k = 0..kmax``, shape ``(kmax+1, len(xs))``.

    Uses the stable three-term recurrence for Laguerre polynomials in the
    variable ``2x``; the defining binomial sum cancels catastrophically
    for large ``k`` and is kept only as a test oracle.  Since
    ``|L_k(2x)| <= e^x`` (Szegő), neither ``L_k(2x)`` nor ``e^{-x}``
    leaves the normal range up to ``x = _X_PLAIN``; beyond it the columns
    go through :func:`_phi_far`.
    """
    xs = np.asarray(xs, dtype=float)
    out = np.empty((kmax + 1, xs.size))
    far = xs > _X_PLAIN
    if far.any():
        out[:, ~far] = phi_univariate(kmax, xs[~far])
        out[:, far] = _phi_far(kmax, xs[far])
        return out
    L0 = np.ones(xs.size)
    out[0] = L0
    if kmax >= 1:
        L1 = 1.0 - 2.0 * xs
        out[1] = L1
        for k in range(1, kmax):
            L2 = ((2.0 * k + 1.0 - 2.0 * xs) * L1 - k * L0) / (k + 1.0)
            out[k + 1] = L2
            L0, L1 = L1, L2
    return out * (_SQRT2 * np.exp(-xs))[None, :]


def _phi_far(kmax: int, xs: np.ndarray) -> np.ndarray:
    """``phi_k(x)`` for ``x > _X_PLAIN``, where ``L_k(2x)`` may overflow
    and ``e^{-x}`` underflows.  The recurrence carries ``L_k(2x) 2^{-E_k}``
    with the mantissa renormalized at every step, and ``2^{E_k} e^{-x}``
    is formed as one exponential, so the tiny values come out true (or as
    zero once they underflow) instead of ``inf * 0``."""
    scaled = np.empty((kmax + 1, xs.size))
    expo = np.zeros((kmax + 1, xs.size))
    L0, L1, e = np.ones(xs.size), 1.0 - 2.0 * xs, np.zeros(xs.size)
    scaled[0] = L0
    for k in range(1, kmax + 1):
        L1, shift = np.frexp(L1)
        L0 = np.ldexp(L0, -shift)
        e = e + shift
        scaled[k], expo[k] = L1, e
        L0, L1 = L1, ((2.0 * k + 1.0 - 2.0 * xs) * L1 - k * L0) / (k + 1.0)
    return _SQRT2 * scaled * np.exp(expo * _LN2 - xs[None, :])


def phi(k: Sequence[int], x) -> float:
    """Basis function ``phi_k(x) = prod_i phi_{k_i}(x_i)`` at one point.

    ``|phi_k(x)| <= sqrt(2)^d`` for every ``x >= 0``.
    """
    k = tuple(int(v) for v in k)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if len(k) != x.size:
        raise ValueError("index and point must have the same dimension")
    if np.any(x < 0):
        raise ValueError(f"phi domain is x >= 0 componentwise, got {x}")
    out = 1.0
    for ki, xi in zip(k, x):
        out *= phi_univariate(ki, np.array([xi]))[ki, 0]
    return out


def empirical_coeffs(samples, m: Sequence[int]) -> CoeffTensor:
    """Monte-Carlo coefficients ``a_k = mean_i phi_k(X_i)`` over the box.

    One ``einsum`` over the sample axis, in numpy's own summation loop
    (no BLAS), so the bits do not depend on the thread count.  Its
    rounding error, at most about ``N u`` times the mean of
    ``|phi_k(X_i)|``, lies far below the sampling error.
    """
    arr = validate_samples(samples)
    m = tuple(int(v) for v in m)
    d = len(m)
    if arr.shape[1] != d:
        raise ValueError(f"samples have dimension {arr.shape[1]}, box has {d}")
    ops = [x for j, mj in enumerate(m) for x in (phi_univariate(mj, arr[:, j]), [j, d])]
    return CoeffTensor(m, np.einsum(*ops, list(range(d))) / arr.shape[0])


def coeffs_from_moments(mu, m: Sequence[int] = None, ctx: PrecisionContext = None) -> CoeffTensor:
    """Coefficients from ``-1``-shifted moments over the full box:

    ``a_k = sqrt(2)^d sum_{l <= k} C(k,l) (-2)^{|l|} / l! mu_l``.

    ``mu`` is a dense array over the box (float or mpf entries); mpf
    input keeps extended precision in the output.  The weights factor
    over the axes, so the sum is applied one axis at a time.
    """
    mu = np.asarray(mu)
    if m is None:
        m = tuple(s - 1 for s in mu.shape)
    m = tuple(int(v) for v in m)
    if mu.shape != box_shape(m):
        raise ValueError(f"moment tensor shape {mu.shape} does not match box {m}")
    d = len(m)
    exact = mu.dtype == object
    num = mpf if exact else float
    with (ctx or COEFF_DEFAULT).workprec():
        a = mu if exact else mu.astype(float)
        for j, mj in enumerate(m):
            w = [num(-2) ** l / math.factorial(l) for l in range(mj + 1)]
            T = np.array(
                [[math.comb(k, l) * w[l] if l <= k else num(0) for l in range(mj + 1)]
                 for k in range(mj + 1)],
                dtype=object if exact else float,
            )
            a = np.moveaxis(np.tensordot(T, a, axes=([1], [j])), 0, j)
        return CoeffTensor(m, num(2) ** (num(d) / 2) * a)


def density_grid(coeffs: CoeffTensor, pts) -> np.ndarray:
    """Truncated reconstruction ``sum_{k <= m} a_k phi_k(x)`` on an
    ``N x d`` array of points (a 1-d array is N univariate points).

    The values are raw: truncation can make them negative, and a caller
    that plots clamps them with ``max(., 0)``.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    d = coeffs.d
    if pts.shape[1] != d:
        raise ValueError("point dimension does not match the coefficient tensor")
    if np.any(pts < 0):
        raise ValueError("density is supported on the non-negative orthant")
    # one axis at a time, two operands per einsum and no optimize: BLAS stays out
    out = np.einsum("k...,kn->...n", coeffs.as_float(), phi_univariate(coeffs.m[0], pts[:, 0]))
    for j in range(1, d):
        out = np.einsum("k...n,kn->...n", out, phi_univariate(coeffs.m[j], pts[:, j]))
    return out


def l2_norm_sq(coeffs: CoeffTensor) -> float:
    """Squared L2 norm of the truncated expansion, ``sum_k a_k^2``."""
    flat = coeffs.as_float().ravel()
    return float(flat @ flat)
