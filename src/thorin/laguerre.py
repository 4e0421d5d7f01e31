"""Tensorized Laguerre basis of L2(R+^d).

The univariate basis functions are ``phi_k(x) = sqrt(2) e^{-x} L_k(2x)``
with ``L_k`` the Laguerre polynomials; the d-variate basis is their
tensor product.  This module evaluates the basis and maps each way
between points and coefficients by one contraction of the per-axis basis
matrices ``phi_univariate(m_j, x[:, j])``: over the sample axis for the
empirical coefficients, whose first axis is streamed one row at a time,
over the index axes for the truncated density.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numkit import MultiIndex, _from_oracle, box_shape

__all__ = [
    "CoeffTensor",
    "phi",
    "empirical_coeffs",
    "density_grid",
    "l2_norm_sq",
    "phi_univariate",
    "validate_samples",
]

__getattr__ = _from_oracle(__name__, "coeffs_from_moments")

_SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)
_X_PLAIN = 700.0


@dataclass
class CoeffTensor:
    """Dense tensor of Laguerre coefficients ``a_k`` for ``k <= m``.

    ``a`` has shape ``(m_1+1, ..., m_d+1)`` and holds doubles; mpf
    entries are rounded once, when the tensor is built.
    """

    m: MultiIndex
    a: np.ndarray

    def __post_init__(self):
        self.m = tuple(int(v) for v in self.m)
        self.a = np.asarray(self.a, dtype=float)
        if self.a.shape != box_shape(self.m):
            raise ValueError(
                f"coefficient array shape {self.a.shape} does not match box {self.m}"
            )
        if not np.all(np.isfinite(self.a)):
            raise ValueError("coefficient tensor contains non-finite entries")

    @property
    def d(self) -> int:
        return len(self.m)

    def __getitem__(self, k) -> float:
        return self.a[tuple(k)]

    def as_float(self) -> np.ndarray:
        """The float64 coefficient array itself, not a copy."""
        return self.a

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
    """Matrix ``phi_k(x)`` for ``k = 0..kmax``, shape ``(kmax+1, len(xs))``,
    filled row by row from :func:`_phi_rows`."""
    xs = np.asarray(xs, dtype=float)
    out = np.empty((kmax + 1, xs.size))
    for k, row in enumerate(_phi_rows(kmax, xs)):
        out[k] = row
    return out


def _phi_rows(kmax: int, xs: np.ndarray):
    """The rows ``phi_0(xs), ..., phi_kmax(xs)``, one degree at a time.

    Uses the stable three-term recurrence for Laguerre polynomials in the
    variable ``2x``; the defining binomial sum cancels catastrophically
    for large ``k`` and is kept only as a test oracle.  Since
    ``|L_k(2x)| <= e^x`` (Szegő), neither ``L_k(2x)`` nor ``e^{-x}``
    leaves the normal range up to ``x = _X_PLAIN``; beyond it the columns
    go through :func:`_phi_far` and are spliced into each row.  A few
    ``len(xs)``-vectors are live at a time, and the yielded row is
    overwritten by the next one, so a caller uses it before asking for
    the next.
    """
    far = xs > _X_PLAIN
    if far.any():
        near, far = np.flatnonzero(~far), np.flatnonzero(far)
        row = np.empty(xs.size)
        for plain, tiny in zip(_phi_rows(kmax, xs[near]), _phi_far(kmax, xs[far])):
            row[near], row[far] = plain, tiny
            yield row
        return
    weight = _SQRT2 * np.exp(-xs)
    L0 = np.ones(xs.size)
    yield L0 * weight
    if kmax >= 1:
        x2 = 2.0 * xs
        L1 = 1.0 - x2
        yield L1 * weight
        for k in range(1, kmax):
            L0, L1 = L1, ((2.0 * k + 1.0 - x2) * L1 - k * L0) / (k + 1.0)
            yield L1 * weight


def _phi_far(kmax: int, xs: np.ndarray):
    """The rows ``phi_k(x)`` for ``x > _X_PLAIN``, where ``L_k(2x)`` may
    overflow and ``e^{-x}`` underflows.  The recurrence carries
    ``L_k(2x) 2^{-E_k}`` with the mantissa renormalized at every step, and
    ``2^{E_k} e^{-x}`` is formed as one exponential, so the tiny values
    come out true (or as zero once they underflow) instead of ``inf * 0``."""
    L0, L1, e = np.ones(xs.size), 1.0 - 2.0 * xs, np.zeros(xs.size)
    yield _SQRT2 * L0 * np.exp(e * _LN2 - xs)
    for k in range(1, kmax + 1):
        L1, shift = np.frexp(L1)
        L0 = np.ldexp(L0, -shift)
        e = e + shift
        yield _SQRT2 * L1 * np.exp(e * _LN2 - xs)
        L0, L1 = L1, ((2.0 * k + 1.0 - 2.0 * xs) * L1 - k * L0) / (k + 1.0)


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

    The basis of axis 0 is streamed: each row ``phi_b(x_0)`` from
    :func:`_phi_rows` is contracted with the basis matrices of the other
    axes by the same ``einsum`` restricted to that row, which gives the
    same bits.  Besides the samples, the memory is then the matrices of
    axes ``1..d-1``, ``(m_j + 1) N`` doubles each, and a few
    ``N``-vectors: one matrix at ``d = 2``.  Where a row would contract
    to a single sum (``d = 1``, or ``m_j = 0`` for every ``j >= 1``),
    axis 0 stays one matrix, since beyond 8192 samples numpy's buffered
    reduction of a single row sums in another order.
    """
    arr = validate_samples(samples)
    m = tuple(int(v) for v in m)
    d = len(m)
    if arr.shape[1] != d:
        raise ValueError(f"samples have dimension {arr.shape[1]}, box has {d}")
    ops = [x for j in range(1, d) for x in (phi_univariate(m[j], arr[:, j]), [j, d])]
    if not any(m[1:]):
        a = np.einsum(phi_univariate(m[0], arr[:, 0]), [0, d], *ops, list(range(d)))
        return CoeffTensor(m, a / arr.shape[0])
    a = np.empty(box_shape(m))
    for b, row in enumerate(_phi_rows(m[0], arr[:, 0])):
        a[b] = np.einsum(row, [d], *ops, list(range(1, d)))
    a /= arr.shape[0]
    return CoeffTensor(m, a)


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
