"""Tensorized Laguerre basis of L2(R+^d).

The univariate basis functions are ``phi_k(x) = sqrt(2) e^{-x} L_k(2x)``
with ``L_k`` the Laguerre polynomials; the d-variate basis is their
tensor product.  This module evaluates the basis and maps each way
between points and coefficients by two-operand ``einsum`` contractions
of the per-axis basis matrices, numpy's own loop and not BLAS: over
chunks of samples (:func:`empirical_coeffs`), over row blocks of a
tanh-sinh node grid (:func:`theoretical_coeffs`) and over the index
axes (:func:`density_grid`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numkit import MultiIndex, _from_oracle, box_shape

__all__ = [
    "CoeffTensor",
    "QuadratureError",
    "phi",
    "empirical_coeffs",
    "theoretical_coeffs",
    "density_grid",
    "l2_norm_sq",
    "phi_univariate",
    "validate_samples",
]

__getattr__ = _from_oracle(__name__, "coeffs_from_moments")

_SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)
_X_PLAIN = 700.0
# samples per chunk of empirical_coeffs: 1.4 MB of basis matrices on the
# (20, 20) box
_CHUNK = 4096
_SPLIT = ((0, 1), (1, 10), (10, math.inf))
# tanh-sinh step sums stop where the node is within 2^-64 of an end of
# its interval, as mpmath's rule does at 53 bits
_TS_TMAX = math.asinh(64 * math.log(2.0) / math.pi)
_TS_TORIGIN = math.asinh(690.0 / math.pi)  # exp(pi sinh t) down to ~1e-300
_COEFF_TOL = 1e-15
_COEFF_LEVELS = (10, 7)  # highest level for d = 1, 2
_GRID_ROWS = 256  # node grid rows per density call and axis-0 basis block, in every d


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


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance; the
    achieved tolerance (relative for moments, absolute for coefficients)
    is carried along."""

    def __init__(self, message: str, achieved_tol: float):
        super().__init__(message)
        self.achieved_tol = achieved_tol


def validate_samples(samples) -> np.ndarray:
    """Coerce to an N x d array of finite non-negative observations."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.size < 1:
        raise ValueError("samples must be an N x d matrix with N, d >= 1")
    # min or max is not finite exactly when an entry is not: no N x d temporary
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ValueError("samples contain non-finite entries")
    if arr.min() < 0:
        i, j = np.argwhere(arr < 0)[0]
        raise ValueError(f"negative sample entry at row {i}, column {j}")
    return arr


def phi_univariate(kmax: int, xs: np.ndarray) -> np.ndarray:
    """Matrix ``phi_k(x)`` for ``k = 0..kmax``, shape ``(kmax+1, len(xs))``.

    Uses the stable three-term recurrence for Laguerre polynomials in the
    variable ``2x``, row by row in place (:func:`_laguerre_row`), and
    scales the rows by ``sqrt(2) e^{-x}`` at the end; the defining
    binomial sum cancels catastrophically for large ``k`` and is kept only
    as a test oracle.  Since ``|L_k(2x)| <= e^x`` (Szegő), neither
    ``L_k(2x)`` nor ``e^{-x}`` leaves the normal range up to
    ``x = _X_PLAIN``; beyond it the columns come from :func:`_phi_far`.
    """
    xs = np.asarray(xs, dtype=float)
    out = np.empty((kmax + 1, xs.size))
    far = xs > _X_PLAIN
    if far.any():
        out[:, ~far] = phi_univariate(kmax, xs[~far])
        out[:, far] = _phi_far(kmax, xs[far])
        return out
    x2 = 2.0 * xs
    out[0] = 1.0
    for k in range(1, kmax + 1):
        _laguerre_row(out, k, x2)
    out *= _SQRT2 * np.exp(-xs)
    return out


def _laguerre_row(out: np.ndarray, k: int, x2: np.ndarray, prev: np.ndarray = None):
    """Row ``k >= 1`` of ``out`` from its rows ``k - 1`` and ``k - 2``, or
    ``prev`` in place of the latter: ``L_1 = 1 - 2x`` and
    ``k L_k = (2k - 1 - 2x) L_{k-1} - (k - 1) L_{k-2}``."""
    row = out[k]
    np.subtract(2.0 * k - 1.0, x2, out=row)
    if k > 1:
        row *= out[k - 1]
        row -= (k - 1) * (out[k - 2] if prev is None else prev)
        row /= k


def _phi_far(kmax: int, xs: np.ndarray) -> np.ndarray:
    """The matrix ``phi_k(x)`` for ``x > _X_PLAIN``, where ``L_k(2x)`` may
    overflow and ``e^{-x}`` underflows.  The recurrence carries
    ``L_k(2x) 2^{-E_k}`` with the mantissa renormalized at every step, and
    ``2^{E_k} e^{-x}`` is formed as one exponential, so the tiny values
    come out true (or as zero once they underflow) instead of ``inf * 0``.
    Row ``k - 1`` is scaled as soon as the recurrence has taken ``prev``
    from it, so the scratch besides the output is a few rows, with
    ``E_k`` carried as one vector."""
    x2 = 2.0 * xs
    out, expo = np.empty((kmax + 1, xs.size)), np.zeros(xs.size)
    out[0], prev = 1.0, None
    for k in range(1, kmax + 1):
        _laguerre_row(out, k, x2, prev)
        out[k], shift = np.frexp(out[k])
        prev = np.ldexp(out[k - 1], -shift)
        out[k - 1] *= _SQRT2
        out[k - 1] *= np.exp(expo * _LN2 - xs)
        expo += shift
    out[kmax] *= _SQRT2
    out[kmax] *= np.exp(expo * _LN2 - xs)
    return out


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

    The samples go through in chunks of ``_CHUNK`` rows.  The basis
    matrices ``phi_univariate(m_j, x_j)`` of a chunk are contracted over
    its sample axis by one ``einsum``, in numpy's own summation loop (no
    BLAS), so the bits do not depend on the thread count; the chunk sums
    add up in the tensor, divided by ``N`` at the end.  Besides the
    samples, the memory is one chunk's matrices, ``(m_j + 1) _CHUNK``
    doubles per axis, whatever ``N`` is.  The rounding error, at most
    about ``(_CHUNK + N / _CHUNK) u`` times the mean of ``|phi_k(X_i)|``,
    lies far below the sampling error.
    """
    arr = validate_samples(samples)
    m = tuple(int(v) for v in m)
    d = len(m)
    if arr.shape[1] != d:
        raise ValueError(f"samples have dimension {arr.shape[1]}, box has {d}")
    a = np.zeros(box_shape(m))
    for i in range(0, arr.shape[0], _CHUNK):
        x = arr[i : i + _CHUNK]
        a += np.einsum(*[v for j in range(d) for v in (phi_univariate(m[j], x[:, j]), [j, d])],
                       list(range(d)))
    return CoeffTensor(m, a / arr.shape[0])


def _tanh_sinh(splits: Sequence[float], level: int):
    """Nodes and weights of the tanh-sinh rule with step ``h = 2^-level``
    (Takahasi & Mori 1974) on ``[s_0, s_1], ..., [s_last, inf)``.

    With ``c2 = exp(pi sinh t)`` a finite node is ``a + (b-a) c2/(1+c2)``
    with weight ``h (b-a) pi cosh t c2/(1+c2)^2``, and the last interval
    uses mpmath's map ``x = a + 1/c2`` with weight ``h pi cosh t / c2``;
    written this way, no node near an end loses digits to ``1 - tanh``.
    Nodes near ``0`` keep their relative precision, so on ``[0, s_1]`` the
    sum runs on down to ``x ~ 1e-300``: a density singular at the origin
    (Weibull with ``k < 1``) loses no mass there.
    """
    h = 2.0 ** -level
    t = h * np.arange(-math.ceil(_TS_TORIGIN / h), math.ceil(_TS_TMAX / h) + 1)
    near = t >= -math.ceil(_TS_TMAX / h) * h
    c2 = np.exp(np.pi * np.sinh(t))
    hw = h * np.pi * np.cosh(t)
    xs, ws = [], []
    for i, (a, b) in enumerate(zip(splits[:-1], splits[1:])):
        keep = slice(None) if i == 0 else near
        xs.append(a + (b - a) * (c2[keep] / (1.0 + c2[keep])))
        ws.append((b - a) * hw[keep] * c2[keep] / (1.0 + c2[keep]) ** 2)
    return (np.concatenate(xs + [splits[-1] + 1.0 / c2[near]]),
            np.concatenate(ws + [hw[near] / c2[near]]))


def theoretical_coeffs(pdf: Callable, m: Sequence[int], jumps: Sequence[float] = ()) -> CoeffTensor:
    """Laguerre coefficients ``a_k = int f phi_k`` of a density over the
    box, by tanh-sinh quadrature in doubles.

    ``pdf`` is vectorized: one array per coordinate, broadcast against
    each other (``d <= 2``).  Every axis is split where
    :func:`thorin.oracle.theoretical_moments` splits it,
    ``[0,1], [1,10], [10,inf)``, and at each of ``jumps``, where the
    density may be discontinuous.  The tensor grid of the nodes goes
    through ``_GRID_ROWS`` rows at a time, one density call each, whose
    values meet the weighted basis one axis at a time: the block's own
    matrix on axis 0, the whole grid's on the others.  The integrand is
    bounded (``|phi_k| <= sqrt(2)^d``), so no cancellation costs digits: the
    level rises until two successive estimates agree to ``_COEFF_TOL``
    absolute, else :class:`QuadratureError` carries the last difference.
    """
    m = tuple(int(v) for v in m)
    d = len(m)
    if d > 2:
        raise ValueError("quadrature mode supports d <= 2")
    splits = sorted({float(a) for a, _ in _SPLIT} | {float(v) for v in jumps if v > 0})
    prev = None
    for level in range(1, _COEFF_LEVELS[d - 1] + 1):
        x, w = _tanh_sinh(splits, level)
        trailing = [phi_univariate(mj, x) * w for mj in m[1:]]
        a = np.zeros(box_shape(m))
        for r in (slice(i, i + _GRID_ROWS) for i in range(0, x.size, _GRID_ROWS)):
            out = pdf(*np.ix_(x[r], *[x] * (d - 1)))
            # each einsum sums the leading node axis and appends its index axis
            for basis in [phi_univariate(m[0], x[r]) * w[r]] + trailing:
                out = np.einsum("n...,kn->...k", out, basis)
            a += out
        if prev is not None:
            diff = np.abs(a - prev)
            if diff.max() <= _COEFF_TOL:
                return CoeffTensor(m, a)
        prev = a
    k = np.unravel_index(np.argmax(diff), diff.shape)
    raise QuadratureError(
        f"coefficient quadrature at k={tuple(map(int, k))} reached absolute tolerance "
        f"{diff.max():.3g} (requested {_COEFF_TOL:.0e})",
        float(diff.max()),
    )


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
    return float(np.einsum("i,i->", flat, flat))
