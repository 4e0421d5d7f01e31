"""Convolutions of multivariate gamma distributions.

A model is parametrized by ``n`` shapes ``alpha`` and an ``n x d``
non-negative scale matrix ``s``; row ``s_i`` is the atom of the Thorin
measure ``nu = sum_i alpha_i delta_{s_i}`` and the cumulant generating
function is ``K(t) = -sum_i alpha_i ln(1 - <s_i, t>)``.  Equivalently
``X = s' Z`` for independent unit-scale gamma variables ``Z_i``.

The module provides the cgf, the Laguerre coefficients (a batched
double kernel from the generating function of the basis, which every
command uses; the extended-precision reference chain through the shifted
moments, which tests and benchmarks check it against, is
:func:`thorin.oracle.model_coeffs`), exact closed forms for the
single-atom case (including its inversion), gamma series baselines and
sampling.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

import numpy as np
import numpy.random  # noqa: F401  numpy 2 loads it on first use; most commands draw from it

from .laguerre import CoeffTensor
from .numkit import _from_oracle, binom_prod, box_shape, box_size, iterate_box

__all__ = [
    "GgcModel",
    "cgf",
    "simplex_scales",
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

__getattr__ = _from_oracle(__name__, "model_coeffs")

# bound on the whole scratch of one particle block in batch_coeffs (the
# division's slabs, C and the exponential's arrays), by _plan's count:
# 340 particles at n = 20 on the (20, 20) box
_KERNEL_BYTES = 8 * 2**20


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

    def to_json(self) -> str:
        return json.dumps(
            {"alpha": self.alpha.tolist(), "scales": self.scales.tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "GgcModel":
        obj = json.loads(text)
        return cls(np.asarray(obj["alpha"]), np.asarray(obj["scales"]))


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

    Each ``ln(1 + u_i)`` comes from one sparse series division: at ``k``
    with first non-zero coordinate ``j`` its coefficient is ``M_k / k_j``,
    where ``M = N / (1 - z_j)``, ``R_i N = 2 x_ij z_j prod_{l != j} (1 - z_l)``
    and ``R_i = prod_l (1 - z_l) (1 + u_i)`` is multilinear with
    ``R_i(0) = 1``; the right-hand side carries the factor ``x_ij``, so
    tiny scales keep their relative accuracy.  The division's stencil is
    the monomials of ``R_i``, so it reaches one slab back along axis ``j``
    and keeps a ring of two slabs; the finished slabs are contracted with
    ``alpha`` into ``C`` as the ring fills, two in one ``einsum``, and
    ``M``, the running sum of ``N`` along axis ``j``, is formed once after
    the contraction.  Its index bookkeeping is the cached :func:`_plan` of
    the box, so a call on a small box does array work only.  One power-series exponential (Knuth, TAOCP vol. 2, 4.7)
    finishes; its products over the trailing axes are FFT products at the
    smallest length ``2^a 3^b 5^c >= 2 m_j + 1`` per axis, which keeps the
    wrap-around out of the box and pocketfft off its prime-length path.

    The particles go through in blocks whose whole scratch (the slabs,
    ``C`` and the arrays of the exponential) fits ``_KERNEL_BYTES``, by
    :func:`_block_rows`, and each block writes its rows into the one
    output array.  So one call's memory is its output plus a bounded
    scratch, whatever ``P`` is; every row is computed on its own, so the
    blocks change no bit of the result.
    """
    alpha = np.asarray(alpha, dtype=float)
    simplex = np.asarray(simplex, dtype=float)
    P, n, d = simplex.shape[0], simplex.shape[1], simplex.shape[2] - 1
    m = tuple(int(v) for v in m)
    if len(m) != d:
        raise ValueError(f"box has dimension {len(m)}, simplex rows {d}")
    # before the plan, whose index lists grow with the box: a box too large
    # to hold fails here at once
    out = np.empty((P, box_size(m)))
    shape, axes = _plan(m)[:2]
    rows = _block_rows(n, m)
    for i in range(0, P, rows):
        C = _log_series(alpha[i : i + rows], simplex[i : i + rows], shape, axes)
        _series_exp(C, out[i : i + rows].reshape(C.shape))
    return out


def _block_rows(n: int, m: Tuple[int, ...]) -> int:
    """Particles per block of :func:`batch_coeffs` with ``n`` atoms on
    the box ``m``: as many as fit ``_KERNEL_BYTES`` at the block's bytes
    per particle, counted in :func:`_plan`, and at least one."""
    per_atom, division, exponential = _plan(m)[2:]
    return max(1, _KERNEL_BYTES // (8 * max(division + n * per_atom, exponential)))


class _AxisPlan(NamedTuple):
    """Index plan of the series division along axis ``j``: each slab
    covers the padded trailing axes ``rest``, ``slab`` entries, and the
    ring holds two slabs, slab ``k_j`` in slot ``(k_j + 1) % 2``."""

    j: int
    rest: Tuple[int, ...]
    slab: int
    terms: tuple  # S per stencil term, the monomial of R it multiplies
    offsets: tuple  # per slot, how far back in the ring each term reads
    entries: tuple  # per slot, the ring positions of the slab's box entries
    init: tuple  # (ring position, factor of 2 x_j) of the k_j = 1 right-hand side
    contract: dict  # k_j -> (slots' box entries, C's entries) of a slab group
    c_own: tuple  # C's entries whose first non-zero coordinate is j
    kj: np.ndarray  # k_j on those entries
    c_axis: tuple  # C's entries on axis j past the origin


@functools.lru_cache(maxsize=None)
def _plan(m: Tuple[int, ...]):
    """``(shape, axes, per_atom, division, exponential)`` for
    :func:`batch_coeffs` on the box ``m``: its shape, the
    :class:`_AxisPlan` of every axis with ``m_j > 0``, and a bound on a
    block's scratch per particle in doubles, the larger of its two
    phases.  The division holds ``C`` (``division`` doubles) and
    ``per_atom`` doubles per atom: the ring of two slabs, then ``R``
    and three temporaries, ``2^d + 3``.  The exponential holds
    ``exponential`` doubles: ``C``, its weighted copy, the two spectra
    over the trailing axes at their transform lengths
    ``_fft_len(2 m_l + 1)``, and at each ``k_0`` the transients of one
    slice, at most four times the slice of a spectrum and of the box."""
    d = len(m)
    shape = box_shape(m)
    axes = []
    for j in (j for j in range(d) if m[j]):
        rest = tuple(v + 1 for v in shape[j + 1 :])
        slab = math.prod(rest)
        strides = [math.prod(rest[i + 1 :]) for i in range(len(rest))]
        terms = [t for t in itertools.product((0, 1), repeat=d - j) if any(t)]
        reach = [sum(a * b for a, b in zip(t[1:], strides)) for t in terms]
        inner = (slice(1, None),) * len(rest)
        # a slab group is contracted when the ring holds slabs k_j - 1, k_j
        # in slot order, and at the last slab
        ends = [k for k in range(1, m[j] + 1) if k % 2 == 0 or k == m[j]]
        box = np.arange(slab).reshape(rest)[inner].ravel().tolist()
        axes.append(_AxisPlan(
            j=j,
            rest=rest,
            slab=slab,
            terms=tuple((0,) * j + t for t in terms),
            offsets=tuple(tuple((s - (s - t[0]) % 2) * slab + off for t, off in zip(terms, reach))
                          for s in range(2)),
            entries=tuple(tuple(s * slab + q for q in box) for s in range(2)),
            init=tuple((sum((v + 1) * b for v, b in zip(tail, strides)),
                        (-1.0) ** sum(tail) * 2.0)
                       for tail in itertools.product(*(range(min(v, 2)) for v in shape[j + 1 :]))),
            contract={
                k: ((slice((lo + 1) % 2, (k + 1) % 2 + 1),) + inner,
                    (slice(None),) + (0,) * j + (slice(lo, k + 1),))
                for lo, k in zip([1] + [k + 1 for k in ends[:-1]], ends)
            },
            c_own=(slice(None),) + (0,) * j + (slice(1, None),),
            kj=np.arange(1, shape[j], dtype=float).reshape((-1,) + (1,) * len(rest)),
            c_axis=(slice(None),) + (0,) * j + (slice(1, None),) + (0,) * (d - j - 1),
        ))
    B = math.prod(shape)
    per_atom = max((2 * ax.slab for ax in axes), default=0) + 2 ** d + 3
    lengths = [_fft_len(2 * r - 1) for r in shape[1:]] or [1]
    spectrum = 2 * shape[0] * math.prod(lengths[:-1]) * (lengths[-1] // 2 + 1)
    return shape, tuple(axes), per_atom, B, 2 * B + 2 * spectrum + 4 * (spectrum + B) // shape[0]


def _log_series(alpha: np.ndarray, simplex: np.ndarray, shape: Tuple[int, ...],
                axes: Tuple[_AxisPlan, ...]) -> np.ndarray:
    """The series ``C(z)`` of :func:`batch_coeffs` for one block of
    particles, a ``P x box`` array; the box has ``shape``, and ``axes`` is
    its plan."""
    P, n, d = simplex.shape[0], simplex.shape[1], simplex.shape[2] - 1
    x, rho = simplex[:, :, :d], simplex[:, :, d]
    # R_S = (-1)^{|S|} (1 - 2 sum_{l in S} x_il) on the multilinear monomials
    R = {
        S: (-1.0) ** sum(S) * (1.0 - 2.0 * sum(x[:, :, l] for l in range(d) if S[l]))
        for S in itertools.product((0, 1), repeat=d)
    }
    C = np.zeros((P,) + shape)
    for ax in axes:
        _divide(ax, R, x[:, :, ax.j], alpha, C)
    C[(slice(None),) + (0,) * d] = 0.5 * d * math.log(2.0) + (alpha * np.log(rho)).sum(axis=1)
    return C


def _divide(ax: _AxisPlan, R: dict, xj: np.ndarray, alpha: np.ndarray, C: np.ndarray):
    """The series division along axis ``ax.j``: writes each ``-M_k / k_j``,
    contracted with ``alpha``, into ``C`` and adds ``1 / k_j`` on the axis."""
    # slabs k_j - 1, k_j of N over the entries with z_{<j} = 0, padded by
    # one zero slot in front of every trailing axis so the recurrence reads
    # zeros outside the box; slab k_j = 0 is zero
    ring = np.zeros((2 * ax.slab,) + xj.shape)
    slots = ring.reshape((2,) + ax.rest + xj.shape)
    stencils = [list(zip(offsets, [R[S] for S in ax.terms])) for offsets in ax.offsets]
    for q, f in ax.init:
        ring[q] = f * xj
    for k in range(1, len(ax.kj) + 1):
        s = (k + 1) % 2
        (off0, c0), *stencil = stencils[s]
        for q in ax.entries[s]:
            # past k_j = 1 the entry starts from zero, whatever slab k_j - 2
            # left in its slot
            acc = ring[q]
            np.subtract(acc if k == 1 else 0.0, c0 * ring[q - off0], out=acc)
            for off, c in stencil:
                acc -= c * ring[q - off]
        if k in ax.contract:
            done, c_group = ax.contract[k]
            C[c_group] = np.einsum("...pn,pn->p...", slots[done], alpha)
    # M = N / (1 - z_j) is the running sum of N along axis j
    own = C[ax.c_own]
    np.cumsum(own, axis=1, out=own)
    np.divide(own, -ax.kj, out=own)
    C[ax.c_axis] += 1.0 / ax.kj.ravel()


def _series_exp(C: np.ndarray, E: np.ndarray = None) -> np.ndarray:
    """``exp`` of ``P`` truncated power series (``P x box`` array) by
    ``k_0 E_k = sum_{l <= k, l_0 >= 1} l_0 C_l E_{k-l}``, with the
    ``k_0 = 0`` slice done recursively.  The products of slices over the
    trailing axes are truncated FFT products.  The result goes into
    ``E`` when given."""
    E = np.empty_like(C) if E is None else E
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
    Z = rng.standard_gamma(model.alpha, size=(int(N), model.n))
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
    return linear_combination(model, np.eye(model.d)[j - 1])


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
