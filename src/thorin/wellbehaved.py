"""Diagnostics on the Thorin measure.

A model with total shape mass above one is well-behaved when no
majority subset of its atoms (a subset carrying strictly more than half
of the mass) is rank-deficient, and the unique solutions of the
corresponding linear systems keep the Moebius-transformed singularities
outside the unit polydisc.  The margin by which they stay outside is the
best epsilon reported here; it controls how fast Laguerre coefficients
can decay.  In d >= 2 the subsets are not enumerated: the search visits
the O(n^d) subspaces and affine hyperplanes spanned by atoms, so there is
no cap on the atom count.  It runs in doubles under two rules: rows
have rank below r when their r-th singular value is at most 1e-13 of
the largest, and an atom lies on ``<s, t> = 1`` when its relative
residual is at most 1e-9.  The atom tuples are screened a chunk at a
time, with stacked linear algebra in bounded scratch, and only the
tuples that may carry a majority are decided one by one.  The rays and
the singularity of the dependence structure follow the same rank rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

import numpy as np

from .ggc import GgcModel
from .laguerre import CoeffTensor

__all__ = [
    "WbReport",
    "DependenceReport",
    "HalfPlaneImage",
    "mobius_h",
    "disc_image",
    "is_eps_wb",
    "best_eps",
    "classify_dependence",
    "decay_check",
]

_RANK_TOL = 1e-13
_DET_MARGIN = 2.0  # rounding margin of _rank_below's determinant screen
_ON_TOL = 1e-9
_MASS_TIE = 1e-9  # relative slack of a chunk's mass screen in _majority_eps
_SEARCH_BYTES = 2**20  # rank-rule stacks of one chunk of atom tuples in _majority_eps


@dataclass
class WbReport:
    """Outcome of the well-behavedness analysis.

    ``best_eps`` is the supremum of admissible margins (0 when the model
    is not well-behaved, possibly ``inf``); ``witness`` describes the
    violating atom subset or ray set, if any.
    """

    is_wb: bool
    best_eps: float
    total_mass: float
    witness: Optional[str] = None

    def to_dict(self) -> dict:
        out = asdict(self)
        if not math.isfinite(self.best_eps):
            out["best_eps"] = "inf"
        return out


@dataclass
class DependenceReport:
    kind: str  # independent | comonotonic | general
    ray_count: int
    singular: bool


class HalfPlaneImage(ValueError):
    """Signals the degenerate disc image: the unit disc maps to a half-plane."""


def mobius_h(t) -> complex:
    """The involution ``h(t) = (t + 1) / (t - 1)``; pole at ``t = 1``."""
    t = complex(t)
    if t == 1:
        raise ValueError("mobius_h has a pole at t = 1")
    return (t + 1) / (t - 1)


def _h_modulus(t: complex) -> float:
    if t == 1:
        return math.inf
    return abs(mobius_h(t))


def disc_image(b: float) -> Tuple[float, float]:
    """Center and radius of the image (or complement image) of the disc
    ``D(0, b)`` under ``h``: ``c(b) = (b^2+1)/(b^2-1)``,
    ``r(b) = |2b/(b^2-1)|``.

    For ``b < 1`` the image disc lies in the left half-plane; for
    ``b > 1`` the disc is the complement image and lies in the right
    half-plane.  ``b = 1`` maps to a half-plane and is signalled by
    :class:`HalfPlaneImage`.
    """
    b = float(b)
    if b <= 0:
        raise ValueError("radius must be positive")
    if b == 1.0:
        raise HalfPlaneImage("the unit disc maps onto the left half-plane")
    den = b * b - 1.0
    return (b * b + 1.0) / den, abs(2.0 * b / den)


# ---------------------------------------------------------------------------
# majority-subset machinery


def _relative_residual(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-equation residuals of ``rows @ t = 1``, each measured against
    its own cancellation scale ``1 + sum_j |r_ij t_j|``."""
    return np.abs(rows @ t - 1.0) / (1.0 + np.abs(rows) @ np.abs(t))


def _on_hyperplane(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Membership rule: which rows lie on ``<s, t> = 1``."""
    return _relative_residual(rows, t) <= _ON_TOL


def _rank_below(stack: np.ndarray, r: int) -> np.ndarray:
    """Rank rule: whether each matrix of ``stack`` (shape ``(c, k, d)``)
    has rank below ``r``, i.e. its r-th singular value is at most
    ``_RANK_TOL`` of the largest.

    A square stack with ``r = d`` is screened by its determinant first,
    and only the matrices the screen cannot clear go to the SVD.  The
    screen clears ``A`` when ``|det A| > _DET_MARGIN _RANK_TOL ||A||_F^d``.
    It never clears a matrix the SVD would call rank-deficient: let the
    computed determinant be that of ``A + E`` (LU with partial pivoting)
    and the computed singular values those of ``A + F`` (the SVD), with
    ``||E||_2, ||F||_2 <= eta sigma_1``.  If the SVD finds
    ``s_d <= _RANK_TOL s_1``, then by Weyl's inequality
    ``sigma_d(A + E) <= (_RANK_TOL (1 + eta) + 2 eta) sigma_1``, and so
    ``|det(A + E)| <= sigma_1(A + E)^{d-1} sigma_d(A + E)
    <= (1 + eta)^{d-1} (_RANK_TOL (1 + eta) + 2 eta) ||A||_F^d``,
    as ``sigma_1 <= ||A||_F``.  This lies below the threshold while
    ``eta <= _RANK_TOL / 4``, about 200 unit roundoffs, which leaves a
    wide margin over the backward errors of LAPACK's LU and SVD on the
    small matrices of the searches (a modest multiple of ``d u``, times
    the growth factor ``2^{d-1}`` at most) and over the rounding of the
    test itself.  The test compares logarithms (``slogdet``), so neither
    side underflows or overflows; a zero or non-finite side clears
    nothing.
    """
    if stack.shape[1] == stack.shape[2] == r:
        sign, logdet = np.linalg.slogdet(stack)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_fro = 0.5 * np.log(np.einsum("cij,cij->c", stack, stack))
            cleared = (sign != 0) & (logdet > math.log(_DET_MARGIN * _RANK_TOL) + r * log_fro)
        below = np.zeros(stack.shape[0], dtype=bool)
        if not cleared.all():
            below[~cleared] = _svd_rank_below(stack[~cleared], r)
        return below
    return _svd_rank_below(stack, r)


def _svd_rank_below(stack: np.ndarray, r: int) -> np.ndarray:
    """The rank rule of :func:`_rank_below` by the singular values, with
    the same verdicts; single matrices come here directly, as the screen
    costs more than it saves when there is nothing to batch."""
    sv = np.linalg.svd(stack, compute_uv=False)
    if sv.shape[-1] < r:
        return np.ones(stack.shape[0], dtype=bool)
    return sv[:, r - 1] <= _RANK_TOL * sv[:, 0]


def _subset_geometry(rows: np.ndarray):
    """(rank_ok, t_star or None) for one atom subset.

    ``rank_ok`` is False when the subset's rows fail the rank rule of
    :func:`_rank_below`; ``t_star`` is the least-squares solution of
    ``rows @ t = 1`` when every row passes the membership rule of
    :func:`_on_hyperplane`, else None.
    """
    if _svd_rank_below(rows[None], rows.shape[1])[0]:
        return False, None
    t, *_ = np.linalg.lstsq(rows, np.ones(rows.shape[0]), rcond=None)
    return True, (t if _on_hyperplane(rows, t).all() else None)


def _subset_eps(t_star: np.ndarray) -> float:
    """Margin implied by one singular point: ``max_j |h(t_j)| - 1``."""
    return max(_h_modulus(complex(tj)) for tj in t_star) - 1.0


def _interval_eps_1d(scales: np.ndarray) -> float:
    """Univariate margin: every scale must satisfy
    ``eps/(2+eps) < s < (2+eps)/eps``, i.e. ``eps < |h(s)| - 1``."""
    return min(_h_modulus(complex(s)) for s in scales.ravel()) - 1.0


def _combination_chunks(n: int, k: int, first: int, size: int):
    """``itertools.combinations(range(n), k)`` in order, as ``(c, k)``
    index arrays: ``first`` tuples, then twice as many each time, up to
    ``size``."""
    combos = itertools.combinations(range(n), k)
    c = first
    while True:
        flat = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, c)),
                           dtype=np.intp)
        if not flat.size:
            return
        yield flat.reshape(-1, k)
        c = min(2 * c, size)


def _in_span(scales: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """``inside[c, i]``: whether atom i lies in the span of the rows
    ``scales[bases[c]]`` (each of rank k), i.e. whether the stack
    ``[basis; atom]`` has rank below k + 1 by :func:`_rank_below`."""
    (c, k), (n, d) = bases.shape, scales.shape
    stack = np.empty((c, n, k + 1, d))
    stack[:, :, :k] = scales[bases][:, None]
    stack[:, :, k] = scales
    return _rank_below(stack.reshape(-1, k + 1, d), k + 1).reshape(c, n)


def _majority_eps(alpha: np.ndarray, scales: np.ndarray) -> Tuple[float, Optional[str]]:
    """Supremum margin over the majority subsets of atoms in d >= 2.

    A rank-deficient majority subset exists iff the atoms do not span
    R^d, or the atoms in the span of some d-1 independent atoms carry
    more than half the mass.  A consistent full-rank majority subset
    with solution ``t`` exists iff the hyperplane ``<s, t> = 1`` through
    some d independent atoms holds more than half the mass.

    Both searches walk the atom tuples in combination order, in chunks
    whose scratch (tuples x atoms x d^2 doubles) fits ``_SEARCH_BYTES``;
    the subspace search, the only one that returns early, starts 64
    times smaller and doubles its chunk.  A chunk takes one stacked SVD
    for the rank rule, and the hyperplane search adds one stacked solve
    of the d x d systems and one ``einsum`` for the residual of every
    (tuple, atom) pair.  The chunk only screens: a tuple whose masked
    mass may reach half the total (within ``_MASS_TIE``; for a hyperplane,
    counting the atoms within twice the membership tolerance) is decided
    again on its own, in order, by :func:`_subset_geometry` and
    :func:`_on_hyperplane`.  So the margin, its witness and the
    first-wins ties do not depend on the chunks.
    """
    n, d = scales.shape
    total = alpha.sum()
    if _svd_rank_below(scales[None], d)[0]:
        return 0.0, f"rank-deficient majority subset {tuple(range(n))}"
    size = max(1, _SEARCH_BYTES // (8 * n * d * d))
    for bases in _combination_chunks(n, d - 1, max(1, size // 64), size):
        inside = _in_span(scales, bases[~_rank_below(scales[bases], d - 1)])
        mass = np.where(inside, alpha, 0.0).sum(axis=1)
        for on in inside[2.0 * mass >= (1.0 - _MASS_TIE) * total]:
            if 2.0 * alpha[on].sum() > total:
                return 0.0, f"rank-deficient majority subset {tuple(np.flatnonzero(on).tolist())}"
    best, witness = math.inf, None
    both = np.stack([scales, np.abs(scales)])
    for bases in _combination_chunks(n, d, size, size):
        bases = bases[~_rank_below(scales[bases], d)]
        ts = np.linalg.solve(scales[bases], np.ones((len(bases), d, 1)))[..., 0]
        dot, scale = np.einsum("knj,kcj->kcn", both, np.stack([ts, np.abs(ts)]))
        # twice the tolerance: the solve's t may differ in its last bits
        # from the least-squares t that decides membership
        near = np.abs(dot - 1.0) <= 2.0 * _ON_TOL * (1.0 + scale)
        mass = np.where(near, alpha, 0.0).sum(axis=1)
        for basis in bases[2.0 * mass >= (1.0 - _MASS_TIE) * total]:
            t = _subset_geometry(scales[basis])[1]
            if t is None:
                continue
            on = _on_hyperplane(scales, t)
            if 2.0 * alpha[on].sum() > total:
                # solve over every atom on the hyperplane, so that all the
                # d-tuples spanning it give the same singular point
                refit = _subset_geometry(scales[on])[1]
                t = t if refit is None else refit
                eps = _subset_eps(t)
                if eps < best:
                    best, witness = eps, f"subset {tuple(np.flatnonzero(on).tolist())}"
    return best, witness


def best_eps(model: GgcModel) -> WbReport:
    """Supremum of margins for which the model passes the subset test.

    Zero means not well-behaved; ``inf`` means no majority subset
    produces a bounded singular point.  In d >= 2 the majority subsets
    are searched through the O(n^d) candidate subspaces and hyperplanes
    spanned by atoms, screened in chunks of atom tuples whose scratch
    ``_SEARCH_BYTES`` bounds, so any atom count is decided in bounded
    memory.
    """
    total = model.total_mass
    if total <= 1.0:
        return WbReport(False, 0.0, total, witness="total shape mass <= 1")
    if model.d == 1:
        eps = _interval_eps_1d(model.scales)
        return WbReport(eps > 0, eps, total)
    eps, witness = _majority_eps(model.alpha, model.scales)
    return WbReport(eps > 0, eps, total, witness=witness if eps == 0.0 else None)


def is_eps_wb(model: GgcModel, eps: float) -> WbReport:
    """Whether the model passes the subset test at the given margin.

    ``is_wb`` holds iff ``eps`` lies strictly below the supremum margin,
    which is positive only when the total mass exceeds one.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    rep = best_eps(model)
    verdict = eps < rep.best_eps
    witness = rep.witness
    if not verdict and witness is None:
        witness = f"margin {eps} >= best {rep.best_eps}"
    return WbReport(verdict, rep.best_eps, rep.total_mass, witness)


# ---------------------------------------------------------------------------
# dependence structure


def classify_dependence(model: GgcModel) -> DependenceReport:
    """Structure read off the support of the Thorin measure, by the rank
    rule of :func:`_rank_below`.

    Rays: atom i joins the first earlier representative j whose stack
    ``[s_j; s_i]`` has rank below 2, or else starts a ray; the pairs are
    decided in chunks whose scratch fits ``_SEARCH_BYTES``.  Independent:
    every atom loads exactly one margin.  Comonotonic: all atoms share
    one ray.  Singular: the atoms do not span R^d, the first test of
    :func:`best_eps`'s search.
    """
    scales = model.scales
    n, d = scales.shape
    free, rays = np.ones(n, dtype=bool), 0
    size = max(1, _SEARCH_BYTES // (16 * n * d))
    for bases in _combination_chunks(n, 1, size, size):
        bases = bases[free[bases[:, 0]]]
        for j, inside in zip(bases[:, 0], _in_span(scales, bases)):
            if free[j]:  # a new ray; inside[j] holds j itself
                rays += 1
                free &= ~inside
    singular = bool(_svd_rank_below(scales[None], d)[0])
    if np.all((scales > 0).sum(axis=1) == 1):
        kind = "independent"
    elif rays == 1:
        kind = "comonotonic"
    else:
        kind = "general"
    return DependenceReport(kind, rays, singular)


# ---------------------------------------------------------------------------
# coefficient decay


def decay_check(coeffs: CoeffTensor, eps_prime: float) -> Tuple[float, bool]:
    """Empirical fit of the decay envelope ``|a_k| <= B (1+eps')^{-|k|}``.

    ``B_fit`` is the largest normalized magnitude
    ``|a_k| (1+eps')^{|k|}``.  The check passes when that maximum is
    attained at small ``|k|``: past total degree 2, the per-degree maxima
    may not rise more than a factor 10 above the early ones.
    """
    if not eps_prime > 0:
        raise ValueError("eps_prime must be positive")
    a = np.abs(coeffs.as_float())
    degsum = np.indices(a.shape).sum(axis=0)
    g = np.zeros(int(degsum.max()) + 1)
    np.maximum.at(g, degsum, a * (1.0 + eps_prime) ** degsum)
    B_fit = float(g.max())
    base = g[: min(3, g.size)].max()
    tail = g[3:].max() if g.size > 3 else 0.0
    ok = bool(tail <= 10.0 * base) if base > 0 else bool(tail == 0.0)
    return B_fit, ok
