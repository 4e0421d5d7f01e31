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
residual is at most 1e-9.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
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

_RAY_TOL = 1e-9
_RANK_TOL = 1e-13
_ON_TOL = 1e-9


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
        return {
            "is_wb": self.is_wb,
            "best_eps": self.best_eps if math.isfinite(self.best_eps) else "inf",
            "total_mass": self.total_mass,
            "witness": self.witness,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


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
    ``_RANK_TOL`` of the largest."""
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
    if _rank_below(rows[None], rows.shape[1])[0]:
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


def _majority_eps(alpha: np.ndarray, scales: np.ndarray) -> Tuple[float, Optional[str]]:
    """Supremum margin over the majority subsets of atoms in d >= 2.

    A rank-deficient majority subset exists iff the atoms do not span
    R^d, or the atoms in the span of some d-1 independent atoms carry
    more than half the mass.  A consistent full-rank majority subset
    with solution ``t`` exists iff the hyperplane ``<s, t> = 1`` through
    some d independent atoms holds more than half the mass.  Both
    searches visit the O(n^d) atom tuples and test all atoms against
    each one in a single vectorized step, by the rank and membership
    rules of :func:`_subset_geometry`.
    """
    n, d = scales.shape
    total = alpha.sum()
    if _rank_below(scales[None], d)[0]:
        return 0.0, f"rank-deficient majority subset {tuple(range(n))}"
    for basis in itertools.combinations(range(n), d - 1):
        rows = scales[list(basis)]
        if _rank_below(rows[None], d - 1)[0]:
            continue
        stack = np.concatenate([np.broadcast_to(rows, (n, d - 1, d)), scales[:, None]], axis=1)
        inside = _rank_below(stack, d)
        if 2.0 * alpha[inside].sum() > total:
            return 0.0, f"rank-deficient majority subset {tuple(np.flatnonzero(inside).tolist())}"
    best, witness = math.inf, None
    for basis in itertools.combinations(range(n), d):
        t = _subset_geometry(scales[list(basis)])[1]
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
    spanned by atoms, so any atom count is decided.
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


def _ray_classes(scales: np.ndarray) -> np.ndarray:
    """Label rows by the ray they span (unit 1-norm representative,
    relative tolerance 1e-9: floating optimizers never produce exactly
    collinear rows)."""
    rays = scales / scales.sum(axis=1, keepdims=True)
    labels = -np.ones(scales.shape[0], dtype=int)
    reps = []
    for i, r in enumerate(rays):
        for j, rep in enumerate(reps):
            if np.abs(r - rep).max() <= _RAY_TOL * (1.0 + np.abs(rep).max()):
                labels[i] = j
                break
        else:
            labels[i] = len(reps)
            reps.append(r)
    return labels


def classify_dependence(model: GgcModel) -> DependenceReport:
    """Structure read off the support of the Thorin measure.

    Independent: every atom loads exactly one margin.  Comonotonic: all
    atoms share one ray.  ``ray_count`` below the dimension flags a
    singular distribution.
    """
    labels = _ray_classes(model.scales)
    D = int(labels.max()) + 1
    singular = D < model.d
    if np.all((model.scales > 0).sum(axis=1) == 1):
        kind = "independent"
    elif D == 1:
        kind = "comonotonic"
    else:
        kind = "general"
    return DependenceReport(kind, D, singular)


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
    degsum = np.zeros(a.shape, dtype=int)
    for axis, size in enumerate(a.shape):
        shape = [1] * a.ndim
        shape[axis] = size
        degsum = degsum + np.arange(size).reshape(shape)
    levels = int(degsum.max())
    g = np.zeros(levels + 1)
    norm = a * (1.0 + eps_prime) ** degsum
    for lvl in range(levels + 1):
        sel = norm[degsum == lvl]
        if sel.size:
            g[lvl] = sel.max()
    B_fit = float(g.max())
    base = g[: min(3, g.size)].max()
    tail = g[3:].max() if g.size > 3 else 0.0
    ok = bool(tail <= 10.0 * base) if base > 0 else bool(tail == 0.0)
    return B_fit, ok
