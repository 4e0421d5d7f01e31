"""Truncated L2 loss between Laguerre coefficient tensors and its global
minimization by particle swarm.

Two modes: estimation from samples (empirical coefficients) and
projection from a formal density, whose coefficients ``<f, phi_k>`` come
from one tanh-sinh quadrature in doubles (:func:`theoretical_coeffs`);
the extended-precision shifted moments of :func:`theoretical_moments`
remain only as its test oracle.  The search runs in an unconstrained
parameterization: log-space for the shapes and simplex-logit space for
each scale row (the logs of the row's simplex coordinates and of the
residual), so every particle decodes to a valid model without clamping.
Model coefficients, for the swarm and for the reported loss alike, come
from one double kernel, :func:`thorin.ggc.batch_coeffs`.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import mpmath
import numpy as np
from mpmath import mpf

from .ggc import GgcModel, batch_coeffs, float_coeffs
from .laguerre import (
    CoeffTensor,
    coeffs_from_moments,  # noqa: F401  looked up here by benchmarks/worker.py's span tracing
    empirical_coeffs,
    phi_univariate,
    validate_samples,
)
from .numkit import COEFF_DEFAULT, PrecisionContext, box_shape
from .wellbehaved import WbReport, best_eps

__all__ = [
    "FitConfig",
    "FitReport",
    "QuadratureError",
    "default_box",
    "loss_Lm",
    "fit_empirical",
    "project_density",
    "theoretical_coeffs",
    "theoretical_moments",
]

# constriction-style swarm constants
_INERTIA = 0.72
_COGNITIVE = 1.49
_SOCIAL = 1.49
_STALL_ITERS = 200
_STALL_RTOL = 1e-12
_LOGSHAPE_RANGE = (math.log(1e-2), math.log(1e2))
_SMAG_RANGE = (math.log(1e-3), math.log(1e3))
_LOGIT_RANGE = (-18.0, 0.0)
_ZERO_SCALE_TOL = 1e-10
_SHAPE_FLOOR = 1e-12
_SPLIT = ((0, 1), (1, 10), (10, mpmath.inf))
# tanh-sinh step sums stop where the node is within 2^-64 of an end of
# its interval, as mpmath's rule does at 53 bits
_TS_TMAX = math.asinh(64 * math.log(2.0) / math.pi)
_TS_TORIGIN = math.asinh(690.0 / math.pi)  # exp(pi sinh t) down to ~1e-300
_COEFF_TOL = 1e-15
_COEFF_LEVELS = (10, 7)  # highest level for d = 1, 2
_GRID_ROWS = 256  # rows of the d = 2 node grid per density call, to bound memory


def default_box(n: int, d: int) -> Tuple[int, ...]:
    """Default truncation: 2n+1 univariate basis functions (max degree
    2n), or max degree n per axis in higher dimension."""
    return (2 * n,) if d == 1 else (n,) * d


@dataclass
class FitConfig:
    """Search configuration.

    ``m`` defaults per :func:`default_box`; ``swarm_size`` defaults to 20
    particles per free parameter.
    """

    n: int
    m: Optional[Tuple[int, ...]] = None
    swarm_size: Optional[int] = None
    max_iters: int = 2000
    seed: int = 0
    restarts: int = 3

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.m is not None:
            self.m = tuple(int(v) for v in self.m)
            if any(v < 0 for v in self.m):
                raise ValueError("m must be componentwise >= 0")
        if self.swarm_size is not None and self.swarm_size < 10:
            raise ValueError("swarm_size must be >= 10")
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be >= 1")

    def resolved(self, d: int) -> "FitConfig":
        m = self.m if self.m is not None else default_box(self.n, d)
        swarm = self.swarm_size or 20 * self.n * (d + 2)
        return FitConfig(self.n, m, swarm, self.max_iters, self.seed, self.restarts)


@dataclass
class FitReport:
    """Fitted model with its final loss, well-behavedness report and the
    bookkeeping needed to reproduce the run bit for bit."""

    model: GgcModel
    loss: float
    wb: WbReport
    m: Tuple[int, ...]
    n: int
    seed: int
    iters: int
    restarts_used: int
    bits_used: int
    converged: bool
    empirical_coeffs_hash: str
    notes: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        from . import __version__

        return {
            "model": {"alpha": self.model.alpha.tolist(), "scales": self.model.scales.tolist()},
            "loss": self.loss,
            "wb": self.wb.to_dict(),
            "m": list(self.m),
            "n": self.n,
            "seed": self.seed,
            "iters": self.iters,
            "restarts_used": self.restarts_used,
            "bits_used": self.bits_used,
            "converged": self.converged,
            "empirical_coeffs_hash": self.empirical_coeffs_hash,
            "notes": list(self.notes),
            "tool_version": __version__,
        }


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance; the
    achieved tolerance (relative for moments, absolute for coefficients)
    is carried along."""

    def __init__(self, message: str, achieved_tol: float):
        super().__init__(message)
        self.achieved_tol = achieved_tol


def _decode(params: np.ndarray, n: int, d: int):
    """Particle positions to (shapes, simplex coordinates).

    The simplex coordinates are ``P x n x (d+1)``: the simplex scales
    followed by the residual.  The residual logit is kept within exp(-28)
    of the row maximum so the residual stays positive; this bounds the
    searchable scale magnitudes near 1e12, the scale-side analog of the
    shape floor ``_SHAPE_FLOOR``.
    """
    P = params.shape[0]
    alpha = np.maximum(np.exp(np.minimum(params[:, :n], 50.0)), _SHAPE_FLOOR)
    z = params[:, n:].reshape(P, n, d + 1)
    z = z - z.max(axis=2, keepdims=True)
    z[:, :, d] = np.maximum(z[:, :, d], -28.0)
    ez = np.exp(z)
    return alpha, ez / ez.sum(axis=2, keepdims=True)


def _fitted_model(alpha: np.ndarray, simplex: np.ndarray) -> GgcModel:
    """Model of one decoded particle.

    Scale entries indistinguishable from zero are snapped to zero, never
    touching a row's largest entry.  An atom whose whole row is below
    that tolerance is a Gamma factor with vanishing scale, a point mass
    at the origin and so the identity of convolution: it is dropped,
    keeping at least the atom with the largest row.
    """
    d = simplex.shape[1] - 1
    scales = simplex[:, :d] / simplex[:, d:]
    top = scales.max(axis=1)
    tiny = scales < _ZERO_SCALE_TOL
    scales[tiny & (scales < top[:, None])] = 0.0
    alive = top >= _ZERO_SCALE_TOL
    alive[np.argmax(top)] = True
    return GgcModel(alpha[alive], scales[alive])


def loss_Lm(target: CoeffTensor, model: GgcModel, m: Sequence[int] = None) -> float:
    """Truncated squared coefficient distance
    ``sum_{k <= m} (target_k - a_k(model))^2``.

    The model coefficients come from :func:`thorin.ggc.batch_coeffs`,
    the kernel the swarm minimizes, so the reported loss is the swarm's
    objective; the kernel is accurate to about 1e-14 absolute per
    coefficient over the region the swarm searches.
    """
    m = tuple(int(v) for v in (m if m is not None else target.m))
    if m != target.m:
        raise ValueError("target box does not match m")
    diff = float_coeffs(model, m).a.ravel() - target.as_float().ravel()
    return float(diff @ diff)


# ---------------------------------------------------------------------------
# particle swarm


def _init_particles(rng, swarm: int, n: int, d: int):
    pos = np.empty((swarm, n * (d + 2)))
    pos[:, :n] = rng.uniform(*_LOGSHAPE_RANGE, size=(swarm, n))
    ray = rng.dirichlet(np.ones(d), size=(swarm, n))
    smag = np.exp(rng.uniform(*_SMAG_RANGE, size=(swarm, n)))
    xmag = smag / (1.0 + smag)
    simplex = np.concatenate(
        [ray * xmag[:, :, None], (1.0 - xmag)[:, :, None]], axis=2
    )
    pos[:, n:] = np.log(np.maximum(simplex, 1e-300)).reshape(swarm, -1)
    return pos


def _pso_once(target_flat, n, d, m, cfg: FitConfig, rng):
    swarm = cfg.swarm_size
    npar = n * (d + 2)
    lo = np.full(npar, _LOGSHAPE_RANGE[0])
    hi = np.full(npar, _LOGSHAPE_RANGE[1])
    lo[n:], hi[n:] = _LOGIT_RANGE
    vmax = 0.5 * (hi - lo)

    def losses(p):
        alpha, simplex = _decode(p, n, d)
        with np.errstate(invalid="ignore", over="ignore"):
            a = batch_coeffs(alpha, simplex, m)
            val = ((a - target_flat[None, :]) ** 2).sum(axis=1)
        return np.where(np.isfinite(val), val, np.inf)

    pos = _init_particles(rng, swarm, n, d)
    vel = rng.uniform(-1.0, 1.0, size=(swarm, npar)) * (0.1 * vmax)[None, :]
    pbest = pos.copy()
    pbl = losses(pos)
    gi = int(np.argmin(pbl))
    gbest, gbl = pbest[gi].copy(), float(pbl[gi])
    stall, last = 0, gbl
    it = 0
    for it in range(1, cfg.max_iters + 1):
        r1 = rng.random((swarm, npar))
        r2 = rng.random((swarm, npar))
        vel = (
            _INERTIA * vel
            + _COGNITIVE * r1 * (pbest - pos)
            + _SOCIAL * r2 * (gbest[None, :] - pos)
        )
        np.clip(vel, -vmax, vmax, out=vel)
        pos = pos + vel
        cur = losses(pos)
        upd = cur < pbl
        pbest[upd] = pos[upd]
        pbl[upd] = cur[upd]
        gi = int(np.argmin(pbl))
        if pbl[gi] < gbl:
            gbl = float(pbl[gi])
            gbest = pbest[gi].copy()
        if last - gbl <= _STALL_RTOL * max(abs(gbl), 1e-300):
            stall += 1
        else:
            stall = 0
        last = gbl
        if stall >= _STALL_ITERS:
            return gbest, gbl, it, True
    return gbest, gbl, it, False


def _run_swarm(target: CoeffTensor, d: int, cfg: FitConfig, hash_text: str) -> FitReport:
    cfg = cfg.resolved(d)
    target_flat = target.as_float().ravel()
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best = None
    iters_total = 0
    for r, ss in enumerate(streams):
        rng = np.random.default_rng(ss)
        gpos, gloss, iters, converged = _pso_once(target_flat, cfg.n, d, cfg.m, cfg, rng)
        iters_total += iters
        if best is None or gloss < best[1]:
            best = (gpos, gloss, converged)
    gpos, _, converged = best
    alpha, simplex = _decode(gpos[None, :], cfg.n, d)
    model = _fitted_model(alpha[0], simplex[0])
    loss = loss_Lm(target, model, cfg.m)
    return FitReport(
        model=model,
        loss=loss,
        wb=best_eps(model),
        m=cfg.m,
        n=cfg.n,
        seed=cfg.seed,
        iters=iters_total,
        restarts_used=cfg.restarts,
        bits_used=53,
        converged=converged,
        empirical_coeffs_hash=hash_text,
    )


def _digest(arr: np.ndarray, m) -> str:
    h = hashlib.sha256()
    h.update(repr(tuple(m)).encode())
    h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


def fit_empirical(samples, cfg: FitConfig) -> FitReport:
    """Fit a model to observations by minimizing the truncated
    coefficient distance to the empirical Laguerre coefficients.

    Deterministic given ``(samples, cfg)``.  Non-convergence of the swarm
    is not an error: the best particle is returned with
    ``converged=False``.  The whole fit runs in doubles, so the report's
    ``bits_used`` is 53; the model may hold fewer than ``cfg.n`` atoms.
    """
    arr = validate_samples(samples)
    d = arr.shape[1]
    rcfg = cfg.resolved(d)
    target = empirical_coeffs(arr, rcfg.m)
    return _run_swarm(target, d, rcfg, _digest(target.a, rcfg.m))


def project_density(target: CoeffTensor, cfg: FitConfig) -> FitReport:
    """Same optimization as :func:`fit_empirical`, towards the
    coefficients of a formal density, such as those of
    :func:`theoretical_coeffs`.

    ``target`` must cover the box ``cfg`` resolves to in its dimension;
    mpf entries are rounded to doubles, and the report's ``bits_used``
    is 53.
    """
    rcfg = cfg.resolved(target.d)
    if target.m != rcfg.m:
        raise ValueError(f"target box {target.m} does not match box {rcfg.m}")
    target = CoeffTensor(rcfg.m, target.as_float())
    return _run_swarm(target, target.d, rcfg, _digest(target.a, rcfg.m))


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
    :func:`theoretical_moments` splits it, ``[0,1], [1,10], [10,inf)``,
    and at each of ``jumps``, where the density may be discontinuous.  The basis
    is evaluated at the nodes, so in ``d = 2`` the estimate is
    ``Phi_1 F Phi_2^T`` over the tensor grid, built in row blocks.  The
    integrand is bounded (``|phi_k| <= sqrt(2)^d``), so no cancellation
    costs digits: the level rises until two successive estimates agree to
    ``_COEFF_TOL`` absolute, else :class:`QuadratureError` carries the
    last difference.
    """
    m = tuple(int(v) for v in m)
    d = len(m)
    if d > 2:
        raise ValueError("quadrature mode supports d <= 2")
    splits = sorted({float(a) for a, _ in _SPLIT} | {float(v) for v in jumps if v > 0})
    prev = None
    for level in range(1, _COEFF_LEVELS[d - 1] + 1):
        x, w = _tanh_sinh(splits, level)
        basis = [phi_univariate(mj, x) * w for mj in m]
        if d == 1:
            a = basis[0] @ pdf(x)
        else:
            a = sum(basis[0][:, r] @ (pdf(x[r, None], x[None, :]) @ basis[1].T)
                    for r in (slice(i, i + _GRID_ROWS) for i in range(0, x.size, _GRID_ROWS)))
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
    for :func:`theoretical_coeffs`.
    """
    m = tuple(int(v) for v in m)
    d = len(m)
    if d > 2:
        raise ValueError("quadrature mode supports d <= 2")
    tol = mpf(10) ** (-(ctx.bits // 8))
    rule = mpmath.calculus.quadrature.TanhSinh(mpmath.mp)
    total, seen, estimates = np.zeros(box_shape(m), dtype=object), [], []
    with ctx.workprec():
        for level in range(1, (10 if d == 1 else 7) + 1):
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
