"""Truncated L2 loss between Laguerre coefficient tensors and its global
minimization, :func:`project_density`.  Its starts come from Prony's
method on the target's log series in d = 1, else (or when Prony gives
none) from particle swarm restarts; one rule finishes every start:
Levenberg-Marquardt polishes it, unless it is a swarm stopped by its
iteration cap, and the lowest loss wins.

The module holds only the loss and the search.  The target comes from
:mod:`thorin.laguerre`: the empirical coefficients ``mean_i phi_k(X_i)``
of samples (:func:`fit_empirical`), or the coefficients ``<f, phi_k>`` of
a formal density (:func:`~thorin.laguerre.theoretical_coeffs`).  The
search reads its box and dimension off the target's
:class:`~thorin.laguerre.CoeffTensor` and its atom count off the length
of a position.  It runs in an unconstrained parameterization: log-space
for the shapes and simplex-logit space for each scale row (the logs of
the row's simplex coordinates and of the residual), so every particle
decodes to a valid model without clamping.  Every loss, the swarm's and
the reported one alike, is one reduction (:func:`_losses`) of model
coefficients from one double kernel, :func:`thorin.ggc.batch_coeffs`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

import numpy as np

from .ggc import GgcModel, batch_coeffs, float_coeffs
from .laguerre import CoeffTensor, empirical_coeffs, l2_norm_sq, validate_samples
from .numkit import _from_oracle
from .wellbehaved import WbReport, best_eps

__all__ = [
    "FitConfig",
    "FitReport",
    "default_box",
    "loss_Lm",
    "fit_empirical",
    "project_density",
]

__getattr__ = _from_oracle(__name__, "coeffs_from_moments", "theoretical_moments")

# constriction-style swarm constants
_INERTIA = 0.72
_COGNITIVE = 1.49
_SOCIAL = 1.49
# the swarm has found its basin, and hands over to the polish, once its
# best loss gains at most _STALL_RTOL relative in _STALL_ITERS iterations
# in a row; the A12 acceptance fit crosses a 10-iteration plateau on its
# way down, so the window is twice that
_STALL_ITERS = 20
_STALL_RTOL = 1e-6
# Levenberg-Marquardt polish of a Prony start or a stalled swarm's best position
_LM_STEPS = 100
_LM_RTOL = 1e-10
# a loss this far below the target's squared norm (residuals 1e-10 of its
# norm) is at the central-difference Jacobian's accuracy: steps only creep
_LM_FLOOR = 1e-20
_LM_DIFF_STEP = 6e-6  # about eps^(1/3), the central-difference optimum
_LM_DAMP_START = 1e-3
_LM_DAMP_MIN = 1e-12
_LM_DAMP_MAX = 1e12
_LM_DIAG_FLOOR = 1e-12
_LOGSHAPE_RANGE = (math.log(1e-2), math.log(1e2))
_SMAG_RANGE = (math.log(1e-3), math.log(1e3))
_LOGIT_RANGE = (-18.0, 0.0)
_ZERO_SCALE_TOL = 1e-10
_SHAPE_FLOOR = 1e-12


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
        return replace(self, m=m, swarm_size=swarm)


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
    converged: bool
    empirical_coeffs_hash: str
    notes: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        from . import __version__

        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(
            model={"alpha": self.model.alpha.tolist(), "scales": self.model.scales.tolist()},
            wb=self.wb.to_dict(),
            m=list(self.m),
            notes=list(self.notes),
            tool_version=__version__,
        )
        return out


def _decode(params: np.ndarray, d: int):
    """Particle positions, ``P x n(d+2)``, to (shapes, simplex coordinates).

    The simplex coordinates are ``P x n x (d+1)``: the simplex scales
    followed by the residual.  The residual logit is kept within exp(-28)
    of the row maximum so the residual stays positive; this bounds the
    searchable scale magnitudes near 1e12, the scale-side analog of the
    shape floor ``_SHAPE_FLOOR``.
    """
    P, n = params.shape[0], params.shape[1] // (d + 2)
    alpha = np.minimum(params[:, :n], 50.0)
    np.exp(alpha, out=alpha)
    np.maximum(alpha, _SHAPE_FLOOR, out=alpha)
    z = params[:, n:].reshape(P, n, d + 1)
    z = z - z.max(axis=2, keepdims=True)
    np.maximum(z[:, :, d], -28.0, out=z[:, :, d])
    np.exp(z, out=z)
    z /= z.sum(axis=2, keepdims=True)
    return alpha, z


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


def loss_Lm(target: CoeffTensor, model: GgcModel) -> float:
    """Truncated squared coefficient distance
    ``sum_{k <= m} (target_k - a_k(model))^2`` over the target's box ``m``.

    The residual row comes from the swarm's kernel and reduction, so the
    reported loss is the swarm's objective to the last bit; the kernel is
    accurate to about 1e-14 absolute per coefficient over the region the
    swarm searches.
    """
    res = float_coeffs(model, target.m).a.ravel() - target.as_float().ravel()
    return float(_losses(res[None, :])[0])


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


def _residuals(params, target: CoeffTensor):
    """Coefficients of each particle's model minus the target, one row each."""
    with np.errstate(invalid="ignore", over="ignore"):
        alpha, simplex = _decode(params, target.d)
        res = batch_coeffs(alpha, simplex, target.m)
        res -= target.as_float().ravel()
    return res


def _losses(res: np.ndarray) -> np.ndarray:
    """Loss of each residual row: squared in place, then numpy's pairwise
    ``sum``, not BLAS, whose bits follow its thread count; non-finite is ``inf``."""
    with np.errstate(over="ignore"):
        res *= res
        val = res.sum(axis=1)
    val[~np.isfinite(val)] = np.inf
    return val


def _pso_once(target: CoeffTensor, cfg: FitConfig, rng):
    """One restart's swarm of ``cfg.n`` atoms towards ``target``, on the
    stream ``rng``: its best position and loss, the iterations it made
    and whether it stalled (else it stopped at ``cfg.max_iters``).
    ``cfg`` is resolved to the target's box."""
    swarm, n, d = cfg.swarm_size, cfg.n, target.d
    npar = n * (d + 2)
    lo = np.full(npar, _LOGSHAPE_RANGE[0])
    hi = np.full(npar, _LOGSHAPE_RANGE[1])
    lo[n:], hi[n:] = _LOGIT_RANGE
    vmax = 0.5 * (hi - lo)
    vmin = -vmax

    pos = _init_particles(rng, swarm, n, d)
    vel = rng.uniform(-1.0, 1.0, size=(swarm, npar)) * (0.1 * vmax)[None, :]
    pbest = pos.copy()
    pbl = _losses(_residuals(pos, target))
    gi = int(np.argmin(pbl))
    gbest, gbl = pbest[gi].copy(), float(pbl[gi])
    stall, last = 0, gbl
    it = 0
    for it in range(1, cfg.max_iters + 1):
        r1 = rng.random((swarm, npar))
        r2 = rng.random((swarm, npar))
        # vel = I vel + C r1 (pbest - pos) + S r2 (gbest - pos), in this order
        vel *= _INERTIA
        r1 *= _COGNITIVE
        r1 *= pbest - pos
        vel += r1
        r2 *= _SOCIAL
        r2 *= gbest - pos
        vel += r2
        np.maximum(vel, vmin, out=vel)
        np.minimum(vel, vmax, out=vel)
        pos += vel
        cur = _losses(_residuals(pos, target))
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


def _spd_solve(a, b):
    """``x`` with ``a x = b`` for symmetric positive definite ``a``, by
    Cholesky in numpy's own ``einsum`` loops, not LAPACK, whose
    factorization runs on several BLAS threads from about 100 unknowns
    and then changes bits with their count.  A pivot that is not positive
    gives NaN entries."""
    p = b.size
    low = np.zeros_like(a)
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(p):
            v = a[j:, j] - np.einsum("ik,k->i", low[j:, :j], low[j, :j])
            low[j:, j] = v / np.sqrt(v[0])
        y = np.zeros(p)
        for i in range(p):
            y[i] = (b[i] - np.einsum("k,k->", low[i, :i], y[:i])) / low[i, i]
        x = np.zeros(p)
        for i in reversed(range(p)):
            x[i] = (y[i] - np.einsum("k,k->", low[i + 1 :, i], x[i + 1 :])) / low[i, i]
    return x


def _polish(theta, loss, target: CoeffTensor):
    """Levenberg-Marquardt on the residual ``a(theta) - target`` from a
    start ``theta`` with loss ``loss`` towards the coefficient tensor
    ``target``, whose box and dimension ``d`` it uses, with the atom count
    ``theta.size // (d + 2)``: a Prony start or a stalled swarm's best
    position (Moré 1978; Nocedal & Wright 2006, 10.3).

    The Jacobian comes from central differences, all ``2p`` perturbed
    particles in one kernel call.  Gauss-Newton alone would be singular:
    the common shift of an atom's simplex logits leaves the model
    unchanged, a null direction of ``J``.  Marquardt's damping by the
    diagonal of ``J^T J`` keeps the system definite and each step free of
    the coordinates' scales; the system is solved where that diagonal is
    the identity.  A step is taken only if the loss falls, so the result
    is never above ``loss``.  The damping grows 2, 4, 8, ... fold while
    steps are refused, and after a step it follows the ratio of the
    actual to the predicted decrease (Nielsen 1999).  The polish has
    converged when an accepted step lowers the loss by at most
    ``_LM_RTOL`` relative or to at most ``_LM_FLOOR`` times the target's
    squared norm, or when no damping up to ``_LM_DAMP_MAX`` lowers it at
    all; it gives up, unconverged, after ``_LM_STEPS`` steps or on a
    non-finite Jacobian.
    ``J^T J`` and ``J^T r`` are ``einsum`` sums, not BLAS products, and
    :func:`_spd_solve` is numpy's own loop, so the bits do not depend on
    the BLAS thread count.

    Returns the position, its loss, the steps taken, the norm of the loss
    gradient ``2 J^T r`` there and whether the stopping test was met.
    """
    p = theta.size
    floor = _LM_FLOOR * l2_norm_sq(target)
    lam, done = _LM_DAMP_START, False
    for step in range(_LM_STEPS + 1):
        shift = np.diag(_LM_DIFF_STEP * np.maximum(1.0, np.abs(theta)))
        up, down = theta + shift, theta - shift
        res = _residuals(np.concatenate([up, down, theta[None, :]]), target)
        with np.errstate(invalid="ignore", over="ignore"):
            jac = (res[:p] - res[p:-1]) / (np.diag(up) - np.diag(down))[:, None]  # p x B
        grad = np.einsum("ib,b->i", jac, res[-1])
        gnorm = 2.0 * float(np.sqrt((grad ** 2).sum()))
        if done or step == _LM_STEPS or not np.isfinite(gnorm):
            return theta, loss, step, gnorm, done
        jtj = np.einsum("ib,jb->ij", jac, jac)
        diag = np.diag(jtj)
        unit = 1.0 / np.sqrt(np.maximum(diag, _LM_DIAG_FLOOR * max(float(diag.max()), 1e-300)))
        scaled = unit[:, None] * jtj * unit[None, :]  # the damping D becomes the identity
        nu = 2.0
        while lam <= _LM_DAMP_MAX:
            h = _spd_solve(scaled + lam * np.eye(p), -unit * grad)
            trial = theta + unit * h
            tloss = float(_losses(_residuals(trial[None, :], target))[0])
            if tloss < loss:
                break
            lam, nu = lam * nu, 2.0 * nu
        else:
            return theta, loss, step, gnorm, True
        gain = (loss - tloss) / float(np.einsum("i,i->", h, lam * h - unit * grad))
        done = loss - tloss <= _LM_RTOL * loss or tloss <= floor
        theta, loss = trial, tloss
        lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), _LM_DAMP_MIN)


def _prony_starts(a: np.ndarray, n: int):
    """Starts of at most ``n`` atoms read off a univariate target ``a_0..a_M``
    by Prony's method (de Prony 1795; Hua & Sarkar 1990), as
    ``(k, theta)`` pairs in the swarm's coordinates, ``k`` atoms each.

    The generating function of the basis makes the model's log series
    ``c = log(sum_k a_k z^k)`` satisfy ``k c_k - 1 = sum_i alpha_i (r_i^k - 1)``
    with ``r_i = (1 - s_i)/(1 + s_i)``, so ``g_k = h_{k+1} - h_k`` with
    ``h_0 = 0``, ``h_k = k c_k - 1``, is the sum of exponentials
    ``sum_i alpha_i (r_i - 1) r_i^k``.  For each ``k = min(n, M//2), ..., 1``
    the nodes ``r_i`` are the roots of the recurrence that one Hankel
    least-squares solve fits to ``g``, and the weights ``w_i`` come from
    one Vandermonde solve.  A start is admissible when every node is real
    in ``(-1, 1)`` and every shape ``alpha_i = w_i / (r_i - 1)`` is
    positive; then the atom's simplex coordinates are ``((1 - r_i)/2,
    (1 + r_i)/2)``.  No start comes from a target with ``a_0 <= 0`` or a
    non-finite log series.
    """
    M = a.size - 1
    if not a[0] > 0.0:
        return []
    with np.errstate(over="ignore", invalid="ignore"):
        b = a / a[0]
        c = np.zeros(M + 1)
        for k in range(1, M + 1):  # k b_k = sum_j j c_j b_{k-j}, as B = exp(C)
            c[k] = b[k] - np.einsum("j,j->", np.arange(1, k) * c[1:k], b[k - 1 : 0 : -1]) / k
        h = np.arange(M + 1) * c - 1.0
        h[0] = 0.0
        g = np.diff(h)
    if not np.all(np.isfinite(g)):
        return []
    starts = []
    for k in range(min(n, M // 2), 0, -1):
        hankel = np.lib.stride_tricks.sliding_window_view(g, k)[: M - k]
        q = np.linalg.lstsq(hankel, g[k:], rcond=None)[0]
        r = np.roots(np.concatenate([[1.0], -q[::-1]]))
        if not (np.all(np.isreal(r)) and np.all(np.abs(r) < 1.0)):
            continue
        r = r.real
        w = np.linalg.lstsq(r[None, :] ** np.arange(M)[:, None], g, rcond=None)[0]
        alpha = w / (r - 1.0)
        if not np.all(alpha > 0.0):
            continue
        simplex = np.stack([(1.0 - r) / 2.0, (1.0 + r) / 2.0], axis=1)
        starts.append((k, np.concatenate([np.log(alpha), np.log(simplex).ravel()])))
    return starts


def fit_empirical(samples, cfg: FitConfig) -> FitReport:
    """Fit a model to observations: :func:`project_density` towards
    their empirical Laguerre coefficients."""
    arr = validate_samples(samples)
    rcfg = cfg.resolved(arr.shape[1])
    return project_density(empirical_coeffs(arr, rcfg.m), rcfg)


def project_density(target: CoeffTensor, cfg: FitConfig) -> FitReport:
    """Minimize the truncated coefficient distance to ``target``: the
    empirical coefficients of observations (:func:`fit_empirical`) or
    those of a formal density, such as
    :func:`thorin.laguerre.theoretical_coeffs`.

    ``target`` must cover the box ``cfg`` resolves to in its dimension.
    Deterministic given ``(target, cfg)``.  The starts are, in d = 1,
    each start of :func:`_prony_starts` with a finite loss, and in
    d >= 2, or when there is no such start, the best positions of
    ``cfg.restarts`` swarm restarts.  One rule finishes them all: a
    Prony start, or a restart whose swarm stalled, is polished by
    :func:`_polish` and writes one line to ``notes``; a restart stopped
    by ``cfg.max_iters`` enters as it stands, with ``converged`` false.
    The lowest loss wins, the first among equals, and ``converged`` is
    its polish's stopping test.  ``iters`` counts swarm iterations and
    ``restarts_used`` swarm restarts, both 0 when Prony gave a start, and
    then ``cfg.seed`` has no effect.  Non-convergence is not an error.
    The whole fit runs in doubles; the model may hold fewer than
    ``cfg.n`` atoms.
    """
    d = target.d
    cfg = cfg.resolved(d)
    if target.m != cfg.m:
        raise ValueError(f"target box {target.m} does not match box {cfg.m}")
    starts = []  # (position, loss, label of its note, whether it is polished)
    for k, theta in _prony_starts(target.a, cfg.n) if d == 1 else ():
        loss = float(_losses(_residuals(theta[None, :], target))[0])
        if np.isfinite(loss):
            starts.append((theta, loss, f"start k={k}: Prony loss {loss:.10e}", True))
    # the swarm is the fallback of d = 1, where no restart runs once Prony gives a start
    streams = np.random.SeedSequence(cfg.seed).spawn(0 if starts else cfg.restarts)
    iters_total = 0
    for r, ss in enumerate(streams):
        theta, loss, iters, stalled = _pso_once(target, cfg, np.random.default_rng(ss))
        iters_total += iters
        starts.append((theta, loss, f"restart {r}: swarm loss {loss:.10e} "
                       f"after {iters} iterations", stalled))
    best, notes = None, []
    for theta, loss, label, polish in starts:
        converged = False
        if polish:
            theta, loss, steps, gnorm, converged = _polish(theta, loss, target)
            notes.append(f"{label}, polished loss {loss:.10e} after {steps} LM steps, "
                         f"gradient norm {gnorm:.3e}" + ("" if converged else ", not converged"))
        if best is None or loss < best[1]:
            best = (theta, loss, converged)
    alpha, simplex = _decode(best[0][None, :], d)
    model = _fitted_model(alpha[0], simplex[0])
    digest = hashlib.sha256(repr(cfg.m).encode())
    digest.update(np.ascontiguousarray(target.a, dtype=float).tobytes())
    return FitReport(
        model=model,
        loss=loss_Lm(target, model),
        wb=best_eps(model),
        m=cfg.m,
        n=cfg.n,
        seed=cfg.seed,
        iters=iters_total,
        restarts_used=len(streams),
        converged=best[2],
        empirical_coeffs_hash=digest.hexdigest(),
        notes=tuple(notes),
    )
