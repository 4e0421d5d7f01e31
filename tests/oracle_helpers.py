"""Independent combinatorial oracles and helpers shared by the test modules."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from thorin.ggc import _series_exp
from thorin.numkit import box_shape, iterate_box
from thorin.wellbehaved import _on_hyperplane, _subset_eps, _subset_geometry
from thorin.wellbehaved import _svd_rank_below as _rank_below


def set_partitions(elements):
    """All set partitions of a list of labeled elements."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield part + [[first]]


def brute_force_moments(kappa: np.ndarray, m) -> np.ndarray:
    """Moments from cumulants as Bell-polynomial sums over set partitions
    of the labeled derivative multiset; exponential-time and completely
    independent of the recursive path."""
    d = len(m)
    out = np.empty(box_shape(m))
    mu0 = math.exp(float(kappa[(0,) * d]))
    for k in iterate_box(m):
        elements = []
        for dim, kd in enumerate(k):
            elements.extend([dim] * kd)
        if not elements:
            out[k] = mu0
            continue
        total = 0.0
        for part in set_partitions(elements):
            prod = 1.0
            for block in part:
                idx = tuple(block.count(dim) for dim in range(d))
                prod *= float(kappa[idx])
            total += prod
        out[k] = mu0 * total
    return out


def enumerated_best_eps(model) -> float:
    """Well-behavedness margin of a model with d >= 2 from every minimal
    majority subset of its atoms (more than half the mass, and no member
    removable without losing that): 0 if one is rank-deficient, else the
    smallest margin over the consistent ones.  Exponential in the atom
    count and independent of the candidate search in ``best_eps``."""
    alpha, scales = model.alpha, model.scales
    total = alpha.sum()
    if total <= 1.0:
        return 0.0
    best = math.inf
    for size in range(1, model.n + 1):
        for idx in itertools.combinations(range(model.n), size):
            mass = alpha[list(idx)]
            if not 2.0 * mass.sum() > total >= 2.0 * (mass.sum() - mass.min()):
                continue
            rank_ok, t = _subset_geometry(scales[list(idx)])
            if not rank_ok:
                return 0.0
            if t is not None:
                best = min(best, _subset_eps(t))
    return best


def per_tuple_majority_eps(alpha: np.ndarray, scales: np.ndarray):
    """``(eps, witness)`` of the majority search in d >= 2, one atom
    tuple at a time: an SVD, a least-squares solve and two membership
    tests per tuple, in combination order; the subspace search decides
    rank by the SVD alone, without the determinant screen.  The chunked search in
    ``wellbehaved._majority_eps`` must agree with it bit for bit."""
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
            refit = _subset_geometry(scales[on])[1]
            t = t if refit is None else refit
            eps = _subset_eps(t)
            if eps < best:
                best, witness = eps, f"subset {tuple(np.flatnonzero(on).tolist())}"
    return best, witness


def matrix_phi_univariate(kmax: int, xs) -> np.ndarray:
    """``phi_k(x)`` for ``k = 0..kmax`` as one matrix: the three-term
    recurrence on whole rows, scaled by ``sqrt(2) e^{-x}`` at the end, and
    the renormalized recurrence of ``laguerre._phi_far`` beyond ``x = 700``.
    The row generator behind ``phi_univariate`` must agree bit for bit."""
    xs = np.asarray(xs, dtype=float)
    out = np.empty((kmax + 1, xs.size))
    far = xs > 700.0
    if far.any():
        out[:, ~far] = matrix_phi_univariate(kmax, xs[~far])
        scaled, expo = np.empty((kmax + 1, far.sum())), np.zeros((kmax + 1, far.sum()))
        x = xs[far]
        L0, L1, e = np.ones(x.size), 1.0 - 2.0 * x, np.zeros(x.size)
        scaled[0] = L0
        for k in range(1, kmax + 1):
            L1, shift = np.frexp(L1)
            L0 = np.ldexp(L0, -shift)
            e = e + shift
            scaled[k], expo[k] = L1, e
            L0, L1 = L1, ((2.0 * k + 1.0 - 2.0 * x) * L1 - k * L0) / (k + 1.0)
        out[:, far] = math.sqrt(2.0) * scaled * np.exp(expo * math.log(2.0) - x[None, :])
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
    out *= (math.sqrt(2.0) * np.exp(-xs))[None, :]
    return out


def full_matrix_empirical_coeffs(xs: np.ndarray, m) -> np.ndarray:
    """Empirical coefficients as one ``einsum`` of all the per-axis basis
    matrices over the sample axis, divided by N.  The streamed
    contraction of ``laguerre.empirical_coeffs`` must agree bit for bit."""
    d = len(m)
    ops = [x for j, mj in enumerate(m) for x in (matrix_phi_univariate(mj, xs[:, j]), [j, d])]
    return np.einsum(*ops, list(range(d))) / xs.shape[0]


def full_box_batch_coeffs(alpha: np.ndarray, simplex: np.ndarray, m) -> np.ndarray:
    """``ggc.batch_coeffs`` in one block, with the series division by
    ``R`` over the whole zero-padded box of every axis, one contraction
    with ``alpha`` and one running sum per axis; the exponential is
    ``ggc._series_exp``.  The two-slab kernel must agree bit for bit."""
    P, n, d = simplex.shape[0], simplex.shape[1], simplex.shape[2] - 1
    x, rho = simplex[:, :, :d], simplex[:, :, d]
    shape = box_shape(m)
    R = {
        S: (-1.0) ** sum(S) * (1.0 - 2.0 * sum(x[:, :, l] for l in range(d) if S[l]))
        for S in itertools.product((0, 1), repeat=d)
    }
    C = np.zeros((P,) + shape)
    for j in (j for j in range(d) if m[j]):
        sub = shape[j:]
        # N = 2 x_j z_j prod_{l > j} (1 - z_l) / R on k_j = 0..m_j, the
        # trailing axes padded by one zero slot in front
        N = np.zeros((sub[0],) + tuple(v + 1 for v in sub[1:]) + (P, n))
        Nf = N.reshape(-1, P, n)
        strides = [math.prod(v + 1 for v in sub[i + 1 :]) for i in range(len(sub))]
        stencil = [(sum(a * b for a, b in zip(t, strides)), R[(0,) * j + t])
                   for t in itertools.product((0, 1), repeat=d - j) if any(t)]
        for tail in itertools.product(*(range(min(v, 2)) for v in sub[1:])):
            N[(1,) + tuple(v + 1 for v in tail)] = (-1.0) ** sum(tail) * 2.0 * x[:, :, j]
        inner = (slice(1, None),) * len(sub)
        for q in np.arange(len(Nf)).reshape(N.shape[:-2])[inner].ravel().tolist():
            acc = Nf[q]
            for off, c in stencil:
                acc -= c * Nf[q - off]
        kj = np.arange(1, sub[0], dtype=float).reshape((-1,) + (1,) * (len(sub) - 1))
        # M = N / (1 - z_j), the running sum along axis j
        M = np.cumsum(np.einsum("...pn,pn->p...", N[inner], alpha), axis=1)
        C[(slice(None),) + (0,) * j + (slice(1, None),)] = M / -kj
        C[(slice(None),) + (0,) * j + (slice(1, None),) + (0,) * (d - j - 1)] += (
            1.0 / np.arange(1, shape[j])
        )
    C[(slice(None),) + (0,) * d] = 0.5 * d * math.log(2.0) + (alpha * np.log(rho)).sum(axis=1)
    return _series_exp(C).reshape(P, -1)


def stdout_per_blas_threads(code: str):
    """Standard output lines of ``python -c code`` run under
    ``OPENBLAS_NUM_THREADS=1`` and ``2``, with this checkout's package
    on the path: byte-identical reruns must not hang on the thread count."""
    src = str(Path(sys.modules["thorin"].__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.split())
    return out
