"""Independent combinatorial oracles and helpers shared by the test modules."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from thorin.numkit import box_shape, iterate_box
from thorin.wellbehaved import _subset_eps, _subset_geometry


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
