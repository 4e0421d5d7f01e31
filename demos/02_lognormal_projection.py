"""Projecting a formal log-normal density onto two gamma factors.

The Laguerre coefficients ``<f, phi_k>`` of LN(0, 0.83) come from one
tanh-sinh quadrature in doubles (the integrand is bounded, so nothing
cancels), and the two-atom model minimizing the truncated coefficient
distance is found by particle swarm.  The optimum is sharp: independent
seeds land on the same four parameter digits.
"""

import numpy as np

from thorin import FitConfig, project_density, theoretical_coeffs
from thorin.validate import bench_pdf

n = 2
m = (2 * n,)  # 2n+1 basis functions
print(f"integrating the Laguerre coefficients of LN(0, 0.83) over the box {m} in doubles ...")
pdf, jumps = bench_pdf("lognormal", {"mu": 0.0, "sigma": 0.83})
target = theoretical_coeffs(pdf, m, jumps)
print("coefficients:", [f"{v:.6f}" for v in target.a.ravel()])

for seed in (0, 1, 2):
    rep = project_density(target, FitConfig(n=n, m=m, seed=seed))
    order = np.argsort(rep.model.alpha)
    al = rep.model.alpha[order]
    sc = rep.model.scales.ravel()[order]
    print(
        f"seed {seed}: loss={rep.loss:.3e}  "
        f"shapes=({al[0]:.4f}, {al[1]:.4f})  scales=({sc[0]:.4f}, {sc[1]:.4f})"
    )

print("well-behaved:", rep.wb.is_wb, f"(margin {rep.wb.best_eps:.4f})")
