"""Projecting a formal log-normal density onto two gamma factors.

The Laguerre coefficients ``<f, phi_k>`` of LN(0, 0.83) come from one
tanh-sinh quadrature in doubles (the integrand is bounded, so nothing
cancels).  In one dimension the two-atom model minimizing the truncated
coefficient distance starts from Prony's closed form: the atoms are read
off the target's log series, one start per atom count, and each start is
polished by Levenberg-Marquardt.  No particle swarm runs, so the answer
does not depend on the seed.
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

rep = project_density(target, FitConfig(n=n, m=m))
for note in rep.notes:
    print(note)
order = np.argsort(rep.model.alpha)
al = rep.model.alpha[order]
sc = rep.model.scales.ravel()[order]
print(
    f"loss={rep.loss:.3e}  shapes=({al[0]:.4f}, {al[1]:.4f})  "
    f"scales=({sc[0]:.4f}, {sc[1]:.4f})  swarm iterations={rep.iters}"
)
print("well-behaved:", rep.wb.is_wb, f"(margin {rep.wb.best_eps:.4f})")
