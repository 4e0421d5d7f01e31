"""Stable density evaluation where the classical gamma series fails.

The convolution of Gamma(10, 1) with Gamma(0.001, 0.001) is a perfectly
tame distribution (mean 10.000001), yet the classical series anchored on
the smallest scale underflows to zero in doubles on essentially every
point the distribution itself produces.  The Laguerre expansion, whose
coefficients come from the double-precision kernel behind a fit's
coeffs.json, evaluates cleanly.

Writes demos/out/density_curve.csv with columns x, series, expansion.
"""

from pathlib import Path

import numpy as np

from thorin import GgcModel, density_grid, float_coeffs, moschopoulos_density, sample

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

alpha, scales = [10.0, 1e-3], [1.0, 1e-3]
model = GgcModel(alpha, np.array(scales)[:, None])

# draw points from the model itself and evaluate both densities there
xs = sample(model, 1000, seed=11).ravel()
series = moschopoulos_density(alpha, scales, xs, terms=500)
ct = float_coeffs(model, (40,))
expansion = density_grid(ct, xs)

print(f"points sampled from the model:               {xs.size}")
print(f"classical series evaluates to exactly zero:  {np.mean(series == 0.0):.1%}")
print(f"Laguerre expansion strictly positive:        {np.mean(expansion > 0.0):.1%}")

grid = np.linspace(0.0, 40.0, 2001)
dens = density_grid(ct, grid)
print(f"expansion integrates over [0, 40] to:        {np.trapezoid(dens, grid):.6f}")

with open(OUT / "density_curve.csv", "w") as fh:
    fh.write("x,series,expansion\n")
    series_grid = moschopoulos_density(alpha, scales, grid, terms=500)
    for x, s, e in zip(grid, series_grid, dens):
        fh.write(f"{x:.6f},{s:.17g},{e:.17g}\n")
print(f"wrote {OUT / 'density_curve.csv'}")
