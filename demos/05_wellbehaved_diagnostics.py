"""Well-behavedness diagnostics and the coefficient decay envelope.

The margin computed by best_eps measures how far the model's singular
points stay from the unit polydisc after the Moebius change of variable;
a positive margin comes with fast coefficient decay, which decay_check
verifies empirically on the coefficient tensor.
"""

import numpy as np

from thorin import (
    GgcModel,
    best_eps,
    classify_dependence,
    decay_check,
    disc_image,
    float_coeffs,
    is_eps_wb,
)

cases = {
    "single atom, scale 1": GgcModel([2.0], [[1.0]]),
    "single atom, scale 2": GgcModel([2.0], [[2.0]]),
    "mass below one": GgcModel([0.5], [[1.0]]),
    "independent bivariate": GgcModel([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]]),
    "comonotonic bivariate": GgcModel([2.0], [[1.0, 1.0]]),
    "three spread atoms": GgcModel(
        [1.0, 1.0, 0.4], [[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]]
    ),
}

for name, model in cases.items():
    rep = best_eps(model)
    margin = "inf" if rep.best_eps == float("inf") else f"{rep.best_eps:.4f}"
    extra = f"  [{rep.witness}]" if rep.witness else ""
    print(f"{name:24s} wb={str(rep.is_wb):5s} margin={margin}{extra}")

print()
m = GgcModel([2.0], [[2.0]])
for eps in (1.9, 2.0, 2.1):
    print(f"is the scale-2 atom {eps}-well-behaved?  {is_eps_wb(m, eps).is_wb}")

# the image of the disc of radius b under (t+1)/(t-1): the singular
# points must stay outside the image of the unit disc
for b in (0.5, 2.0):
    c, r = disc_image(b)
    print(f"disc radius {b}: image centered {c:+.4f}, radius {r:.4f}")

print()
model = GgcModel([0.5458, 2.4539], [[1.6283], [0.1999]])
rep = best_eps(model)
ct = float_coeffs(model, (40,))
B, ok = decay_check(ct, rep.best_eps / 2.0)
print(f"two-atom fit: margin {rep.best_eps:.4f}, decay envelope B={B:.4f}, ok={ok}")
print("dependence:", classify_dependence(model).kind)
a = np.abs(ct.as_float())
print("|a_k| at k = 0, 5, 10, 20, 40:", [f"{a[k]:.2e}" for k in (0, 5, 10, 20, 40)])
