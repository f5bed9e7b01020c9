"""Moving-domain geometry: epsilon-interiors by exact distance transforms, the
bilipschitz framing of transported erosions, and the uniform constants
(Jacobian, Poincare) that survive the motion."""

import numpy as np

from compactness_lab import (Grid, NonCylindricalDomain, bilipschitz,
                             eps_interior, framing_check, jacobian_bounds,
                             make_domain, make_family, peel_measure,
                             poincare_constant, transported_poincare)

grid = Grid((256, 256), (1.0, 1.0))
disk = make_domain("disk:0.4", grid)

print("erosion of the 0.4-disk by 0.1 vs the analytic 0.3-disk:")
eroded = eps_interior(disk, 0.1)
target = make_domain("disk:0.3", grid)
sym = eroded.inside ^ target.inside
print(f"  symmetric difference: {np.count_nonzero(sym)} cells, all within "
      f"{np.max(np.abs(target.signed_distance[sym])) * 256:.2f} cells of the contour")
print(f"  annulus measure {disk.measure - eroded.measure:.5f} "
      f"(analytic {np.pi * 0.07:.5f})")

print("\nPoincare constants:")
g128 = Grid((128, 128), (1.0, 1.0))
square = make_domain("square:1.0", g128)
print(f"  unit square: {poincare_constant(square):.6f}  (1/pi = {1 / np.pi:.6f})")
sweep = [poincare_constant(eps_interior(square, e)) for e in (0.0, 0.05, 0.1)]
print(f"  erosion sweep constants: {[round(c, 5) for c in sweep]}"
      f"  (common constant {max(sweep):.5f})")

print("\ndilation family 1 + 0.25 sin t over a full period:")
fam = make_family("dilation", (0.0, 2 * np.pi), amplitude=0.25, center=(0.5, 0.5))
small = make_domain("disk:0.25", g128)
jb = jacobian_bounds(fam)
K = bilipschitz(fam)
print(f"  Jacobian range [{jb.raw_min:.4f}, {jb.raw_max:.4f}]"
      f"  (analytic [{0.75 ** 2}, {1.25 ** 2}])")
print(f"  bilipschitz K = {K:.4f}, eta = {1.0 / K:.4f}")
nc = NonCylindricalDomain(fam, small, 16)
rep = framing_check(nc, 0.05)
print(f"  framing (Omega^t)_(eps/eta) in A_t(Omega_eps) in (Omega^t)_(eta eps):"
      f" banded violations {rep.inner_violations_banded}/{rep.outer_violations_banded}")
peel = peel_measure(nc, 0.05)
print(f"  peel sup_t mu(Omega^t \\ A_t(Omega_eps)) = {peel.measured_sup:.5f}"
      f" <= beta * mu(Omega \\ Omega_eps) = {peel.bound:.5f}")
print(f"  transported Poincare constant: "
      f"{transported_poincare(fam, small, (0.0, 0.04)):.5f}")
