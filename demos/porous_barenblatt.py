"""Porous-medium benchmark: march the semi-implicit scheme from a self-similar
profile and audit every hypothesis the compactness argument needs."""

import numpy as np

from compactness_lab import (DiffusionTensor, Grid, RasterDomain, ScalarField,
                             barenblatt_profile, energy_report, run_scheme,
                             hypothesis_monitor)
from compactness_lab.parabolic import mass
from compactness_lab.synth import oscillating_family
from compactness_lab.truncate import nonlinearity_preset


def verdict_text(mon):
    return ("consistent with strong L2 compactness" if mon.verdict
            else "inconsistent: " + "; ".join(mon.failures))


grid = Grid((512,), (6.0,))
phi = nonlinearity_preset("porous:2")
profile = barenblatt_profile(2.0, mass=1.0)
x = grid.axis_centers(0) - 3.0
u0 = ScalarField(grid, profile(x, 0.1))
A = DiffusionTensor.identity()

print("running N = 256 steps from t = 0.1 to t = 1.0 ...")
sim = run_scheme(u0, 256, (0.1, 1.0), A, phi, bc="noflux")
exact = profile(x, 1.0)
l1 = np.sum(np.abs(sim.states[-1].values - exact)) * grid.cell_volume
print(f"  L1 error vs closed form : {l1:.3e} ({l1 / np.sum(np.abs(exact)) / grid.cell_volume:.3%})")
masses = [mass(f) for f in sim.states]
print(f"  mass drift (max step)   : {max(abs(b - a) for a, b in zip(masses[:-1], masses[1:])):.2e}")
print(f"  Newton iterations (max) : {max(sim.newton_iters)}")
erep = energy_report(sim.series, A, phi)
print(f"  energy inequality       : {'holds at every step' if erep.ok else erep.violations}")

print("\nhypothesis monitor across time refinements:")
fam = [run_scheme(u0, n, (0.1, 1.0), A, phi).series for n in (16, 32, 64, 128)]
mon = hypothesis_monitor(fam, phi, 1, RasterDomain.full(grid))
print("  N     l2        grad_phi   tv(H^-1)  cauchy")
for n, l2, gp, tv, cz in mon.rows:
    print(f"  {n:<5d} {l2:<9.5f} {gp:<10.5f} {tv:<9.5f} {cz if np.isnan(cz) else round(cz, 6)}")
print(f"  verdict: {verdict_text(mon)}")

print("\nadversarial family sin(2 pi N t) g(x):")
bump = ScalarField(grid, np.exp(-x ** 2))
# on 2n slices the member is +g, -g, +g, ... exactly
adv = [oscillating_family(bump, (0.1, 1.0), 2 * n, [n])[0] for n in (8, 16, 32)]
mon2 = hypothesis_monitor(adv, phi, 1, RasterDomain.full(grid))
for n, l2, gp, tv, cz in mon2.rows:
    print(f"  N={n:<4d} tv(H^-1) = {tv:.3f}")
print(f"  verdict: {verdict_text(mon2)}")
