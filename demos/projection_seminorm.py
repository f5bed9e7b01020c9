"""Zero-normal-trace projection of divergence-free fields: why testing against
divergence-free functions only yields a seminorm, and how the harmonic
extension of the trace fills the gap."""

import numpy as np

from compactness_lab import (Grid, RasterDomain, StaggeredVectorField,
                             dual_norm_check, neumann_factor,
                             poincare_constant, project_divfree0, staggered_l2)
from compactness_lab.grid import divergence
from compactness_lab.synth import generator, random_stream_velocity

grid = Grid((64, 64), (1.0, 1.0))
dom = RasterDomain.full(grid)
c_omega = poincare_constant(dom)
factor = neumann_factor(dom)

print("the seminorm witness: u = (1, 0) is divergence-free with unit norm,")
print("but orthogonal to every zero-trace divergence-free test field:")
one = StaggeredVectorField.constant(grid, (1.0, 0.0))
print(f"  ||u||_2 = {staggered_l2(one):.12f}")
witness = dual_norm_check(one, dom, c_omega, factor)
print(f"  N(u) = ||P u||_2 = {witness.seminorm:.2e}")
print(f"  trace surrogate ||grad v||_2 = {witness.surrogate:.6f}")

print("\nrandom stream-function fields (exact discrete divergence zero):")
rng = generator(42)
for i in range(3):
    u = random_stream_velocity(grid, rng)
    rep = dual_norm_check(u, dom, c_omega, factor)
    pu = project_divfree0(u, dom, factor)
    div_res = float(np.max(np.abs(divergence(pu).values)))
    pyth = abs(rep.l2 ** 2 - rep.seminorm ** 2 - rep.surrogate ** 2) / rep.l2 ** 2
    print(f"  field {i}: ||u|| = {rep.l2:.4f}  N(u) = {rep.seminorm:.4f}"
          f"  surrogate = {rep.surrogate:.4f}")
    print(f"           Pythagoras defect {pyth:.1e}, div residual {div_res:.1e},"
          f"  dual-inequality slack {rep.slack:+.4f}")
print(f"\n  (Poincare constant of the square: {c_omega:.5f}; the inequality")
print("   ||u|| <= N(u) + (1 + C) * surrogate held with positive slack above)")
