"""Uniform decay of the product commutator a (b*phi_k) - (ab)*phi_k over an
oscillatory family: the quantitative engine behind passing to the limit in
products of weakly converging sequences."""

import numpy as np

from compactness_lab import (Grid, ScalarField, make_mollifier,
                             separable_commutator_l1)
from compactness_lab.synth import oscillation_coefficients

grid = Grid((2048,), (1.0,))
x = grid.axis_centers(0)
a_sp = ScalarField(grid, np.sin(2 * np.pi * x))           # smooth factor
b_sp = ScalarField(grid, np.sign(np.sin(4 * np.pi * x)))  # bounded rough factor

# member n's slice j is (c a, c b) with c = sin(2 pi n t_j), t_j the midpoint
# of slice j of 32
coefs = oscillation_coefficients(range(1, 17), 32)

print("sup over 16 oscillatory members of ||S_{n,k}||_L1(t,x):")
prev = None
for k in (4, 8, 16, 32, 64):
    mol = make_mollifier(k, grid)
    worst = max(separable_commutator_l1(a_sp, b_sp, coefs, (0.0, 1.0), mol))
    ratio = "" if prev is None else f"  (x{worst / prev:.3f})"
    print(f"  k = {k:<3d} sup_n = {worst:.5e}{ratio}")
    prev = worst

print("\nswapping the rough factor into the first slot shows the generic O(1/k) rate:")
prev = None
for k in (4, 8, 16, 32):
    # one slice with c = 1: S(b, a) on [0, 1]
    [l1] = separable_commutator_l1(b_sp, a_sp, [[1.0]], (0.0, 1.0), make_mollifier(k, grid))
    ratio = "" if prev is None else f"  (x{l1 / prev:.3f})"
    print(f"  k = {k:<3d} ||S||_L1 = {l1:.5e}{ratio}")
    prev = l1
