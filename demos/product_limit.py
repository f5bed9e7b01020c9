"""The four-line product-limit pipeline: pair a b - a_n b_n against a test
function, split it along the proof's decomposition, and watch each line die in
its own limit; plus the Orlicz gauge machinery."""

import numpy as np
import scipy.optimize

from compactness_lab import (Grid, ScalarField, exp_orlicz_pair,
                             luxemburg_gauge, orlicz_holder_check,
                             product_pipeline)
from compactness_lab.mollify import shift_space
from compactness_lab.parabolic import constant_series

grid = Grid((256,), (1.0,))
x = grid.axis_centers(0)
a_lim = ScalarField(grid, np.sin(2 * np.pi * x) + 0.2 * np.cos(6 * np.pi * x))
b_sp = ScalarField(grid, np.cos(2 * np.pi * x))
theta = ScalarField(grid, np.sin(np.pi * x) ** 2)

a_seq, b_seq = [], []
for n in range(1, 9):
    j = max(1, round(256 / (8 * n)))
    a_seq.append(constant_series(shift_space(a_lim, [j * grid.spacing[0]]), (0.0, 1.0), 4))
    b_seq.append(constant_series(b_sp, (0.0, 1.0), 4))

report = product_pipeline(a_seq, b_seq, theta, [4, 16, 32], a_lim, b_sp)
print("space-translating family a_n = A(x + 1/n), fixed b: pairing lines")
print("  n   k    step1      step2      step3      step4      total")
for r in report.rows:
    if r.n in (1, 4, 8):
        print(f"  {r.n:<3d} {r.k:<4d} {r.step1:+.2e} {r.step2:+.2e} "
              f"{r.step3:+.2e} {r.step4:+.2e} {r.total:+.2e}")
print(f"  four-line accounting defect: {report.max_accounting_defect():.2e}")

print("\nLuxemburg gauge and the generalized Holder inequality:")
pair = exp_orlicz_pair()
tstar = scipy.optimize.brentq(lambda t: np.exp(t) - t - 2.0, 0.5, 2.0)
g2 = Grid((32, 32), (1.0, 1.0))
one = ScalarField.constant(g2, 1.0)
print(f"  gauge of 1 on the unit square: {luxemburg_gauge(one, pair):.6f}"
      f"  (1/t* = {1 / tstar:.6f})")
rep = orlicz_holder_check(one, one)
print(f"  Holder check f = g = 1: ||fg||_1 = {rep.lhs:.4f} <= "
      f"{rep.constant:g} * {rep.gauge_f:.4f} * {rep.gauge_g:.4f} = "
      f"{rep.constant * rep.gauge_f * rep.gauge_g:.4f}")
