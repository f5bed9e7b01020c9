"""Compactness proofs executed as diagnostics: the mollification budget on a
moving domain and the divergence-free equicontinuity probe, each fed one
convergent and one adversarial family."""

from compactness_lab import (Grid, NonCylindricalDomain, kruzhkov_probe,
                             make_domain, make_family, ns_probe)
from compactness_lab.synth import (disk_bump_velocity, generator,
                                   oscillating_family,
                                   perturbation_scalar_family,
                                   random_smooth_field,
                                   translating_disk_ns_family)

grid = Grid((64, 64), (1.0, 1.0))
interval = (0.0, 1.0)

print("=== mollification budget (scalar, translating disk) ===")
fam = make_family("translation", interval, velocity=(0.1, 0.0))
ref = make_domain("disk:0.35", grid, center=(0.45, 0.5))
nc = NonCylindricalDomain(fam, ref, 8)
rng = generator(1)
base = random_smooth_field(grid, rng, modes=3)
pert = random_smooth_field(grid, rng, modes=3)
pos = kruzhkov_probe(perturbation_scalar_family(base, pert, interval, 8, 6),
                     nc, 8, [16, 24, 32])
print(f"  1/n-perturbation family: verdict "
      f"{'POSITIVE' if pos.verdict else 'NEGATIVE'}"
      f" (budget defect {pos.max_budget_defect:.1e})")
print(f"  uniform moduli: "
      + ", ".join(f"ell={k}: {v:.2e}" for k, v in pos.uniform_modulus.items()))
neg = kruzhkov_probe(oscillating_family(base, interval, 8, [1, 2, 4]),
                     nc, 8, [16, 24, 32])
print(f"  oscillating family: verdict {'POSITIVE' if neg.verdict else 'NEGATIVE'}"
      f" -- {'; '.join(neg.failures)}")

print("\n=== divergence-free equicontinuity probe ===")
speed = 0.15
center = (0.5 - speed / 2, 0.5)
fam2 = make_family("translation", interval, velocity=(speed, 0.0))
ref2 = make_domain("disk:0.3", grid, center=center)
nc2 = NonCylindricalDomain(fam2, ref2, 16)
members = translating_disk_ns_family(grid, interval, 16, 4, center, 0.3,
                                     (speed, 0.0), stream_fraction=0.55)
delta_list = [0.0625, 0.03125]
rep = ns_probe(members, nc2, delta_list, (1, 2, 4),
               nc2.compact_core(2 * max(delta_list)))
print(f"  translating-disk family: verdict {'POSITIVE' if rep.verdict else 'NEGATIVE'}")
print(f"  step-1 defect by delta : "
      + ", ".join(f"{d:g}: {v:.2e}" for d, v in rep.step1_sup.items()))
print(f"  time-shift safety xi   : "
      + ", ".join(f"{d:g}: {v:.3f}" for d, v in rep.xi.items()))

fam3 = make_family("identity", interval)
ref3 = make_domain("disk:0.3", grid)
nc3 = NonCylindricalDomain(fam3, ref3, 16)
adv = oscillating_family(disk_bump_velocity(grid, (0.5, 0.5), 0.55 * 0.3),
                         interval, 16, [2, 4, 8])
rep2 = ns_probe(adv, nc3, delta_list, (1, 2, 4),
                nc3.compact_core(2 * max(delta_list)))
print(f"\n  oscillating family: verdict {'POSITIVE' if rep2.verdict else 'NEGATIVE'}")
for f in rep2.failures:
    print(f"    - {f}")
for d, c3 in rep2.step3_constants.items():
    print(f"  battery dual constants at delta={d:g}: "
          + ", ".join(f"{c:.3f}" for c in c3))
