"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from compactness_lab.cli import run as cli_run
from compactness_lab.divfree import (dual_norm_check, neumann_factor,
                                     normal_trace, per_slice_project,
                                     project_divfree0)
from compactness_lab.grid import (Grid, RasterDomain, ScalarField,
                                  StaggeredVectorField, divergence,
                                  neumann_laplacian, staggered_inner,
                                  staggered_l2)
from compactness_lab.mollify import commutator, make_mollifier
from compactness_lab.movedom import (NonCylindricalDomain, eps_interior,
                                     framing_check, make_domain, make_family,
                                     poincare_constant)
from compactness_lab.parabolic import (StepTimeSeries, barenblatt_profile,
                                       energy_report, mass, run_scheme,
                                       hypothesis_monitor)
from compactness_lab.probe import kruzhkov_probe, ns_probe
from compactness_lab.synth import (disk_bump_velocity, generator,
                                   oscillating_family,
                                   perturbation_scalar_family,
                                   random_smooth_field, random_stream_velocity,
                                   translating_disk_ns_family)
from compactness_lab.truncate import build_beta, nonlinearity_preset


def report(n, ok, text):
    line = f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'} - {text}"
    print(line)
    assert ok, line


def test_criterion_01_poincare_unit_square():
    t0 = time.perf_counter()
    g = Grid((128, 128), (1.0, 1.0))
    c = poincare_constant(make_domain("square:1.0", g))
    rel = abs(c - 1.0 / np.pi) * np.pi
    # cross-check: dense eigensolve of the same operator at 32x32
    g32 = Grid((32, 32), (1.0, 1.0))
    d32 = make_domain("square:1.0", g32)
    L = neumann_laplacian(d32)
    lam = scipy.linalg.eigh(L.toarray(), eigvals_only=True)
    dense = 1.0 / np.sqrt(lam[1])
    cross = abs(poincare_constant(d32) - dense) / dense
    wall = time.perf_counter() - t0
    report(1, rel <= 0.01 and cross <= 1e-9 and wall <= 60.0,
           f"Poincare(unit square, 128^2) = {c:.6f} vs 1/pi (rel {rel:.2e}), "
           f"dense cross-check {cross:.1e}, {wall:.1f}s")


def test_criterion_02_commutator_uniform_decay():
    g = Grid((2048,), (1.0,))
    x = g.axis_centers(0)
    a_sp = ScalarField(g, np.sin(2 * np.pi * x))
    b_sp = ScalarField(g, np.sign(np.sin(4 * np.pi * x)))
    n_slices = 32
    mids = (np.arange(n_slices) + 0.5) / n_slices
    sup = {}
    for k in (4, 8, 16, 32, 64):
        mol = make_mollifier(k, g)
        worst = 0.0
        for n in range(1, 17):
            coefs = np.sin(2 * np.pi * n * mids)
            a_n = StepTimeSeries((0.0, 1.0), tuple(a_sp * float(c) for c in coefs))
            b_n = StepTimeSeries((0.0, 1.0), tuple(b_sp * float(c) for c in coefs))
            worst = max(worst, commutator(a_n, b_n, mol)[1])
        sup[k] = worst
    ks = [4, 8, 16, 32, 64]
    monotone = all(sup[b] <= sup[a] * (1 + 1e-12) for a, b in zip(ks[:-1], ks[1:]))
    report(2, monotone and sup[64] <= sup[4] / 8.0,
           f"sup_n ||S||_1: k=4 -> {sup[4]:.3e}, k=64 -> {sup[64]:.3e} "
           f"(ratio {sup[4] / sup[64]:.1f}x, needs >= 8x, monotone={monotone})")


def test_criterion_03_barenblatt_benchmark():
    g = Grid((512,), (6.0,))
    phi = nonlinearity_preset("porous:2")
    prof = barenblatt_profile(2.0, 1.0)
    x = g.axis_centers(0) - 3.0
    u0 = ScalarField(g, prof(x, 0.1))
    sim = run_scheme(u0, 256, (0.1, 1.0), phi, bc="noflux")
    exact = prof(x, 1.0)
    l1 = np.sum(np.abs(sim.states[-1].values - exact)) * g.cell_volume
    l1_rel = l1 / (np.sum(np.abs(exact)) * g.cell_volume)
    masses = [mass(f) for f in sim.states]
    drift = max(abs(b - a) for a, b in zip(masses[:-1], masses[1:])) / abs(masses[0])
    erep = energy_report(sim.series, phi, rel_tol=1e-8)
    report(3, l1_rel <= 0.02 and drift <= 1e-12 and erep.ok,
           f"L1 error {l1_rel:.4%} (<= 2%), mass drift {drift:.2e} (<= 1e-12), "
           f"energy inequality ok at all {len(erep.rows)} steps")


def test_criterion_04_hypothesis_monitor():
    g = Grid((512,), (6.0,))
    dom = RasterDomain.full(g)
    phi = nonlinearity_preset("porous:2")
    prof = barenblatt_profile(2.0, 1.0)
    u0 = ScalarField(g, prof(g.axis_centers(0) - 3.0, 0.1))
    fam = [run_scheme(u0, n, (0.1, 1.0), phi).series for n in (16, 32, 64, 128)]
    mon = hypothesis_monitor(fam, phi, 1, dom)
    cols_ok = mon.verdict
    cauchy = [r[4] for r in mon.rows[1:]]
    strictly = all(b < a for a, b in zip(cauchy[:-1], cauchy[1:]))
    # adversarial family
    bump = ScalarField(g, np.exp(-(g.axis_centers(0) - 3.0) ** 2))
    adv = [oscillating_family(bump, (0.1, 1.0), 2 * n, [n])[0] for n in (8, 16, 32, 64)]
    mon2 = hypothesis_monitor(adv, phi, 1, dom)
    tvs = [r[3] for r in mon2.rows]
    growth = min(b / a for a, b in zip(tvs[:-1], tvs[1:]))
    report(4, cols_ok and strictly and growth >= 1.8 and not mon2.verdict,
           f"porous monitor consistent (Cauchy strictly decreasing), adversarial "
           f"tv growth x{growth:.2f} per refinement with negative verdict")


def test_criterion_05_truncation_construction():
    ok = True
    details = []
    for name in ("cubic", "porous:2"):
        phi = nonlinearity_preset(name)
        consts = []
        for eps in (0.2, 0.1, 0.05):
            beta = build_beta(phi, eps)
            jv, jd = beta.junction_mismatch()
            ok &= jv <= 1e-10 and jd <= 1e-10
            consts.append(beta.deviation_constant)
        spread = max(consts) / min(consts)
        ok &= spread <= 1.2
        details.append(f"{name}: C in [{min(consts):.4f}, {max(consts):.4f}] "
                       f"(spread {spread:.3f})")
    report(5, ok, "junctions <= 1e-10 and sup|beta-Id|/eps stable within 20%: "
           + "; ".join(details))


@pytest.fixture(scope="module")
def projection_suite():
    g = Grid((64, 64), (1.0, 1.0))
    dom = RasterDomain.full(g)
    rng = generator(42)
    fields = [random_stream_velocity(g, rng) for _ in range(100)]
    c_poincare, factor = poincare_constant(dom), neumann_factor(dom)
    reports = [dual_norm_check(u, dom, c_poincare, factor) for u in fields]
    return g, dom, factor, fields, reports


def test_criterion_06_projection_suite(projection_suite):
    g, dom, factor, fields, reports = projection_suite
    h = min(g.spacing)
    worst = {"div": 0.0, "trace": 0.0, "pyth": 0.0, "idem": 0.0, "selfadj": 0.0}
    rng = generator(7)
    idem_sample = set(int(i) for i in rng.integers(0, 100, size=12))
    prev_pu = None
    prev_u = None
    for i, (u, rep) in enumerate(zip(fields, reports)):
        scale = rep.l2
        pu = project_divfree0(u, dom, factor)
        worst["div"] = max(worst["div"],
                           float(np.max(np.abs(divergence(pu).values))) / (scale / h))
        tr = normal_trace(pu, dom)
        worst["trace"] = max(worst["trace"],
                             max(float(np.max(np.abs(v))) for v in tr.values) / scale)
        worst["pyth"] = max(worst["pyth"],
                            abs(rep.l2 ** 2 - rep.seminorm ** 2 - rep.surrogate ** 2) / rep.l2 ** 2)
        if i in idem_sample:
            ppu = project_divfree0(pu, dom, factor)
            worst["idem"] = max(worst["idem"], staggered_l2(ppu - pu) / scale)
        if prev_pu is not None:
            lhs = staggered_inner(prev_pu, u)
            rhs = staggered_inner(prev_u, pu)
            worst["selfadj"] = max(worst["selfadj"],
                                   abs(lhs - rhs) / (scale * staggered_l2(prev_u)))
        prev_pu, prev_u = pu, u
    one = StaggeredVectorField.constant(g, (1.0, 0.0))
    witness = staggered_l2(project_divfree0(one, dom, factor))
    norm_one = staggered_l2(one)
    ok = (all(v <= 1e-8 for v in worst.values()) and witness <= 1e-8
          and abs(norm_one - 1.0) <= 1e-12)
    report(6, ok, f"100-field suite residuals {worst} all <= 1e-8; "
           f"||P(1,0)|| = {witness:.1e} while ||(1,0)|| = {norm_one:.3f}")


def test_criterion_07_dual_inequalities(projection_suite):
    g, dom, factor, fields, reports = projection_suite
    min_slack = min(rep.slack / rep.l2 for rep in reports)
    # per-slice version on the translating disk
    speed = 0.1
    fam = make_family("translation", (0.0, 1.0), velocity=(speed, 0.0))
    disk = make_domain("disk:0.3", g, center=(0.45, 0.5))
    nc = NonCylindricalDomain(fam, disk, 8)
    members = translating_disk_ns_family(g, (0.0, 1.0), 8, 2, (0.45, 0.5), 0.3,
                                         (speed, 0.0), stream_fraction=0.7)
    from compactness_lab.movedom import transported_poincare
    c_a = transported_poincare(fam, disk, (0.0, 0.04))
    ok_slices = True
    worst_slice_slack = np.inf
    for k, splits in enumerate(per_slice_project([s.fields for s in members], nc, 0.04)):
        for u, surrogate, pu in splits:
            d = nc.transported(k, 0.04)
            u_r = u.restricted(d)
            l2 = staggered_l2(u_r)
            if l2 == 0.0:
                continue
            semi = staggered_l2(pu)
            slack = (semi + (1.0 + c_a) * surrogate - l2) / l2
            worst_slice_slack = min(worst_slice_slack, slack)
            ok_slices &= slack >= -1e-8
    report(7, min_slack >= -1e-8 and ok_slices,
           f"dual inequality slack >= {min_slack:.2e} on 100 fields; per-slice "
           f"translating-disk slack >= {worst_slice_slack:.2e} with transported constant")


def test_criterion_08_geometry():
    g = Grid((256, 256), (1.0, 1.0))
    disk = make_domain("disk:0.4", g)
    eroded = eps_interior(disk, 0.1)
    target = make_domain("disk:0.3", g)
    sym = eroded.inside ^ target.inside
    hausdorff = float(np.max(np.abs(target.signed_distance[sym]))) if sym.any() else 0.0
    chained = eps_interior(eps_interior(disk, 0.05), 0.05)
    direct = eps_interior(disk, 0.1)
    sym2 = chained.inside ^ direct.inside
    band = 2.0 * max(g.spacing)
    off_band = int(np.count_nonzero(sym2 & (np.abs(disk.signed_distance - 0.1) > band)))
    g128 = Grid((128, 128), (1.0, 1.0))
    disk128 = make_domain("disk:0.4", g128)
    tra = make_family("translation", (0.0, 1.0), velocity=(0.05, 0.02))
    rep_t = framing_check(NonCylindricalDomain(tra, disk128, 64), 0.1)
    dil = make_family("dilation", (0.0, 2 * np.pi), amplitude=0.25, center=(0.5, 0.5))
    rep_d = framing_check(NonCylindricalDomain(dil, make_domain("disk:0.25", g128), 64), 0.05)
    ok = hausdorff <= 2.0 / 256 and off_band == 0 and rep_t.ok and rep_d.ok
    report(8, ok, f"disk erosion Hausdorff {hausdorff * 256:.2f} cells (<= 2), "
           f"semigroup off-band {off_band}, framing (64 samples) translation eta="
           f"{rep_t.eta:.3f} and dilation eta={rep_d.eta:.3f} hold")


def test_criterion_09_ns_probe():
    g = Grid((64, 64), (1.0, 1.0))
    interval = (0.0, 1.0)
    speed = 0.15
    center = (0.5 - speed / 2, 0.5)
    fam = make_family("translation", interval, velocity=(speed, 0.0))
    ref = make_domain("disk:0.3", g, center=center)
    n_slices = 16
    nc = NonCylindricalDomain(fam, ref, n_slices)
    members = translating_disk_ns_family(g, interval, n_slices, 4, center, 0.3,
                                         (speed, 0.0), stream_fraction=0.55)
    delta_list = [0.0625, 0.03125]
    compact = nc.compact_core(2 * max(delta_list))
    j_list = [1, 2, 4]
    pos = ns_probe(members, nc, delta_list, j_list, compact, battery_seed=0)
    fam2 = make_family("identity", interval)
    ref2 = make_domain("disk:0.3", g)
    nc2 = NonCylindricalDomain(fam2, ref2, n_slices)
    adv = oscillating_family(disk_bump_velocity(g, (0.5, 0.5), 0.55 * 0.3),
                             interval, n_slices, [2, 4, 8])
    compact2 = nc2.compact_core(2 * max(delta_list))
    neg = ns_probe(adv, nc2, delta_list, j_list, compact2, battery_seed=0)
    growth_ok = all(
        all(b / a >= 1.8 for a, b in zip(c3[:-1], c3[1:]))
        for c3 in neg.step3_constants.values())
    ok = (pos.verdict and pos.budget_defect <= 1e-10 and not neg.verdict
          and growth_ok and any("dual bound violated" in f for f in neg.failures))
    report(9, ok, f"translating disk: positive verdict (budget defect "
           f"{pos.budget_defect:.1e}); oscillating family: negative with battery "
           f"constant growth >= 1.8x per doubling")


def test_criterion_10_kruzhkov_probe():
    g = Grid((64, 64), (1.0, 1.0))
    interval = (0.0, 1.0)
    fam = make_family("translation", interval, velocity=(0.1, 0.0))
    ref = make_domain("disk:0.35", g, center=(0.45, 0.5))
    nc = NonCylindricalDomain(fam, ref, 8)
    rng = generator(1)
    base = random_smooth_field(g, rng, modes=3)
    pert = random_smooth_field(g, rng, modes=3)
    pos = kruzhkov_probe(perturbation_scalar_family(base, pert, interval, 8, 6),
                         nc, 8, [16, 24, 32])
    neg = kruzhkov_probe(oscillating_family(base, interval, 8, [1, 2, 4]),
                         nc, 8, [16, 24, 32])
    ok = (pos.max_budget_defect <= 1e-10 and pos.verdict and not neg.verdict)
    report(10, ok, f"three-term budget defect {pos.max_budget_defect:.1e} (<= 1e-10); "
           f"1/n family positive, oscillating family negative "
           f"({'; '.join(neg.failures)})")


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("[divfree]\nn_fields = 8\ngrid = 32\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli_run("divfree", str(cfg), str(out1), seed=5) == 0
    assert cli_run("divfree", str(cfg), str(out2), seed=5) == 0
    same = (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    cfg2 = tmp_path / "c.cfg"
    cfg2.write_text("[commutator]\ncells = 512\nmembers = 2\nn_slices = 4\n"
                    "k_list = 4,8\ndecay_factor = 1.5\n")
    out3, out4 = tmp_path / "o3", tmp_path / "o4"
    assert cli_run("commutator", str(cfg2), str(out3), seed=9) == 0
    assert cli_run("commutator", str(cfg2), str(out4), seed=9) == 0
    same &= (out3 / "report.csv").read_bytes() == (out4 / "report.csv").read_bytes()
    report(11, same, "repeated seeded runs produce byte-identical report.csv")
