import functools
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from compactness_lab import cli, probe
from compactness_lab.cli import _csv_text
from compactness_lab.divfree import per_slice_project
from compactness_lab.grid import (Grid, RasterDomain, ScalarField,
                                  StaggeredVectorField, dirichlet_factor,
                                  h_minus_m_norm, inner, lp_norm,
                                  staggered_inner, staggered_l2)
from compactness_lab.mollify import (convolve_space, convolve_staggered,
                                     make_mollifier)
from compactness_lab.movedom import (NonCylindricalDomain, make_domain,
                                     make_family, sobolev_embedding_exponent)
from compactness_lab.parabolic import (StepTimeSeries, constant_series,
                                       run_scheme, series_l2, time_derivative_tv)
from compactness_lab.probe import (DECAY_RATIO, Battery, _floor, kruzhkov_probe,
                                   make_battery, ns_probe, series_lp,
                                   shift_budget_lines, step3_dual_constant,
                                   time_profiles, time_shift_safety)
from compactness_lab.productlimit import product_pipeline
from compactness_lab.synth import (bump, disk_bump_velocity, generator,
                                   oscillating_family,
                                   perturbation_scalar_family,
                                   random_smooth_field, random_stream_velocity,
                                   translating_disk_ns_family)
from compactness_lab.truncate import build_beta, nonlinearity_preset
from conftest import IDENTITY


GRID = Grid((64, 64), (1.0, 1.0))
INTERVAL = (0.0, 1.0)


@pytest.fixture(scope="module")
def moving_disk():
    fam = make_family("translation", INTERVAL, velocity=(0.1, 0.0))
    ref = make_domain("disk:0.35", GRID, center=(0.45, 0.5))
    return NonCylindricalDomain(fam, ref, 8)


@pytest.fixture(scope="module")
def scalar_fields():
    rng = generator(1)
    return random_smooth_field(GRID, rng, modes=3), random_smooth_field(GRID, rng, modes=3)


def test_kruzhkov_budget_additivity(moving_disk, scalar_fields):
    base, pert = scalar_fields
    fam = perturbation_scalar_family(base, pert, INTERVAL, 8, 4)
    rep = kruzhkov_probe(fam, moving_disk, 8, [16, 32])
    assert rep.max_budget_defect <= 1e-10


# random translating disks on a grid of non-square cells (h = 1/40 by 1.5/48,
# fine enough for kernels down to 1/16): the budget lines are algebraic
# identities, so they add up to round-off on every one of them
BUDGET_GRID = Grid((40, 48), (1.0, 1.5))
BUDGET_VELOCITY = (0.05, 0.0)
DISKS = st.tuples(st.floats(0.38, 0.44), st.floats(0.46, 0.5), st.floats(0.6, 0.9))


def _moving_disk(disk, n_slices):
    radius, cx, cy = disk
    ref = make_domain(f"disk:{radius}", BUDGET_GRID, center=(cx, cy))
    fam = make_family("translation", INTERVAL, velocity=BUDGET_VELOCITY)
    return NonCylindricalDomain(fam, ref, n_slices)


@settings(max_examples=10, deadline=None)
@given(DISKS, st.integers(0, 2 ** 32 - 1))
def test_kruzhkov_budget_adds_up_on_random_disks(disk, seed):
    rng = generator(seed)
    base, pert = (random_smooth_field(BUDGET_GRID, rng, modes=3) for _ in range(2))
    fam = perturbation_scalar_family(base, pert, INTERVAL, 4, 3)
    rep = kruzhkov_probe(fam, _moving_disk(disk, 4), 4, [8, 16])
    assert rep.rows and rep.max_budget_defect <= 1e-10


def test_kruzhkov_rows_recomputed_slice_by_slice():
    # oracle: each term of each row recomputed from the member values, slice
    # by slice: an L^2 norm on A_t(Omega_{1/m}) by `lp_norm`, summed over slices
    g, m, n_slices = Grid((32, 32), (1.0, 1.0)), 4, 4
    fam = make_family("translation", INTERVAL, velocity=(0.1, 0.0))
    nc = NonCylindricalDomain(fam, make_domain("disk:0.35", g, center=(0.45, 0.5)), n_slices)
    rng = generator(3)
    base, pert = (random_smooth_field(g, rng, modes=3) for _ in range(2))
    members = perturbation_scalar_family(base, pert, INTERVAL, n_slices, 3)
    rep = kruzhkov_probe(members, nc, m, [8, 16])
    inner_domains = [nc.transported(k, 1.0 / m) for k in range(n_slices)]

    def norm(slices):
        return np.sqrt(members[0].delta * sum(lp_norm(ScalarField(g, v), 2, d) ** 2
                                              for v, d in zip(slices, inner_domains)))

    vals = [[np.where(nc.slice_raster(k).inside, f.values, 0.0) for k, f in enumerate(s.fields)]
            for s in members]
    want = []
    for ell in (8, 16):
        mol = make_mollifier(ell, g)
        conv = [[convolve_space(ScalarField(g, v), mol).values for v in s] for s in vals]
        first = [norm([v - c for v, c in zip(vals[i], conv[i])]) for i in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                want.append((i + 1, j + 1, ell, first[i],
                             norm([a - b for a, b in zip(conv[i], conv[j])]), first[j],
                             norm([a - b for a, b in zip(vals[i], vals[j])])))
    assert [row[:3] for row in rep.rows] == [w[:3] for w in want]
    assert all(min(w[3:]) > 0 for w in want)
    np.testing.assert_allclose([row[3:] for row in rep.rows], [w[3:] for w in want],
                               rtol=1e-12, atol=0)


def test_kruzhkov_constant_family(moving_disk, scalar_fields):
    base, _ = scalar_fields
    fam = [constant_series(base, INTERVAL, 8)] * 3
    rep = kruzhkov_probe(fam, moving_disk, 8, [16, 32])
    for ell, pw in rep.pairwise.items():
        assert all(v <= 1e-12 for v in pw.values())
    assert rep.verdict


def test_kruzhkov_perturbation_family_positive(moving_disk, scalar_fields):
    base, pert = scalar_fields
    fam = perturbation_scalar_family(base, pert, INTERVAL, 8, 6)
    rep = kruzhkov_probe(fam, moving_disk, 8, [16, 24, 32])
    assert rep.verdict, rep.failures
    ells = rep.ell_list
    assert rep.uniform_modulus[ells[-1]] <= rep.uniform_modulus[ells[0]]


def test_kruzhkov_oscillating_family_negative(moving_disk, scalar_fields):
    base, _ = scalar_fields
    fam = oscillating_family(base, INTERVAL, 8, [1, 2, 4])
    rep = kruzhkov_probe(fam, moving_disk, 8, [16, 24, 32])
    assert not rep.verdict
    assert any("Cauchy" in f for f in rep.failures)


def test_kruzhkov_under_resolved_scale_rejected(moving_disk, scalar_fields):
    base, _ = scalar_fields
    fam = [constant_series(base, INTERVAL, 8)]
    with pytest.raises(ValueError):
        kruzhkov_probe(fam, moving_disk, 16, [16, 32])


def test_kruzhkov_csv_schema(moving_disk, scalar_fields, tmp_path):
    base, pert = scalar_fields
    fam = perturbation_scalar_family(base, pert, INTERVAL, 8, 2)
    rep = kruzhkov_probe(fam, moving_disk, 8, [16])
    path = tmp_path / "k.csv"
    path.write_text(_csv_text(rep.columns, rep.rows))
    assert path.read_text().splitlines()[0] == "n,q,ell,term1,term2,term3,total"


# the local-to-global step on non-cylindrical domains, which no run executes:
# peel norms on the eps-boundary layer, directly and by the Holder/Sobolev
# mechanism, and a family whose mass concentrates at the boundary

def local_to_global(f_seq, nc, eps_list):
    """Peel norms ||f_n||_{L^p(Omega_hat minus Omega_hat_eps)}, p = 2, directly
    and via the Holder/Sobolev mechanism; direct must not exceed the mechanism
    bound, and the family sup must decay as eps shrinks.  Returns the sup per
    eps, whether the mechanism held, its worst relative slack, and whether the
    sup decayed."""
    eps_list = sorted(float(e) for e in eps_list)
    p = 2
    ps = sobolev_embedding_exponent(p, nc.grid.dim)
    vol = nc.grid.cell_volume
    slice_domains = [nc.slice_raster(k) for k in range(nc.n_slices)]
    sup_direct, worst_slack, mechanism_ok = {}, 0.0, True
    for eps in eps_list:
        peels = [slice_domains[k].inside & ~nc.transported(k, eps).inside
                 for k in range(nc.n_slices)]
        best = 0.0
        for s in f_seq:
            direct_p = mech_p = 0.0
            for k, f in enumerate(s.fields):
                direct_p += float(np.sum(np.abs(f.values[peels[k]]) ** p)) * vol
                mu_peel = float(np.count_nonzero(peels[k])) * vol
                mech_p += lp_norm(f, ps, slice_domains[k]) ** p * mu_peel ** (1.0 - p / ps)
            direct = (direct_p * s.delta) ** (1.0 / p)
            mech = (mech_p * s.delta) ** (1.0 / p)
            worst_slack = max(worst_slack, (direct - mech) / (mech + 1e-300))
            mechanism_ok &= direct - mech <= 1e-9 * (mech + 1.0)
            best = max(best, direct)
        sup_direct[eps] = best
    decayed = sup_direct[eps_list[0]] <= max(DECAY_RATIO * sup_direct[eps_list[-1]],
                                             _floor(max(sup_direct.values())))
    return sup_direct, mechanism_ok, worst_slack, decayed


def boundary_bump_family(domain, interval, n_slices, n_members):
    """Members of unit L^2 mass concentrating at distance 1/4n from the
    boundary (width 1/8n): their peel norms do not decay uniformly."""
    g = domain.grid
    out = []
    for n in range(1, n_members + 1):
        dist = 0.25 / n
        width = max(dist / 2.0, 2.0 * max(g.spacing))
        f = ScalarField(g, bump((domain.signed_distance - dist) / width), mask=domain)
        nrm = lp_norm(f, 2)
        out.append(constant_series(f * (1.0 / nrm) if nrm > 0 else f, interval, n_slices))
    return out


def test_local_to_global_supported_family(moving_disk):
    ref = moving_disk.reference
    inner = ScalarField(GRID, np.where(ref.signed_distance > 0.25, 1.0, 0.0), mask=ref)
    sup_direct, _, _, _ = local_to_global([constant_series(inner, INTERVAL, 4)],
                                          NonCylindricalDomain(moving_disk.family, ref, 4),
                                          [0.05, 0.1, 0.2])
    assert sup_direct[0.05] == 0.0 and sup_direct[0.1] == 0.0


def test_local_to_global_smooth_family_decays(moving_disk, scalar_fields):
    base, pert = scalar_fields
    ref = moving_disk.reference
    nc = NonCylindricalDomain(moving_disk.family, ref, 4)
    r = np.clip(ref.signed_distance / 0.12, 0.0, 1.0)
    cut = ScalarField(GRID, r * r * (3.0 - 2.0 * r), mask=ref)  # smoothstep
    fam = [StepTimeSeries(INTERVAL, ((base + (1.0 / n) * pert) * cut,) * 4)
           for n in range(1, 5)]
    sup_direct, mechanism_ok, slack, decayed = local_to_global(fam, nc, [0.05, 0.1, 0.2])
    assert mechanism_ok and decayed, sup_direct
    assert slack <= 1e-9


def test_local_to_global_concentrating_family_flagged(moving_disk):
    ref = moving_disk.reference
    nc = NonCylindricalDomain(moving_disk.family, ref, 4)
    fam = boundary_bump_family(ref, INTERVAL, 4, 8)
    _, mechanism_ok, _, decayed = local_to_global(fam, nc, [0.05, 0.1, 0.2])
    assert mechanism_ok
    assert not decayed


# the truncation lim-sup chain of the degenerate-parabolic theorem, which no
# run executes

def limsup_probe(a_seq, phi, eps_list, m, domain, a_limit, k_pipeline):
    """Build the truncation per eps, run the product pipeline on
    (a_n, beta(a_n)) against theta = 1, check the measured deviation bounds,
    and compare the tail of ||a_n||^2 against ||a||^2 + C_measured eps.
    Returns rows (eps, C_meas, chain bound, tail), the time-derivative TV per
    member, the worst pipeline defect and the failures."""
    theta = ScalarField.constant(domain.grid, 1.0, mask=domain)
    factor = dirichlet_factor(domain)
    tv = [time_derivative_tv(s, m, factor) for s in a_seq]
    failures = []
    tv_floor = 1e-9 * (max(tv) + 1.0)
    if max(tv) > max(4.0 * max(min(tv), tv_floor), tv_floor):
        failures.append("time-derivative measure bound fails across the family "
                        "(pipeline Step 2 hypothesis)")
    lim_l2 = series_l2(constant_series(a_limit, a_seq[0].interval, a_seq[0].n_steps))
    interval_measure = (a_seq[0].interval[1] - a_seq[0].interval[0]) * domain.measure
    sup_norm = max(series_l2(s) for s in a_seq)
    eps_rows, worst_defect = [], 0.0
    for eps in sorted(eps_list):
        beta = build_beta(phi, eps)
        b_seq = [s.map(lambda f: f.map(beta)) for s in a_seq]
        b_lim = a_limit.map(beta)
        dev_bound = beta.deviation_constant * eps * np.sqrt(interval_measure) + 1e-12
        if any(series_l2(s - b, [domain] * s.n_steps) > dev_bound * (1.0 + 1e-9)
               for s, b in zip(a_seq, b_seq)):
            failures.append(f"truncation deviation exceeds C_meas*eps at eps={eps:g}")
        report = product_pipeline(a_seq, b_seq, theta, [k_pipeline], a_limit, b_lim)
        worst_defect = max(worst_defect, report.max_accounting_defect())
        totals = [abs(t) for t in report.column("total", k=k_pipeline)]
        if totals[-1] > max(DECAY_RATIO * totals[0], _floor(sup_norm ** 2)):
            failures.append(f"product pairing does not settle in n at eps={eps:g} "
                            "(pipeline Step 2)")
        c_chain = (sup_norm + lim_l2) * beta.deviation_constant * np.sqrt(interval_measure)
        tail = series_l2(a_seq[-1]) ** 2
        bound = lim_l2 ** 2 + c_chain * eps + totals[-1] + 1e-9 * (lim_l2 ** 2 + 1.0)
        eps_rows.append((eps, beta.deviation_constant, bound, tail))
        if tail > bound:
            failures.append(f"lim-sup chain violated at eps={eps:g}: "
                            f"{tail:.6g} > {bound:.6g}")
    return eps_rows, tv, worst_defect, failures


def test_limsup_constant_family_equality(scalar_fields):
    base, _ = scalar_fields
    dom = RasterDomain.full(GRID)
    phi = nonlinearity_preset("porous:2")
    fam = [constant_series(base, INTERVAL, 8) for _ in range(4)]
    eps_rows, _, pipeline_defect, failures = limsup_probe(fam, phi, [0.2, 0.1], 1, dom, base, 8)
    assert not failures, failures
    # all members identical: the pipeline defect is pure rounding
    assert pipeline_defect <= 1e-10
    tails = [row[3] for row in eps_rows]
    assert max(tails) == pytest.approx(min(tails), rel=1e-12)


def test_limsup_convergent_family_positive(scalar_fields):
    base, pert = scalar_fields
    dom = RasterDomain.full(GRID)
    phi = nonlinearity_preset("porous:2")
    fam = [StepTimeSeries(INTERVAL, (base + (1.0 / n) * pert,) * 8) for n in range(1, 7)]
    eps_rows, _, _, failures = limsup_probe(fam, phi, [0.2, 0.1], 1, dom, base, 8)
    assert not failures, failures
    for eps, c_meas, bound, tail in eps_rows:
        assert tail <= bound


def test_limsup_oscillating_family_negative(scalar_fields):
    base, _ = scalar_fields
    dom = RasterDomain.full(GRID)
    phi = nonlinearity_preset("porous:2")
    fam = [oscillating_family(base, INTERVAL, 2 * n, [n])[0] for n in (4, 8, 16)]
    _, tv, _, failures = limsup_probe(fam, phi, [0.2], 1, dom, base * 0.0, 8)
    assert any("Step 2" in f for f in failures)
    assert tv[-1] >= 3.0 * tv[0]


def test_time_shift_safety_identity():
    ref = make_domain("disk:0.3", GRID)
    fam = make_family("identity", INTERVAL)
    assert time_shift_safety(NonCylindricalDomain(fam, ref, 16), 0.05) == pytest.approx(1.0)


def test_time_shift_safety_translation_scale():
    ref = make_domain("disk:0.3", GRID, center=(0.4, 0.5))
    speed = 0.15
    fam = make_family("translation", INTERVAL, velocity=(speed, 0.0))
    xi = time_shift_safety(NonCylindricalDomain(fam, ref, 16), 0.05)
    predicted = 0.05 / speed
    assert predicted / 2 <= xi <= predicted * 2


def test_nsprobe_pulls_each_raster_and_time_back_once(tmp_path, monkeypatch):
    # the dyadic search samples t and t + sigma for sigma in {xi/4, xi/2, xi}:
    # 98 pull-backs per delta without the memo, 79 and 82 distinct (raster, t)
    # in the two calls; 12 of them recur across the calls (the 2 delta-erosion
    # at delta = 1/32 is the delta-erosion at 1/16) and are pulled back again
    calls = []
    pull_back, safety = probe._pull_back, probe.time_shift_safety

    def counted(family, base, t):
        calls[-1].append((base, t))
        return pull_back(family, base, t)

    def one_call(*args):
        calls.append([])
        return safety(*args)

    monkeypatch.setattr(probe, "_pull_back", counted)
    monkeypatch.setattr(probe, "time_shift_safety", one_call)
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("")
    assert cli.run("nsprobe", str(cfg), str(tmp_path / "out"), seed=0) == 0
    assert [len(c) for c in calls] == [len(set(c)) for c in calls] == [79, 82]


def test_time_shift_safety_dilation_found(monkeypatch):
    ref = make_domain("disk:0.3", GRID)
    fam = make_family("dilation", INTERVAL, amplitude=0.25, center=(0.5, 0.5))
    monkeypatch.setattr(probe, "SHIFT_SAFETY_TIMES", 64)
    xi = time_shift_safety(NonCylindricalDomain(fam, ref, 16), 0.05)
    assert xi > 0


# the dual time estimate of the criterion, |<d_t u_n, psi>| bounded by the
# W^{N,2} norm of psi, on a battery of scalar bumps; no run executes it (the
# porous run audits d_t u by its exact H^{-m} total variation)

def scalar_battery(grid, interval, n_steps, seed):
    """The battery's time profiles times three seeded scalar bumps."""
    rng = generator(seed)
    pts = grid.cell_centers().reshape(-1, grid.dim)
    w = 0.2 * min(grid.extent)
    spaces = []
    for _ in range(3):
        c = np.array([rng.uniform(0.3, 0.7) * L for L in grid.extent])
        vals = bump(np.linalg.norm(pts - c, axis=1) / w).reshape(grid.shape)
        spaces.append(ScalarField(grid, vals))
    return Battery(spaces, time_profiles(interval, n_steps))


def derivative_norms(space, n_order):
    """Sum over multi-indices |alpha| <= n_order of the finite-difference L^2
    norms of a scalar field."""
    g = space.grid
    level, total = [space.values], 0.0
    for order in range(n_order + 1):
        if order:
            level = [np.diff(x, axis=a) / g.spacing[a] for x in level for a in range(g.dim)]
        total += sum(float(np.sqrt(np.sum(x ** 2) * g.cell_volume)) for x in level)
    return total


def dual_time_estimate(series, battery):
    """max over the battery of |<d_t u, psi>| / sum_{|alpha|<=1} ||d^alpha psi||."""
    return _brute_force_dual_ratio(series, battery, lambda sp: derivative_norms(sp, 1))


def test_battery_and_dual_estimate_cases():
    battery = scalar_battery(GRID, INTERVAL, 16, seed=3)
    base = random_smooth_field(GRID, generator(2), modes=3)
    c, _ = dual_time_estimate(constant_series(base, INTERVAL, 16), battery)
    assert c == 0.0
    dom = RasterDomain.full(GRID)
    zero = base * 0.0
    single = StepTimeSeries(INTERVAL, (zero,) * 8 + (base,) * 8)
    c1, _ = dual_time_estimate(single, battery)
    assert c1 <= h_minus_m_norm(base, 1, dirichlet_factor(dom)) * (1 + 1e-9)
    assert c1 > 0


def test_dual_estimate_heat_flow_bounded():
    g1 = Grid((128,), (1.0,))
    phi = IDENTITY
    u0 = ScalarField.from_function(g1, lambda p: np.sin(np.pi * p[:, 0]))
    vals = []
    for n in (16, 32, 64):
        run = run_scheme(u0, n, INTERVAL, phi, bc="dirichlet0")
        bat = scalar_battery(g1, INTERVAL, n, seed=3)
        c, _ = dual_time_estimate(run.series, bat)
        vals.append(c)
    assert max(vals) <= 2.0 * min(vals)


def _face_gradient_l2(s):
    """L^2(I x Omega) of the componentwise face-lattice gradient of a series
    of face fields."""
    g = s.fields[0].grid
    total = sum(float(np.sum((np.diff(c, axis=a) / g.spacing[a]) ** 2))
                for f in s.fields for c in f.components for a in range(g.dim))
    return float(np.sqrt(s.delta * total * g.cell_volume))


@pytest.fixture(scope="module")
def ns_setup():
    speed = 0.15
    center = (0.5 - speed / 2, 0.5)
    fam = make_family("translation", INTERVAL, velocity=(speed, 0.0))
    ref = make_domain("disk:0.3", GRID, center=center)
    n_slices = 16
    nc = NonCylindricalDomain(fam, ref, n_slices)
    members = translating_disk_ns_family(GRID, INTERVAL, n_slices, 4, center, 0.3,
                                         (speed, 0.0), stream_fraction=0.55)
    delta_list = [0.0625, 0.03125]
    return nc, members, delta_list, [1, 2, 4], nc.compact_core(2 * max(delta_list))


@pytest.fixture(scope="module")
def ns_convergent(ns_setup):
    nc, members, delta_list, j_list, compact = ns_setup
    return ns_probe(members, nc, delta_list, j_list, compact, battery_seed=0)


def test_ns_probe_convergent_positive(ns_setup, ns_convergent):
    nc, members, delta_list, _, compact = ns_setup
    rep = ns_convergent
    assert rep.verdict, rep.failures
    assert rep.budget_defect <= 1e-10
    # step-1 defect vanishes with delta, and the chain holds with measured constants
    d_first, d_last = max(delta_list), min(delta_list)
    assert rep.step1_sup[d_last] <= 0.6 * rep.step1_sup[d_first] + 1e-8
    assert not any("chain" in f for f in rep.failures)
    # the mollification line u - u*rho_delta on the 2 delta-interiors is
    # controlled by delta ||grad u|| (within the lattice factor sqrt 2)
    slices = [nc.slice_raster(k) for k in range(nc.n_slices)]
    for delta in delta_list:
        mol = make_mollifier(round(1.0 / delta), GRID)
        interiors = [nc.transported(k, 2.0 * delta) for k in range(nc.n_slices)]
        for s in members:
            u = s.restricted(slices)
            moll = series_l2(u - u.map(lambda f: convolve_staggered(f, mol)), interiors)
            assert moll <= np.sqrt(2) * delta * _face_gradient_l2(u) * (1 + 1e-6)


def test_ns_lines_recomputed_slice_by_slice(ns_setup, ns_convergent):
    # oracle: each budget line of each row from the mollified and projected
    # slices, an L^2 norm over `compact` summed slice by slice from the
    # largest shift on (the rows' window); lambda_s d - d is d_{k-j} - d_k there
    nc, members, delta_list, j_list, compact = ns_setup
    dt = members[0].delta
    j_window = max(j_list)
    slices = [nc.slice_raster(k) for k in range(nc.n_slices)]
    us = [s.restricted(slices).fields for s in members]

    def norm(d, j):
        return np.sqrt(dt * sum(staggered_l2((d[k - j] - d[k]).restricted(compact)) ** 2
                                for k in range(j_window, nc.n_slices)))

    want = []
    for delta in sorted(delta_list, reverse=True):
        mol = make_mollifier(round(1.0 / delta), GRID)
        vs = [StepTimeSeries(INTERVAL, tuple(convolve_staggered(f, mol) for f in u)) for u in us]
        pvs = [p.projected.fields for p in per_slice_project(vs, nc, 2.0 * delta)]
        for j in sorted(j_list):
            s = j * dt
            if s > ns_convergent.xi[delta] + 1e-12:
                continue
            for n, (u, v, pv) in enumerate(zip(us, vs, pvs), start=1):
                lines = ([a - b for a, b in zip(u, v.fields)],
                         [a - b for a, b in zip(v.fields, pv)], pv, u)
                want.append((n, delta, s, *(norm(d, j) for d in lines)))
    got = [astuple(r) for r in ns_convergent.rows]
    assert [g[:3] for g in got] == [w[:3] for w in want]
    # line2 is exactly 0 where the projection leaves `compact` alone (finest delta)
    assert {w[1] for w in want} == set(delta_list) and max(w[4] for w in want) > 0
    assert all(min(w[3], w[5], w[6]) > 0 for w in want)
    np.testing.assert_allclose([g[5:] for g in got], [w[3:] for w in want], rtol=1e-12, atol=0)


def shifted(series, j):
    """lambda_{j delta}: the series shifted by j steps (f(t - j delta)),
    zero-filled with `fields[0] * 0.0`; the kept slices are the same objects.
    The series form of the shift that `shift_budget_lines` streams."""
    zero = series.fields[0] * 0.0
    n = series.n_steps
    return StepTimeSeries(series.interval, tuple(
        series.fields[k - j] if 0 <= k - j < n else zero for k in range(n)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_step_series_shift_and_restriction(data):
    dim = data.draw(st.integers(1, 2))
    shape = tuple(data.draw(st.integers(1, 9)) for _ in range(dim))
    extent = tuple(data.draw(st.floats(0.25, 4.0)) for _ in range(dim))
    n = data.draw(st.integers(1, 6))
    g = Grid(shape, extent)

    def values(array_shape):
        return data.draw(hnp.arrays(float, array_shape, elements=st.floats(-1e3, 1e3)))

    if data.draw(st.booleans()):
        fields = [ScalarField(g, values(shape)) for _ in range(n)]
        norm = functools.partial(lp_norm, p=2)
    else:
        face_shapes = [tuple(m + (b == a) for b, m in enumerate(shape)) for a in range(dim)]
        fields = [StaggeredVectorField(g, tuple(values(fs) for fs in face_shapes))
                  for _ in range(n)]
        norm = staggered_l2
    s = StepTimeSeries((0.0, data.draw(st.floats(0.5, 4.0))), fields)
    assert all(a is b for a, b in zip(shifted(s, 0).fields, s.fields))
    j = data.draw(st.integers(0, n))
    lagged = shifted(s, j)
    for k, f in enumerate(lagged.fields):
        if k < j:
            assert norm(f) == 0.0
        else:
            assert f is s.fields[k - j]
    kept = np.sqrt(s.delta * sum(norm(f) ** 2 for f in s.fields[:n - j]))
    assert series_l2(lagged) == pytest.approx(kept, rel=1e-12, abs=0.0)
    domains = [RasterDomain(g, data.draw(hnp.arrays(bool, shape)))
               for _ in range(n)]
    on_slices = np.sqrt(s.delta * sum(norm(f.restricted(d)) ** 2
                                      for f, d in zip(s.fields, domains)))
    assert series_l2(s, domains) == pytest.approx(on_slices, rel=1e-12, abs=0.0)
    assert series_l2(s, domains) == series_l2(s.restricted(domains))


def test_streamed_budget_lines_equal_series_form(ns_setup):
    # oracle: every shifted difference as a whole series, then `series_l2`
    # over the window; the streamed lines must be the same floats
    nc, members, delta_list, _, compact = ns_setup
    n = nc.n_slices
    u = members[0].restricted([nc.slice_raster(k) for k in range(n)])
    delta = delta_list[0]
    mol = make_mollifier(round(1.0 / delta), GRID)
    v = u.map(lambda f: convolve_staggered(f, mol))
    pu = per_slice_project([v], nc, 2.0 * delta)[0].projected
    nowhere = RasterDomain(GRID, np.zeros(GRID.shape, dtype=bool))
    for j, j_window in ((1, 1), (1, 4), (2, 4), (4, 4), (3, 7)):
        window = [nowhere] * j_window + [compact] * (n - j_window)
        diffs = [shifted(f, j) - f for f in (u - v, v - pu, pu)]
        total = shifted(u, j) - u
        want = [series_l2(d, window) for d in (*diffs, total)]
        want.append(series_l2(diffs[0] + diffs[1] + diffs[2] - total, window))
        got = shift_budget_lines(u, v, pu, j, j_window, compact)
        assert got == want, (j, j_window)
        assert min(got[:4]) > 0 and got[4] < 1e-12 * got[3]
    # no shift, or one that reaches back before slice 0 from the window start
    for j, first in ((5, 4), (0, 4)):
        with pytest.raises(ValueError, match="shift j"):
            shift_budget_lines(u, v, pu, j, first, compact)


@pytest.mark.parametrize("n_slices,n", [(16, 2), (16, 4), (24, 3), (48, 4)])
def test_shift_by_a_whole_period_of_the_oscillating_family_is_exactly_zero(n_slices, n):
    # sin(2 pi n t) repeats after N/n slices, and so do its reduced
    # coefficients, bit for bit: every shifted difference inside the window
    # (no slice before the shift) is exact zero
    g = Grid((16, 16), (1.0, 1.0))
    rng = generator(n_slices + n)
    u, v, pu = (oscillating_family(random_stream_velocity(g, rng), INTERVAL, n_slices, [n])[0]
                for _ in range(3))
    j = n_slices // n
    full = RasterDomain.full(g)
    assert shift_budget_lines(u, v, pu, j, j, full) == [0.0] * 5
    assert min(shift_budget_lines(u, v, pu, j // 2, j, full)[:4]) > 0


def test_ns_probe_traced_peak_holds_few_series():
    # the second call, with the rasters already cached in `nc`: the members'
    # restricted copies and the mollified and projected families are held
    # whole (9 series), every field derived from them one slice at a time
    radius, cx, cy = 0.41, 0.48, 0.75
    nc = _moving_disk((radius, cx, cy), 8)
    members = translating_disk_ns_family(BUDGET_GRID, INTERVAL, 8, 3, (cx, cy), radius,
                                         BUDGET_VELOCITY, stream_fraction=0.55)
    series_bytes = sum(c.nbytes for f in members[0].fields for c in f.components)
    delta_list = [1 / 8, 1 / 16]
    compact = nc.compact_core(2 * max(delta_list))
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            rep = ns_probe(members, nc, delta_list, [1, 2], compact)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert rep.rows
    # whole shifted series in the budget loop took about 19 series
    assert peaks[1] < 16 * series_bytes, peaks[1] / series_bytes


@settings(max_examples=6, deadline=None)
@given(DISKS)
def test_ns_budget_adds_up_on_random_disks(disk):
    radius, cx, cy = disk
    nc = _moving_disk(disk, 8)
    members = translating_disk_ns_family(BUDGET_GRID, INTERVAL, 8, 3, (cx, cy), radius,
                                         BUDGET_VELOCITY, stream_fraction=0.55)
    delta_list = [1 / 8, 1 / 16]
    compact = nc.compact_core(2 * max(delta_list))
    assert compact.n_inside > 0
    rep = ns_probe(members, nc, delta_list, [1, 2], compact)
    assert rep.rows and rep.budget_defect <= 1e-10


def test_ns_probe_oscillating_negative(ns_setup):
    _, _, delta_list, j_list, _ = ns_setup
    n_slices = 16
    fam = make_family("identity", INTERVAL)
    ref = make_domain("disk:0.3", GRID)
    nc = NonCylindricalDomain(fam, ref, n_slices)
    members = oscillating_family(disk_bump_velocity(GRID, (0.5, 0.5), 0.55 * 0.3),
                                 INTERVAL, n_slices, [2, 4, 8])
    rep = ns_probe(members, nc, delta_list, j_list, nc.compact_core(2 * max(delta_list)),
                   battery_seed=0)
    assert not rep.verdict
    assert any("dual bound violated" in f for f in rep.failures)
    for delta in delta_list:
        c3 = rep.step3_constants[delta]
        assert all(b / a >= 1.8 for a, b in zip(c3[:-1], c3[1:]))


def test_ns_probe_compact_escape_rejected(ns_setup):
    nc, members, delta_list, j_list, _ = ns_setup
    too_big = make_domain("disk:0.29", GRID, center=(0.5 - 0.15 / 2, 0.5))
    with pytest.raises(ValueError):
        ns_probe(members, nc, delta_list, j_list, too_big)


def test_ns_probe_csv_schema(ns_setup, tmp_path):
    nc, members, delta_list, j_list, compact = ns_setup
    rep = ns_probe(members[:2], nc, [delta_list[0]], j_list[:1], compact)
    path = tmp_path / "ns.csv"
    path.write_text(_csv_text(rep.columns, [astuple(r) for r in rep.rows]))
    assert path.read_text().splitlines()[0] == "n,delta,s,step1,step3,line1,line2,line3,total"


def test_interpolation_inequality(ns_setup):
    # ||u||_r <= ||u||_2^{1-theta} ||u||_q^theta with 1/r = theta/q + (1-theta)/2,
    # the interpolation that sets ns_probe's Step-1 exponent r
    nc, members, _, _, _ = ns_setup
    domains = [nc.slice_raster(k) for k in range(nc.n_slices)]
    r, q = 2.5, 3.0
    theta = (0.5 - 1.0 / r) / (0.5 - 1.0 / q)
    for s in members[:2]:
        u = s.restricted(domains)
        bound = series_lp(u, 2) ** (1.0 - theta) * series_lp(u, q) ** theta
        assert bound - series_lp(u, r) >= -1e-8 * (bound + 1.0)


def test_step3_constant_matched_battery_scaling():
    # square-wave members have uniform jumps, so the matched alternating
    # battery member sees the dual constant scale with the jump count
    u0 = disk_bump_velocity(GRID, (0.5, 0.5), 0.2)
    battery = make_battery(GRID, INTERVAL, 32, seed=5)
    mids = (np.arange(32) + 0.5) / 32
    c_prev = None
    for n in (4, 8, 16):
        coefs = np.sign(np.sin(2 * np.pi * n * mids))
        series = StepTimeSeries(INTERVAL, tuple(u0 * float(c) for c in coefs))
        c, _ = step3_dual_constant(series, battery)
        if c_prev is not None:
            assert c / c_prev >= 1.8
        c_prev = c


def _brute_force_dual_ratio(series, battery, space_norm):
    """The battery's best ratio and its label, each (space, profile) pair
    paired from scratch, spaces outermost, the first maximum kept."""
    pair = inner if isinstance(battery.spaces[0], ScalarField) else staggered_inner
    best, best_label = 0.0, None
    for si, space in enumerate(battery.spaces):
        for label, time_values, time_l2 in battery.profiles:
            pairings = np.asarray([pair(series.fields[k] - series.fields[k - 1], space)
                                   for k in range(1, series.n_steps)])
            ratio = abs(float(np.dot(time_values, pairings))) / (time_l2 * space_norm(space))
            if ratio > best:
                name, params = label.split("[", 1)
                best, best_label = ratio, f"{name}[s{si},{params}"
    return best, best_label


def test_best_dual_ratio_matches_brute_force():
    n_steps = 16
    battery = make_battery(GRID, INTERVAL, n_steps, seed=7)
    mids = (np.arange(n_steps) + 0.5) / n_steps
    kinds = set()
    # a series on the j-th spatial factor is best met by that factor
    for j, coefs in ((2, np.sign(np.sin(8 * np.pi * mids))), (1, (mids > 0.5) * 1.0),
                     (0, np.exp(-((mids - 0.5) / 0.2) ** 2))):
        series = StepTimeSeries(INTERVAL, tuple(battery.spaces[j] * float(c) for c in coefs))
        best, label = step3_dual_constant(series, battery)
        assert (best, label) == _brute_force_dual_ratio(series, battery, staggered_l2)
        assert f"[s{j}," in label
        kinds.add(label.split("[")[0])
        # on a tie the first space wins
        twice = Battery([battery.spaces[j]] * 2, battery.profiles)
        assert step3_dual_constant(series, twice) == (best, label.replace(f"[s{j},", "[s0,"))
    assert kinds == {"alt", "bump"}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_series_norms_on_slice_rasters_equal_restricted_copies(data):
    # the slice rasters differ from the fields' own masks; measuring over them
    # directly must add the same values as the restricted copy does
    dim = data.draw(st.integers(1, 2))
    shape = tuple(data.draw(st.integers(1, 24)) for _ in range(dim))
    g = Grid(shape, tuple(data.draw(st.floats(0.25, 4.0)) for _ in range(dim)))
    n = data.draw(st.integers(1, 5))
    # values spread over six decades, so that a sum regrouped differently
    # (over fewer terms, say) would round differently
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))

    def raster():
        return RasterDomain(g, data.draw(hnp.arrays(bool, shape)))

    def values(array_shape):
        return rng.standard_normal(array_shape) * 10.0 ** rng.uniform(-3, 3, array_shape)

    if data.draw(st.booleans()):
        fields = [ScalarField(g, values(shape), mask=raster()) for _ in range(n)]
    else:
        faces = [shape[:a] + (shape[a] + 1,) + shape[a + 1:] for a in range(dim)]
        fields = [StaggeredVectorField(g, tuple(values(fs) for fs in faces), mask=raster())
                  for _ in range(n)]
    s = StepTimeSeries((0.0, data.draw(st.floats(0.5, 4.0))), fields)
    domains = [raster() for _ in range(n)]
    copy = s.restricted(domains)
    assert series_l2(s, domains) == series_l2(copy)
    # a field on its own raster is not copied again
    assert all(f.restricted(d) is f for f, d in zip(copy.fields, domains))
