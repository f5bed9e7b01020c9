from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from compactness_lab.cli import _csv_text
from compactness_lab.grid import (Grid, RasterDomain, ScalarField,
                                  StaggeredVectorField, h_minus_m_norm)
from compactness_lab.movedom import NonCylindricalDomain, make_domain, make_family
from compactness_lab.parabolic import (DiffusionTensor, StepTimeSeries,
                                       constant_series, oscillating_series,
                                       run_scheme, series_l2)
from compactness_lab.probe import (dual_time_estimate, interpolation_check,
                                   kruzhkov_probe, local_to_global,
                                   make_battery, ns_probe,
                                   step3_dual_constant, limsup_probe,
                                   time_shift_safety)
from compactness_lab.productlimit import smoothstep
from compactness_lab.synth import (boundary_bump_family, disk_bump_velocity,
                                   generator, oscillating_ns_family,
                                   oscillating_scalar_family,
                                   perturbation_scalar_family,
                                   random_smooth_field,
                                   translating_disk_ns_family)
from compactness_lab.truncate import nonlinearity_preset


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
    fam = oscillating_scalar_family(base, INTERVAL, 8, [1, 2, 4])
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


def test_local_to_global_supported_family(moving_disk):
    ref = moving_disk.reference
    inner = ScalarField(GRID, np.where(ref.signed_distance > 0.25, 1.0, 0.0), mask=ref)
    rep = local_to_global([constant_series(inner, INTERVAL, 4)],
                          NonCylindricalDomain(moving_disk.family, ref, 4),
                          [0.05, 0.1, 0.2])
    assert rep.sup_direct[0.05] == 0.0 and rep.sup_direct[0.1] == 0.0


def test_local_to_global_smooth_family_decays(moving_disk, scalar_fields):
    base, pert = scalar_fields
    ref = moving_disk.reference
    nc = NonCylindricalDomain(moving_disk.family, ref, 4)
    cut = ScalarField(GRID, smoothstep(ref.signed_distance / 0.12), mask=ref)
    fam = [StepTimeSeries(INTERVAL, ((base + (1.0 / n) * pert) * cut,) * 4)
           for n in range(1, 5)]
    rep = local_to_global(fam, nc, [0.05, 0.1, 0.2])
    assert rep.verdict, (rep.sup_direct, rep.mechanism_ok)
    assert rep.max_mechanism_slack <= 1e-9


def test_local_to_global_concentrating_family_flagged(moving_disk):
    ref = moving_disk.reference
    nc = NonCylindricalDomain(moving_disk.family, ref, 4)
    fam = boundary_bump_family(ref, INTERVAL, 4, 8)
    rep = local_to_global(fam, nc, [0.05, 0.1, 0.2])
    assert rep.mechanism_ok
    assert not rep.decayed


def test_limsup_constant_family_equality(scalar_fields):
    base, _ = scalar_fields
    dom = RasterDomain.full(GRID)
    phi = nonlinearity_preset("porous:2")
    fam = [constant_series(base, INTERVAL, 8) for _ in range(4)]
    rep = limsup_probe(fam, phi, [0.2, 0.1], 1, dom, base, k_pipeline=8)
    assert rep.verdict, rep.failures
    # all members identical: the pipeline defect is pure rounding
    assert rep.pipeline_defect <= 1e-10
    tails = [row[3] for row in rep.eps_rows]
    assert max(tails) == pytest.approx(min(tails), rel=1e-12)


def test_limsup_convergent_family_positive(scalar_fields):
    base, pert = scalar_fields
    dom = RasterDomain.full(GRID)
    phi = nonlinearity_preset("porous:2")
    fam = [StepTimeSeries(INTERVAL, (base + (1.0 / n) * pert,) * 8) for n in range(1, 7)]
    rep = limsup_probe(fam, phi, [0.2, 0.1], 1, dom, base, k_pipeline=8)
    assert rep.verdict, rep.failures
    for eps, c_meas, bound, tail in rep.eps_rows:
        assert tail <= bound


def test_limsup_oscillating_family_negative(scalar_fields):
    base, _ = scalar_fields
    dom = RasterDomain.full(GRID)
    phi = nonlinearity_preset("porous:2")
    fam = [oscillating_series(base, INTERVAL, n) for n in (4, 8, 16)]
    rep = limsup_probe(fam, phi, [0.2], 1, dom, base * 0.0, k_pipeline=8)
    assert not rep.verdict
    assert any("Step 2" in f for f in rep.failures)
    tv = rep.tv_per_member
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


def test_time_shift_safety_dilation_found():
    ref = make_domain("disk:0.3", GRID)
    fam = make_family("dilation", INTERVAL, amplitude=0.25, center=(0.5, 0.5))
    xi = time_shift_safety(NonCylindricalDomain(fam, ref, 16), 0.05, n_times=64)
    assert xi > 0


def test_battery_and_dual_estimate_cases():
    battery = make_battery(GRID, INTERVAL, 16, seed=3, kind="scalar")
    base = random_smooth_field(GRID, generator(2), modes=3)
    c, _ = dual_time_estimate(constant_series(base, INTERVAL, 16), battery)
    assert c == 0.0
    dom = RasterDomain.full(GRID)
    zero = base * 0.0
    single = StepTimeSeries(INTERVAL, (zero,) * 8 + (base,) * 8)
    c1, _ = dual_time_estimate(single, battery, n_order=1)
    assert c1 <= h_minus_m_norm(base, 1, dom) * (1 + 1e-9)
    assert c1 > 0


def test_dual_estimate_heat_flow_bounded():
    g1 = Grid((128,), (1.0,))
    phi = nonlinearity_preset("identity")
    u0 = ScalarField.from_function(g1, lambda p: np.sin(np.pi * p[:, 0]))
    vals = []
    for n in (16, 32, 64):
        run = run_scheme(u0, n, INTERVAL, DiffusionTensor.identity(), phi, bc="dirichlet0")
        bat = make_battery(g1, INTERVAL, n, seed=3, kind="scalar")
        c, _ = dual_time_estimate(run.series, bat)
        vals.append(c)
    assert max(vals) <= 2.0 * min(vals)


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
    dt = 1.0 / n_slices
    return nc, members, delta_list, [dt, 2 * dt, 4 * dt], nc.compact_core(2 * max(delta_list))


def test_ns_probe_convergent_positive(ns_setup):
    nc, members, delta_list, s_list, compact = ns_setup
    rep = ns_probe(members, nc, delta_list, s_list, compact, battery_seed=0)
    assert rep.verdict, rep.failures
    assert rep.budget_defect <= 1e-10
    # step-1 defect vanishes with delta, and the chain holds with measured constants
    d_first, d_last = max(delta_list), min(delta_list)
    assert rep.step1_sup[d_last] <= 0.6 * rep.step1_sup[d_first] + 1e-8
    assert not any("chain" in f for f in rep.failures)
    # mollification line controlled by delta * ||grad u|| (within the lattice factor)
    assert all(r <= np.sqrt(2) * (1 + 1e-6) for r in rep.moll_bound_ratio.values())


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
    rep = ns_probe(members, nc, delta_list, [1 / 8, 2 / 8], compact)
    assert rep.rows and rep.budget_defect <= 1e-10


def test_ns_probe_oscillating_negative(ns_setup):
    _, _, delta_list, s_list, _ = ns_setup
    n_slices = 16
    fam = make_family("identity", INTERVAL)
    ref = make_domain("disk:0.3", GRID)
    nc = NonCylindricalDomain(fam, ref, n_slices)
    members = oscillating_ns_family(GRID, INTERVAL, n_slices, [2, 4, 8], (0.5, 0.5),
                                    0.3, stream_fraction=0.55)
    rep = ns_probe(members, nc, delta_list, s_list, nc.compact_core(2 * max(delta_list)),
                   battery_seed=0)
    assert not rep.verdict
    assert any("dual bound violated" in f for f in rep.failures)
    for delta in delta_list:
        c3 = rep.step3_constants[delta]
        assert all(b / a >= 1.8 for a, b in zip(c3[:-1], c3[1:]))


def test_ns_probe_compact_escape_rejected(ns_setup):
    nc, members, delta_list, s_list, _ = ns_setup
    too_big = make_domain("disk:0.29", GRID, center=(0.5 - 0.15 / 2, 0.5))
    with pytest.raises(ValueError):
        ns_probe(members, nc, delta_list, s_list, too_big)


def test_ns_probe_csv_schema(ns_setup, tmp_path):
    nc, members, delta_list, s_list, compact = ns_setup
    rep = ns_probe(members[:2], nc, [delta_list[0]], s_list[:1], compact)
    path = tmp_path / "ns.csv"
    path.write_text(_csv_text(rep.columns, [astuple(r) for r in rep.rows]))
    assert path.read_text().splitlines()[0] == "n,delta,s,step1,step3,line1,line2,line3,total"


def test_interpolation_inequality(ns_setup):
    nc, members, _, _, _ = ns_setup
    domains = [nc.slice_raster(k) for k in range(nc.n_slices)]
    for s in members[:2]:
        lr, bound, slack = interpolation_check(s.restricted(domains), 2.5, 3.0)
        assert slack >= -1e-8 * (bound + 1.0)


def test_step3_constant_matched_battery_scaling():
    # square-wave members have uniform jumps, so the matched alternating
    # battery member sees the dual constant scale with the jump count
    u0 = disk_bump_velocity(GRID, (0.5, 0.5), 0.2)
    battery = make_battery(GRID, INTERVAL, 32, seed=5, kind="vector")
    mids = (np.arange(32) + 0.5) / 32
    c_prev = None
    for n in (4, 8, 16):
        coefs = np.sign(np.sin(2 * np.pi * n * mids))
        series = StepTimeSeries(INTERVAL, tuple(u0 * float(c) for c in coefs))
        c, _ = step3_dual_constant(series, battery)
        if c_prev is not None:
            assert c / c_prev >= 1.8
        c_prev = c


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
