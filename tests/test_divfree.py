import tracemalloc

import numpy as np
import pytest
import scipy.ndimage
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from compactness_lab import cli, divfree
from compactness_lab.divfree import (BoundaryData, dual_norm_check,
                                     face_measure, neumann_factor,
                                     neumann_harmonic, normal_trace,
                                     per_slice_project, project_divfree0)
from compactness_lab.grid import (Grid, RasterDomain, ScalarField,
                                  StaggeredVectorField, divergence, gradient,
                                  neumann_laplacian, staggered_inner,
                                  staggered_l2)
from compactness_lab.movedom import (NonCylindricalDomain, make_domain,
                                     make_family, poincare_constant)
from compactness_lab.parabolic import StepTimeSeries, series_l2
from compactness_lab.synth import (curl_velocity, disk_bump_velocity,
                                   generator, random_stream_velocity,
                                   translating_disk_ns_family)


GRID = Grid((64, 64), (1.0, 1.0))
FULL = RasterDomain.full(GRID)
FULL_FACTOR = neumann_factor(FULL)


def _domain(spec):
    """The raster named by `spec`: the box for None, `annulus:r0:r1` for a
    centred annulus (a raster with a hole, where a zero-trace div-free field
    can circulate around it), else a `make_domain` preset."""
    if spec is None:
        return FULL
    kind, *radii = spec.split(":")
    if kind != "annulus":
        return make_domain(spec, GRID)
    r0, r1 = map(float, radii)

    def annulus_sdf(pts):
        rho = np.linalg.norm(pts - 0.5, axis=1)
        return np.minimum(rho - r0, r1 - rho)

    return RasterDomain.from_sdf(GRID, annulus_sdf)


def interior_dirichlet_energy(v, domain):
    """Interior-face Dirichlet energy <grad v, grad v> (the variational one)."""
    g = gradient(v.restricted(domain))
    return staggered_inner(g, g)


def test_normal_trace_constant_field():
    u = StaggeredVectorField.constant(GRID, (1.0, 0.0))
    tr = normal_trace(u, FULL)
    assert np.all(tr.values[0][-1, :] == 1.0)   # right edge, outward +x
    assert np.all(tr.values[0][0, :] == -1.0)   # left edge, outward -x
    assert np.max(np.abs(tr.values[1])) == 0.0  # top and bottom carry no flux
    assert abs(tr.total_flux()) < 1e-12


def test_normal_trace_zero_boundary_field():
    u = disk_bump_velocity(GRID, (0.5, 0.5), 0.3)
    tr = normal_trace(u, FULL)
    assert all(np.max(np.abs(v)) == 0.0 for v in tr.values)


def test_divergence_theorem_for_divfree_fields():
    rng = generator(3)
    for _ in range(5):
        u = random_stream_velocity(GRID, rng)
        tr = normal_trace(u, FULL)
        assert abs(tr.total_flux()) <= 1e-12 * tr.abs_flux()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stream_velocity_divergence_is_round_off(data):
    # the differences of the corner stream cancel exactly, but each face value
    # is a rounded quotient, so the divergence is round-off in ||u||, not 0.0
    shape = tuple(data.draw(st.integers(2, 39)) for _ in range(2))
    extent = tuple(data.draw(st.floats(0.25, 4.0)) for _ in range(2))
    g = Grid(shape, extent)
    u = random_stream_velocity(g, generator(data.draw(st.integers(0, 2 ** 32 - 1))))
    div = float(np.max(np.abs(divergence(u).values)))
    assert min(g.spacing) * div <= 1e-13 * staggered_l2(u)


def test_incompatible_neumann_data_rejected():
    vals = [np.zeros((65, 64)), np.zeros((64, 65))]
    vals[0][-1, :] = 1.0  # net outflow, nothing in
    g = BoundaryData(FULL, tuple(vals))
    with pytest.raises(ValueError):
        neumann_harmonic(g, FULL, FULL_FACTOR)


def test_neumann_harmonic_zero_data():
    zero = BoundaryData(FULL, (np.zeros((65, 64)), np.zeros((64, 65))))
    v = neumann_harmonic(zero, FULL, FULL_FACTOR)
    assert np.max(np.abs(v.values)) == 0.0


def test_neumann_harmonic_linear_closed_form():
    u = StaggeredVectorField.constant(GRID, (1.0, 0.0))
    v = neumann_harmonic(normal_trace(u, FULL), FULL, FULL_FACTOR)
    expected = np.tile((GRID.axis_centers(0) - 0.5)[:, None], (1, 64))
    assert np.max(np.abs(v.values - expected)) <= 1e-8
    assert abs(float(v.values.mean())) <= 1e-12


def test_neumann_harmonic_green_identity():
    rng = generator(5)
    u = random_stream_velocity(GRID, rng)
    g = normal_trace(u, FULL)
    v = neumann_harmonic(g, FULL, FULL_FACTOR)
    energy = interior_dirichlet_energy(v, FULL)
    fm = [face_measure(GRID, a) for a in range(2)]
    s = ((np.sum(g.values[0][-1, :] * v.values[-1, :])
          + np.sum(g.values[0][0, :] * v.values[0, :])) * fm[0]
         + (np.sum(g.values[1][:, -1] * v.values[:, -1])
            + np.sum(g.values[1][:, 0] * v.values[:, 0])) * fm[1])
    assert energy == pytest.approx(s, rel=1e-8)


@pytest.mark.parametrize("spec", [None, "disk:0.35", "annulus:0.15:0.4"])
def test_neumann_harmonic_solves_discrete_problem(spec):
    dom = _domain(spec)
    u = random_stream_velocity(GRID, generator(11)).restricted(dom)
    v = neumann_harmonic(normal_trace(u, dom), dom, neumann_factor(dom))
    # right-hand side: divergence of the boundary faces of u, the prescribed flux
    flux = StaggeredVectorField(GRID, tuple(
        np.where(boundary, c, 0.0)
        for (_, boundary, _), c in zip(dom.face_masks, u.components)))
    b = divergence(flux).values[dom.inside]
    b = b - b.mean()
    L = neumann_laplacian(dom)
    sol = v.values[dom.inside]
    assert np.linalg.norm(L @ sol - b) <= 1e-12 * np.linalg.norm(b)
    assert abs(sol.mean()) <= 1e-14 * np.max(np.abs(sol))


def test_neumann_harmonic_single_cell_is_zero():
    g1 = Grid((1,), (1.0,))
    one = RasterDomain.full(g1)
    u = StaggeredVectorField.constant(g1, (1.0,))
    assert np.all(neumann_harmonic(normal_trace(u, one), one, neumann_factor(one)).values == 0.0)
    mem = np.zeros((4, 4), bool)
    mem[2, 1] = True
    cell = RasterDomain(Grid((4, 4), (1.0, 1.0)), mem)
    u = StaggeredVectorField.constant(cell.grid, (1.0, -2.0))
    assert np.all(neumann_harmonic(normal_trace(u, cell), cell, neumann_factor(cell)).values == 0.0)


def test_neumann_harmonic_disconnected_rejected():
    g = Grid((8,), (1.0,))
    mem = np.zeros(8, bool)
    mem[1] = mem[6] = True
    with pytest.raises(ValueError, match="connected"):
        neumann_factor(RasterDomain(g, mem))


def test_factor_refuses_another_raster():
    disk = make_domain("disk:0.35", GRID)
    u = random_stream_velocity(GRID, generator(31))
    factor = neumann_factor(FULL)
    with pytest.raises(ValueError, match="another raster"):
        neumann_harmonic(normal_trace(u.restricted(disk), disk), disk, factor)
    with pytest.raises(ValueError, match="another raster"):
        project_divfree0(u.restricted(disk), disk, factor)
    # same cells, other extents: another operator
    wide = RasterDomain.full(Grid((64, 64), (2.0, 1.0)))
    with pytest.raises(ValueError, match="another raster"):
        dual_norm_check(random_stream_velocity(wide.grid, generator(31)), wide, 0.3, factor)
    # an equal raster built separately is the same raster
    again = RasterDomain.full(GRID)
    assert np.array_equal(project_divfree0(u, again, factor).components[0],
                          project_divfree0(u, FULL, neumann_factor(FULL)).components[0])


def test_projection_fixes_zero_trace_fields():
    u = disk_bump_velocity(GRID, (0.5, 0.5), 0.3)
    pu = project_divfree0(u, FULL, FULL_FACTOR)
    assert staggered_l2(pu - u) <= 1e-10 * staggered_l2(u)


def test_projection_kills_gradient_field():
    u = StaggeredVectorField.constant(GRID, (1.0, 0.0))
    pu = project_divfree0(u, FULL, FULL_FACTOR)
    assert staggered_l2(pu) <= 1e-8
    assert staggered_l2(u) == pytest.approx(1.0, abs=1e-12)


def test_projection_residuals_and_pythagoras():
    rng = generator(7)
    h = min(GRID.spacing)
    for _ in range(10):
        u = random_stream_velocity(GRID, rng)
        scale = staggered_l2(u)
        assert np.max(np.abs(divergence(u).values)) <= 1e-12 * scale / h
        rep = dual_norm_check(u, FULL, 0.5, FULL_FACTOR)
        pyth = abs(rep.l2 ** 2 - rep.seminorm ** 2 - rep.surrogate ** 2) / rep.l2 ** 2
        assert pyth <= 1e-8
        pu = project_divfree0(u, FULL, FULL_FACTOR)
        assert np.max(np.abs(divergence(pu).values)) <= 1e-10 * scale / h
        tr = normal_trace(pu, FULL)
        assert max(np.max(np.abs(v)) for v in tr.values) <= 1e-10 * scale


def test_projection_idempotent_and_self_adjoint():
    rng = generator(11)
    u = random_stream_velocity(GRID, rng)
    w = random_stream_velocity(GRID, rng)
    pu = project_divfree0(u, FULL, FULL_FACTOR)
    pw = project_divfree0(w, FULL, FULL_FACTOR)
    assert staggered_l2(project_divfree0(pu, FULL, FULL_FACTOR) - pu) <= 1e-8 * staggered_l2(u)
    scale = staggered_l2(u) * staggered_l2(w)
    assert abs(staggered_inner(pu, w) - staggered_inner(u, pw)) <= 1e-8 * scale
    # orthogonality of the removed part against the zero-trace space
    resid = u - pu
    assert abs(staggered_inner(resid, pw)) <= 1e-8 * scale


def _random_raster_fields(data, n):
    """The largest connected component of a random raster on a grid of random,
    mostly non-square cells, and `n` random div-free face fields on it."""
    shape = tuple(data.draw(st.integers(2, 14)) for _ in range(2))
    extent = tuple(data.draw(st.floats(0.25, 4.0)) for _ in range(2))
    cells = data.draw(hnp.arrays(bool, shape).filter(np.any))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    labels, _ = scipy.ndimage.label(cells)
    largest = np.argmax(np.bincount(labels[cells]))
    g = Grid(shape, extent)
    dom = RasterDomain(g, labels == largest)
    rng = np.random.default_rng(seed)
    return dom, [curl_velocity(g, rng.normal(size=(shape[0] + 1, shape[1] + 1))).restricted(dom)
                 for _ in range(n)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_projection_idempotent_and_self_adjoint_on_random_masks(data):
    dom, (u, w) = _random_raster_fields(data, 2)
    factor = neumann_factor(dom)
    pu, pw = project_divfree0(u, dom, factor), project_divfree0(w, dom, factor)
    scale = staggered_l2(u) * staggered_l2(w) + 1e-300
    ppu = project_divfree0(pu, dom, factor)
    assert staggered_l2(ppu - pu) <= 1e-12 * staggered_l2(u)
    assert abs(staggered_inner(pu, w) - staggered_inner(u, pw)) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_projected_field_has_exactly_zero_normal_trace_on_random_masks(data):
    # `harmonic_gradient` writes u's own component on every boundary face, so
    # the trace of P u = u - grad v is exact zero, not round-off
    dom, (u,) = _random_raster_fields(data, 1)
    trace = normal_trace(project_divfree0(u, dom, neumann_factor(dom)), dom)
    assert all(np.all(v == 0.0) for v in trace.values)


def test_projection_of_a_projection_on_the_l_shaped_raster():
    # the zero-trace div-free space of these three cells is {0}, so P u is
    # round-off, and so is its divergence relative to its own norm
    g = Grid((2, 2), (1.0, 1.0))
    dom = RasterDomain(g, np.array([[False, True], [True, True]]))
    factor = neumann_factor(dom)
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = curl_velocity(g, rng.normal(size=(3, 3)))
        pu = project_divfree0(u, dom, factor)
        assert staggered_l2(pu) <= 1e-14 * staggered_l2(u)
        assert staggered_l2(project_divfree0(pu, dom, factor) - pu) <= 1e-12 * staggered_l2(u)


def test_projection_with_a_non_harmonic_extension_raises(monkeypatch):
    real = divfree.neumann_harmonic
    x, y = np.meshgrid(*(GRID.axis_centers(a) for a in range(2)), indexing="ij")
    bump = 1e-3 * np.sin(np.pi * x) * np.sin(np.pi * y)

    def not_harmonic(g_data, domain, factor):
        v = real(g_data, domain, factor)
        return ScalarField(domain.grid, v.values + bump, mask=domain)

    u = random_stream_velocity(GRID, generator(3))
    project_divfree0(u, FULL, FULL_FACTOR)
    monkeypatch.setattr(divfree, "neumann_harmonic", not_harmonic)
    with pytest.raises(RuntimeError, match="divergence residual"):
        project_divfree0(u, FULL, FULL_FACTOR)
    with pytest.raises(RuntimeError, match="divergence residual"):
        dual_norm_check(u, FULL, 1.0, FULL_FACTOR)


def test_dual_seminorm_witness():
    c = poincare_constant(FULL)
    u = StaggeredVectorField.constant(GRID, (1.0, 0.0))
    assert dual_norm_check(u, FULL, c, FULL_FACTOR).seminorm <= 1e-8
    z = disk_bump_velocity(GRID, (0.5, 0.5), 0.3)
    assert dual_norm_check(z, FULL, c, FULL_FACTOR).seminorm == pytest.approx(
        staggered_l2(z), rel=1e-10)


def test_dual_norm_check_sweep():
    sq = RasterDomain.full(Grid((48, 48), (1.0, 1.0)))
    c, factor = poincare_constant(sq), neumann_factor(sq)
    rng = generator(13)
    for _ in range(25):
        u = random_stream_velocity(sq.grid, rng)
        rep = dual_norm_check(u, sq, c, factor)
        assert rep.slack >= -1e-8 * rep.l2


def test_divfree_slack_column_from_its_row(default_runs):
    # oracle: on every field row of the default `divfree` report,
    # slack = seminorm + (1 + C) surrogate - l2, C = 1/sqrt(lambda_1) with the
    # closed-form first nonzero Neumann eigenvalue of the n x n unit-square
    # raster, lambda_1 = (4/h^2) sin^2(pi/(2n))
    out, codes = default_runs
    assert codes["divfree"] == 0
    n = 64
    c = 1.0 / np.sqrt(4.0 * n ** 2 * np.sin(np.pi / (2 * n)) ** 2)
    rows = [line.split(",") for line in
            (out / "divfree" / "report.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == [str(i) for i in range(100)] + ["witness"]
    for r in rows[:-1]:
        l2, seminorm, surrogate, slack = (float(r[i]) for i in (1, 2, 3, 7))
        scale = l2 + seminorm + (1.0 + c) * surrogate
        assert abs(slack - (seminorm + (1.0 + c) * surrogate - l2)) <= 1e-10 * scale


def test_trace_continuity_surrogate():
    # surrogate trace norm <= (1 + C_Omega) ||u||_2 on random fields (in fact
    # the discrete harmonic energy is bounded by ||u||_2 with constant 1)
    c = poincare_constant(FULL)
    rng = generator(23)
    for _ in range(10):
        u = random_stream_velocity(GRID, rng)
        surrogate = dual_norm_check(u, FULL, c, FULL_FACTOR).surrogate
        assert surrogate <= (1.0 + c) * staggered_l2(u) * (1 + 1e-12)


def test_trace_surrogate_cases():
    c = poincare_constant(FULL)
    zero = StaggeredVectorField.constant(GRID, (0.0, 0.0))
    assert dual_norm_check(zero, FULL, c, FULL_FACTOR).surrogate == 0.0
    u = StaggeredVectorField.constant(GRID, (1.0, 0.0))
    val = dual_norm_check(u, FULL, c, FULL_FACTOR).surrogate
    assert val == pytest.approx(1.0, abs=0.02)  # ||grad(x - 1/2)|| = 1 + O(h)
    double = dual_norm_check(u * 2.0, FULL, c, FULL_FACTOR).surrogate
    assert double == pytest.approx(2.0 * val, rel=1e-10)


def _pythagoras_defect(series, out, nc, eps):
    """max over slices of | ||u||^2 - ||P u||^2 - surrogate^2 | / ||u||^2, u the
    slice on its A_t(Omega_eps) raster: P u and grad v are orthogonal."""
    worst = 0.0
    for k, (u, pu, surr) in enumerate(zip(series.fields, out.projected.fields,
                                          out.slice_surrogates)):
        lhs = staggered_l2(u.restricted(nc.transported(k, eps))) ** 2
        worst = max(worst, abs(lhs - staggered_l2(pu) ** 2 - surr ** 2) / (lhs + 1e-300))
    return worst


def test_per_slice_static_matches_single_slice():
    disk = make_domain("disk:0.35", GRID)
    nc = NonCylindricalDomain(make_family("identity", (0.0, 1.0)), disk, 4)
    rng = generator(17)
    u = random_stream_velocity(GRID, rng)
    series = StepTimeSeries((0.0, 1.0), (u,) * 4)
    [out] = per_slice_project([series], nc, 0.05)
    d = nc.transported(0, 0.05)
    single = project_divfree0(u.restricted(d), d, neumann_factor(d))
    for f in out.projected.fields:
        assert staggered_l2(f - single) <= 1e-9 * staggered_l2(u)
    assert _pythagoras_defect(series, out, nc, 0.05) <= 1e-8


def test_per_slice_zero_trace_is_identity():
    disk = make_domain("disk:0.4", GRID)
    nc = NonCylindricalDomain(make_family("identity", (0.0, 1.0)), disk, 3)
    u = disk_bump_velocity(GRID, (0.5, 0.5), 0.2)
    series = StepTimeSeries((0.0, 1.0), (u,) * 3)
    [out] = per_slice_project([series], nc, 0.02)
    for f, orig in zip(out.projected.fields, series.fields):
        d = nc.transported(0, 0.02)
        assert staggered_l2(f - orig.restricted(d)) <= 1e-9 * staggered_l2(u)
    assert out.spacetime_trace_norm <= 1e-10


def test_per_slice_moving_disk_pythagoras():
    speed = 0.1
    fam = make_family("translation", (0.0, 1.0), velocity=(speed, 0.0))
    disk = make_domain("disk:0.3", GRID, center=(0.45, 0.5))
    nc = NonCylindricalDomain(fam, disk, 6)
    members = translating_disk_ns_family(GRID, (0.0, 1.0), 6, 1, (0.45, 0.5), 0.3,
                                         (speed, 0.0), stream_fraction=0.8)
    # the bump's surrogate is negligible against its norm; a constant flow
    # crosses every slice's boundary, so its surrogate is a share of ||u||^2
    flow = StepTimeSeries((0.0, 1.0), (StaggeredVectorField.constant(GRID, (1.0, 0.0)),) * 6)
    outs = per_slice_project([members[0], flow], nc, 0.04)
    for series, out in zip((members[0], flow), outs):
        assert _pythagoras_defect(series, out, nc, 0.04) <= 1e-8
        st = np.sqrt(series.delta * sum(s ** 2 for s in out.slice_surrogates))
        assert out.spacetime_trace_norm == pytest.approx(st, rel=1e-12)
    assert min(outs[1].slice_surrogates) > 0.1 * staggered_l2(flow.fields[0].restricted(
        nc.transported(0, 0.04)))


def test_per_slice_grouped_equals_single_series(monkeypatch):
    fam = make_family("translation", (0.0, 1.0), velocity=(0.1, 0.0))
    disk = make_domain("disk:0.3", GRID, center=(0.45, 0.5))
    nc = NonCylindricalDomain(fam, disk, 4)
    members = translating_disk_ns_family(GRID, (0.0, 1.0), 4, 3, (0.45, 0.5), 0.3,
                                         (0.1, 0.0), stream_fraction=0.8)
    singles = [per_slice_project([s], nc, 0.04)[0] for s in members]
    builds = []
    monkeypatch.setattr(divfree, "neumann_factor",
                        lambda d, build=divfree.neumann_factor: builds.append(d) or build(d))
    grouped = per_slice_project(members, nc, 0.04)
    assert len(builds) == nc.n_slices
    assert len(grouped) == len(members)
    for s, out, single in zip(members, grouped, singles):
        for f, h in zip(out.projected.fields, single.projected.fields):
            assert all(np.array_equal(a, b) for a, b in zip(f.components, h.components))
        assert out.slice_surrogates == single.slice_surrogates
        assert out.spacetime_trace_norm == single.spacetime_trace_norm
        assert _pythagoras_defect(s, out, nc, 0.04) <= 1e-8
    short = StepTimeSeries((0.0, 1.0), members[0].fields[:2])
    with pytest.raises(ValueError, match="slice counts differ"):
        per_slice_project([members[0], short], nc, 0.04)


def test_face_series_l2_masked():
    disk = make_domain("disk:0.3", GRID)
    u = StaggeredVectorField.constant(GRID, (1.0, 0.0))
    s = StepTimeSeries((0.0, 1.0), (u, u))
    full_norm = series_l2(s)
    masked = series_l2(s, [disk, disk])
    assert masked < full_norm


def test_divfree_run_traced_peak_does_not_grow_with_n_fields():
    # each field is drawn, checked and dropped; only the pair_checks + 1
    # fields and projections the pair checks read are kept
    field_bytes = sum(c.nbytes for c in random_stream_velocity(Grid((16, 16), (1.0, 1.0)),
                                                               generator(0)).components)
    peaks = {}
    for n_fields in (10, 40, 10, 40):
        cfg = {"grid": 16, "n_fields": n_fields, "residual_tol": 1e-8, "pair_checks": 2}
        tracemalloc.start()
        try:
            _, rows, failures = cli._exp_divfree(cfg, 0, None)
            peaks[n_fields] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == n_fields + 1 and not failures
    # holding every field and projection grew the peak by about 68 fields
    assert peaks[40] < peaks[10] + 10 * field_bytes, (peaks, field_bytes)
